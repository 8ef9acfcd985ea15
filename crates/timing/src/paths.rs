//! Path enumeration and slack reporting: the K most-critical paths of a
//! netlist under a chip signature, with per-path choke-gate annotation.
//!
//! Static arrival analysis (see [`crate::sta`]) gives one critical delay;
//! post-silicon debugging of choke points needs the *population* of
//! near-critical paths — which paths a choke gate newly promoted, how much
//! slack the runner-up paths have, and which gates dominate each path's
//! delay. This module provides that view.

use crate::sta::StaticTiming;
use ntc_netlist::{Netlist, Signal};
use ntc_varmodel::ChipSignature;
use std::collections::BinaryHeap;

/// One enumerated path with its delay and the share contributed by each
/// gate.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedPath {
    /// Total path delay, ps.
    pub delay_ps: f64,
    /// Signals from the launching input to the captured output.
    pub signals: Vec<Signal>,
    /// The output this path terminates at.
    pub endpoint: Signal,
}

impl RankedPath {
    /// Gates on this path whose delay multiplier (vs the chip's nominal)
    /// is at least `threshold` — the path's choke gates.
    pub fn choke_gates(&self, sig: &ChipSignature, threshold: f64) -> Vec<Signal> {
        self.signals
            .iter()
            .copied()
            .filter(|s| sig.multiplier(s.index()) >= threshold)
            .collect()
    }

    /// The fraction of this path's delay contributed by its single slowest
    /// gate — near 1.0 means one gate dominates the path (the defining
    /// property of a choke point).
    pub fn dominance(&self, sig: &ChipSignature) -> f64 {
        if self.delay_ps <= 0.0 {
            return 0.0;
        }
        let max_gate = self
            .signals
            .iter()
            .map(|s| sig.delay_ps(s.index()))
            .fold(0.0f64, f64::max);
        max_gate / self.delay_ps
    }

    /// Logic depth (number of real gates) of the path.
    pub fn depth(&self, nl: &Netlist) -> usize {
        self.signals
            .iter()
            .filter(|s| !nl.gate(**s).kind().is_pseudo())
            .count()
    }
}

/// Enumerate the `k` longest register-to-register paths of `nl` under
/// `sig`, in decreasing delay order.
///
/// Enumeration uses the standard deviation-ranked approach: for every
/// output, walk the max-arrival tree of one [`StaticTiming::analyze`]
/// pass, and at each gate optionally branch
/// to the second-best input, priced by the arrival-time sacrifice. A
/// bounded priority queue keeps the cost `O(k · depth · log k)`.
///
/// # Panics
///
/// Panics if the signature does not match the netlist or `k == 0`.
pub fn k_critical_paths(nl: &Netlist, sig: &ChipSignature, k: usize) -> Vec<RankedPath> {
    assert!(k > 0, "need at least one path");
    let sta = StaticTiming::analyze(nl, sig);

    // Partial path state: current frontier signal (walking backwards from
    // an endpoint), accumulated suffix delay, and the signals collected so
    // far (endpoint-first).
    #[derive(Debug)]
    struct Partial {
        // Total delay this partial will realize if completed greedily:
        // arrival(frontier) + suffix.
        score: f64,
        frontier: Signal,
        suffix: f64,
        collected: Vec<Signal>,
    }
    impl PartialEq for Partial {
        fn eq(&self, other: &Self) -> bool {
            // Consistent with the `total_cmp` ordering below (plain `==`
            // would disagree with `Ord` on NaN scores).
            self.score.total_cmp(&other.score).is_eq()
        }
    }
    impl Eq for Partial {}
    impl PartialOrd for Partial {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Partial {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // `total_cmp`: a NaN delay in the signature must not abort
            // path ranking (NaN scores order last, finite scores order
            // exactly as before).
            self.score.total_cmp(&other.score)
        }
    }

    let mut heap: BinaryHeap<Partial> = BinaryHeap::new();
    for &o in nl.outputs() {
        heap.push(Partial {
            score: sta.max_arrival(o.index()),
            frontier: o,
            suffix: 0.0,
            collected: vec![o],
        });
    }

    let mut done: Vec<RankedPath> = Vec::with_capacity(k);
    while let Some(p) = heap.pop() {
        if done.len() >= k {
            break;
        }
        let gate = nl.gate(p.frontier);
        if gate.kind().is_pseudo() {
            // Reached a launching register: the path is complete.
            let mut signals = p.collected.clone();
            signals.reverse();
            let endpoint = *signals.last().expect("nonempty path");
            done.push(RankedPath {
                delay_ps: p.score,
                signals,
                endpoint,
            });
            continue;
        }
        let d = sig.delay_ps(p.frontier.index());
        // Branch into each input, scored by the arrival it realizes. The
        // heap keeps overall exploration best-first; pushing every input
        // (not just best + second-best) is fine at these sizes because the
        // heap is popped at most k·depth times before k completions.
        let mut seen_inputs: Vec<Signal> = Vec::with_capacity(3);
        for &u in gate.inputs() {
            if seen_inputs.contains(&u) {
                continue; // single-input cells repeat their input signal
            }
            seen_inputs.push(u);
            let mut collected = p.collected.clone();
            collected.push(u);
            heap.push(Partial {
                score: sta.max_arrival(u.index()) + d + p.suffix,
                frontier: u,
                suffix: d + p.suffix,
                collected,
            });
        }
    }
    done
}

/// Per-endpoint slack report against a clock period: negative slack means
/// a setup (maximum-timing) violation is possible on that output.
#[derive(Debug, Clone, PartialEq)]
pub struct SlackReport {
    /// (output signal, worst arrival ps, slack ps), sorted by slack
    /// ascending (most critical first).
    pub endpoints: Vec<(Signal, f64, f64)>,
}

impl SlackReport {
    /// Build the report.
    pub fn analyze(nl: &Netlist, sig: &ChipSignature, period_ps: f64) -> Self {
        let sta = StaticTiming::analyze(nl, sig);
        let mut endpoints: Vec<(Signal, f64, f64)> = nl
            .outputs()
            .iter()
            .map(|&o| {
                let a = sta.max_arrival(o.index());
                (o, a, period_ps - a)
            })
            .collect();
        endpoints.sort_by(|x, y| x.2.total_cmp(&y.2));
        SlackReport { endpoints }
    }

    /// Outputs with negative slack (possible setup violations).
    pub fn failing(&self) -> impl Iterator<Item = &(Signal, f64, f64)> {
        self.endpoints.iter().filter(|(_, _, s)| *s < 0.0)
    }

    /// The worst (smallest) slack, ps.
    pub fn worst_slack_ps(&self) -> f64 {
        self.endpoints.first().map(|e| e.2).unwrap_or(f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_netlist::generators::alu::Alu;
    use ntc_netlist::Builder;
    use ntc_varmodel::{Corner, VariationParams};

    #[test]
    fn paths_are_ranked_and_connected() {
        let alu = Alu::new(8);
        let sig = ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), 3);
        let paths = k_critical_paths(alu.netlist(), &sig, 8);
        assert_eq!(paths.len(), 8);
        for w in paths.windows(2) {
            assert!(w[0].delay_ps >= w[1].delay_ps - 1e-9, "decreasing order");
        }
        for p in &paths {
            // Connectivity: each signal drives the next.
            for pair in p.signals.windows(2) {
                assert!(alu.netlist().gate(pair[1]).inputs().contains(&pair[0]));
            }
            // Delay equals the sum of gate delays along the path.
            let sum: f64 = p.signals.iter().map(|s| sig.delay_ps(s.index())).sum();
            assert!((sum - p.delay_ps).abs() < 1e-6, "{sum} vs {}", p.delay_ps);
        }
    }

    #[test]
    fn top_path_matches_static_critical() {
        let alu = Alu::new(8);
        let sig = ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), 5);
        let sta = crate::sta::StaticTiming::analyze(alu.netlist(), &sig);
        let paths = k_critical_paths(alu.netlist(), &sig, 1);
        assert!(
            (paths[0].delay_ps - sta.critical_delay_ps(alu.netlist())).abs() < 1e-6,
            "top enumerated path is the static critical path"
        );
    }

    #[test]
    fn choke_annotation_finds_injected_gate() {
        let mut b = Builder::new();
        let a = b.input("a");
        let g1 = b.not(a);
        let g2 = b.not(g1);
        let g3 = b.not(g2);
        b.output("y", g3);
        let nl = b.finish();
        let mut sig = ChipSignature::nominal(&nl, Corner::NTC);
        sig.inject_choke(&[g2.index()], 10.0);
        let paths = k_critical_paths(&nl, &sig, 1);
        let chokes = paths[0].choke_gates(&sig, 2.0);
        assert_eq!(chokes, vec![g2]);
        // One 10x gate among three: it contributes 10/12 of the delay.
        assert!(paths[0].dominance(&sig) > 0.8);
        assert_eq!(paths[0].depth(&nl), 3);
    }

    #[test]
    fn slack_report_orders_and_flags() {
        let alu = Alu::new(8);
        let sig = ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), 7);
        let sta = crate::sta::StaticTiming::analyze(alu.netlist(), &sig);
        let crit = sta.critical_delay_ps(alu.netlist());
        // Clock below critical: at least one endpoint must fail.
        let report = SlackReport::analyze(alu.netlist(), &sig, crit * 0.9);
        assert!(report.failing().count() >= 1);
        assert!(report.worst_slack_ps() < 0.0);
        // Clock above critical: nothing fails.
        let report = SlackReport::analyze(alu.netlist(), &sig, crit * 1.1);
        assert_eq!(report.failing().count(), 0);
        assert!(report.worst_slack_ps() > 0.0);
        // Sorted ascending by slack.
        for w in report.endpoints.windows(2) {
            assert!(w[0].2 <= w[1].2 + 1e-9);
        }
    }

    #[test]
    fn nan_delay_does_not_panic_path_ranking() {
        // A poisoned signature (NaN gate delay) must not abort the
        // priority-queue ordering — part of the `total_cmp` audit.
        let alu = Alu::new(8);
        let mut sig = ChipSignature::nominal(alu.netlist(), Corner::NTC);
        let victim = alu
            .netlist()
            .gates()
            .iter()
            .position(|g| !g.kind().is_pseudo())
            .expect("alu has logic gates");
        sig.inject_choke(&[victim], f64::NAN);
        let paths = k_critical_paths(alu.netlist(), &sig, 4);
        assert!(!paths.is_empty());
    }

    #[test]
    fn distinct_paths_enumerated() {
        let alu = Alu::new(8);
        let sig = ChipSignature::nominal(alu.netlist(), Corner::NTC);
        let paths = k_critical_paths(alu.netlist(), &sig, 12);
        let unique: std::collections::HashSet<Vec<Signal>> =
            paths.iter().map(|p| p.signals.clone()).collect();
        assert_eq!(unique.len(), paths.len(), "no duplicate paths");
    }
}
