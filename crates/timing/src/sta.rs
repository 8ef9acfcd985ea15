//! Static timing analysis: earliest/latest possible arrival times under a
//! per-chip delay signature, and critical-path extraction.
//!
//! Static analysis is topological and input-independent (every path is
//! assumed sensitizable); the *dynamic* analysis in [`crate::dynamic`]
//! refines this with actual input vectors.
//!
//! # Counters
//!
//! Every [`StaticTiming::analyze`] pass bumps two process-wide counters:
//! the cumulative [`analysis_count`], which regression tests use to pin
//! how often the analysis runs, and the draining `sta_full` count
//! ([`take_sta_full`]), which the delay-oracle stats fold into run
//! telemetry. A [`StaScope`] installed on a thread (see [`set_sta_scope`])
//! additionally receives that thread's `sta_full` increments, so a server
//! running concurrent jobs can bill each one for its own analyses.

use ntc_varmodel::ChipSignature;
use ntc_netlist::{Netlist, Signal};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide count of [`StaticTiming::analyze`] runs, for regression
/// tests that pin how often the (linear but non-free) analysis executes —
/// e.g. that the chip memo pool builds each chip's tables exactly once.
static ANALYSIS_COUNT: AtomicU64 = AtomicU64::new(0);

/// Total [`StaticTiming::analyze`] invocations in this process so far.
pub fn analysis_count() -> u64 {
    ANALYSIS_COUNT.load(Ordering::Relaxed)
}

/// Draining count of full analyses, reset by [`take_sta_full`].
static STA_FULL: AtomicU64 = AtomicU64::new(0);

/// A per-run attribution scope for the `sta_full` counter. While
/// installed on a thread, every analysis that thread runs lands in the
/// scope *in addition to* the process-wide drain.
#[derive(Debug, Default)]
pub struct StaScope {
    sta_full: AtomicU64,
}

impl StaScope {
    /// Full analyses accumulated in this scope so far (non-draining).
    pub fn sta_full(&self) -> u64 {
        self.sta_full.load(Ordering::Relaxed)
    }
}

thread_local! {
    static STA_SCOPE: RefCell<Option<Arc<StaScope>>> = const { RefCell::new(None) };
}

/// Install (or, with `None`, clear) the calling thread's STA attribution
/// scope, returning the previously installed one so callers can restore
/// it. Install the same `Arc` on every worker thread of a run to
/// aggregate across them.
pub fn set_sta_scope(scope: Option<Arc<StaScope>>) -> Option<Arc<StaScope>> {
    STA_SCOPE.with(|s| s.replace(scope))
}

/// Drain the process-wide `sta_full` count: full analyses since the last
/// call. The delay oracle's stats drain consumes this.
pub fn take_sta_full() -> u64 {
    STA_FULL.swap(0, Ordering::Relaxed)
}

fn note_full_analysis() {
    ANALYSIS_COUNT.fetch_add(1, Ordering::Relaxed);
    STA_FULL.fetch_add(1, Ordering::Relaxed);
    STA_SCOPE.with(|s| {
        if let Some(scope) = s.borrow().as_ref() {
            scope.sta_full.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Static arrival times for every signal of a netlist under one chip's
/// delay signature.
#[derive(Debug, Clone)]
pub struct StaticTiming {
    max_arrival: Vec<f64>,
    min_arrival: Vec<f64>,
}

impl StaticTiming {
    /// Run static min/max arrival analysis.
    ///
    /// # Panics
    ///
    /// Panics if the signature was fabricated for a different netlist
    /// (length mismatch).
    pub fn analyze(nl: &Netlist, sig: &ChipSignature) -> Self {
        assert_eq!(
            sig.delays_ps().len(),
            nl.len(),
            "signature/netlist mismatch"
        );
        note_full_analysis();
        let n = nl.len();
        let mut max_arrival = vec![0.0; n];
        let mut min_arrival = vec![0.0; n];
        for (i, gate) in nl.gates().iter().enumerate() {
            if gate.kind().is_pseudo() {
                continue;
            }
            let mut lo = f64::INFINITY;
            let mut hi = 0.0f64;
            for s in gate.inputs() {
                lo = lo.min(min_arrival[s.index()]);
                hi = hi.max(max_arrival[s.index()]);
            }
            let d = sig.delay_ps(i);
            min_arrival[i] = lo + d;
            max_arrival[i] = hi + d;
        }
        StaticTiming {
            max_arrival,
            min_arrival,
        }
    }

    /// Latest possible arrival at signal index `idx`, ps.
    #[inline]
    pub fn max_arrival(&self, idx: usize) -> f64 {
        self.max_arrival[idx]
    }

    /// Earliest possible arrival at signal index `idx`, ps.
    #[inline]
    pub fn min_arrival(&self, idx: usize) -> f64 {
        self.min_arrival[idx]
    }

    /// The circuit's static critical-path delay: max arrival over outputs.
    pub fn critical_delay_ps(&self, nl: &Netlist) -> f64 {
        nl.outputs()
            .iter()
            .map(|s| self.max_arrival[s.index()])
            .fold(0.0, f64::max)
    }

    /// The circuit's shortest output arrival: min arrival over outputs.
    pub fn shortest_delay_ps(&self, nl: &Netlist) -> f64 {
        nl.outputs()
            .iter()
            .map(|s| self.min_arrival[s.index()])
            .fold(f64::INFINITY, f64::min)
    }

    /// Extract the static critical path: the chain of signals realizing the
    /// maximum arrival at the latest output, listed input-to-output.
    pub fn critical_path(&self, nl: &Netlist) -> TimingPath {
        let &end = nl
            .outputs()
            .iter()
            .max_by(|a, b| self.max_arrival[a.index()].total_cmp(&self.max_arrival[b.index()]))
            .expect("netlist has outputs");
        let mut chain = vec![end];
        let mut cur = end;
        loop {
            let gate = nl.gate(cur);
            if gate.kind().is_pseudo() {
                break;
            }
            let &next = gate
                .inputs()
                .iter()
                .max_by(|a, b| self.max_arrival[a.index()].total_cmp(&self.max_arrival[b.index()]))
                .expect("logic gates have inputs");
            chain.push(next);
            cur = next;
        }
        chain.reverse();
        TimingPath {
            delay_ps: self.max_arrival[end.index()],
            signals: chain,
        }
    }
}

/// A timing path: an input-to-output chain of signals and its total delay.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingPath {
    /// Total path delay in picoseconds.
    pub delay_ps: f64,
    /// Signals along the path, from the launching input to the captured
    /// output.
    pub signals: Vec<Signal>,
}

impl TimingPath {
    /// Number of logic stages on the path (excluding the pseudo input).
    pub fn logic_depth(&self, nl: &Netlist) -> usize {
        self.signals
            .iter()
            .filter(|s| !nl.gate(**s).kind().is_pseudo())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_netlist::generators::alu::Alu;
    use ntc_netlist::Builder;
    use ntc_varmodel::{ChipSignature, Corner, VariationParams};

    #[test]
    fn chain_delay_adds_up() {
        let mut b = Builder::new();
        let a = b.input("a");
        let g1 = b.not(a);
        let g2 = b.not(g1);
        let g3 = b.not(g2);
        b.output("y", g3);
        let nl = b.finish();
        let sig = ChipSignature::nominal(&nl, Corner::STC);
        let t = StaticTiming::analyze(&nl, &sig);
        let inv = ntc_netlist::CellKind::Inv.nominal_delay_ps();
        assert!((t.critical_delay_ps(&nl) - 3.0 * inv).abs() < 1e-9);
        assert!((t.shortest_delay_ps(&nl) - 3.0 * inv).abs() < 1e-9);
        let path = t.critical_path(&nl);
        assert_eq!(path.logic_depth(&nl), 3);
        assert_eq!(path.signals.len(), 4); // input + 3 inverters
    }

    #[test]
    fn min_le_max_everywhere() {
        let alu = Alu::new(8);
        let sig = ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), 1);
        let t = StaticTiming::analyze(alu.netlist(), &sig);
        for i in 0..alu.netlist().len() {
            assert!(t.min_arrival(i) <= t.max_arrival(i) + 1e-9);
        }
        assert!(t.shortest_delay_ps(alu.netlist()) < t.critical_delay_ps(alu.netlist()));
    }

    #[test]
    fn pv_moves_the_critical_delay() {
        let alu = Alu::new(8);
        let nom = ChipSignature::nominal(alu.netlist(), Corner::NTC);
        let pv = ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), 5);
        let t_nom = StaticTiming::analyze(alu.netlist(), &nom).critical_delay_ps(alu.netlist());
        let t_pv = StaticTiming::analyze(alu.netlist(), &pv).critical_delay_ps(alu.netlist());
        assert!((t_pv - t_nom).abs() / t_nom > 0.02, "nom {t_nom} pv {t_pv}");
    }

    #[test]
    fn critical_path_is_connected() {
        let alu = Alu::new(8);
        let sig = ChipSignature::nominal(alu.netlist(), Corner::STC);
        let t = StaticTiming::analyze(alu.netlist(), &sig);
        let path = t.critical_path(alu.netlist());
        for pair in path.signals.windows(2) {
            let gate = alu.netlist().gate(pair[1]);
            assert!(
                gate.inputs().contains(&pair[0]),
                "path must follow gate inputs"
            );
        }
    }
}
