//! Choke-point analysis: the CDL / CGL metrics of the paper's motivation
//! study.
//!
//! * **CDL** (Choke Delay Level): the extra delay a choke point adds to
//!   create the new critical path, as a percentage of the nominal critical
//!   path delay of the sensitized operation.
//! * **CGL** (Choke Gate Level): the number of gates forming the choke
//!   point, as a percentage of the total logic gates in the circuit.
//!
//! A low CGL together with a high CDL marks a *highly potent* choke point —
//! a tiny set of PV-affected gates dominating an entire path.

use ntc_netlist::Netlist;
use ntc_varmodel::ChipSignature;
use std::fmt;

/// CDL categories as used by Fig. 3.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CdlCategory {
    /// CDL in (0 %, 5 %].
    Low,
    /// CDL in (5 %, 10 %].
    MediumLow,
    /// CDL in (10 %, 20 %].
    MediumHigh,
    /// CDL above 20 %.
    High,
}

/// All CDL categories, in increasing-severity order.
pub const ALL_CDL_CATEGORIES: [CdlCategory; 4] = [
    CdlCategory::Low,
    CdlCategory::MediumLow,
    CdlCategory::MediumHigh,
    CdlCategory::High,
];

impl CdlCategory {
    /// Classify a CDL percentage; returns `None` for non-positive CDL
    /// (no overshoot, hence no choke path).
    pub fn of(cdl_pct: f64) -> Option<Self> {
        if cdl_pct <= 0.0 {
            None
        } else if cdl_pct <= 5.0 {
            Some(CdlCategory::Low)
        } else if cdl_pct <= 10.0 {
            Some(CdlCategory::MediumLow)
        } else if cdl_pct <= 20.0 {
            Some(CdlCategory::MediumHigh)
        } else {
            Some(CdlCategory::High)
        }
    }

    /// The paper's label for this category.
    pub fn label(self) -> &'static str {
        match self {
            CdlCategory::Low => "CDL_L",
            CdlCategory::MediumLow => "CDL_ML",
            CdlCategory::MediumHigh => "CDL_MH",
            CdlCategory::High => "CDL_H",
        }
    }
}

impl fmt::Display for CdlCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One observed choke event: a sensitized cycle whose delay overshot the
/// operation's nominal critical delay.
#[derive(Debug, Clone, PartialEq)]
pub struct ChokeEvent {
    /// Choke Delay Level, percent of the nominal critical delay.
    pub cdl_pct: f64,
    /// Choke Gate Level, percent of total logic gates.
    pub cgl_pct: f64,
    /// The minimal set of PV-affected gates on the cycle's causal path
    /// accounting for the overshoot (greedy, largest deviation first).
    pub choke_gates: Vec<usize>,
}

impl ChokeEvent {
    /// The CDL category of this event (`None` never occurs for constructed
    /// events, which always have positive CDL).
    pub fn category(&self) -> CdlCategory {
        CdlCategory::of(self.cdl_pct).expect("choke events have positive CDL")
    }
}

/// Identify the choke event (if any) in one sensitized cycle.
///
/// * `d_pv_ps` — the cycle's observed (PV-affected) max sensitized delay;
/// * `d_nominal_ps` — the operation's nominal critical delay on a PV-free
///   chip;
/// * `path` — the cycle's causal path: the gates whose toggles chained
///   from a primary input to the output toggle at `d_pv_ps`
///   ([`SimWorkspace::critical_path_into`](crate::SimWorkspace::critical_path_into)).
///
/// The choke-gate set is the smallest set of path gates whose delay
/// deviations (post-silicon minus nominal), removed, would bring the cycle
/// back under the nominal critical delay — taking the largest deviations
/// first. Returns `None` when the cycle does not overshoot, or when no
/// path gate is slower than nominal.
pub fn identify_choke_event(
    nl: &Netlist,
    sig: &ChipSignature,
    path: &[usize],
    d_pv_ps: f64,
    d_nominal_ps: f64,
) -> Option<ChokeEvent> {
    if d_pv_ps <= d_nominal_ps || d_nominal_ps <= 0.0 {
        return None;
    }
    let overshoot = d_pv_ps - d_nominal_ps;
    // Positive deviations of path gates, largest first.
    let mut devs: Vec<(usize, f64)> = path
        .iter()
        .map(|&g| (g, sig.delay_ps(g) - sig.nominal_ps(g)))
        .filter(|(_, d)| *d > 0.0)
        .collect();
    devs.sort_by(|a, b| b.1.total_cmp(&a.1));

    let mut covered = 0.0;
    let mut choke_gates = Vec::new();
    for (g, d) in devs {
        if covered >= overshoot {
            break;
        }
        covered += d;
        choke_gates.push(g);
    }
    if choke_gates.is_empty() {
        // Overshoot without any slow path gate: glitch timing differs
        // between chips, so the pair's nominal sweep need not toggle along
        // this path at all.
        return None;
    }
    let cdl_pct = 100.0 * overshoot / d_nominal_ps;
    let cgl_pct = 100.0 * choke_gates.len() as f64 / nl.logic_gate_count().max(1) as f64;
    Some(ChokeEvent {
        cdl_pct,
        cgl_pct,
        choke_gates,
    })
}

/// Accumulates, per CDL category, the minimum CGL observed — the quantity
/// Fig. 3.2 plots ("how few gates suffice to reach this CDL band").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CdlCglProfile {
    /// Minimum CGL seen in each category (index order of
    /// [`ALL_CDL_CATEGORIES`]); `None` until a sample lands in the band.
    pub min_cgl_pct: [Option<f64>; 4],
    /// Maximum CDL observed overall, percent.
    pub max_cdl_pct: f64,
    /// Number of choke events recorded.
    pub events: usize,
}

impl CdlCglProfile {
    /// Create an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one choke event into the profile.
    pub fn record(&mut self, ev: &ChokeEvent) {
        let idx = ALL_CDL_CATEGORIES
            .iter()
            .position(|&c| c == ev.category())
            .expect("category is in the list");
        let slot = &mut self.min_cgl_pct[idx];
        *slot = Some(match *slot {
            Some(cur) => cur.min(ev.cgl_pct),
            None => ev.cgl_pct,
        });
        self.max_cdl_pct = self.max_cdl_pct.max(ev.cdl_pct);
        self.events += 1;
    }

    /// Fold another profile into this one — the parallel-sweep reduction:
    /// per-category minimum CGL, overall maximum CDL, summed event count.
    /// All three folds are commutative and exact (no floating-point
    /// accumulation), so merge order cannot change the result.
    pub fn merge(&mut self, other: &CdlCglProfile) {
        for (slot, o) in self.min_cgl_pct.iter_mut().zip(&other.min_cgl_pct) {
            *slot = match (*slot, *o) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        self.max_cdl_pct = self.max_cdl_pct.max(other.max_cdl_pct);
        self.events += other.events;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_netlist::generators::alu::Alu;
    use ntc_varmodel::Corner;

    #[test]
    fn categories_cover_the_range() {
        assert_eq!(CdlCategory::of(0.0), None);
        assert_eq!(CdlCategory::of(-2.0), None);
        assert_eq!(CdlCategory::of(3.0), Some(CdlCategory::Low));
        assert_eq!(CdlCategory::of(5.0), Some(CdlCategory::Low));
        assert_eq!(CdlCategory::of(7.5), Some(CdlCategory::MediumLow));
        assert_eq!(CdlCategory::of(15.0), Some(CdlCategory::MediumHigh));
        assert_eq!(CdlCategory::of(27.0), Some(CdlCategory::High));
    }

    #[test]
    fn no_overshoot_no_event() {
        let alu = Alu::new(8);
        let sig = ChipSignature::nominal(alu.netlist(), Corner::NTC);
        assert!(identify_choke_event(alu.netlist(), &sig, &[5, 6], 100.0, 100.0).is_none());
        assert!(identify_choke_event(alu.netlist(), &sig, &[5, 6], 90.0, 100.0).is_none());
    }

    #[test]
    fn injected_choke_is_identified() {
        let alu = Alu::new(8);
        let mut sig = ChipSignature::nominal(alu.netlist(), Corner::NTC);
        // Find a logic gate and make it 10x slower.
        let g = alu
            .netlist()
            .gates()
            .iter()
            .position(|x| !x.kind().is_pseudo())
            .expect("logic gate");
        sig.inject_choke(&[g], 10.0);
        let extra = sig.delay_ps(g) - sig.nominal_ps(g);
        let d_nom = 500.0;
        let d_pv = d_nom + extra * 0.8; // overshoot attributable to g alone
        let ev = identify_choke_event(alu.netlist(), &sig, &[g, g + 1], d_pv, d_nom)
            .expect("choke event");
        assert_eq!(ev.choke_gates, vec![g]);
        assert!(ev.cdl_pct > 0.0);
        assert!(ev.cgl_pct > 0.0 && ev.cgl_pct < 1.0);
    }

    #[test]
    fn greedy_takes_largest_deviation_first() {
        let alu = Alu::new(8);
        let mut sig = ChipSignature::nominal(alu.netlist(), Corner::NTC);
        let gates: Vec<usize> = alu
            .netlist()
            .gates()
            .iter()
            .enumerate()
            .filter(|(_, x)| !x.kind().is_pseudo())
            .map(|(i, _)| i)
            .take(3)
            .collect();
        sig.inject_choke(&[gates[0]], 2.0);
        sig.inject_choke(&[gates[1]], 20.0);
        sig.inject_choke(&[gates[2]], 3.0);
        let big_dev = sig.delay_ps(gates[1]) - sig.nominal_ps(gates[1]);
        let ev = identify_choke_event(alu.netlist(), &sig, &gates, 500.0 + big_dev * 0.5, 500.0)
            .expect("event");
        assert_eq!(ev.choke_gates[0], gates[1], "largest deviation first");
        assert_eq!(ev.choke_gates.len(), 1);
    }

    #[test]
    fn profile_records_min_cgl_per_band() {
        let mut p = CdlCglProfile::new();
        p.record(&ChokeEvent {
            cdl_pct: 3.0,
            cgl_pct: 0.5,
            choke_gates: vec![1],
        });
        p.record(&ChokeEvent {
            cdl_pct: 4.0,
            cgl_pct: 0.2,
            choke_gates: vec![2],
        });
        p.record(&ChokeEvent {
            cdl_pct: 25.0,
            cgl_pct: 0.9,
            choke_gates: vec![3, 4],
        });
        assert_eq!(p.events, 3);
        assert_eq!(p.min_cgl_pct[0], Some(0.2));
        assert_eq!(p.min_cgl_pct[3], Some(0.9));
        assert_eq!(p.min_cgl_pct[1], None);
        assert!((p.max_cdl_pct - 25.0).abs() < 1e-12);
    }
}
