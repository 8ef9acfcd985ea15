//! Shared experiment configuration: clock selection, chip sampling and the
//! fast/full scale presets.
//!
//! Two clocking regimes mirror the two evaluation chapters:
//!
//! * **Ch. 3** runs a timing-speculative clock moderately below the
//!   nominal critical delay (errors on a few percent of cycles) and only
//!   the maximum-timing side matters;
//! * **Ch. 4** runs a more aggressive clock *and* a tight hold window, so
//!   choke-induced minimum violations (choke buffers) appear alongside the
//!   maximum violations.

use ntc_core::tag_delay::{Chip, TagDelayOracle};
use ntc_netlist::buffer_insertion::insert_hold_buffers;
use ntc_netlist::generators::alu::Alu;
use ntc_netlist::Netlist;
use ntc_timing::{ClockSpec, StaticTiming};
use ntc_varmodel::{ChipSignature, Corner, Memo, OperatingPoint, VariationParams};
use ntc_workload::TraceSource;
use std::sync::{Arc, Mutex};

/// Process-wide voltage roster for the grid-backed experiments: which
/// operating points the benchmark grids sweep. Empty means "unset" —
/// [`voltages`] then defaults to the NTC corner alone, which keeps every
/// legacy single-corner golden byte-identical.
static VOLTAGES: Mutex<Vec<OperatingPoint>> = Mutex::new(Vec::new());

/// Select the operating points grid-backed experiments sweep — the
/// `repro --vdd` flag. An empty list restores the NTC-only default.
pub fn set_voltages(points: Vec<OperatingPoint>) {
    *VOLTAGES.lock().expect("voltage roster poisoned") = points;
}

/// The voltage axis for grid-backed experiments: the list given to
/// [`set_voltages`], else the NTC corner alone.
pub fn voltages() -> Vec<OperatingPoint> {
    let set = VOLTAGES.lock().expect("voltage roster poisoned");
    if set.is_empty() {
        vec![OperatingPoint::NTC]
    } else {
        set.clone()
    }
}

/// Process-wide trace source for the grid-backed experiments — which
/// [`TraceSource`] the figure runners put in their [`GridSpec`]s. The
/// default is the statistical generator, keeping every legacy run
/// byte-identical; `repro --trace-dir` selects replay.
///
/// [`GridSpec`]: crate::scenario::GridSpec
static WORKLOAD_SOURCE: Mutex<TraceSource> = Mutex::new(TraceSource::Generator);

/// Select the trace source grid-backed experiments use.
pub fn set_workload_source(source: TraceSource) {
    *WORKLOAD_SOURCE.lock().expect("workload source poisoned") = source;
}

/// The trace source in force ([`set_workload_source`], else the
/// statistical generator).
pub fn workload_source() -> TraceSource {
    WORKLOAD_SOURCE
        .lock()
        .expect("workload source poisoned")
        .clone()
}

/// Parse a comma-separated voltage list (`"0.45,v0.60,stc"`) into roster
/// points, deduplicating while preserving first-mention order.
///
/// # Errors
///
/// Returns the offending entry's [`ntc_varmodel::ParsePointError`] text,
/// or a message for an entirely empty list.
pub fn parse_voltages(list: &str) -> Result<Vec<OperatingPoint>, String> {
    let mut out = Vec::new();
    for item in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let p = OperatingPoint::parse(item).map_err(|e| e.to_string())?;
        if !out.contains(&p) {
            out.push(p);
        }
    }
    if out.is_empty() {
        return Err("empty voltage list".to_owned());
    }
    Ok(out)
}

/// How much work an experiment run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// CI-friendly: short traces, few chips. Shapes hold, noise is higher.
    Fast,
    /// Paper-scale: million-cycle traces, more chips.
    Full,
}

impl Scale {
    /// Trace length per benchmark run.
    pub fn cycles(self) -> usize {
        match self {
            Scale::Fast => 60_000,
            Scale::Full => 1_000_000,
        }
    }

    /// Fabricated chips averaged per experiment.
    pub fn chips(self) -> usize {
        match self {
            Scale::Fast => 2,
            Scale::Full => 5,
        }
    }

    /// Monte-Carlo samples for the circuit-level studies (operand pairs
    /// per operation, chips per corner).
    pub fn circuit_samples(self) -> usize {
        match self {
            Scale::Fast => 10,
            Scale::Full => 40,
        }
    }

    /// Chips for the circuit-level studies.
    pub fn circuit_chips(self) -> usize {
        match self {
            Scale::Fast => 6,
            Scale::Full => 24,
        }
    }
}

/// Clock fractions for one evaluation regime.
///
/// Two minimum-path constraints coexist because the two detector families
/// differ physically:
///
/// * double-sampling detectors (Razor, OCST, DCS) capture a shadow sample
///   roughly half a period after the main edge, so data must not change
///   before that window closes — a *large* min-path constraint that forces
///   design-time buffer padding (`hold_frac`);
/// * Trident's transition detector only needs a small guard interval
///   around the capture edge (`tdc_hold_frac`) — which is exactly why it
///   can abandon buffer insertion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockRegime {
    /// Clock period as a fraction of the nominal critical delay.
    pub period_frac: f64,
    /// Double-sampling (Razor-family) min-path constraint, as a fraction
    /// of the nominal critical delay. Buffer insertion pads to this.
    pub hold_frac: f64,
    /// Transition-detector (Trident) guard interval, same units.
    pub tdc_hold_frac: f64,
}

/// The Chapter-3 regime: timing-speculative clock slightly above the
/// nominal critical delay (PV-slow sensitized paths overshoot it on a few
/// percent of cycles). The min side is out of scope in Ch. 3, so the hold
/// constraints sit below every intrinsic short path.
pub const CH3_REGIME: ClockRegime = ClockRegime {
    period_frac: 1.10,
    hold_frac: 0.10,
    tdc_hold_frac: 0.10,
};

/// The Chapter-4 regime: a more aggressive clock, the Razor-family
/// shadow-latch window at ~38 % of the period (long buffer chains on every
/// short path — the raw material of choke buffers), and Trident's small
/// TDC guard interval.
pub const CH4_REGIME: ClockRegime = ClockRegime {
    period_frac: 0.95,
    hold_frac: 0.22,
    tdc_hold_frac: 0.14,
};

impl ClockRegime {
    /// The Razor-family clock: period plus the double-sampling hold window.
    pub fn clock(&self, nominal_critical_ps: f64) -> ClockSpec {
        ClockSpec {
            period_ps: nominal_critical_ps * self.period_frac,
            hold_ps: nominal_critical_ps * self.hold_frac,
        }
    }

    /// The Trident clock: same period, the TDC guard interval as the hold.
    pub fn tdc_clock(&self, nominal_critical_ps: f64) -> ClockSpec {
        ClockSpec {
            period_ps: nominal_critical_ps * self.period_frac,
            hold_ps: nominal_critical_ps * self.tdc_hold_frac,
        }
    }
}

/// Memo key: everything [`build_oracle`] folds into the chip — the
/// corner (`vdd` as a bit pattern, so custom corners of the voltage
/// sweep compare exactly), the seed, the topology, and the
/// selective-hardening count (0 = the stock chip).
type ChipKey = (u64, &'static str, u64, TopoKey, usize);

/// Fabricated chips, memoized so experiments sharing a chip neither
/// re-fabricate it, repeat each other's Phase-A gate simulations, nor
/// re-run its static analysis. Measured working sets with `--no-cache`:
/// the fast suite builds 36 (66 under a 4-point `--vdd`, 106 under all 8
/// roster points), the full fig3.10 grid 5. A chip holds its topology's
/// shared netlist, a signature and a delay table capped at 16,384
/// entries, so the cap bounds the bytes too.
static CHIP_BLANKS: Memo<ChipKey, Arc<Chip>> = Memo::new(128);

/// Topology key: the netlist variant is corner-free (see
/// [`build_topology`]), so only the variant selector and the hold
/// fraction (as a bit pattern) that shapes buffer insertion remain.
type TopoKey = (bool, u64);

/// Netlist variants shared by every chip of a topology. The fast suite
/// builds 3.
static TOPOLOGIES: Memo<TopoKey, Arc<Netlist>> = Memo::new(8);

/// Nominal (PV-free) critical delay per topology and supply (the
/// corner's vdd bit pattern): the anchor every clock of a study hangs
/// off. The fast suite builds 3, 24 under all 8 roster points.
static NOMINAL_ANCHORS: Memo<(TopoKey, u64), f64> = Memo::new(32);

/// `(name, (entries held now, cap))` of every process memo: the chips
/// (`memo_chip_blanks`), topologies and nominal anchors here, the grids
/// of [`crate::scenario::run_grid`] and the traces of
/// [`ntc_workload::TraceSource`]. The serve daemon's `stats` op reports
/// the entries under these names.
pub fn memo_occupancy() -> [(&'static str, (usize, usize)); 5] {
    [
        ("memo_chip_blanks", CHIP_BLANKS.occupancy()),
        ("memo_topologies", TOPOLOGIES.occupancy()),
        ("memo_nominal_anchors", NOMINAL_ANCHORS.occupancy()),
        ("memo_grids", crate::scenario::grid_memo_occupancy()),
        ("memo_traces", ntc_workload::trace_memo_occupancy()),
    ]
}

/// Build the netlist variant shared by every chip of a topology.
///
/// The netlist is **corner-free**: design-time hold fixing sees the cell
/// library's nominal delays, so the padding targets live in the nominal
/// design frame regardless of the supply the die later runs at. They are
/// derived here from the NTC corner's timing and divided back by its
/// delay factor — the same ratio every corner would give mathematically,
/// pinned to one corner so the division is bit-for-bit reproducible and
/// the whole voltage axis shares a single netlist.
fn build_topology(buffered: bool, regime: ClockRegime) -> Netlist {
    let alu = Alu::new(ntc_isa::ARCH_WIDTH);
    if !buffered {
        return alu.into_netlist();
    }
    // Design-time hold fixing pads every short path up to the constraint
    // using nominal delays within the setup slack; the resulting buffer
    // chains dominate the padded paths, which is precisely what
    // post-silicon choke buffers exploit.
    let frame = Corner::NTC;
    let bare_nominal = ChipSignature::nominal(alu.netlist(), frame);
    let bare_critical_ps =
        StaticTiming::analyze(alu.netlist(), &bare_nominal).critical_delay_ps(alu.netlist());
    let hold_design_frame = bare_critical_ps * regime.hold_frac / frame.delay_factor();
    let setup_design_frame = bare_critical_ps * 0.72 / frame.delay_factor();
    let (padded, _, _) = insert_hold_buffers(alu.netlist(), hold_design_frame, setup_design_frame);
    padded
}

fn topo_key(buffered: bool, regime: ClockRegime) -> TopoKey {
    (buffered, regime.hold_frac.to_bits())
}

/// The memoized netlist variant of a topology (see [`build_topology`]).
pub(crate) fn topology(buffered: bool, regime: ClockRegime) -> Arc<Netlist> {
    TOPOLOGIES.get_or_init(&topo_key(buffered, regime), || {
        Arc::new(build_topology(buffered, regime))
    })
}

/// The nominal (PV-free) critical delay of a topology at one supply,
/// memoized.
pub(crate) fn nominal_critical_ps(buffered: bool, regime: ClockRegime, corner: Corner) -> f64 {
    let key = (topo_key(buffered, regime), corner.vdd.to_bits());
    NOMINAL_ANCHORS.get_or_init(&key, || {
        let netlist = topology(buffered, regime);
        let nominal = ChipSignature::nominal(&netlist, corner);
        StaticTiming::analyze(&netlist, &nominal).critical_delay_ps(&netlist)
    })
}

/// The memoized chip `seed` at `corner` on the chosen topology, with its
/// `hardened` slowest choke gates de-rated (0 = the stock chip).
fn chip_blank(
    corner: Corner,
    seed: u64,
    buffered: bool,
    regime: ClockRegime,
    hardened: usize,
) -> Arc<Chip> {
    let topo = topo_key(buffered, regime);
    let key: ChipKey = (corner.vdd.to_bits(), corner.name, seed, topo, hardened);
    CHIP_BLANKS.get_or_init(&key, || {
        let netlist = topology(buffered, regime);
        let nominal_critical_ps = nominal_critical_ps(buffered, regime, corner);
        let mut signature =
            ChipSignature::fabricate(&netlist, corner, VariationParams::for_corner(corner), seed);
        if hardened > 0 {
            // Selective hardening: the top-k slowest choke gates (by
            // delay multiplier, slowest first; stable on index for ties)
            // are de-rated to their nominal delay, modeling upsized or
            // body-biased cells at exactly those sites.
            let mut slow = signature.slow_choke_gates();
            slow.sort_by(|&a, &b| {
                signature
                    .multiplier(b)
                    .partial_cmp(&signature.multiplier(a))
                    .expect("finite multipliers")
            });
            slow.truncate(hardened);
            signature.inject_choke(&slow, 1.0);
        }
        Arc::new(Chip::new(netlist, signature, nominal_critical_ps))
    })
}

/// Build a delay oracle for one chip of the study.
///
/// `buffered` selects the hold-fixed netlist variant (Razor-lineage
/// schemes) vs. the bare ALU (Trident). The hold constraint handed to the
/// design-time buffer inserter is the Ch. 4 regime's hold window expressed
/// in the cell library's nominal (STC) delay frame — design-time tools see
/// nominal delays, which is exactly why post-silicon choke buffers defeat
/// the fix.
///
/// Chips are memoized: every oracle for the same chip reads one
/// [`Chip`], its netlist, signature, critical delays and delay table, so
/// experiments reuse each other's Phase-A gate simulations and static
/// analyses. Results are bit-identical either way: the delay table is a
/// pure function of the chip.
pub fn build_oracle(
    corner: Corner,
    seed: u64,
    buffered: bool,
    regime: ClockRegime,
) -> TagDelayOracle {
    TagDelayOracle::new(chip_blank(corner, seed, buffered, regime, 0))
}

/// [`build_oracle`] for a selectively-hardened variant of the same chip:
/// fabrication is identical, then the `top_k` slowest choke gates are
/// de-rated to their nominal delay before static analysis — the
/// `harden-choke` ablation's what-if silicon. Hardened variants are
/// memoized alongside the stock chips (distinct memo key), so they
/// share nothing with — and never perturb — the stock chip's delay
/// tables.
pub fn build_hardened_oracle(
    corner: Corner,
    seed: u64,
    buffered: bool,
    regime: ClockRegime,
    top_k: usize,
) -> TagDelayOracle {
    assert!(top_k > 0, "a hardened chip de-rates at least one gate");
    TagDelayOracle::new(chip_blank(corner, seed, buffered, regime, top_k))
}

/// Normalize a series against its first element (the figures normalize
/// everything to Razor).
pub fn normalize_to_first(values: &[f64]) -> Vec<f64> {
    let base = values.first().copied().unwrap_or(1.0);
    values
        .iter()
        .map(|v| if base != 0.0 { v / base } else { f64::NAN })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regimes_scale_nominal_delay() {
        let c = CH3_REGIME.clock(1000.0);
        assert!((c.period_ps - 1000.0 * CH3_REGIME.period_frac).abs() < 1e-9);
        assert!((c.hold_ps - 1000.0 * CH3_REGIME.hold_frac).abs() < 1e-9);
        // Ch. 4 clocks more aggressively and imposes the Razor window.
        const { assert!(CH4_REGIME.period_frac < CH3_REGIME.period_frac) };
        const { assert!(CH4_REGIME.hold_frac > CH3_REGIME.hold_frac) };
        // The TDC guard interval is far smaller than the Razor window.
        const { assert!(CH4_REGIME.tdc_hold_frac < CH4_REGIME.hold_frac) };
        let t = CH4_REGIME.tdc_clock(1000.0);
        assert!(t.hold_ps < CH4_REGIME.clock(1000.0).hold_ps);
    }

    #[test]
    fn normalization() {
        assert_eq!(normalize_to_first(&[2.0, 4.0, 1.0]), vec![1.0, 2.0, 0.5]);
        assert!(normalize_to_first(&[0.0, 1.0])[1].is_nan());
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Fast.cycles() < Scale::Full.cycles());
        assert!(Scale::Fast.chips() <= Scale::Full.chips());
    }

    #[test]
    fn voltage_lists_parse_dedup_and_reject() {
        let pts = parse_voltages("0.45, v0.60, stc, ntc, 0.60").unwrap();
        assert_eq!(
            pts,
            vec![
                OperatingPoint::NTC,
                OperatingPoint::parse("v0.60").unwrap(),
                OperatingPoint::STC,
            ]
        );
        assert!(parse_voltages("0.62").unwrap_err().contains("v0.45"));
        assert!(parse_voltages(" , ").unwrap_err().contains("empty"));
    }

    #[test]
    fn voltage_axis_defaults_to_ntc_and_honors_overrides() {
        // Unset: NTC only.
        assert_eq!(voltages(), vec![OperatingPoint::NTC]);
        let sweep = vec![OperatingPoint::NTC, OperatingPoint::STC];
        set_voltages(sweep.clone());
        assert_eq!(voltages(), sweep);
        set_voltages(Vec::new());
    }

    #[test]
    fn nominal_critical_delay_shrinks_with_supply() {
        // The per-corner nominal memo must order the roster the way the
        // alpha-power law does: higher supply, faster logic.
        let at = |corner| nominal_critical_ps(false, CH3_REGIME, corner);
        let ntc = at(OperatingPoint::NTC.corner());
        let mid = at(OperatingPoint::parse("v0.60").unwrap().corner());
        let stc = at(OperatingPoint::STC.corner());
        assert!(ntc > mid && mid > stc, "{ntc} > {mid} > {stc}");
        // Memoized: the second read is the same f64 to the bit.
        assert_eq!(ntc.to_bits(), at(Corner::NTC).to_bits());
    }

    #[test]
    fn buffered_oracle_has_more_gates() {
        let plain = build_oracle(Corner::NTC, 1, false, CH4_REGIME);
        let buffered = build_oracle(Corner::NTC, 1, true, CH4_REGIME);
        assert!(buffered.netlist().logic_gate_count() > plain.netlist().logic_gate_count());
    }

    #[test]
    fn hardened_chips_are_distinct_and_no_slower() {
        let stock = build_oracle(Corner::NTC, 7171, false, CH4_REGIME);
        let hard = build_hardened_oracle(Corner::NTC, 7171, false, CH4_REGIME, 8);
        // De-rating gates to nominal can only shrink static timing.
        assert!(hard.static_critical_delay_ps() <= stock.static_critical_delay_ps());
        // Distinct memo entries: the hardened chip must not have
        // replaced the stock one.
        let stock_again = build_oracle(Corner::NTC, 7171, false, CH4_REGIME);
        assert_eq!(
            stock_again.static_critical_delay_ps(),
            stock.static_critical_delay_ps()
        );
    }

    #[test]
    fn oracles_of_one_chip_share_one_netlist() {
        let a = build_oracle(Corner::NTC, 4244, true, CH4_REGIME);
        let b = build_oracle(Corner::NTC, 4244, true, CH4_REGIME);
        assert!(std::ptr::eq(a.netlist(), b.netlist()), "no per-oracle copy");
    }

    #[test]
    fn memoized_chips_share_their_delay_table() {
        use ntc_isa::{Instruction, Opcode};
        let prev = Instruction::new(Opcode::Addu, 0, 0);
        let cur = Instruction::new(Opcode::Addu, u64::MAX, 1);
        let mut first = build_oracle(Corner::NTC, 4242, false, CH3_REGIME);
        let d = first.delays(&prev, &cur);
        // A second oracle for the same chip answers from the shared table
        // without a single gate-level simulation of its own…
        let mut second = build_oracle(Corner::NTC, 4242, false, CH3_REGIME);
        assert_eq!(second.delays(&prev, &cur), d);
        assert_eq!(second.gate_sim_count(), 0, "warm via the shared cache");
        // …while a different chip gets its own table and simulates.
        let mut other = build_oracle(Corner::NTC, 4243, false, CH3_REGIME);
        let _ = other.delays(&prev, &cur);
        assert_eq!(other.gate_sim_count(), 1);
    }
}
