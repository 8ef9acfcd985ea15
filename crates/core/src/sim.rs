//! The cross-layer error-stream simulator: drives a resilience scheme over
//! an instruction trace against a fabricated chip's delay oracle, and the
//! scheme-free profiler behind the error-distribution figures.

use crate::scheme::{violation_of, CycleContext, CycleOutcome, ResilienceScheme};
use crate::tag_delay::{CycleDelays, TagDelayOracle, STREAM_CHUNK};
use ntc_isa::{ErrorTag, Instruction, Opcode, OperandSize};
use ntc_pipeline::{EnergyModel, EnergyReport, Pipeline, RunCost};
use ntc_timing::{classify_stream, ClockSpec, ErrorClass};
use std::collections::HashMap;

/// Result of running one scheme over one trace on one chip.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// The scheme's display name.
    pub scheme: &'static str,
    /// Cycle accounting.
    pub cost: RunCost,
    /// Errors the scheme pre-empted with stalls (true predictions).
    pub avoided: u64,
    /// Stalls inserted for cycles that would not have erred (false
    /// positives).
    pub false_positives: u64,
    /// Errors detected only after the fact (recoveries).
    pub recovered: u64,
    /// Violations the scheme could not even see (silent corruptions).
    pub corruptions: u64,
    /// Recovered errors by class, indexed by [`ErrorClass::index`].
    pub recovered_by_class: [u64; ErrorClass::COUNT],
    /// The scheme's constant period stretch.
    pub period_stretch: f64,
    /// The scheme's power overhead fraction.
    pub power_overhead: f64,
}

impl SimResult {
    /// Recovered errors of one class.
    #[inline]
    pub fn recovered_of(&self, class: ErrorClass) -> u64 {
        self.recovered_by_class[class.index()]
    }

    /// Prediction accuracy: correctly predicted errors over all true
    /// errors the scheme engaged with (avoided + recovered), per §3.5.2.
    pub fn prediction_accuracy(&self) -> f64 {
        let total = self.avoided + self.recovered;
        if total == 0 {
            return 100.0;
        }
        100.0 * self.avoided as f64 / total as f64
    }

    /// True errors encountered (avoided + recovered + silent).
    pub fn errors_total(&self) -> u64 {
        self.avoided + self.recovered + self.corruptions
    }

    /// Performance metric (normalize against a baseline for the figures).
    pub fn performance(&self) -> f64 {
        ntc_pipeline::performance(&self.cost, self.period_stretch)
    }

    /// Energy report under a core energy model.
    pub fn energy(&self, model: EnergyModel) -> EnergyReport {
        model
            .with_overhead(self.power_overhead)
            .report(&self.cost, self.period_stretch)
    }
}

/// Stream the cyclewise tags and delays of `trace` through `visit` as
/// `(i, tag, delays, next_delays)`: cycle `i` executes `trace[i]` after
/// `trace[i - 1]`, `tag` is that pair's [`ErrorTag`], and the lookahead
/// is cycle `i + 1`'s delays (`None` at the end of the stream). The
/// oracle resolves the pairs one window of [`STREAM_CHUNK`] at a time;
/// the last cycle of a window waits for its lookahead in the next one.
/// This is the one lookahead loop behind [`run_schemes`] and
/// [`profile_errors`].
///
/// # Panics
///
/// Panics if the trace has fewer than two instructions.
fn stream(
    oracle: &mut TagDelayOracle,
    trace: &[Instruction],
    mut visit: impl FnMut(usize, ErrorTag, CycleDelays, Option<CycleDelays>),
) {
    assert!(trace.len() >= 2, "need at least two instructions");
    let pairs = trace.len() - 1;
    // Tag and delays of the cycle waiting for its lookahead.
    let mut carried: Option<(ErrorTag, CycleDelays)> = None;
    let mut first = 0;
    while first < pairs {
        let end = (first + STREAM_CHUNK).min(pairs);
        for (j, (tag, d)) in oracle.resolve_pairs(&trace[first..=end]).enumerate() {
            if let Some((ct, cd)) = carried {
                visit(first + j, ct, cd, Some(d));
            }
            carried = Some((tag, d));
        }
        first = end;
    }
    let (tag, d) = carried.expect("at least one pair");
    visit(pairs, tag, d, None);
}

/// One scheme's seat in a stream: the scheme, its clock, the
/// consecutive-error carry and the running tallies.
struct Lane<'s> {
    scheme: &'s mut dyn ResilienceScheme,
    clock: ClockSpec,
    /// Set when the previous cycle's outcome consumed this cycle's min
    /// violation as the second half of a consecutive error.
    min_consumed: bool,
    tally: SimResult,
}

impl<'s> Lane<'s> {
    fn new(scheme: &'s mut dyn ResilienceScheme, clock: ClockSpec, cycles: u64) -> Self {
        let tally = SimResult {
            scheme: scheme.name(),
            cost: RunCost::new(cycles),
            avoided: 0,
            false_positives: 0,
            recovered: 0,
            corruptions: 0,
            recovered_by_class: [0; ErrorClass::COUNT],
            period_stretch: 1.0,
            power_overhead: 0.0,
        };
        Lane {
            scheme,
            clock,
            min_consumed: false,
            tally,
        }
    }

    #[inline]
    fn step(
        &mut self,
        prev: &Instruction,
        cur: &Instruction,
        tag: ErrorTag,
        delays: CycleDelays,
        next_delays: Option<CycleDelays>,
        pipe: &Pipeline,
    ) {
        let ctx = CycleContext {
            prev,
            cur,
            tag,
            delays,
            next_delays,
            base_clock: self.clock,
            min_consumed: self.min_consumed,
        };
        let outcome = self.scheme.on_cycle(&ctx);
        // A handled consecutive error (recovered as CE, or pre-empted with
        // the two-stall CE budget) absorbs the next cycle's min violation.
        self.min_consumed = matches!(
            outcome,
            CycleOutcome::Recovered {
                class: ErrorClass::Consecutive
            } | CycleOutcome::Avoided { stalls: 2, .. }
        );
        let t = &mut self.tally;
        match outcome {
            CycleOutcome::Clean => {}
            CycleOutcome::Avoided { stalls, needed } => {
                t.cost.add_stalls(stalls);
                if needed {
                    t.avoided += 1;
                } else {
                    t.false_positives += 1;
                }
            }
            CycleOutcome::Recovered { class } => {
                t.cost.add_flush(pipe);
                t.recovered += 1;
                t.recovered_by_class[class.index()] += 1;
            }
            CycleOutcome::SilentCorruption => {
                t.corruptions += 1;
            }
        }
    }

    /// The tallies, with the scheme's stretch and power overhead as they
    /// stand at the end of the run.
    fn result(&self) -> SimResult {
        SimResult {
            period_stretch: self.scheme.period_stretch(),
            power_overhead: self.scheme.power_overhead_frac(),
            ..self.tally.clone()
        }
    }
}

/// Advance every lane over the delay stream of `trace`, each cycle's
/// tag and delays resolved once for all of them.
fn run_lanes(
    lanes: &mut [Lane<'_>],
    oracle: &mut TagDelayOracle,
    trace: &[Instruction],
    pipe: Pipeline,
) {
    stream(oracle, trace, |i, tag, delays, next| {
        for lane in lanes.iter_mut() {
            lane.step(&trace[i - 1], &trace[i], tag, delays, next, &pipe);
        }
    });
}

/// Run several schemes, each at its own clock, over `trace` on one chip:
/// the cyclewise tags and delays are resolved once per
/// [`STREAM_CHUNK`]-pair window and read by every scheme, instead of once
/// per scheme. Results come back
/// in `schemes` order and equal, bit for bit, one [`run_scheme`] per
/// scheme on a fresh oracle of the same chip — a cycle's delays depend on
/// the operand state and the chip, not on the consumer.
///
/// # Panics
///
/// Panics if the trace has fewer than two instructions.
pub fn run_schemes(
    schemes: &mut [(Box<dyn ResilienceScheme>, ClockSpec)],
    oracle: &mut TagDelayOracle,
    trace: &[Instruction],
    pipe: Pipeline,
) -> Vec<SimResult> {
    let cycles = trace.len().saturating_sub(1) as u64;
    let mut lanes: Vec<Lane<'_>> = schemes
        .iter_mut()
        .map(|(scheme, clock)| Lane::new(scheme.as_mut(), *clock, cycles))
        .collect();
    run_lanes(&mut lanes, oracle, trace, pipe);
    lanes.iter().map(Lane::result).collect()
}

/// Run `scheme` over `trace` using `oracle` for cyclewise delays — the
/// one-scheme case of [`run_schemes`], allocation-free once the oracle is
/// warm.
///
/// The first instruction only initializes the pipeline state; cycle `i`
/// executes `trace[i]` with `trace[i-1]` as the initializing vector, as in
/// the paper's two-vector sensitization model.
///
/// # Panics
///
/// Panics if the trace has fewer than two instructions.
pub fn run_scheme(
    scheme: &mut dyn ResilienceScheme,
    oracle: &mut TagDelayOracle,
    trace: &[Instruction],
    clock: ClockSpec,
    pipe: Pipeline,
) -> SimResult {
    let cycles = trace.len().saturating_sub(1) as u64;
    let mut lanes = [Lane::new(scheme, clock, cycles)];
    run_lanes(&mut lanes, oracle, trace, pipe);
    lanes[0].result()
}

/// Scheme-free error profile of a trace on a chip: the raw material of the
/// error-distribution figures (3.4, 4.3, 4.4, 4.8).
#[derive(Debug, Clone, Default)]
pub struct ErrorProfile {
    /// Cycles simulated.
    pub cycles: u64,
    /// Per-opcode occurrence counts: (errant, error-free).
    pub per_opcode: HashMap<Opcode, (u64, u64)>,
    /// Per-opcode counts by violation side: (max errors, min errors).
    pub per_opcode_minmax: HashMap<Opcode, (u64, u64)>,
    /// Errors by (class).
    pub by_class: HashMap<ErrorClass, u64>,
    /// Errors by (min?, operand size): `(max_large, max_small, min_large,
    /// min_small)` counts per opcode.
    pub by_size: HashMap<Opcode, [u64; 4]>,
}

impl ErrorProfile {
    /// Total errors of any class.
    pub fn errors_total(&self) -> u64 {
        self.by_class.values().sum()
    }

    /// Errors of one class.
    pub fn class_count(&self, class: ErrorClass) -> u64 {
        self.by_class.get(&class).copied().unwrap_or(0)
    }
}

/// Profile the unmitigated error behaviour of a trace (the avoidance
/// mechanism disabled, as in §4.5.2's distribution study).
///
/// # Panics
///
/// Panics if the trace has fewer than two instructions.
pub fn profile_errors(
    oracle: &mut TagDelayOracle,
    trace: &[Instruction],
    clock: ClockSpec,
) -> ErrorProfile {
    let mut profile = ErrorProfile::default();
    // A min violation absorbed into the previous cycle's consecutive error
    // must not be re-counted as an SE(Min) of its own cycle.
    let mut min_consumed_by_ce = false;
    stream(oracle, trace, |i, _, delays, next_delays| {
        let mut v = violation_of(delays, &clock);
        if min_consumed_by_ce {
            v.min = false;
        }
        let next_min = next_delays.is_some_and(|d| violation_of(d, &clock).min);
        let class = classify_stream(v, next_min);
        min_consumed_by_ce = class == Some(ErrorClass::Consecutive);
        let op = trace[i].opcode;
        let entry = profile.per_opcode.entry(op).or_insert((0, 0));
        let mm = profile.per_opcode_minmax.entry(op).or_insert((0, 0));
        if v.max {
            mm.0 += 1;
        }
        if v.min {
            mm.1 += 1;
        }
        if let Some(c) = class {
            entry.0 += 1;
            *profile.by_class.entry(c).or_insert(0) += 1;
            let sizes = profile.by_size.entry(op).or_insert([0; 4]);
            let large = trace[i].operand_size() == OperandSize::Large;
            if v.max {
                sizes[if large { 0 } else { 1 }] += 1;
            }
            if v.min || c == ErrorClass::Consecutive {
                sizes[if large { 2 } else { 3 }] += 1;
            }
        } else if v.min {
            // A min violation consumed by the previous cycle's CE: count
            // the occurrence as errant for the opcode view.
            entry.0 += 1;
        } else {
            entry.1 += 1;
        }
        profile.cycles += 1;
    });
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::Razor;
    use crate::dcs::Dcs;
    use crate::tag_delay::TagDelayOracle;
    use ntc_varmodel::{Corner, VariationParams};
    use ntc_workload::{Benchmark, TraceGenerator};

    fn setup() -> (TagDelayOracle, Vec<Instruction>, ClockSpec) {
        let oracle = TagDelayOracle::for_chip(Corner::NTC, VariationParams::ntc(), 5);
        let trace = TraceGenerator::new(Benchmark::Mcf, 1).trace(3_000);
        let nominal = oracle.nominal_critical_delay_ps();
        // Aggressive timing-speculative clock: errors will occur.
        let clock = ClockSpec {
            period_ps: nominal * 0.75,
            hold_ps: nominal * 0.06,
        };
        (oracle, trace, clock)
    }

    #[test]
    fn razor_vs_dcs_end_to_end() {
        let (mut oracle, trace, clock) = setup();
        let pipe = Pipeline::core1();
        let mut razor = Razor::ch3();
        let r_razor = run_scheme(&mut razor, &mut oracle, &trace, clock, pipe);
        let mut dcs = Dcs::icslt_default();
        let r_dcs = run_scheme(&mut dcs, &mut oracle, &trace, clock, pipe);

        assert!(r_razor.recovered > 0, "the clock must induce errors");
        assert_eq!(r_razor.avoided, 0, "razor cannot predict");
        assert!(
            r_dcs.cost.penalty_cycles() < r_razor.cost.penalty_cycles(),
            "DCS {} vs Razor {}",
            r_dcs.cost.penalty_cycles(),
            r_razor.cost.penalty_cycles()
        );
        assert!(r_dcs.performance() > r_razor.performance());
        assert!(r_dcs.prediction_accuracy() > 50.0);
    }

    #[test]
    fn profile_counts_are_consistent() {
        let (mut oracle, trace, clock) = setup();
        let p = profile_errors(&mut oracle, &trace, clock);
        assert_eq!(p.cycles as usize, trace.len() - 1);
        let per_op_total: u64 = p.per_opcode.values().map(|(e, f)| e + f).sum();
        assert_eq!(per_op_total, p.cycles);
        assert!(p.errors_total() > 0);
    }

    #[test]
    fn energy_report_includes_overheads() {
        let (mut oracle, trace, clock) = setup();
        let pipe = Pipeline::core1();
        let mut dcs = Dcs::acslt_default();
        let r = run_scheme(&mut dcs, &mut oracle, &trace, clock, pipe);
        let e = r.energy(EnergyModel::ntc_core());
        assert!(e.efficiency > 0.0);
        assert!(r.power_overhead > 0.0);
    }
}
