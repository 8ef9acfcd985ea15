//! The cross-layer error-stream simulator: drives a resilience scheme over
//! an instruction trace against a fabricated chip's delay oracle, and the
//! scheme-free profiler behind the error-distribution figures.

use crate::scheme::{violation_of, CycleContext, CycleOutcome, ResilienceScheme};
use crate::tag_delay::TagDelayOracle;
use ntc_isa::{Instruction, Opcode, OperandSize};
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

/// Run `scheme` over `trace` using `oracle` for cyclewise delays.
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
    assert!(trace.len() >= 2, "need at least two instructions");
    let mut cost = RunCost::new((trace.len() - 1) as u64);
    let mut avoided = 0u64;
    let mut false_positives = 0u64;
    let mut recovered = 0u64;
    let mut corruptions = 0u64;
    // Fixed-size per-class counters: no allocation on the recovery path.
    let mut by_class = [0u64; ErrorClass::COUNT];

    // Precompute delays pairwise, streaming: delays[i] for (i-1, i).
    let mut cur_delays = oracle.delays(&trace[0], &trace[1]);
    // Set when the previous cycle's outcome consumed this cycle's min
    // violation as the second half of a consecutive error.
    let mut min_consumed = false;
    for i in 1..trace.len() {
        let next_delays = if i + 1 < trace.len() {
            Some(oracle.delays(&trace[i], &trace[i + 1]))
        } else {
            None
        };
        let ctx = CycleContext {
            prev: &trace[i - 1],
            cur: &trace[i],
            tag: ntc_isa::ErrorTag::of(&trace[i - 1], &trace[i]),
            delays: cur_delays,
            next_delays,
            base_clock: clock,
            min_consumed,
        };
        let outcome = scheme.on_cycle(&ctx);
        // A handled consecutive error (recovered as CE, or pre-empted with
        // the two-stall CE budget) absorbs the next cycle's min violation.
        min_consumed = matches!(
            outcome,
            CycleOutcome::Recovered {
                class: ErrorClass::Consecutive
            } | CycleOutcome::Avoided { stalls: 2, .. }
        );
        match outcome {
            CycleOutcome::Clean => {}
            CycleOutcome::Avoided { stalls, needed } => {
                cost.add_stalls(stalls);
                if needed {
                    avoided += 1;
                } else {
                    false_positives += 1;
                }
            }
            CycleOutcome::Recovered { class } => {
                cost.add_flush(&pipe);
                recovered += 1;
                by_class[class.index()] += 1;
            }
            CycleOutcome::SilentCorruption => {
                corruptions += 1;
            }
        }
        if let Some(d) = next_delays {
            cur_delays = d;
        }
    }

    SimResult {
        scheme: scheme.name(),
        cost,
        avoided,
        false_positives,
        recovered,
        corruptions,
        recovered_by_class: by_class,
        period_stretch: scheme.period_stretch(),
        power_overhead: scheme.power_overhead_frac(),
    }
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
    assert!(trace.len() >= 2, "need at least two instructions");
    let mut profile = ErrorProfile::default();
    let mut cur_delays = oracle.delays(&trace[0], &trace[1]);
    // A min violation absorbed into the previous cycle's consecutive error
    // must not be re-counted as an SE(Min) of its own cycle.
    let mut min_consumed_by_ce = false;
    for i in 1..trace.len() {
        let next_delays = if i + 1 < trace.len() {
            Some(oracle.delays(&trace[i], &trace[i + 1]))
        } else {
            None
        };
        let mut v = violation_of(cur_delays, &clock);
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
        if let Some(d) = next_delays {
            cur_delays = d;
        }
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::Razor;
    use crate::dcs::Dcs;
    use crate::tag_delay::{OracleConfig, TagDelayOracle};
    use ntc_varmodel::{Corner, VariationParams};
    use ntc_workload::{Benchmark, TraceGenerator};

    fn setup() -> (TagDelayOracle, Vec<Instruction>, ClockSpec) {
        let oracle = TagDelayOracle::for_chip(
            Corner::NTC,
            VariationParams::ntc(),
            5,
            OracleConfig::default(),
        );
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
