//! Scheme conformance suite: every `ResilienceScheme` implementation is
//! driven over a shared chip + trace fixture and checked against the
//! accounting invariants the rest of the repo relies on:
//!
//! * `prediction_accuracy()` is a percentage in `[0, 100]`;
//! * flush accounting is exact — one flush event per recovery, each
//!   costing `Pipeline::flush_penalty()` cycles, so `penalty_cycles` is
//!   monotone in recoveries for stall-free schemes;
//! * base-clock schemes account for every error the scheme-free profiler
//!   sees (`avoided + recovered + corruptions == profile_errors` totals),
//!   with the documented exceptions (HFG stretches its clock and sees
//!   fewer; OCST's tuned skew masks overshoots; Razor ch4 double-counts
//!   consecutive errors because it cannot absorb the trailing min half;
//!   DVS tightens its effective clock as it harvests supply rungs and so
//!   sees *at least* the base-clock profile, recovering all of it);
//! * two same-seed runs produce an identical `SimResult`;
//! * `run_schemes` over the whole roster on one oracle equals one
//!   `run_scheme` per scheme on fresh oracles, bit for bit, at trace
//!   lengths on both sides of every delay-stream chunk edge — `dvs`
//!   included: it scales its clock, not the delays, so it reads the
//!   bare stream like everyone else. At the same lengths the stream
//!   hands every cycle its own pair's tag and delays and the next pair's
//!   delays as lookahead, exactly as `ErrorTag::of` and one `delays`
//!   lookup per pair would;
//! * a grid cell grouping bare, buffered and hardened oracles equals
//!   its one-scheme grids.

use ntc_choke::core::baselines::{Hfg, Ocst, Razor};
use ntc_choke::core::dcs::Dcs;
use ntc_choke::core::scenario::{ChipContext, SchemeSpec};
use ntc_choke::core::scheme::{CycleContext, CycleOutcome, ResilienceScheme};
use ntc_choke::core::sim::{profile_errors, run_scheme, run_schemes, SimResult};
use ntc_choke::core::tag_delay::{CycleDelays, TagDelayOracle, STREAM_CHUNK};
use ntc_choke::core::trident::Trident;
use ntc_choke::experiments::{run_grid_uncached, GridSpec, Regime};
use ntc_choke::isa::{ErrorTag, Instruction};
use ntc_choke::pipeline::Pipeline;
use ntc_choke::timing::ClockSpec;
use ntc_choke::varmodel::{Corner, OperatingPoint, VariationParams};
use ntc_choke::workload::{Benchmark, TraceGenerator, TraceSource};

const CHIP_SEED: u64 = 21;
const TRACE_LEN: usize = 6_000;

fn oracle() -> TagDelayOracle {
    TagDelayOracle::for_chip(Corner::NTC, VariationParams::ntc(), CHIP_SEED)
}

fn trace() -> Vec<Instruction> {
    TraceGenerator::new(Benchmark::Mcf, 8).trace(TRACE_LEN)
}

/// Ch. 3 operating point: timing-speculative on the max side only; the
/// hold window sits below every intrinsic min delay.
fn ch3_clock(o: &TagDelayOracle) -> ClockSpec {
    let nominal = o.nominal_critical_delay_ps();
    ClockSpec {
        period_ps: nominal * 0.90,
        hold_ps: nominal * 0.06,
    }
}

/// Ch. 4 operating point: the hold window reaches into the min-delay
/// range (choke buffers defeated), so both violation sides occur.
fn ch4_clock(o: &TagDelayOracle) -> ClockSpec {
    let nominal = o.nominal_critical_delay_ps();
    ClockSpec {
        period_ps: nominal * 0.95,
        hold_ps: nominal * 0.16,
    }
}

fn hfg_stretch(o: &TagDelayOracle, clock: ClockSpec) -> f64 {
    (o.static_critical_delay_ps() * 1.02 / clock.period_ps).max(1.0)
}

/// Build a voltage-axis scheme through the registry: the DVS undervolting
/// ladder is derived from the grid operating point inside
/// `SchemeSpec::build`, not in the scheme constructor, so conformance must
/// go through the same path. `v0.60` gives the controller real rungs to
/// walk (NTC is already the roster floor).
fn registry_scheme(
    spec: SchemeSpec,
    o: &TagDelayOracle,
    clock: ClockSpec,
) -> Box<dyn ResilienceScheme> {
    let ctx = ChipContext {
        static_critical_delay_ps: o.static_critical_delay_ps(),
        clock,
        trace_len: TRACE_LEN,
        point: OperatingPoint::parse("v0.60").expect("roster point"),
    };
    spec.build(&ctx)
}

/// Fresh instances of every scheme in the repo, paired with the chapter
/// clock each is specified against.
fn all_schemes(o: &TagDelayOracle) -> Vec<(Box<dyn ResilienceScheme>, ClockSpec)> {
    let c3 = ch3_clock(o);
    let c4 = ch4_clock(o);
    vec![
        (Box::new(Razor::ch3()) as Box<dyn ResilienceScheme>, c3),
        (Box::new(Razor::ch4()), c4),
        (Box::new(Hfg::with_stretch(hfg_stretch(o, c3))), c3),
        (Box::new(Ocst::new(1_000, 0.30)), c3),
        (Box::new(Dcs::icslt_default()), c3),
        (Box::new(Dcs::acslt_default()), c3),
        (Box::new(Trident::paper()), c4),
        (registry_scheme(SchemeSpec::Dvs, o, c3), c3),
        (
            registry_scheme(SchemeSpec::HardenChoke { top_k: 8 }, o, c3),
            c3,
        ),
    ]
}

#[test]
fn every_scheme_satisfies_the_universal_invariants() {
    let o = oracle();
    let trace = trace();
    let pipe = Pipeline::core1();
    for (mut scheme, clock) in all_schemes(&o) {
        let mut chip = oracle();
        let r = run_scheme(scheme.as_mut(), &mut chip, &trace, clock, pipe);
        let name = r.scheme;

        // Accuracy is a percentage.
        let acc = r.prediction_accuracy();
        assert!((0.0..=100.0).contains(&acc), "{name}: accuracy {acc}");

        // Flush accounting is exact: one flush event per recovery, each
        // worth `flush_penalty()` cycles — penalty_cycles is therefore
        // monotone in recoveries at fixed stall count.
        assert_eq!(r.cost.flush_events, r.recovered, "{name}: flush events");
        assert_eq!(
            r.cost.flush_cycles,
            r.recovered * pipe.flush_penalty(),
            "{name}: flush cycles"
        );
        assert_eq!(
            r.cost.penalty_cycles(),
            r.cost.stall_cycles + r.cost.flush_cycles,
            "{name}: penalty decomposition"
        );
        // Every avoidance (true or false positive) inserts at least one
        // stall cycle.
        assert!(
            r.cost.stall_cycles >= r.avoided + r.false_positives,
            "{name}: stalls {} < avoidances {}",
            r.cost.stall_cycles,
            r.avoided + r.false_positives
        );
        // Recoveries-by-class sums to the recovery counter.
        let by_class: u64 = r.recovered_by_class.iter().sum();
        assert_eq!(by_class, r.recovered, "{name}: class breakdown");

        // Mechanical sanity on the remaining knobs.
        assert!(r.period_stretch >= 1.0, "{name}: stretch");
        assert!(r.power_overhead >= 0.0, "{name}: power overhead");
        assert_eq!(
            r.cost.instructions,
            (trace.len() - 1) as u64,
            "{name}: cycles"
        );
    }
}

#[test]
fn penalty_cycles_are_monotone_in_recoveries_for_stall_free_schemes() {
    // Razor, HFG and OCST never stall: their penalty is purely
    // `recovered × flush_penalty`, so sorting by recoveries must sort by
    // penalty as well.
    let o = oracle();
    let trace = trace();
    let pipe = Pipeline::core1();
    let clock = ch3_clock(&o);
    let mut results: Vec<SimResult> = Vec::new();
    let mut razor = Razor::ch3();
    let mut hfg = Hfg::with_stretch(hfg_stretch(&o, clock));
    let mut ocst = Ocst::new(1_000, 0.30);
    let schemes: [&mut dyn ResilienceScheme; 3] = [&mut razor, &mut hfg, &mut ocst];
    for scheme in schemes {
        let mut chip = oracle();
        let r = run_scheme(scheme, &mut chip, &trace, clock, pipe);
        assert_eq!(r.cost.stall_cycles, 0, "{}: must be stall-free", r.scheme);
        results.push(r);
    }
    results.sort_by_key(|r| r.recovered);
    for pair in results.windows(2) {
        assert!(
            pair[0].cost.penalty_cycles() <= pair[1].cost.penalty_cycles(),
            "{} ({} recoveries, {} penalty) vs {} ({} recoveries, {} penalty)",
            pair[0].scheme,
            pair[0].recovered,
            pair[0].cost.penalty_cycles(),
            pair[1].scheme,
            pair[1].recovered,
            pair[1].cost.penalty_cycles()
        );
    }
}

#[test]
fn base_clock_schemes_account_for_every_profiled_error() {
    let trace = trace();
    let pipe = Pipeline::core1();

    // Ch. 3 side: the hold window is below the intrinsic min-delay range,
    // so the profile must contain max-side errors only — a precondition
    // for comparing against schemes that are blind to the min side.
    let mut chip = oracle();
    let c3 = ch3_clock(&chip);
    let p3 = profile_errors(&mut chip, &trace, c3);
    assert!(p3.errors_total() > 0, "fixture must induce errors");
    let min_errors: u64 = p3.per_opcode_minmax.values().map(|(_, min_e)| *min_e).sum();
    assert_eq!(min_errors, 0, "ch3 clock must be max-side only");

    let hardened = {
        let chip = oracle();
        // On a stock die (no gates actually hardened) the choke-hardened
        // Razor recovers exactly the profiled errors, like plain Razor —
        // the scheme only pays its upsizing power.
        registry_scheme(SchemeSpec::HardenChoke { top_k: 8 }, &chip, c3)
    };
    for mut scheme in [
        Box::new(Razor::ch3()) as Box<dyn ResilienceScheme>,
        Box::new(Dcs::icslt_default()),
        Box::new(Dcs::acslt_default()),
        hardened,
    ] {
        let mut chip = oracle();
        let r = run_scheme(scheme.as_mut(), &mut chip, &trace, c3, pipe);
        assert_eq!(
            r.errors_total(),
            p3.errors_total(),
            "{}: avoided {} + recovered {} + corruptions {} != profiled {}",
            r.scheme,
            r.avoided,
            r.recovered,
            r.corruptions,
            p3.errors_total()
        );
    }

    // Ch. 4 side: both violation sides occur; Trident classifies exactly
    // like the profiler (including consecutive-error absorption).
    let mut chip = oracle();
    let c4 = ch4_clock(&chip);
    let p4 = profile_errors(&mut chip, &trace, c4);
    assert!(p4.errors_total() > 0, "ch4 fixture must induce errors");

    let mut chip = oracle();
    let trident = run_scheme(&mut Trident::paper(), &mut chip, &trace, c4, pipe);
    assert_eq!(
        trident.errors_total(),
        p4.errors_total(),
        "Trident: avoided {} + recovered {} + corruptions {} != profiled {}",
        trident.avoided,
        trident.recovered,
        trident.corruptions,
        p4.errors_total()
    );

    // HFG runs at a stretched clock: it must see no more errors than the
    // base-clock profile, and its guardband leaves nothing silent.
    let mut chip = oracle();
    let hfg = run_scheme(
        &mut Hfg::with_stretch(hfg_stretch(&chip, c3)),
        &mut chip,
        &trace,
        c3,
        pipe,
    );
    assert!(
        hfg.errors_total() <= p3.errors_total(),
        "HFG sees fewer errors"
    );
    assert_eq!(hfg.corruptions, 0, "HFG has no silent corruptions");

    // OCST masks overshoots it has tuned slack for: never more events
    // than the profile.
    let mut chip = oracle();
    let ocst = run_scheme(&mut Ocst::new(1_000, 0.30), &mut chip, &trace, c3, pipe);
    assert!(
        ocst.errors_total() <= p3.errors_total(),
        "OCST masks tuned errors"
    );

    // DVS thresholds against its effective clock, which only tightens as
    // the controller harvests supply rungs: at least the base-clock
    // profile's errors occur, every one is recovered (the correction loop
    // never lets an error pass silently), and the harvested margin shows
    // up as a mean supply below the grid point.
    let mut chip = oracle();
    let mut dvs = registry_scheme(SchemeSpec::Dvs, &chip, c3);
    let r = run_scheme(dvs.as_mut(), &mut chip, &trace, c3, pipe);
    assert!(
        r.errors_total() >= p3.errors_total(),
        "DVS: {} events vs profiled {}",
        r.errors_total(),
        p3.errors_total()
    );
    assert_eq!(r.corruptions, 0, "DVS recovers every error it induces");
    assert_eq!(r.avoided, 0, "DVS has no prediction path");
}

#[test]
fn razor_ch4_double_counts_consecutive_errors() {
    // Razor cannot absorb the min half of a consecutive error: it recovers
    // the max half and silently corrupts on the following min violation,
    // so it reports one extra event per profiled CE. This asymmetry is the
    // quantitative core of the ch4 argument — pin it down.
    use ntc_choke::timing::ErrorClass;
    // Chip 21 happens to produce no CEs on this trace; chip 11 produces
    // hundreds at the same operating point.
    let ce_chip = || TagDelayOracle::for_chip(Corner::NTC, VariationParams::ntc(), 11);
    let trace = trace();
    let mut chip = ce_chip();
    let c4 = ch4_clock(&chip);
    let p4 = profile_errors(&mut chip, &trace, c4);
    let ce = p4.class_count(ErrorClass::Consecutive);
    assert!(ce > 0, "ch4 fixture must contain consecutive errors");

    let mut chip = ce_chip();
    let razor = run_scheme(&mut Razor::ch4(), &mut chip, &trace, c4, Pipeline::core1());
    // Razor recovers exactly the max-side violations (its shadow latch
    // catches every late transition, and a max violation shadows any min
    // violation of the same cycle).
    let max_cycles: u64 = p4.per_opcode_minmax.values().map(|(max_e, _)| *max_e).sum();
    assert_eq!(
        razor.recovered, max_cycles,
        "Razor ch4 recovers every max violation"
    );
    // It reports strictly more events than the profiler (the min half of
    // a CE corrupts as a separate event), but at most one extra per CE.
    assert!(
        razor.errors_total() > p4.errors_total() && razor.errors_total() <= p4.errors_total() + ce,
        "Razor ch4: avoided {} + recovered {} + corruptions {} vs profiled {} (+{} CEs)",
        razor.avoided,
        razor.recovered,
        razor.corruptions,
        p4.errors_total(),
        ce
    );
    assert!(razor.corruptions > 0, "the min halves corrupt silently");
}

#[test]
fn same_seed_runs_produce_identical_results() {
    let o = oracle();
    let trace = trace();
    let pipe = Pipeline::core1();
    let n = all_schemes(&o).len();
    for idx in 0..n {
        // Fresh chip, fresh scheme state, same seeds throughout — the two
        // runs must agree field for field (SimResult: PartialEq).
        let run_once = || {
            let mut chip = oracle();
            let (mut scheme, clock) = all_schemes(&chip).swap_remove(idx);
            run_scheme(scheme.as_mut(), &mut chip, &trace, clock, pipe)
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(
            a, b,
            "scheme #{idx} ({}): same-seed runs diverged",
            a.scheme
        );
    }
}

#[test]
fn run_schemes_equals_one_run_scheme_per_scheme_across_chunk_edges() {
    let pipe = Pipeline::core1();
    let o = oracle();
    let longest = TraceGenerator::new(Benchmark::Mcf, 8).trace(3 * STREAM_CHUNK + 5);
    for len in [
        2,
        3,
        STREAM_CHUNK,
        STREAM_CHUNK + 1,
        STREAM_CHUNK + 2,
        3 * STREAM_CHUNK + 5,
    ] {
        let trace = &longest[..len];
        let mut roster = all_schemes(&o);
        assert_eq!(roster.len(), 9, "the whole registered roster");
        let shared = run_schemes(&mut roster, &mut oracle(), trace, pipe);
        let alone: Vec<SimResult> = all_schemes(&o)
            .into_iter()
            .map(|(mut scheme, clock)| {
                run_scheme(scheme.as_mut(), &mut oracle(), trace, clock, pipe)
            })
            .collect();
        assert_eq!(shared, alone, "{len}-instruction trace");

        // Both sides above read the same chunked stream, so check the
        // stream itself against one `delays` lookup per pair: every cycle
        // sees its own pair's tag and delays and, as lookahead, the next
        // pair's delays.
        let mut probe = Probe(Vec::new());
        run_scheme(&mut probe, &mut oracle(), trace, ch3_clock(&o), pipe);
        let mut chip = oracle();
        let pairs: Vec<_> = trace
            .windows(2)
            .map(|w| chip.delays(&w[0], &w[1]))
            .collect();
        let expected: Vec<_> = trace
            .windows(2)
            .zip(&pairs)
            .enumerate()
            .map(|(p, (w, &d))| {
                (
                    w[0],
                    w[1],
                    ErrorTag::of(&w[0], &w[1]),
                    d,
                    pairs.get(p + 1).copied(),
                )
            })
            .collect();
        assert_eq!(probe.0, expected, "{len}-instruction trace: delay stream");
    }
}

/// What the simulator hands a scheme in one cycle: the pair, its tag,
/// its delays and the lookahead.
type Seen = (
    Instruction,
    Instruction,
    ErrorTag,
    CycleDelays,
    Option<CycleDelays>,
);

/// A scheme that logs what the simulator hands it each cycle.
struct Probe(Vec<Seen>);

impl ResilienceScheme for Probe {
    fn name(&self) -> &'static str {
        "probe"
    }

    fn on_cycle(&mut self, ctx: &CycleContext<'_>) -> CycleOutcome {
        self.0
            .push((*ctx.prev, *ctx.cur, ctx.tag, ctx.delays, ctx.next_delays));
        CycleOutcome::Clean
    }
}

#[test]
fn grid_cells_grouping_bare_buffered_and_hardened_oracles_equal_one_scheme_grids() {
    // Spec order interleaves the groups: buffered {razor-ch4, ocst}, bare
    // {trident, dcs-icslt}, hardened {harden-choke}.
    let schemes = vec![
        SchemeSpec::RazorCh4,
        SchemeSpec::Trident { cet_entries: 128 },
        SchemeSpec::HardenChoke { top_k: 8 },
        SchemeSpec::Ocst,
        SchemeSpec::DcsIcslt { entries: 128 },
    ];
    let spec = |schemes: Vec<SchemeSpec>| GridSpec {
        benchmarks: vec![Benchmark::Mcf],
        chips: 1,
        schemes,
        voltages: vec![OperatingPoint::NTC],
        regime: Regime::Ch4,
        chip_seed_base: CHIP_SEED,
        trace_seed: 8,
        cycles: 2 * STREAM_CHUNK + 3,
        source: TraceSource::Generator,
    };
    let grouped = run_grid_uncached(&spec(schemes.clone()));
    let row = &grouped.rows()[0].2;
    for (i, s) in schemes.into_iter().enumerate() {
        let alone = run_grid_uncached(&spec(vec![s]));
        assert_eq!(row[i], alone.rows()[0].2[0], "{}", s.name());
    }
}
