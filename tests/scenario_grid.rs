//! The scenario engine's public contract, end to end:
//!
//! * the scheme registry round-trips — every roster name parses back to
//!   its spec, display names never alias, unknown names error cleanly —
//!   and every spec builds a live scheme;
//! * `run_grid` cells are bit-identical across `--jobs 1/2/8`: the grid
//!   driver folds in index order, so no aggregate — integer counter or
//!   floating-point mean — may depend on the thread count;
//! * and across scheme order: every scheme of a cell replays the same
//!   trace against the same oracles, so listing the schemes in reverse
//!   changes no scheme's accumulator.
//!
//! Both live in a single `#[test]` because `runner::set_jobs` is
//! process-global: parallel test functions would race on it.

use ntc_choke::core::scenario::{ChipContext, SchemeSpec};
use ntc_choke::experiments::runner;
use ntc_choke::experiments::scenario::{run_grid_uncached, GridSpec, Regime};
use ntc_choke::timing::ClockSpec;
use ntc_choke::varmodel::OperatingPoint;
use ntc_choke::workload::Benchmark;
use std::collections::HashSet;

#[test]
fn registry_round_trips_and_grids_are_thread_count_invariant() {
    // --- Registry round-trip. ---
    let mut names = HashSet::new();
    let mut displays = HashSet::new();
    let ctx = ChipContext {
        static_critical_delay_ps: 1500.0,
        clock: ClockSpec {
            period_ps: 1100.0,
            hold_ps: 110.0,
        },
        trace_len: 60_000,
        point: OperatingPoint::NTC,
    };
    for spec in SchemeSpec::roster() {
        let name = spec.name();
        assert_eq!(
            SchemeSpec::parse(&name).as_ref(),
            Ok(spec),
            "roster name `{name}` must parse back to its spec"
        );
        assert!(names.insert(name.clone()), "duplicate scheme name `{name}`");
        assert!(
            displays.insert(spec.display_name()),
            "duplicate display name `{}`",
            spec.display_name()
        );
        // Every registered spec constructs a live scheme.
        let built = spec.build(&ctx);
        assert!(!built.name().is_empty(), "`{name}` builds");
    }
    for bad in ["", "no-such-scheme", "dcs-icslt:bogus", "trident:0"] {
        let err = SchemeSpec::parse(bad).expect_err("unknown names must error");
        assert_eq!(err.input, bad, "the error names the offending input");
    }

    // --- run_grid determinism across thread counts. ---
    // Uncached deliberately: the grid cache would short-circuit the
    // second and third runs. A small but representative spec — two
    // benchmarks, two chips, a four-point supply-voltage axis, and
    // schemes covering the per-chip-stretch (HFG) and capacity-table
    // (DCS) paths.
    let voltages: Vec<OperatingPoint> = ["ntc", "v0.55", "v0.65", "stc"]
        .iter()
        .map(|n| OperatingPoint::parse(n).expect("roster point"))
        .collect();
    let spec = GridSpec {
        benchmarks: vec![Benchmark::Gzip, Benchmark::Mcf],
        chips: 2,
        schemes: vec![
            SchemeSpec::RazorCh3,
            SchemeSpec::Hfg,
            SchemeSpec::DcsIcslt { entries: 32 },
        ],
        voltages: voltages.clone(),
        regime: Regime::Ch3,
        chip_seed_base: 220,
        trace_seed: 7,
        cycles: 4_000,
        source: ntc_workload::TraceSource::Generator,
    };
    let mut reversed = spec.clone();
    reversed.schemes.reverse();
    let runs = [(1usize, &spec), (2, &spec), (8, &spec), (2, &reversed)];
    let grids: Vec<_> = runs
        .iter()
        .map(|&(jobs, spec)| {
            runner::set_jobs(jobs);
            run_grid_uncached(spec)
        })
        .collect();
    runner::set_jobs(1);

    let reference = &grids[0];
    // Row structure: bench-major over the declared voltage axis.
    assert_eq!(
        reference.rows().len(),
        spec.benchmarks.len() * voltages.len(),
        "one row per (benchmark, operating point)"
    );
    for (i, (bench, point, _)) in reference.rows().iter().enumerate() {
        assert_eq!(*bench, spec.benchmarks[i / voltages.len()], "row {i} bench");
        assert_eq!(*point, voltages[i % voltages.len()], "row {i} point");
    }
    for (&(jobs, run_spec), grid) in runs.iter().zip(&grids).skip(1) {
        assert_eq!(grid.schemes(), &run_spec.schemes[..]);
        for ((b_ref, v_ref, accs_ref), (b, v, accs)) in reference.rows().iter().zip(grid.rows()) {
            assert_eq!(b, b_ref, "--jobs {jobs}: benchmark order");
            assert_eq!(v, v_ref, "--jobs {jobs}: voltage order");
            for (spec, acc) in run_spec.schemes.iter().zip(accs) {
                let at = reference
                    .schemes()
                    .iter()
                    .position(|s| s == spec)
                    .expect("same schemes");
                let acc_ref = &accs_ref[at];
                // The whole accumulator — every integer counter and float
                // sum — must match exactly…
                assert_eq!(
                    acc,
                    acc_ref,
                    "--jobs {jobs}, schemes {:?}: {} on {} @ {} diverged",
                    grid.schemes(),
                    spec.name(),
                    b.name(),
                    v.name()
                );
                // …and the derived means must be bit-identical, not
                // merely approximately equal.
                assert_eq!(
                    acc.mean_period_stretch().to_bits(),
                    acc_ref.mean_period_stretch().to_bits(),
                    "--jobs {jobs}: {} stretch mean",
                    spec.name()
                );
                assert_eq!(
                    acc.mean_prediction_accuracy().to_bits(),
                    acc_ref.mean_prediction_accuracy().to_bits(),
                    "--jobs {jobs}: {} accuracy mean",
                    spec.name()
                );
            }
        }
    }
    // The grid actually simulated something: HFG stretches the clock on
    // these PV-affected dice at NTC, and some scheme saw errors.
    let gzip = reference.cell(Benchmark::Gzip, OperatingPoint::NTC);
    assert!(gzip[1].mean_period_stretch() > 1.0, "HFG stretch applied");
    assert!(
        gzip.iter().any(|a| a.result().errors_total() > 0),
        "the grid's clock must induce errors"
    );
}
