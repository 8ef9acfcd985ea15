//! The sweep engine's determinism contract, end to end: a full experiment
//! table rendered to CSV must be byte-identical whether the chip sweep ran
//! on one thread or eight, and regardless of how warm the chip-blank /
//! shared-delay memos are.
//!
//! Everything lives in a single `#[test]` because `runner::set_jobs` is
//! process-global: parallel test functions would race on it.

use ntc_choke::core::tag_delay::TagDelayOracle;
use ntc_choke::experiments::{all_experiments, runner, Scale};
use ntc_choke::varmodel::{Corner, VariationParams};
use ntc_choke::workload::{Benchmark, TraceGenerator};

fn csv_of(id: &str, scale: Scale) -> Vec<u8> {
    let (_, run) = all_experiments()
        .into_iter()
        .find(|(eid, _)| *eid == id)
        .unwrap_or_else(|| panic!("experiment {id} not found"));
    let table = run(scale);
    let mut buf = Vec::new();
    table.write_csv(&mut buf).expect("write csv to vec");
    buf
}

#[test]
fn experiment_csvs_are_identical_at_any_thread_count() {
    // Three multi-chip experiments, none behind a result memo (the
    // scenario engine's grid cache would short-circuit the second run of
    // any run_grid experiment — run_grid_uncached has its own determinism
    // test in scenario_grid.rs). abl.tags folds f64 accuracies across a
    // (mode × benchmark × chip) grid — order-sensitive; abl.window folds
    // f64 error-population counts over the ch4 bufferless netlist;
    // fig3.2b merges per-chip choke profiles of the causal-path study.
    for id in ["abl.tags", "abl.window", "fig3.2b"] {
        runner::set_jobs(1);
        let sequential = csv_of(id, Scale::Fast);
        assert!(!sequential.is_empty(), "{id}: empty CSV");

        runner::set_jobs(8);
        let parallel = csv_of(id, Scale::Fast);
        runner::set_jobs(1);

        assert_eq!(
            sequential, parallel,
            "{id}: CSV differs between --jobs 1 and --jobs 8"
        );
    }

    // The chip-blank memo warmed by the runs above must hand back delay
    // tables indistinguishable from a freshly fabricated oracle: same
    // chips, same cyclewise answers, no path dependence from whichever
    // experiment touched the shared cache first.
    let mut memoized = ntc_choke::experiments::config::build_oracle(
        Corner::NTC,
        900, // abl.tags' first chip: seed base 900 + chip 0
        false,
        ntc_choke::experiments::config::CH3_REGIME,
    );
    let mut fresh = TagDelayOracle::for_chip(Corner::NTC, VariationParams::ntc(), 900);
    let probe = TraceGenerator::new(Benchmark::Gap, 0xD15C).trace(500);
    for pair in probe.windows(2) {
        assert_eq!(
            memoized.delays(&pair[0], &pair[1]),
            fresh.delays(&pair[0], &pair[1]),
            "memoized chip diverges from fresh fabrication"
        );
    }

    // Fault-isolated sweeps inherit the same contract: with panics
    // injected at fixed indices, every surviving index must stay
    // bit-identical across thread counts, and the caught failures must be
    // identical too. (Lives in this test fn because `set_jobs` is
    // process-global.)
    let chip_delay = |i: usize| {
        if i == 3 || i == 11 {
            panic!("injected: chip {i} failed fabrication");
        }
        let mut oracle =
            TagDelayOracle::for_chip(Corner::NTC, VariationParams::ntc(), 7000 + i as u64);
        let probe = TraceGenerator::new(Benchmark::Mcf, 0xBEEF ^ i as u64).trace(8);
        probe
            .windows(2)
            .map(|w| oracle.delays(&w[0], &w[1]).max_ps.unwrap_or(0.0))
            .sum::<f64>()
    };
    let _ = runner::take_sweep_failures();
    runner::set_jobs(1);
    let sequential = runner::sweep_catching(16, chip_delay);
    let seq_failures = runner::take_sweep_failures();
    runner::set_jobs(8);
    let parallel = runner::sweep_catching(16, chip_delay);
    let par_failures = runner::take_sweep_failures();
    runner::set_jobs(1);

    assert_eq!(seq_failures, par_failures, "identical caught failures");
    assert_eq!(
        seq_failures.iter().map(|f| f.index).collect::<Vec<_>>(),
        vec![3, 11],
        "exactly the injected indices fail"
    );
    for (i, (a, b)) in sequential.iter().zip(&parallel).enumerate() {
        match (a, b) {
            (Ok(x), Ok(y)) => assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "index {i}: surviving chips bit-identical across thread counts"
            ),
            (Err(x), Err(y)) => assert_eq!(x, y, "index {i}"),
            _ => panic!("index {i}: pass/fail flipped with thread count"),
        }
    }
}
