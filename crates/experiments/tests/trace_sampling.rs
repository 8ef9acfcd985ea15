//! Trace replay conformance: the acceptance contract of the binary-trace
//! subsystem, end to end through the grid engine. `Replay` of a trace
//! file written the way `ntc-workload record` writes it is bit-identical
//! to the generator — the whole [`ntc_experiments::GridResult`], float
//! bit patterns included.
//!
//! One `#[test]` body: the workload telemetry counters are
//! process-global, so the two runs must drain them sequentially (the
//! same pattern as the serve and parallel-determinism suites).

use ntc_core::scenario::SchemeSpec;
use ntc_experiments::{run_grid_uncached, GridSpec, Regime};
use ntc_varmodel::OperatingPoint;
use ntc_workload::{trace_bin, Benchmark, TraceGenerator, TraceSource};
use std::path::PathBuf;

const TRACE_SEED: u64 = 9;
const CYCLES: usize = 30_000;

fn spec(source: TraceSource) -> GridSpec {
    GridSpec {
        benchmarks: vec![Benchmark::Mcf],
        chips: 2,
        schemes: vec![SchemeSpec::RazorCh3, SchemeSpec::DcsIcslt { entries: 32 }],
        voltages: vec![OperatingPoint::NTC],
        regime: Regime::Ch3,
        chip_seed_base: 310,
        trace_seed: TRACE_SEED,
        cycles: CYCLES,
        source,
    }
}

fn test_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ntc-trace-sampling-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
    dir
}

#[test]
fn record_replay_is_bit_identical() {
    let dir = test_dir();

    // ---- Baseline: the statistical generator --------------------------
    let generator = run_grid_uncached(&spec(TraceSource::Generator));
    let baseline_stats = ntc_workload::take_stats();
    assert!(
        !baseline_stats.any(),
        "generator runs must not touch the replay counters: {baseline_stats:?}"
    );

    // ---- Record: the cell's one trace file ----------------------------
    let trace_file = TraceSource::trace_path(&dir, Benchmark::Mcf, TRACE_SEED, CYCLES);
    let trace = TraceGenerator::new(Benchmark::Mcf, TRACE_SEED).trace(CYCLES);
    trace_bin::write_trace_file(&trace_file, &trace).expect("record");

    // ---- Replay: bit-identical fold -----------------------------------
    let replayed = run_grid_uncached(&spec(TraceSource::Replay(dir.clone())));
    assert_eq!(
        replayed, generator,
        "whole-trace replay must be bit-identical to the generator"
    );
    let replay_stats = ntc_workload::take_stats();
    assert!(replay_stats.trace_replays >= 1, "{replay_stats:?}");
    assert!(
        replay_stats.replayed_instructions >= CYCLES as u64,
        "{replay_stats:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
