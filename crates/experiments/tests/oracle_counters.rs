//! The oracle counters stay exact when a cell's schemes share one delay
//! stream: every oracle resolves each consecutive pair of the cell's
//! trace exactly once — as a gate-level simulation, a shared-table hit
//! or a local-table hit — however many schemes read the result, and the
//! per-chunk flush reaches a telemetry scope exactly as it reaches the
//! process-wide drain. The identity holds for both trace sources:
//! generator and replay. One scope also covers every other layer's
//! counters, across sweep workers.
//!
//! One `#[test]` body: the oracle counters are process-global, so the
//! runs must drain them sequentially.

use ntc_core::scenario::SchemeSpec;
use ntc_core::tag_delay::{take_oracle_stats, OracleStats};
use ntc_experiments::{
    run_grid_uncached, set_jobs, voltage_cells, CacheStats, GridSpec, Regime, SweepStats,
};
use ntc_varmodel::telemetry;
use ntc_varmodel::OperatingPoint;
use ntc_workload::{trace_bin, Benchmark, TraceGenerator, TraceSource, WorkloadStats};
use std::path::Path;

const TRACE_SEED: u64 = 17;
/// Long enough to cross two chunk edges of the delay stream.
const CYCLES: usize = 9_000;

fn spec(regime: Regime, schemes: Vec<SchemeSpec>, source: TraceSource) -> GridSpec {
    GridSpec {
        benchmarks: vec![Benchmark::Gzip],
        chips: 1,
        schemes,
        voltages: vec![OperatingPoint::NTC],
        regime,
        chip_seed_base: 990_101,
        trace_seed: TRACE_SEED,
        cycles: CYCLES,
        source,
    }
}

/// Record the cell's trace into `dir` the way `ntc-workload record` does.
fn record(dir: &Path) {
    let trace = TraceGenerator::new(Benchmark::Gzip, TRACE_SEED).trace(CYCLES);
    let path = TraceSource::trace_path(dir, Benchmark::Gzip, TRACE_SEED, CYCLES);
    trace_bin::write_trace_file(&path, &trace).expect("record");
}

#[test]
fn lookups_equal_pairs_per_oracle_and_segment_and_scopes_match_the_drain() {
    let dir = std::env::temp_dir().join(format!("ntc-oracle-counters-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    record(&dir);
    let ch4_mix = vec![
        SchemeSpec::RazorCh4,
        SchemeSpec::Trident { cet_entries: 128 },
        SchemeSpec::HardenChoke { top_k: 8 },
        SchemeSpec::Ocst,
    ];
    // (spec, oracles the cell streams through). The buffered-only grid
    // still builds the bare die for its clocks, but never streams it.
    let cases = [
        (
            spec(Regime::Ch4, ch4_mix.clone(), TraceSource::Generator),
            3,
        ),
        (
            spec(Regime::Ch4, ch4_mix, TraceSource::Replay(dir.clone())),
            3,
        ),
        (
            spec(
                Regime::Ch4,
                vec![SchemeSpec::RazorCh4, SchemeSpec::Ocst],
                TraceSource::Generator,
            ),
            1,
        ),
        (
            spec(
                Regime::Ch3,
                vec![
                    SchemeSpec::RazorCh3,
                    SchemeSpec::Hfg,
                    SchemeSpec::DcsIcslt { entries: 128 },
                    SchemeSpec::DcsAcslt {
                        entries: 32,
                        associativity: 16,
                    },
                ],
                TraceSource::Generator,
            ),
            1,
        ),
    ];
    let _ = take_oracle_stats();
    for (spec, oracles) in &cases {
        let (_, scoped) = telemetry::scoped(|| run_grid_uncached(spec));
        let global = take_oracle_stats();
        assert_eq!(
            OracleStats::from(&scoped),
            global,
            "{}: the scope must see exactly the drained deltas",
            spec.source
        );
        assert_eq!(
            global.gate_sims + global.local_hits + global.shared_hits,
            oracles * (CYCLES as u64 - 1),
            "{} with {} schemes: one lookup per pair per oracle",
            spec.source,
            spec.schemes.len()
        );
    }

    // One scope covers every layer, across sweep workers: replay a
    // two-chip grid from a fresh directory at two jobs.
    set_jobs(2);
    let fresh = dir.join("fresh");
    record(&fresh);
    let two_chips = GridSpec {
        chips: 2,
        ..spec(
            Regime::Ch3,
            vec![SchemeSpec::RazorCh3],
            TraceSource::Replay(fresh),
        )
    };
    let (_, replay) = telemetry::scoped(|| run_grid_uncached(&two_chips));
    let workload = WorkloadStats::from(&replay);
    assert_eq!(workload.trace_replays, 2);
    assert_eq!(workload.replayed_instructions, 2 * CYCLES as u64);
    assert_eq!(voltage_cells(&replay), [(OperatingPoint::NTC, 2)]);
    assert_eq!(
        OracleStats::from(&replay).queries(),
        2 * (CYCLES as u64 - 1)
    );
    assert!(SweepStats::from(&replay).busy.as_nanos() > 0);
    assert_eq!(
        CacheStats::from(&replay),
        CacheStats::default(),
        "uncached grids touch no cache"
    );
    set_jobs(0);
    let _ = std::fs::remove_dir_all(&dir);
}
