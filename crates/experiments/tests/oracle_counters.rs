//! The oracle counters stay exact when a cell's schemes share one delay
//! stream: every oracle resolves each consecutive pair of the cell's
//! trace exactly once — as a gate-level simulation, a shared-table hit
//! or a local-table hit — however many schemes read the result, and the
//! per-chunk flush reaches a telemetry scope exactly as it reaches the
//! process-wide drain. The identity holds for every trace source:
//! generator, record and replay. One scope also covers every other
//! layer's counters, across sweep workers.
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
use ntc_workload::{Benchmark, TraceSource, WorkloadStats};

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

#[test]
fn lookups_equal_pairs_per_oracle_and_segment_and_scopes_match_the_drain() {
    let dir = std::env::temp_dir().join(format!("ntc-oracle-counters-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
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
            spec(
                Regime::Ch4,
                ch4_mix.clone(),
                TraceSource::Record(dir.clone()),
            ),
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

    // One scope covers every layer, across sweep workers: record, then
    // replay, a two-chip grid into a fresh directory at two jobs.
    set_jobs(2);
    let fresh = dir.join("fresh");
    let scoped_run = |source| {
        let spec = GridSpec {
            chips: 2,
            ..spec(Regime::Ch3, vec![SchemeSpec::RazorCh3], source)
        };
        telemetry::scoped(|| run_grid_uncached(&spec)).1
    };
    let record = scoped_run(TraceSource::Record(fresh.clone()));
    assert_eq!(
        WorkloadStats::from(&record).traces_recorded,
        1,
        "both chips share one trace"
    );
    let replay = scoped_run(TraceSource::Replay(fresh));
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
