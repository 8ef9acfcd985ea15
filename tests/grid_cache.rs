//! Integration contract of the persistent grid cache: artifacts
//! round-trip bit-identically, every corruption mode degrades to a
//! recompute (never a panic, never wrong data), and the bounded in-memory
//! memo re-derives evicted grids bit-identically.

use ntc_choke::core::scenario::SchemeSpec;
use ntc_choke::experiments::cache;
use ntc_choke::experiments::scenario::GRID_MEMO_CAP;
use ntc_choke::experiments::{run_grid, run_grid_uncached, GridSpec, Regime};
use ntc_choke::varmodel::OperatingPoint;
use ntc_choke::workload::Benchmark;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// The cache's stats counters and disk-dir config are process-global, so
/// the tests of this file take turns.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A grid small enough to recompute freely. All specs share one
/// `chip_seed_base` (the chip-blank memo shares the fabrication work), so
/// varying `trace_seed` is the cheap way to mint distinct specs.
fn tiny_spec(trace_seed: u64) -> GridSpec {
    GridSpec {
        benchmarks: vec![Benchmark::Gzip],
        chips: 1,
        schemes: vec![SchemeSpec::RazorCh3, SchemeSpec::DcsIcslt { entries: 32 }],
        voltages: vec![OperatingPoint::NTC],
        regime: Regime::Ch3,
        chip_seed_base: 220,
        trace_seed,
        cycles: 2_000,
        source: ntc_workload::TraceSource::Generator,
    }
}

/// Fresh per-test cache directory (removed on entry, not exit, so a
/// failing test leaves its evidence behind).
fn cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ntc-grid-cache-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn store_then_load_round_trips_bit_identically() {
    let _guard = lock();
    let dir = cache_dir("roundtrip");
    let spec = tiny_spec(41);
    let cold = run_grid_uncached(&spec);
    let _ = cache::take_stats();
    cache::store(&dir, &spec, &cold).expect("artifact stored");
    let loaded = cache::load(&dir, &spec).expect("fresh artifact loads");
    // GridResult's PartialEq compares every counter and raw f64 sum, so
    // equality here is the bit-identity contract (the floats are encoded
    // as to_bits and compared after from_bits).
    assert_eq!(loaded, cold, "disk round trip must be bit-identical");
    let stats = cache::take_stats();
    assert_eq!(stats.disk_hits, 1);
    assert_eq!(stats.disk_misses, 0);
    assert!(stats.bytes_written > 0, "store accounted its bytes");
    // A different spec misses without disturbing the stored artifact.
    assert!(cache::load(&dir, &tiny_spec(42)).is_none());
    assert_eq!(cache::take_stats().disk_misses, 1);
    assert!(cache::load(&dir, &spec).is_some(), "original still loads");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_artifacts_are_quarantined_and_recomputed() {
    let _guard = lock();
    let dir = cache_dir("corrupt");
    let spec = tiny_spec(43);
    let cold = run_grid_uncached(&spec);
    cache::store(&dir, &spec, &cold).expect("artifact stored");
    let path = cache::artifact_path(&dir, &spec);

    // Flip one byte in the middle of the body.
    let mut bytes = std::fs::read(&path).expect("artifact readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).expect("corruption written");
    let _ = cache::take_stats();
    assert!(
        cache::load(&dir, &spec).is_none(),
        "flipped byte must load as a miss, not as data"
    );
    let stats = cache::take_stats();
    assert_eq!(stats.corrupt_evictions, 1);
    assert_eq!(stats.disk_misses, 1, "a corrupt load counts as a miss");
    assert!(
        !path.exists(),
        "corrupt artifact left the addressable namespace"
    );
    let quarantined = PathBuf::from(format!("{}.corrupt", path.display()));
    assert!(
        quarantined.exists(),
        "corrupt artifact was quarantined, not lost"
    );

    // Truncation at every interesting boundary also degrades to a miss.
    let good = {
        cache::store(&dir, &spec, &cold).expect("artifact restored");
        std::fs::read(&path).expect("readable")
    };
    for keep in [0, 1, 7, 8, 9, good.len() / 2, good.len() - 1] {
        std::fs::write(&path, &good[..keep]).expect("truncation written");
        assert!(
            cache::load(&dir, &spec).is_none(),
            "truncated to {keep} bytes must miss"
        );
    }
    let _ = cache::take_stats();

    // And the recompute path produces the same grid as ever.
    std::fs::write(&path, &good[..good.len() - 1]).expect("truncation written");
    if cache::load(&dir, &spec).is_none() {
        let recomputed = run_grid_uncached(&spec);
        assert_eq!(
            recomputed, cold,
            "recompute after eviction is bit-identical"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn old_schema_artifacts_are_ignored_not_quarantined() {
    let _guard = lock();
    let dir = cache_dir("old-schema");
    let spec = tiny_spec(55);
    let cold = run_grid_uncached(&spec);
    cache::store(&dir, &spec, &cold).expect("artifact stored");

    // Stand-in for a pre-bump artifact: the schema tag is folded into
    // the content-addressed key, so an artifact written under any other
    // schema lives at a filename the current code never computes. Its
    // content would fail every structural check if it were ever decoded
    // — the point is that it never is.
    let old_path = dir.join(format!("{}.grid", "0".repeat(32)));
    let old_bytes = b"NTCGRID1 written by an older schema".to_vec();
    std::fs::write(&old_path, &old_bytes).expect("stale artifact written");

    let _ = cache::take_stats();
    // A voltage-axis variant of the spec misses cleanly; the current
    // spec still hits. Neither lookup goes anywhere near the stale file.
    let mut wide = tiny_spec(55);
    wide.voltages = vec![
        OperatingPoint::NTC,
        OperatingPoint::parse("v0.60").expect("roster point"),
    ];
    assert!(
        cache::load(&dir, &wide).is_none(),
        "wider axis is a plain miss"
    );
    assert!(
        cache::load(&dir, &spec).is_some(),
        "current artifact still hits"
    );
    let stats = cache::take_stats();
    assert_eq!(stats.corrupt_evictions, 0, "nothing was quarantined");

    // The stale artifact is ignored: untouched in place, not renamed.
    assert_eq!(
        std::fs::read(&old_path).expect("stale artifact still readable"),
        old_bytes,
        "old-schema artifact bytes untouched"
    );
    let corpses: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir readable")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "corrupt"))
        .collect();
    assert!(
        corpses.is_empty(),
        "no .corrupt quarantine files: {corpses:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn memo_eviction_recomputes_bit_identically() {
    let _guard = lock();
    // No disk tier: this exercises the bounded in-memory memo only.
    cache::set_disk_dir(None);
    let first = run_grid(&tiny_spec(100));
    // Insert GRID_MEMO_CAP newer grids; whatever the memo held before,
    // spec 100 is now the oldest of more-than-cap entries and must be
    // evicted.
    for seed in 101..(101 + GRID_MEMO_CAP as u64) {
        let _ = run_grid(&tiny_spec(seed));
    }
    let again = run_grid(&tiny_spec(100));
    assert!(
        !Arc::ptr_eq(&first, &again),
        "the evicted grid must have been recomputed, not retained"
    );
    assert_eq!(
        *first, *again,
        "recomputation after LRU eviction is bit-identical"
    );
    // A hot entry is still served from the memo (same Arc).
    let hot = run_grid(&tiny_spec(100));
    assert!(Arc::ptr_eq(&again, &hot), "fresh entry stays memoized");
}

#[test]
fn disk_hits_feed_run_grid_and_match_cold_results() {
    let _guard = lock();
    let dir = cache_dir("two-tier");
    let spec = tiny_spec(77);
    let cold = run_grid_uncached(&spec);
    cache::store(&dir, &spec, &cold).expect("artifact stored");
    cache::set_disk_dir(Some(dir.clone()));
    // Push the spec out of the in-memory memo so run_grid must go to disk.
    for seed in 1_000..(1_000 + GRID_MEMO_CAP as u64 + 1) {
        let _ = run_grid(&tiny_spec(seed));
    }
    let _ = cache::take_stats();
    let warm = run_grid(&spec);
    let stats = cache::take_stats();
    cache::set_disk_dir(None);
    assert!(stats.disk_hits >= 1, "run_grid consulted the disk tier");
    assert_eq!(*warm, cold, "a disk hit is bit-identical to a cold run");
    std::fs::remove_dir_all(&dir).ok();
}
