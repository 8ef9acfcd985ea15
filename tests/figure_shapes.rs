//! Headline-shape regression tests: the key qualitative results of every
//! reproduced figure must hold at fast scale. These protect the paper's
//! claims, not exact numbers.

use ntc_choke::experiments::{ch3, ch4, Scale};
use ntc_choke::varmodel::Corner;

#[test]
fn manifest_shape_is_golden() {
    use ntc_choke::core::tag_delay::OracleStats;
    use ntc_choke::experiments::report::{parse_json, Manifest, RunRecord, MANIFEST_SCHEMA};
    use ntc_choke::experiments::{runner, voltage_cells, CacheStats, SweepStats};
    use ntc_choke::varmodel::telemetry;
    use ntc_choke::workload::WorkloadStats;

    // Build one record exactly the way the repro binary does: run a real
    // experiment inside one telemetry scope, save the CSV.
    let _ = runner::take_sweep_failures();
    let start = std::time::Instant::now();
    let (table, counts) = telemetry::scoped(|| ch3::fig_3_4(Scale::Fast));
    let dir = std::env::temp_dir().join(format!("ntc-manifest-shape-{}", std::process::id()));
    let csv = table.save_csv(&dir).expect("CSV written");
    let record = RunRecord {
        id: "fig3.4".to_owned(),
        title: table.title.clone(),
        scale: "fast".to_owned(),
        jobs: runner::jobs(),
        wall_s: start.elapsed().as_secs_f64(),
        sweep: SweepStats::from(&counts),
        oracle: OracleStats::from(&counts),
        cache: CacheStats::from(&counts),
        voltages: voltage_cells(&counts)
            .into_iter()
            .map(|(point, cells)| (point.name().to_owned(), cells))
            .collect(),
        requested_vdd: ntc_choke::experiments::voltages()
            .iter()
            .map(|p| p.name().to_owned())
            .collect(),
        source: "generator".to_owned(),
        workload: WorkloadStats::from(&counts),
        sweep_failures: runner::take_sweep_failures(),
        rows: table.rows.len(),
        csv: Some(csv),
        resumed: false,
        error: None,
    };
    let oracle_queries = record.oracle.queries();
    let manifest = Manifest::new("fast", record.jobs, vec![record]);
    let path = manifest.save(&dir).expect("manifest written");
    let parsed = parse_json(&std::fs::read_to_string(&path).expect("readable"))
        .expect("manifest.json parses");
    std::fs::remove_dir_all(&dir).ok();

    // Golden shape: these exact keys, in this exact order. Extending the
    // manifest is fine — update the golden lists *and* MANIFEST_SCHEMA
    // consumers deliberately when you do.
    assert_eq!(parsed.get("schema").unwrap().as_str(), Some(MANIFEST_SCHEMA));
    assert_eq!(
        parsed.keys().unwrap(),
        vec!["schema", "scale", "jobs", "passed", "failed", "wall_s", "records"],
        "top-level manifest shape"
    );
    let rec = &parsed.get("records").unwrap().as_arr().unwrap()[0];
    assert_eq!(
        rec.keys().unwrap(),
        vec![
            "id",
            "title",
            "scale",
            "jobs",
            "wall_s",
            "sweep_busy_ns",
            "sweep_wall_ns",
            "oracle",
            "cache",
            "voltages",
            "requested_vdd",
            "source",
            "workload",
            "sweep_failures",
            "rows",
            "csv",
            "status",
            "resumed",
            "error"
        ],
        "per-record manifest shape"
    );
    assert_eq!(
        rec.get("oracle").unwrap().keys().unwrap(),
        vec!["gate_sims", "local_hits", "shared_hits", "sta_full"],
        "oracle counter shape"
    );
    assert_eq!(
        rec.get("cache").unwrap().keys().unwrap(),
        vec!["disk_hits", "disk_misses", "corrupt_evictions", "bytes_written"],
        "grid cache counter shape"
    );
    assert_eq!(
        rec.get("workload").unwrap().keys().unwrap(),
        vec!["traces_recorded", "trace_replays", "replayed_instructions"],
        "workload counter shape"
    );
    assert_eq!(rec.get("source").unwrap().as_str(), Some("generator"));
    assert_eq!(
        rec.get("requested_vdd")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|p| p.as_str().unwrap())
            .collect::<Vec<_>>(),
        vec!["v0.45"],
        "default roster is the single NTC point"
    );
    assert_eq!(rec.get("resumed"), Some(&ntc_choke::experiments::report::Json::Bool(false)));
    // And the values describe the run we just made.
    assert_eq!(rec.get("rows").unwrap().as_f64(), Some(8.0));
    assert_eq!(rec.get("status").unwrap().as_str(), Some("pass"));
    assert!(
        rec.get("oracle").unwrap().get("gate_sims").unwrap().as_f64() >= Some(1.0),
        "a fresh fig3.4 run performs gate-level simulations"
    );
    assert_eq!(
        parsed.get("passed").unwrap().as_f64(),
        Some(1.0),
        "suite totals fold the records"
    );
    assert!(oracle_queries > 0, "oracle counters were drained into the record");
}

#[test]
fn fig3_2_ntc_reaches_high_cdl_stc_does_not() {
    let stc = ch3::fig_3_2(Corner::STC, Scale::Fast);
    let ntc = ch3::fig_3_2(Corner::NTC, Scale::Fast);
    // STC choke points stay out of the high-CDL band for every operation
    // (paper: STC CDL tops out around 12%).
    let stc_high = stc
        .rows
        .iter()
        .filter(|(_, v)| v[3].is_finite())
        .count();
    assert_eq!(stc_high, 0, "STC rows reaching CDL_H: {stc_high}");
    // NTC reaches CDL_H for most operations, with a tiny CGL.
    let ntc_high: Vec<f64> = ntc
        .rows
        .iter()
        .filter_map(|(_, v)| v[3].is_finite().then_some(v[3]))
        .collect();
    assert!(
        ntc_high.len() >= 6,
        "NTC must reach CDL_H broadly, got {} ops",
        ntc_high.len()
    );
    assert!(
        ntc_high.iter().all(|&g| g < 0.25),
        "choke points are tiny gate sets (CGL < 0.25%): {ntc_high:?}"
    );
}

#[test]
fn fig3_10_dcs_cuts_penalty_everywhere() {
    let t = ch3::fig_3_10(Scale::Fast);
    for (bench, v) in &t.rows {
        assert!((v[0] - 1.0).abs() < 1e-9, "{bench}: Razor is the baseline");
        assert!(v[1] < 0.6, "{bench}: ICSLT penalty {:.2} must be well below Razor", v[1]);
        assert!(v[2] < 0.6, "{bench}: ACSLT penalty {:.2}", v[2]);
    }
}

#[test]
fn fig3_11_ordering_dcs_best_hfg_worst_on_most() {
    let t = ch3::fig_3_11(Scale::Fast);
    let mut hfg_below_razor = 0;
    for (bench, v) in &t.rows {
        let (razor, hfg, icslt, acslt) = (v[0], v[1], v[2], v[3]);
        assert!(icslt > razor && acslt > razor, "{bench}: DCS must beat Razor");
        if hfg < razor {
            hfg_below_razor += 1;
        }
        assert!(icslt > hfg && acslt > hfg, "{bench}: DCS must beat HFG");
    }
    assert!(
        hfg_below_razor >= 4,
        "HFG loses to Razor on most benchmarks (got {hfg_below_razor}/6)"
    );
}

#[test]
fn fig4_8_all_three_error_classes_present() {
    let t = ch4::fig_4_8(Scale::Fast);
    for (bench, v) in &t.rows {
        let (se_min, se_max, ce) = (v[0], v[1], v[2]);
        assert!(se_min > 1.0, "{bench}: SE(Min) share {se_min:.1}%");
        assert!(se_max > 20.0, "{bench}: SE(Max) share {se_max:.1}%");
        assert!(ce > 1.0, "{bench}: CE share {ce:.1}%");
        assert!(
            se_max > se_min,
            "{bench}: max violations dominate the singles"
        );
    }
}

#[test]
fn fig4_10_11_trident_beats_ocst_beats_razor() {
    let p = ch4::fig_4_10(Scale::Fast);
    let mut trident_below_ocst = 0;
    for (bench, v) in &p.rows {
        assert!(v[1] < v[0] && v[2] < v[0], "{bench}: both beat Razor: {v:?}");
        if v[2] < v[1] {
            trident_below_ocst += 1;
        }
    }
    // Per-chip noise at fast scale can flip a benchmark; the ordering must
    // hold for the majority and on average.
    assert!(
        trident_below_ocst >= 4,
        "Trident beats OCST on most benchmarks ({trident_below_ocst}/6)"
    );
    let mean = |col: &str| p.column_mean(col).expect("column exists");
    assert!(mean("Trident") < mean("OCST"));
    let perf = ch4::fig_4_11(Scale::Fast);
    for (bench, v) in &perf.rows {
        assert!(
            v[2] > v[0] && v[1] > v[0],
            "{bench}: both schemes beat Razor: {v:?}"
        );
        assert!(v[2] > 1.5, "{bench}: Trident gain is large: {:.2}", v[2]);
    }
}

#[test]
fn accuracy_grows_with_table_capacity() {
    let t = ch3::fig_3_8(Scale::Fast);
    for (bench, v) in &t.rows {
        assert!(
            v[3] >= v[0] - 1.0,
            "{bench}: 256 entries must not lose to 32: {v:?}"
        );
    }
    // vortex (most diverse) is the most capacity-hungry benchmark.
    let at32 = |name: &str| t.cell(name, "32").expect("row exists");
    assert!(at32("vortex") < at32("mcf"));

    let t9 = ch3::fig_3_9(Scale::Fast);
    for (bench, v) in &t9.rows {
        assert!(
            v[3] >= v[0] - 1.0,
            "{bench}: ACSLT 32/16 must not lose to 16/8: {v:?}"
        );
    }
}

#[test]
fn overhead_tables_match_paper_bands() {
    let t3 = ch3::overheads_3();
    for (scheme, v) in &t3.rows {
        assert!(v[0] > 500.0, "{scheme}: gate count {}", v[0]);
        assert!(v[1] < 2.0 && v[2] < 2.0 && v[3] < 2.0, "{scheme}: sub-2% of pipeline");
    }
    let t4 = ch4::overheads_4();
    let pipeline_row = &t4.rows[1].1;
    assert!(pipeline_row.iter().all(|&p| p < 2.0));
}
