//! End-to-end CLI contract of the `repro` binary: the exit codes and the
//! manifest are what CI (and any downstream automation) gates on, so they
//! get black-box regression tests against the real executable.
//!
//! Each test runs its own `--out` directory under the system temp dir and
//! passes `--jobs 1` ahead of its own arguments, so tests stay independent
//! of each other and of the host machine.

use ntc_core::scenario::SchemeSpec;
use ntc_experiments::all_experiments;
use ntc_experiments::report::{parse_json, Json, MANIFEST_SCHEMA};
use std::path::PathBuf;
use std::process::{Command, Output};

/// The compiled `repro` binary under test, at one job (a later `--jobs`
/// argument overrides it).
fn repro() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(["--jobs", "1"]);
    cmd
}

/// Fresh per-test output directory (removed on entry, not on exit, so a
/// failing test leaves its evidence behind).
fn out_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ntc-repro-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn run(cmd: &mut Command) -> Output {
    cmd.output().expect("spawn repro binary")
}

#[test]
fn list_enumerates_both_registries_exactly() {
    // `--list` is the discovery surface ci.sh gates on: its output must be
    // exactly the experiment registry, then the scheme registry, then the
    // operating-point roster — nothing runnable may be unlisted, nothing
    // listed may be stale.
    let result = run(repro().arg("--list"));
    assert_eq!(result.status.code(), Some(0));
    let stdout = String::from_utf8(result.stdout).expect("utf8 stdout");
    let expected: Vec<String> = all_experiments()
        .into_iter()
        .map(|(id, _)| id.to_owned())
        .chain(
            SchemeSpec::roster()
                .iter()
                .map(|s| format!("scheme {} ({})", s.name(), s.display_name())),
        )
        .chain(
            ntc_varmodel::OperatingPoint::roster()
                .into_iter()
                .map(|p| format!("vdd {} ({})", p.name(), p.display_name())),
        )
        .collect();
    assert_eq!(
        stdout.lines().collect::<Vec<_>>(),
        expected.iter().map(String::as_str).collect::<Vec<_>>(),
        "--list must mirror all_experiments(), SchemeSpec::roster(), then the vdd roster"
    );
    // Every listed scheme name parses back through the registry.
    for line in stdout.lines().filter(|l| l.starts_with("scheme ")) {
        let name = line["scheme ".len()..]
            .split_whitespace()
            .next()
            .expect("scheme line has a name");
        SchemeSpec::parse(name)
            .unwrap_or_else(|e| panic!("listed scheme `{name}` must parse: {e}"));
    }
}

#[test]
fn misspelled_id_among_valid_ones_exits_2_and_runs_nothing() {
    let out = out_dir("typo");
    // fig3.4 is real; `fgi3.10` is the misspelling from the bug report.
    // The old harness silently dropped the typo and ran the rest.
    let result = run(repro().args(["--fast", "--out", out.to_str().unwrap(), "fig3.4", "fgi3.10"]));
    assert_eq!(result.status.code(), Some(2), "usage error exit code");
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(stderr.contains("fgi3.10"), "names the bad id: {stderr}");
    assert!(stderr.contains("--list"), "suggests --list: {stderr}");
    assert!(
        !out.exists(),
        "no experiment may run when any requested id is unknown"
    );
}

#[test]
fn all_unknown_ids_still_exit_2() {
    let result = run(repro().args(["no.such.figure"]));
    assert_eq!(result.status.code(), Some(2));
}

#[test]
fn csv_write_failure_exits_nonzero() {
    // Point --out at a regular file: create_dir_all must fail, and the
    // failure must reach the exit code (the old harness printed a warning
    // and exited 0).
    let blocker = std::env::temp_dir().join(format!("ntc-repro-blocker-{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").expect("create blocker file");
    let result = run(repro().args(["--fast", "--out", blocker.to_str().unwrap(), "fig3.4"]));
    std::fs::remove_file(&blocker).ok();
    assert_eq!(result.status.code(), Some(1), "CSV failure must be fatal");
    let stderr = String::from_utf8_lossy(&result.stderr);
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(
        stdout.contains("FAILED") || stderr.contains("FAILED"),
        "failure is reported: stdout={stdout} stderr={stderr}"
    );
}

#[test]
fn json_run_writes_a_consistent_manifest() {
    let out = out_dir("json");
    let result = run(repro().args([
        "--fast",
        "--format",
        "json",
        "--out",
        out.to_str().unwrap(),
        "fig3.4",
    ]));
    assert_eq!(result.status.code(), Some(0));

    // stdout is pure JSON lines in --format json mode.
    let stdout = String::from_utf8(result.stdout).expect("utf8 stdout");
    let tables: Vec<Json> = stdout
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| parse_json(l).unwrap_or_else(|e| panic!("non-JSON stdout line {l:?}: {e}")))
        .collect();
    assert_eq!(tables.len(), 1, "one table document per experiment");
    assert_eq!(tables[0].get("id").unwrap().as_str(), Some("fig3.4"));
    let rows = tables[0].get("rows").unwrap().as_arr().unwrap().len();
    assert!(rows > 0);

    // The manifest exists, parses, and agrees with the table output and
    // the stderr status line.
    let body = std::fs::read_to_string(out.join("manifest.json")).expect("manifest written");
    let manifest = parse_json(&body).expect("manifest parses");
    assert_eq!(
        manifest.get("schema").unwrap().as_str(),
        Some(MANIFEST_SCHEMA)
    );
    assert_eq!(manifest.get("passed").unwrap().as_f64(), Some(1.0));
    assert_eq!(manifest.get("failed").unwrap().as_f64(), Some(0.0));
    let record = &manifest.get("records").unwrap().as_arr().unwrap()[0];
    assert_eq!(record.get("status").unwrap().as_str(), Some("pass"));
    assert_eq!(record.get("rows").unwrap().as_f64(), Some(rows as f64));
    assert_eq!(record.get("scale").unwrap().as_str(), Some("fast"));
    assert_eq!(record.get("jobs").unwrap().as_f64(), Some(1.0));
    let csv = record.get("csv").unwrap().as_str().expect("csv path");
    assert!(std::fs::metadata(csv).is_ok(), "recorded CSV exists: {csv}");

    // Oracle counters in the manifest match the human status line printed
    // to stderr (same RunRecord on both sides).
    let stderr = String::from_utf8_lossy(&result.stderr);
    let sims = record
        .get("oracle")
        .unwrap()
        .get("gate_sims")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!(
        stderr.contains(&format!("oracle {sims} sims")),
        "stderr status line carries the recorded counter {sims}: {stderr}"
    );
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn text_run_exits_zero_and_summarizes() {
    let out = out_dir("text");
    let result = run(repro().args(["--fast", "--out", out.to_str().unwrap(), "fig3.4"]));
    assert_eq!(result.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(stdout.contains("[fig3.4] ok"), "{stdout}");
    assert!(
        stdout.contains("# suite: 1 passed, 0 failed"),
        "final summary line present: {stdout}"
    );
    assert!(out.join("manifest.json").exists());
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn bad_flag_and_bad_format_exit_2() {
    assert_eq!(run(repro().arg("--bogus")).status.code(), Some(2));
    assert_eq!(
        run(repro().args(["--format", "xml"])).status.code(),
        Some(2)
    );
    assert_eq!(run(repro().args(["--jobs", "zero"])).status.code(), Some(2));
    assert_eq!(run(repro().arg("--cache-dir")).status.code(), Some(2));
    // Trace flags: the retired `--phases`, `--record` with no directory
    // to record into, and a `--trace-dir` missing its value.
    let traces = out_dir("bad-trace-flags");
    let traces = traces.to_str().unwrap();
    assert_eq!(
        run(repro().args(["--trace-dir", traces, "--phases"])).status.code(),
        Some(2)
    );
    assert!(!std::path::Path::new(traces).exists(), "nothing ran");
    assert_eq!(run(repro().arg("--record")).status.code(), Some(2));
    assert_eq!(run(repro().arg("--trace-dir")).status.code(), Some(2));
}

#[test]
fn malformed_ntc_vdd_is_a_startup_usage_error_unless_vdd_overrides_it() {
    let out = out_dir("bad-env");
    // A garbage NTC_VDD must be rejected before any experiment runs:
    // exit code 2, a message naming the variable, no output directory.
    // (This used to panic with a backtrace mid-sweep.)
    let result = run(repro()
        .env("NTC_VDD", "0.62,bogus")
        .args(["--fast", "--out", out.to_str().unwrap(), "fig3.4"]));
    assert_eq!(result.status.code(), Some(2), "usage error, not a panic");
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(stderr.contains("NTC_VDD"), "names the variable: {stderr}");
    assert!(!stderr.contains("panicked"), "no backtrace: {stderr}");
    assert!(!out.exists(), "nothing may run under a malformed roster");

    // An explicit --vdd replaces the environment roster entirely, so the
    // same garbage NTC_VDD is irrelevant and the run succeeds.
    let result = run(repro().env("NTC_VDD", "0.62,bogus").args([
        "--fast",
        "--vdd",
        "v0.45",
        "--out",
        out.to_str().unwrap(),
        "fig3.4",
    ]));
    assert_eq!(result.status.code(), Some(0), "--vdd overrides a bad NTC_VDD");
    std::fs::remove_dir_all(&out).ok();
}

/// The first record of an on-disk manifest, parsed.
fn first_record(out: &std::path::Path) -> Json {
    let body = std::fs::read_to_string(out.join("manifest.json")).expect("manifest written");
    parse_json(&body).expect("manifest parses").get("records").unwrap().as_arr().unwrap()[0]
        .clone()
}

#[test]
fn resume_skips_passing_experiments_and_completes_the_rest() {
    let out = out_dir("resume");
    // First invocation: fig3.4 passes, then the injected failure kills
    // tab3.overheads mid-suite — the crash the resume mode exists for.
    let result = run(repro()
        .env("NTC_REPRO_FAIL", "tab3.overheads")
        .args(["--fast", "--out", out.to_str().unwrap(), "fig3.4", "tab3.overheads"]));
    assert_eq!(result.status.code(), Some(1), "injected failure must fail the run");
    let body = std::fs::read_to_string(out.join("manifest.json")).expect("manifest written");
    let manifest = parse_json(&body).expect("manifest parses");
    let records = manifest.get("records").unwrap().as_arr().unwrap();
    assert_eq!(records[0].get("status").unwrap().as_str(), Some("pass"));
    assert_eq!(records[1].get("status").unwrap().as_str(), Some("fail"));
    assert!(
        records[1].get("error").unwrap().as_str().unwrap().contains("injected failure"),
        "failure names its cause"
    );
    let csv_path = records[0].get("csv").unwrap().as_str().expect("csv recorded").to_owned();
    let csv_before = std::fs::read(&csv_path).expect("passing CSV exists");

    // Second invocation resumes: the passing record is carried forward,
    // only the failed experiment runs, and the suite goes green.
    let result = run(repro().args([
        "--fast",
        "--resume",
        "--out",
        out.to_str().unwrap(),
        "fig3.4",
        "tab3.overheads",
    ]));
    assert_eq!(result.status.code(), Some(0), "resumed suite completes");
    let stdout = String::from_utf8_lossy(&result.stdout);
    assert!(stdout.contains("[fig3.4] ok (resumed)"), "{stdout}");
    assert!(stdout.contains("# suite: 2 passed, 0 failed"), "{stdout}");
    let body = std::fs::read_to_string(out.join("manifest.json")).expect("manifest rewritten");
    let manifest = parse_json(&body).expect("manifest parses");
    let records = manifest.get("records").unwrap().as_arr().unwrap();
    assert_eq!(records[0].get("resumed"), Some(&Json::Bool(true)));
    assert_eq!(records[0].get("status").unwrap().as_str(), Some("pass"));
    assert_eq!(records[1].get("resumed"), Some(&Json::Bool(false)));
    assert_eq!(records[1].get("status").unwrap().as_str(), Some("pass"));
    assert_eq!(
        std::fs::read(&csv_path).expect("CSV still exists"),
        csv_before,
        "the resumed experiment's CSV is untouched"
    );
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn resume_reruns_when_the_voltage_roster_changes() {
    let out = out_dir("resume-vdd");
    // Baseline manifest at the default single-point roster.
    let result = run(repro()
        .env_remove("NTC_VDD")
        .args(["--fast", "--out", out.to_str().unwrap(), "fig3.4"]));
    assert_eq!(result.status.code(), Some(0));
    assert_eq!(
        first_record(&out).get("requested_vdd").unwrap().as_arr().unwrap().len(),
        1,
        "default roster is one operating point"
    );

    // Resuming under a wider --vdd roster must NOT carry the old record
    // forward: its grids were computed at a different voltage axis, so
    // the experiment reruns and the manifest records the new roster.
    let result = run(repro().env_remove("NTC_VDD").args([
        "--fast",
        "--resume",
        "--vdd",
        "v0.45,v0.60",
        "--out",
        out.to_str().unwrap(),
        "fig3.4",
    ]));
    assert_eq!(result.status.code(), Some(0));
    let rec = first_record(&out);
    assert_eq!(
        rec.get("resumed"),
        Some(&Json::Bool(false)),
        "a stale voltage roster must force a rerun"
    );
    let roster: Vec<String> = rec
        .get("requested_vdd")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|p| p.as_str().unwrap().to_owned())
        .collect();
    assert_eq!(roster, ["v0.45", "v0.60"], "manifest records the roster it ran");

    // Resuming again under the SAME roster does carry forward.
    let result = run(repro().env_remove("NTC_VDD").args([
        "--fast",
        "--resume",
        "--vdd",
        "v0.45,v0.60",
        "--out",
        out.to_str().unwrap(),
        "fig3.4",
    ]));
    assert_eq!(result.status.code(), Some(0));
    assert_eq!(
        first_record(&out).get("resumed"),
        Some(&Json::Bool(true)),
        "an unchanged roster resumes cleanly"
    );
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn resume_refuses_a_manifest_at_another_scale() {
    let out = out_dir("resume-scale");
    let result = run(repro().args(["--fast", "--out", out.to_str().unwrap(), "tab3.overheads"]));
    assert_eq!(result.status.code(), Some(0));
    // Resuming the fast manifest under --full must refuse, not silently
    // mix scales in one manifest.
    let result = run(repro().args([
        "--full",
        "--resume",
        "--out",
        out.to_str().unwrap(),
        "tab3.overheads",
    ]));
    assert_eq!(result.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&result.stderr);
    assert!(stderr.contains("scale"), "{stderr}");
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn cache_dir_reruns_hit_disk_and_reproduce_csv_bytes_at_any_job_count() {
    let cache = out_dir("cache-store");
    let out_cold = out_dir("cache-cold");
    let out_warm = out_dir("cache-warm");
    // Cold run: fig3.8 is grid-shaped, so it populates the artifact cache.
    let result = run(repro().args([
        "--fast",
        "--cache-dir",
        cache.to_str().unwrap(),
        "--out",
        out_cold.to_str().unwrap(),
        "fig3.8",
    ]));
    assert_eq!(result.status.code(), Some(0));
    let cold = first_record(&out_cold);
    let cold_cache = cold.get("cache").unwrap();
    assert_eq!(cold_cache.get("disk_hits").unwrap().as_u64(), Some(0));
    assert!(cold_cache.get("disk_misses").unwrap().as_u64() >= Some(1));
    assert!(cold_cache.get("bytes_written").unwrap().as_u64() >= Some(1));
    let cold_csv =
        std::fs::read(cold.get("csv").unwrap().as_str().unwrap()).expect("cold CSV readable");
    let cold_busy = cold.get("sweep_busy_ns").unwrap().as_u64().unwrap();

    // Warm run, different --out, different thread count: every grid comes
    // off disk, the CSV bytes are identical, and the sweep engine had
    // strictly less to do.
    let result = run(repro().args([
        "--jobs",
        "2",
        "--fast",
        "--cache-dir",
        cache.to_str().unwrap(),
        "--out",
        out_warm.to_str().unwrap(),
        "fig3.8",
    ]));
    assert_eq!(result.status.code(), Some(0));
    let warm = first_record(&out_warm);
    let warm_cache = warm.get("cache").unwrap();
    assert!(warm_cache.get("disk_hits").unwrap().as_u64() >= Some(1));
    assert_eq!(warm_cache.get("disk_misses").unwrap().as_u64(), Some(0));
    assert_eq!(warm_cache.get("corrupt_evictions").unwrap().as_u64(), Some(0));
    let warm_csv =
        std::fs::read(warm.get("csv").unwrap().as_str().unwrap()).expect("warm CSV readable");
    assert_eq!(warm_csv, cold_csv, "disk hits reproduce CSV bytes exactly");
    let warm_busy = warm.get("sweep_busy_ns").unwrap().as_u64().unwrap();
    assert!(
        warm_busy < cold_busy,
        "cached run must sweep less (warm {warm_busy} ns vs cold {cold_busy} ns)"
    );

    // A corrupted artifact degrades to recompute — the run still passes
    // and the eviction is visible in the manifest.
    let artifact = std::fs::read_dir(&cache)
        .expect("cache dir listable")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "grid"))
        .expect("at least one artifact in the cache");
    let mut bytes = std::fs::read(&artifact).expect("artifact readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&artifact, &bytes).expect("corruption written");
    let out_evict = out_dir("cache-evict");
    let result = run(repro().args([
        "--fast",
        "--cache-dir",
        cache.to_str().unwrap(),
        "--out",
        out_evict.to_str().unwrap(),
        "fig3.8",
    ]));
    assert_eq!(result.status.code(), Some(0), "corruption must not fail the run");
    let evict = first_record(&out_evict);
    assert!(
        evict.get("cache").unwrap().get("corrupt_evictions").unwrap().as_u64() >= Some(1),
        "the quarantine is accounted"
    );
    let evict_csv =
        std::fs::read(evict.get("csv").unwrap().as_str().unwrap()).expect("CSV readable");
    assert_eq!(evict_csv, cold_csv, "recomputed grid reproduces the CSV");

    for dir in [&cache, &out_cold, &out_warm, &out_evict] {
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn no_cache_forces_a_cold_run_even_with_a_cache_dir() {
    let cache = out_dir("nocache-store");
    let out1 = out_dir("nocache-1");
    let out2 = out_dir("nocache-2");
    let result = run(repro().args([
        "--fast",
        "--cache-dir",
        cache.to_str().unwrap(),
        "--out",
        out1.to_str().unwrap(),
        "fig3.8",
    ]));
    assert_eq!(result.status.code(), Some(0));
    // --no-cache wins: no lookups, no writes, and the cache dir gains
    // nothing.
    let artifacts = |dir: &std::path::Path| {
        std::fs::read_dir(dir).map(|d| d.count()).unwrap_or(0)
    };
    let before = artifacts(&cache);
    let result = run(repro().args([
        "--fast",
        "--no-cache",
        "--cache-dir",
        cache.to_str().unwrap(),
        "--out",
        out2.to_str().unwrap(),
        "fig3.8",
    ]));
    assert_eq!(result.status.code(), Some(0));
    let record = first_record(&out2);
    let stats = record.get("cache").unwrap();
    assert_eq!(stats.get("disk_hits").unwrap().as_u64(), Some(0));
    assert_eq!(stats.get("disk_misses").unwrap().as_u64(), Some(0));
    assert_eq!(stats.get("bytes_written").unwrap().as_u64(), Some(0));
    assert_eq!(artifacts(&cache), before, "--no-cache must not touch the cache dir");
    for dir in [&cache, &out1, &out2] {
        std::fs::remove_dir_all(dir).ok();
    }
}
