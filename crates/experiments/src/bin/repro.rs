//! `repro` — regenerate every figure and table of the paper.
//!
//! Usage:
//!
//! ```text
//! repro [--full] [--jobs N] [--out DIR] [--format text|json]
//!       [--cache-dir DIR] [--no-cache] [--vdd LIST]
//!       [--trace-dir DIR [--record]]
//!       [--resume] [ID ...]
//! ```
//!
//! With no IDs, the whole suite runs. `--full` switches to paper-scale
//! parameters (million-cycle traces); the default fast scale keeps the run
//! laptop-friendly. `--jobs N` pins the sweep-engine thread count —
//! results are bit-identical at any value, only the wall clock changes.
//! `--vdd LIST` (or the `NTC_VDD`
//! environment variable) widens the supply-voltage axis of every
//! grid-shaped experiment to the given comma-separated operating points
//! (`0.45`, `v0.60`, `ntc`, `stc`, …); the default is the single NTC
//! point, which keeps every legacy table byte-identical. Tables print to
//! stdout (aligned text by default, one JSON object per line with
//! `--format json`) and CSVs land in `--out` (default `target/repro`).
//! `--list` enumerates all three registries — every experiment id, then
//! every registered scheme as `scheme <name> (<display name>)`, then the
//! operating-point roster as `vdd <name> (<display name>)` — and exits.
//!
//! Two mechanisms make reruns cheap:
//!
//! * `--cache-dir DIR` points the grid engine at a persistent
//!   content-addressed artifact cache: every `run_grid` result is stored
//!   under a key derived from its spec, and later invocations — any
//!   process, any `--jobs` count — reload it bit-identically instead of
//!   re-sweeping. Corrupt or stale artifacts are quarantined and
//!   recomputed, never trusted. `--no-cache` disables all caching (even
//!   the in-process memo) for a guaranteed cold run.
//! * `--resume` re-reads `<out>/manifest.json` from a previous invocation
//!   at the same scale and skips every experiment whose record passed and
//!   whose CSV is still on disk, carrying the old record forward marked
//!   `"resumed": true`. Failed or missing experiments run again — a
//!   crashed suite finishes from where it stopped.
//!
//! `--trace-dir DIR` switches every grid cell's instruction stream from
//! the statistical generator to recorded binary traces in `DIR`, each
//! replayed whole (byte-identical results to the generator when the
//! traces were recorded from the same seeds). With `--record` the run
//! generates *and* writes each cell's trace file instead (results
//! identical to a plain generator run); `--record` requires
//! `--trace-dir`.
//!
//! Every run also writes `<out>/manifest.json`: one structured
//! [`RunRecord`] per experiment (scale, jobs, wall time, sweep busy/wall
//! counters, oracle cache counters, grid disk-cache counters, row count,
//! CSV path, pass/fail) plus suite totals — the machine-readable receipt
//! that a "green" run actually produced what it claims. In `--format
//! json` mode the per-experiment status lines move to stderr so stdout
//! stays pure JSON lines.
//!
//! Exit codes:
//!
//! * `0` — every requested experiment ran, every CSV and the manifest
//!   were written;
//! * `1` — at least one experiment failed (panic, caught sweep-index
//!   panic, CSV or manifest write error), or `--resume` found a manifest
//!   it cannot trust; the diagnostics name it;
//! * `2` — usage error: bad flag, or **any** requested ID matching no
//!   experiment (a misspelled ID must never silently shrink the suite).

use ntc_core::scenario::SchemeSpec;
use ntc_core::tag_delay::OracleStats;
use ntc_experiments::report::{table_to_json, Manifest, RunRecord};
use ntc_experiments::{all_experiments, cache, runner, voltage_cells, Scale};
use ntc_varmodel::telemetry;
use ntc_workload::WorkloadStats;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// stdout table format.
#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
}

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let mut scale = Scale::Fast;
    let mut out = PathBuf::from("target/repro");
    let mut format = Format::Text;
    let mut cache_dir: Option<PathBuf> = None;
    let mut no_cache = false;
    let mut resume = false;
    let mut vdd_flag = false;
    let mut trace_dir: Option<PathBuf> = None;
    let mut record = false;
    let mut selected: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => scale = Scale::Full,
            "--fast" => scale = Scale::Fast,
            "--cache-dir" => match args.next() {
                Some(dir) => cache_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--cache-dir requires a directory");
                    return 2;
                }
            },
            "--no-cache" => no_cache = true,
            "--trace-dir" => match args.next() {
                Some(dir) => trace_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--trace-dir requires a directory");
                    return 2;
                }
            },
            "--record" => record = true,
            "--vdd" => match args.next().as_deref().map(ntc_experiments::parse_voltages) {
                Some(Ok(points)) => {
                    vdd_flag = true;
                    ntc_experiments::set_voltages(points);
                }
                Some(Err(e)) => {
                    eprintln!("--vdd: {e}");
                    return 2;
                }
                None => {
                    eprintln!("--vdd requires a comma-separated operating-point list");
                    return 2;
                }
            },
            "--resume" => resume = true,
            "--jobs" | "-j" => {
                match args
                    .next()
                    .and_then(|v| v.trim().parse::<usize>().ok())
                    .filter(|&n| n > 0)
                {
                    Some(n) => runner::set_jobs(n),
                    None => {
                        eprintln!("--jobs requires a positive integer");
                        return 2;
                    }
                }
            }
            "--out" => match args.next() {
                Some(dir) => out = PathBuf::from(dir),
                None => {
                    eprintln!("--out requires a directory");
                    return 2;
                }
            },
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                other => {
                    eprintln!("--format requires `text` or `json` (got {other:?})");
                    return 2;
                }
            },
            "--list" => {
                // All three registries, so nothing can be runnable yet
                // unlisted: experiment ids first, then the scheme roster,
                // then the operating-point roster (ci.sh diffs this
                // output against the registries).
                for (id, _) in all_experiments() {
                    println!("{id}");
                }
                for spec in SchemeSpec::roster() {
                    println!("scheme {} ({})", spec.name(), spec.display_name());
                }
                for point in ntc_varmodel::OperatingPoint::roster() {
                    println!("vdd {} ({})", point.name(), point.display_name());
                }
                return 0;
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--full] [--jobs N] [--out DIR] [--format text|json] \
                     [--cache-dir DIR] [--no-cache] [--vdd LIST] \
                     [--trace-dir DIR [--record]] [--resume] [--list] [ID ...]\n\
                     --cache-dir DIR  persistent grid-result cache shared across runs\n\
                     --no-cache       bypass all grid caching (cold run)\n\
                     --vdd LIST       sweep grids over these operating points (also NTC_VDD);\n\
                     \u{20}                comma-separated, e.g. `0.45,0.60,stc`; default ntc only\n\
                     --trace-dir DIR  replay recorded binary traces from DIR instead of the\n\
                     \u{20}                statistical generator (see also `ntc-workload record`)\n\
                     --record         with --trace-dir: generate and record each cell's trace\n\
                     --resume         skip experiments already passing in <out>/manifest.json;\n\
                     \u{20}                reruns records whose vdd roster or trace source changed\n\
                     exit codes: 0 all good; 1 experiment/CSV/manifest failure; \
                     2 usage error or unknown ID"
                );
                return 0;
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag `{flag}`; see --help");
                return 2;
            }
            id => selected.push(id.to_owned()),
        }
    }

    // Trace flags compose into one source; `--record` is meaningless
    // without a directory.
    let source = match (&trace_dir, record) {
        (None, false) => ntc_workload::TraceSource::Generator,
        (None, true) => {
            eprintln!("--record requires --trace-dir");
            return 2;
        }
        (Some(dir), true) => ntc_workload::TraceSource::Record(dir.clone()),
        (Some(dir), false) => ntc_workload::TraceSource::Replay(dir.clone()),
    };
    ntc_experiments::set_workload_source(Some(source.clone()));
    let source_label = source.to_string();

    // A malformed NTC_VDD is a usage error the moment the process
    // starts, not a mid-suite surprise — unless `--vdd` was given, which
    // overrides the environment entirely (so a stale env var cannot veto
    // an explicit request).
    if !vdd_flag {
        if let Err(e) = ntc_experiments::config::env_voltages() {
            eprintln!("error: {e}");
            eprintln!("fix the list or unset NTC_VDD; see `repro --list` for the roster");
            return 2;
        }
    }

    let suite = all_experiments();
    // Strict selection: every requested ID must name a real experiment. A
    // single typo fails the whole invocation up front — silently running a
    // subset is exactly the kind of "green but meaningless" outcome the
    // manifest exists to prevent.
    let unknown: Vec<&String> = selected
        .iter()
        .filter(|sel| !suite.iter().any(|(id, _)| *id == sel.as_str()))
        .collect();
    if !unknown.is_empty() {
        for u in unknown {
            eprintln!("error: no experiment matches `{u}`");
        }
        eprintln!("run `repro --list` for the available ids");
        return 2;
    }
    let to_run: Vec<_> = suite
        .iter()
        .filter(|(id, _)| selected.is_empty() || selected.iter().any(|s| s == id))
        .collect();

    // --no-cache wins over --cache-dir: a cold run must stay cold.
    if no_cache {
        cache::set_disabled(true);
    } else if let Some(dir) = &cache_dir {
        cache::set_disk_dir(Some(dir.clone()));
    }

    let scale_label = match scale {
        Scale::Fast => "fast",
        Scale::Full => "full",
    };
    let jobs = runner::jobs();

    // --resume: records of the previous manifest worth carrying forward.
    // A present-but-untrustworthy manifest (unparseable, wrong schema, or
    // a different scale) is an error, not a silent full rerun — resuming
    // is a claim about previous results, so the previous results must be
    // readable and comparable. A missing manifest just means there is
    // nothing to skip.
    let mut carried: Vec<RunRecord> = Vec::new();
    if resume {
        let manifest_path = out.join("manifest.json");
        match std::fs::read_to_string(&manifest_path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                eprintln!(
                    "error: --resume could not read {}: {e}",
                    manifest_path.display()
                );
                return 1;
            }
            Ok(body) => match Manifest::from_json_str(&body) {
                Err(e) => {
                    eprintln!(
                        "error: --resume cannot trust {}: {e}",
                        manifest_path.display()
                    );
                    return 1;
                }
                Ok(prev) if prev.scale != scale_label => {
                    eprintln!(
                        "error: --resume found a {} manifest in {} but this run is {scale_label} \
                         scale; results would not be comparable",
                        prev.scale,
                        manifest_path.display()
                    );
                    return 1;
                }
                Ok(prev) => carried = prev.records,
            },
        }
    }
    let requested_vdd: Vec<String> = ntc_experiments::voltages()
        .iter()
        .map(|p| p.name().to_owned())
        .collect();
    let carry_forward = |id: &str| -> Option<RunRecord> {
        let prev = carried.iter().find(|r| r.id == id)?;
        // Only a passing record whose CSV still exists is trustworthy
        // enough to skip the work.
        if !prev.passed() || !prev.csv.as_deref().is_some_and(|p| p.is_file()) {
            return None;
        }
        // A record computed over a different voltage roster or from a
        // different trace source answers a different question — rerun it
        // rather than resuming stale numbers under the current flags.
        if prev.requested_vdd != requested_vdd || prev.source != source_label {
            return None;
        }
        let mut r = prev.clone();
        r.resumed = true;
        Some(r)
    };
    let status_line = |line: &str| match format {
        // In JSON mode stdout carries only JSON documents; human-facing
        // status goes to stderr.
        Format::Text => println!("{line}"),
        Format::Json => eprintln!("{line}"),
    };
    status_line(&format!(
        "# ntc-choke reproduction suite — {} experiment(s), {scale_label} scale, {jobs} job(s)\n",
        to_run.len()
    ));

    // Deterministic failure injection for the resume black-box tests:
    // the named experiment panics instead of running, standing in for a
    // mid-suite crash without a bespoke fault build.
    let injected_failure = std::env::var("NTC_REPRO_FAIL").ok();

    let mut records: Vec<RunRecord> = Vec::new();
    for (id, run_experiment) in to_run {
        if let Some(prev) = carry_forward(id) {
            status_line(&describe(&prev));
            records.push(prev);
            continue;
        }
        // The registry of caught sweep panics is not a counter: drain
        // leftovers so this record lists only its own.
        let _ = runner::take_sweep_failures();
        let start = Instant::now();
        // Experiment-level fault isolation: a panicking experiment (e.g. a
        // chip failing inside a strict `sweep`) becomes a failed record and
        // a nonzero exit, not a dead suite. The telemetry scope attributes
        // exactly this experiment's work to its record.
        let (outcome, counts) = telemetry::scoped(|| {
            catch_unwind(AssertUnwindSafe(|| {
                if injected_failure.as_deref() == Some(*id) {
                    panic!("injected failure via NTC_REPRO_FAIL");
                }
                run_experiment(scale)
            }))
        });
        let mut record = RunRecord {
            id: (*id).to_owned(),
            title: String::new(),
            scale: scale_label.to_owned(),
            jobs,
            wall_s: start.elapsed().as_secs_f64(),
            sweep: runner::SweepStats::from(&counts),
            oracle: OracleStats::from(&counts),
            cache: cache::CacheStats::from(&counts),
            voltages: voltage_cells(&counts)
                .into_iter()
                .map(|(point, cells)| (point.name().to_owned(), cells))
                .collect(),
            requested_vdd: requested_vdd.clone(),
            source: source_label.clone(),
            workload: WorkloadStats::from(&counts),
            sweep_failures: runner::take_sweep_failures(),
            rows: 0,
            csv: None,
            resumed: false,
            error: None,
        };
        match outcome {
            Ok(table) => {
                record.title = table.title.clone();
                record.rows = table.rows.len();
                match format {
                    Format::Text => println!("{table}"),
                    Format::Json => println!("{}", table_to_json(&table)),
                }
                match table.save_csv(&out) {
                    Ok(path) => record.csv = Some(path),
                    Err(e) => record.error = Some(format!("failed to write CSV: {e}")),
                }
            }
            Err(payload) => {
                let message = runner::panic_message(&*payload);
                record.error = Some(format!("experiment panicked: {message}"));
            }
        }
        status_line(&describe(&record));
        records.push(record);
    }

    let manifest = Manifest::new(scale_label, jobs, records);
    let summary = manifest.summary_line();
    match manifest.save(&out) {
        Ok(path) => status_line(&format!("{summary} → {}", path.display())),
        Err(e) => {
            eprintln!("{summary}");
            eprintln!("error: failed to write manifest: {e}");
            return 1;
        }
    }
    if manifest.failed() > 0 {
        1
    } else {
        0
    }
}

/// One human-readable status line per experiment, built from the same
/// `RunRecord` the manifest serializes — the printed wall/busy/oracle
/// numbers *are* the recorded ones.
fn describe(r: &RunRecord) -> String {
    let mut line = format!(
        "[{}] {}{} {:.1}s",
        r.id,
        if r.passed() { "ok" } else { "FAILED" },
        if r.resumed { " (resumed)" } else { "" },
        r.wall_s
    );
    if let Some(speedup) = r.sweep.speedup() {
        line.push_str(&format!(
            ", sweep busy {:.3}s / wall {:.3}s ({speedup:.2}x)",
            r.sweep.busy.as_secs_f64(),
            r.sweep.wall.as_secs_f64()
        ));
    }
    // Oracle cache effectiveness: Phase-A gate-level simulations vs
    // per-oracle and shared-cache hits. A regression here (more sims,
    // fewer hits) shows up even when results stay bit-identical.
    if r.oracle.queries() > 0 {
        line.push_str(&format!(
            ", oracle {} sims / {} local hits / {} shared hits",
            r.oracle.gate_sims, r.oracle.local_hits, r.oracle.shared_hits
        ));
    }
    // Static-timing cost: one analysis per fabricated chip plus the
    // topology's nominal clock anchors.
    if r.oracle.sta_full > 0 {
        line.push_str(&format!(", sta {} full", r.oracle.sta_full));
    }
    // Grid disk-cache traffic: a warm rerun shows hits where the cold run
    // showed misses + bytes written; corrupt evictions flag artifacts
    // that had to be quarantined and recomputed.
    if r.cache.lookups() > 0 {
        line.push_str(&format!(
            ", grid cache {} disk hit(s) / {} miss(es)",
            r.cache.disk_hits, r.cache.disk_misses
        ));
        if r.cache.corrupt_evictions > 0 {
            line.push_str(&format!(
                " ({} corrupt artifact(s) evicted)",
                r.cache.corrupt_evictions
            ));
        }
        if r.cache.bytes_written > 0 {
            line.push_str(&format!(", {} B written", r.cache.bytes_written));
        }
    }
    // Voltage-axis traffic: which operating points this experiment's
    // grids actually computed cells at (memo/disk hits excluded). Only
    // worth a line once the axis is wider than the NTC default.
    if r.voltages.len() > 1 {
        let per_point: Vec<String> = r
            .voltages
            .iter()
            .map(|(name, cells)| format!("{name}={cells}"))
            .collect();
        line.push_str(&format!(", cells per vdd {}", per_point.join(" ")));
    }
    // Trace record/replay traffic: only present when a --trace-dir mode
    // was active (the generator path leaves all three counters zero).
    if r.workload.any() {
        line.push_str(&format!(
            ", trace {} recorded / {} replayed",
            r.workload.traces_recorded, r.workload.trace_replays
        ));
    }
    if !r.sweep_failures.is_empty() {
        line.push_str(&format!(
            ", {} sweep index(es) panicked",
            r.sweep_failures.len()
        ));
    }
    match (&r.csv, &r.error) {
        (Some(path), None) => line.push_str(&format!(" → {}\n", path.display())),
        (_, Some(e)) => line.push_str(&format!(": {e}\n")),
        (None, None) => line.push('\n'),
    }
    line
}
