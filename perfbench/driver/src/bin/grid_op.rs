//! One `full_grid` op: compute a comparison grid through the program's
//! cached grid engine (`run_grid`, with a cache dir) and write its CSV the
//! way the daemon renders it (`grid_table` + `table_csv`).
//!
//! ```text
//! grid-op --spec JSON --cache-dir DIR --jobs N --out FILE
//! ```
//!
//! `JSON` is a grid spec in the daemon's wire format. Prints one JSON line,
//! `{"grid_s":…}`: the seconds from the `run_grid` call to the written CSV.
//! Exit codes: 0 success, 1 I/O failure, 2 usage error.

use ntc_experiments::{cache, runner, scenario};
use ntc_serve::protocol::{grid_table, parse_request, table_csv, Request};
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let mut spec_json = None;
    let mut cache_dir = None;
    let mut jobs = None;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            eprintln!("grid-op: {flag} needs a value");
            return 2;
        };
        match flag.as_str() {
            "--spec" => spec_json = Some(value),
            "--cache-dir" => cache_dir = Some(PathBuf::from(value)),
            "--jobs" => jobs = Some(value),
            "--out" => out = Some(PathBuf::from(value)),
            _ => {
                eprintln!("grid-op: unknown flag {flag}");
                return 2;
            }
        }
    }
    let (Some(spec_json), Some(cache_dir), Some(jobs), Some(out)) =
        (spec_json, cache_dir, jobs, out)
    else {
        eprintln!("usage: grid-op --spec JSON --cache-dir DIR --jobs N --out FILE");
        return 2;
    };
    let Ok(jobs) = jobs.parse() else {
        eprintln!("grid-op: --jobs: not a number: {jobs}");
        return 2;
    };
    let spec = match parse_request(&format!("{{\"op\":\"grid\",\"spec\":{spec_json}}}")) {
        Ok(Request::Grid { spec }) => spec,
        Ok(_) => unreachable!("a grid line parses as a grid request"),
        Err(e) => {
            eprintln!("grid-op: bad spec: {e}");
            return 2;
        }
    };
    runner::set_jobs(jobs);
    cache::set_disk_dir(Some(cache_dir));

    let start = Instant::now();
    let result = scenario::run_grid(&spec);
    let csv = table_csv(&grid_table(&spec, &result));
    if let Err(e) = std::fs::write(&out, csv) {
        eprintln!("grid-op: writing {}: {e}", out.display());
        return 1;
    }
    println!("{{\"grid_s\":{:.6}}}", start.elapsed().as_secs_f64());
    0
}
