//! `ntc-serve` — the grid-compute daemon and its scripted client.
//!
//! ```text
//! ntc-serve serve   [--socket PATH] [--cache-dir DIR]
//!                   [--jobs N] [--budget N] [--queue N] [--hold-ms N]
//! ntc-serve request [--socket PATH] [--out FILE]
//!                   (--experiment ID [--scale fast|full] | --grid JSON | --line JSON)
//! ```
//!
//! `serve` runs the daemon until SIGTERM/SIGINT or a `shutdown` request,
//! then drains cleanly (socket unlinked, no quarantine files). `request`
//! sends one request, prints the receipt (or the full response for
//! non-compute ops) to stdout, and with `--out` writes the CSV payload
//! bytes to a file — which `cmp`s clean against the batch `repro` CSVs.
//! The socket defaults to `ntc-serve.sock`. Exit codes: 0 success, 1
//! server-side error response, 2 usage/I/O (`serve` checks its arguments
//! before it binds).

use ntc_choke::experiments::report::{parse_json, Json};
use ntc_choke::serve::{self, ServeConfig, Server};
use std::path::PathBuf;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: ntc-serve serve   [--socket PATH] [--cache-dir DIR] \
         [--jobs N] [--budget N] [--queue N] [--hold-ms N]\n\
         \x20      ntc-serve request [--socket PATH] [--out FILE] \
         (--experiment ID [--scale fast|full] | --grid JSON | --line JSON)"
    );
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "serve" => run_serve(args),
        "request" => run_request(args),
        _ => usage(),
    }
}

/// Pop the value of a `--flag VALUE` pair, or die with usage.
fn take_value(args: &mut std::vec::IntoIter<String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("{flag} requires a value");
        usage();
    })
}

fn run_serve(args: Vec<String>) {
    let mut cfg = ServeConfig::default();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => cfg.socket = PathBuf::from(take_value(&mut it, "--socket")),
            "--cache-dir" => {
                cfg.cache_dir = Some(PathBuf::from(take_value(&mut it, "--cache-dir")));
            }
            "--jobs" => {
                cfg.jobs = Some(parse_num(&take_value(&mut it, "--jobs"), "--jobs"));
            }
            "--budget" => cfg.budget = parse_num(&take_value(&mut it, "--budget"), "--budget"),
            "--queue" => cfg.queue_cap = parse_num(&take_value(&mut it, "--queue"), "--queue"),
            "--hold-ms" => {
                cfg.hold_before_compute = Duration::from_millis(parse_num(
                    &take_value(&mut it, "--hold-ms"),
                    "--hold-ms",
                ) as u64);
            }
            _ => usage(),
        }
    }
    serve::install_signal_handlers();
    let server = match Server::bind(cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ntc-serve: bind failed: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "ntc-serve: listening on unix socket {}",
        cfg.socket.display()
    );
    if let Err(e) = server.run() {
        eprintln!("ntc-serve: accept loop failed: {e}");
        std::process::exit(2);
    }
    eprintln!("ntc-serve: drained, exiting");
}

fn parse_num(s: &str, flag: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: not a number: {s}");
        usage();
    })
}

fn run_request(args: Vec<String>) {
    let mut socket = ServeConfig::default().socket;
    let mut out: Option<PathBuf> = None;
    let mut line: Option<String> = None;
    let mut experiment: Option<String> = None;
    let mut scale = "fast".to_string();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => socket = PathBuf::from(take_value(&mut it, "--socket")),
            "--out" => out = Some(PathBuf::from(take_value(&mut it, "--out"))),
            "--experiment" => experiment = Some(take_value(&mut it, "--experiment")),
            "--scale" => scale = take_value(&mut it, "--scale"),
            "--grid" => {
                line = Some(format!(
                    "{{\"op\":\"grid\",\"spec\":{}}}",
                    take_value(&mut it, "--grid").replace('\n', " ")
                ));
            }
            "--line" => line = Some(take_value(&mut it, "--line")),
            _ => usage(),
        }
    }
    let line = match (line, experiment) {
        (Some(l), None) => l,
        (None, Some(id)) => Json::obj([
            ("op", "experiment"),
            ("id", id.as_str()),
            ("scale", scale.as_str()),
        ])
        .to_string(),
        _ => usage(),
    };
    let response = match serve::roundtrip(&socket, &line) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ntc-serve: request failed: {e}");
            std::process::exit(2);
        }
    };
    let v = match parse_json(&response) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("ntc-serve: unparseable response ({e}): {response}");
            std::process::exit(2);
        }
    };
    if v.get("ok") != Some(&Json::Bool(true)) {
        eprintln!("ntc-serve: server error: {response}");
        std::process::exit(1);
    }
    if let Some(path) = &out {
        let Some(csv) = v.get("csv").and_then(Json::as_str) else {
            eprintln!("ntc-serve: response carries no csv payload: {response}");
            std::process::exit(1);
        };
        if let Err(e) = std::fs::write(path, csv.as_bytes()) {
            eprintln!("ntc-serve: writing {} failed: {e}", path.display());
            std::process::exit(2);
        }
    }
    // The receipt is the scriptable part of a compute response; plain
    // ops (ping/list/stats) print whole.
    match v.get("receipt") {
        Some(receipt) => println!("{receipt}"),
        None => println!("{response}"),
    }
}
