//! `ntc-workload` — record benchmark traces.
//!
//! One subcommand:
//!
//! * `record --dir DIR [--bench NAME] [--seed S] [--cycles N]` —
//!   generate the seeded statistical trace(s) and write the binary
//!   `.ntt` file(s) the experiment stack replays with `--trace-dir`.
//!
//! Exit codes follow the repro contract: 0 success, 1 runtime failure
//! (I/O), 2 usage error — an unknown subcommand or flag, or a missing
//! `--dir`.

use ntc_workload::{trace_bin, Benchmark, TraceGenerator, TraceSource, ALL_BENCHMARKS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: ntc-workload record --dir DIR [options]

subcommands:
  record   generate + write binary trace files (.ntt)

options:
  --dir DIR        trace directory (required)
  --bench NAME     one benchmark (default: all six)
  --seed S         trace seed (default: 7)
  --cycles N       instructions per trace (default: 60000)
  --help           this text";

struct Args {
    dir: PathBuf,
    benches: Vec<Benchmark>,
    seed: u64,
    cycles: usize,
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let cmd = argv.first().ok_or("missing subcommand")?;
    if cmd != "record" {
        return Err(format!("unknown subcommand `{cmd}`"));
    }
    let mut dir = None;
    let mut benches = ALL_BENCHMARKS.to_vec();
    let mut seed = 7u64;
    let mut cycles = 60_000usize;
    let mut it = argv[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--dir" => dir = Some(PathBuf::from(value("--dir")?)),
            "--bench" => {
                let name = value("--bench")?;
                let b =
                    Benchmark::parse(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
                benches = vec![b];
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed wants an unsigned integer".to_owned())?;
            }
            "--cycles" => {
                cycles = value("--cycles")?
                    .parse()
                    .map_err(|_| "--cycles wants a positive integer".to_owned())?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if cycles == 0 {
        return Err("--cycles must be positive".to_owned());
    }
    Ok(Args {
        dir: dir.ok_or("--dir is required")?,
        benches,
        seed,
        cycles,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => return usage_error(&e),
    };
    record(&args)
}

fn record(args: &Args) -> ExitCode {
    for &bench in &args.benches {
        let trace = TraceGenerator::new(bench, args.seed).trace(args.cycles);
        let path = TraceSource::trace_path(&args.dir, bench, args.seed, args.cycles);
        let written =
            trace_bin::write_trace_file(&path, &trace).and_then(|()| std::fs::metadata(&path));
        match written {
            Ok(file) => println!(
                "recorded {} ({} instructions, {} bytes)",
                path.display(),
                trace.len(),
                file.len()
            ),
            Err(e) => {
                eprintln!("error: recording {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
