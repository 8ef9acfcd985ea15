//! `chip-report` — inspect one fabricated die's choke signature.
//!
//! Usage:
//!
//! ```text
//! chip_report [--seed N] [--width W] [--corner ntc|stc] [--paths K] [--verilog FILE]
//! ```
//!
//! Fabricates a `W`-bit ALU as die `N` at the chosen corner and prints its
//! post-silicon report: choke-gate census, critical-delay inflation, the K
//! most-critical paths with their dominating gates, and the worst slack
//! endpoints. Optionally dumps the netlist as structural Verilog.
//!
//! Exit codes:
//!
//! * `0` — the report was printed (and the Verilog file written);
//! * `1` — the Verilog file could not be written;
//! * `2` — usage error: an unknown flag, a missing value, a seed that is
//!   not an unsigned integer, a width outside 2..=64, a path count below
//!   1, or a corner other than `ntc`/`stc`. The message names the flag
//!   and nothing is printed to stdout.

use ntc_choke::netlist::generators::alu::Alu;
use ntc_choke::netlist::verilog;
use ntc_choke::timing::{k_critical_paths, SlackReport, StaticTiming};
use ntc_choke::varmodel::{ChipSignature, Corner, VariationParams};
use std::io::Write;

/// Report a usage error on stderr and exit with code 2.
fn usage_error(message: &str) -> ! {
    eprintln!("{message}; try --help");
    std::process::exit(2);
}

/// `value` of `flag` parsed as a number that `valid` accepts, or a usage
/// error saying the flag expects `want`.
fn number<T: std::str::FromStr>(flag: &str, value: &str, valid: fn(&T) -> bool, want: &str) -> T {
    value
        .parse()
        .ok()
        .filter(valid)
        .unwrap_or_else(|| usage_error(&format!("{flag} expects {want}, not `{value}`")))
}

fn main() {
    let mut seed = 1u64;
    let mut width = 32usize;
    let mut corner = Corner::NTC;
    let mut k = 5usize;
    let mut verilog_out: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{name} requires a value")))
        };
        match arg.as_str() {
            "--seed" => seed = number("--seed", &value("--seed"), |_| true, "an unsigned integer"),
            "--width" => {
                width = number(
                    "--width",
                    &value("--width"),
                    |w| (2..=64).contains(w),
                    "a width from 2 to 64",
                )
            }
            "--paths" => k = number("--paths", &value("--paths"), |&k| k >= 1, "at least 1"),
            "--corner" => {
                corner = match value("--corner").as_str() {
                    "ntc" | "NTC" => Corner::NTC,
                    "stc" | "STC" => Corner::STC,
                    other => usage_error(&format!("--corner expects ntc or stc, not `{other}`")),
                }
            }
            "--verilog" => verilog_out = Some(value("--verilog")),
            "--help" | "-h" => {
                println!(
                    "usage: chip_report [--seed N] [--width W] [--corner ntc|stc] \
                     [--paths K] [--verilog FILE]"
                );
                return;
            }
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let alu = Alu::new(width);
    let nl = alu.netlist();
    let nominal = ChipSignature::nominal(nl, corner);
    let chip = ChipSignature::fabricate(nl, corner, VariationParams::for_corner(corner), seed);

    let d_nom = StaticTiming::analyze(nl, &nominal).critical_delay_ps(nl);
    let d_pv = StaticTiming::analyze(nl, &chip).critical_delay_ps(nl);

    println!("die {seed}: {width}-bit ALU at {corner}");
    println!(
        "  gates            : {} logic, depth {}",
        nl.logic_gate_count(),
        nl.max_depth()
    );
    println!("  nominal critical : {d_nom:.0} ps");
    println!(
        "  die critical     : {d_pv:.0} ps ({:.2}x nominal)",
        d_pv / d_nom
    );
    let slow = chip.slow_choke_gates();
    let fast = chip.fast_choke_gates();
    let stats = chip.multiplier_stats(nl);
    println!(
        "  choke census     : {} slow (>= 2.0x), {} fast (<= 0.6x); multipliers {:.2}..{:.2} (mean {:.2})",
        slow.len(),
        fast.len(),
        stats.min,
        stats.max,
        stats.mean
    );

    println!("\n  top {k} critical paths:");
    for (i, p) in k_critical_paths(nl, &chip, k).iter().enumerate() {
        let chokes = p.choke_gates(&chip, 2.0);
        println!(
            "   #{i}: {:.0} ps, {} gates, dominance {:.2}, {} choke gate(s) on path",
            p.delay_ps,
            p.depth(nl),
            p.dominance(&chip),
            chokes.len()
        );
    }

    let period = d_nom * 1.10;
    let report = SlackReport::analyze(nl, &chip, period);
    println!(
        "\n  at a {period:.0} ps clock: {} of {} endpoints violate setup (worst slack {:.0} ps)",
        report.failing().count(),
        nl.outputs().len(),
        report.worst_slack_ps()
    );

    if let Some(path) = verilog_out {
        let written = std::fs::File::create(&path).and_then(|file| {
            let mut w = std::io::BufWriter::new(file);
            verilog::write_verilog(nl, "ntc_alu", &mut w)?;
            w.flush()
        });
        if let Err(e) = written {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("\n  netlist written to {path}");
    }
}
