//! Quickstart: fabricate an NTC chip, watch a choke point create timing
//! errors, and see Dynamic Choke Sensing learn and avoid them.
//!
//! Run with: `cargo run --release --example quickstart`

use ntc_choke::core::baselines::Razor;
use ntc_choke::core::dcs::Dcs;
use ntc_choke::core::sim::run_scheme;
use ntc_choke::core::tag_delay::TagDelayOracle;
use ntc_choke::pipeline::Pipeline;
use ntc_choke::timing::ClockSpec;
use ntc_choke::varmodel::{Corner, VariationParams};
use ntc_choke::workload::{Benchmark, TraceGenerator};

fn main() {
    // 1. Fabricate one near-threshold chip: a 32-bit ALU with
    //    VARIUS-NTV-style process variation (seed = the fabrication
    //    lottery ticket).
    let mut oracle = TagDelayOracle::for_chip(Corner::NTC, VariationParams::ntc(), 33);
    let nominal = oracle.nominal_critical_delay_ps();
    println!("nominal critical delay      : {nominal:.0} ps");
    println!(
        "post-silicon static critical: {:.0} ps ({:.2}x — the choke points)",
        oracle.static_critical_delay_ps(),
        oracle.static_critical_delay_ps() / nominal
    );

    // 2. Clock the chip speculatively (slightly above the nominal critical
    //    delay) — the common case is fast, choke paths err.
    let clock = ClockSpec {
        period_ps: nominal * 1.10,
        hold_ps: nominal * 0.10,
    };

    // 3. Run an mcf-like instruction stream under Razor and under DCS.
    let trace = TraceGenerator::new(Benchmark::Mcf, 1).trace(50_000);
    let pipe = Pipeline::core1();

    let razor = run_scheme(&mut Razor::ch3(), &mut oracle, &trace, clock, pipe);
    let dcs = run_scheme(&mut Dcs::icslt_default(), &mut oracle, &trace, clock, pipe);

    println!(
        "\n{:<12} {:>10} {:>10} {:>10} {:>9}",
        "scheme", "errors", "recovered", "avoided", "penalty"
    );
    for r in [&razor, &dcs] {
        println!(
            "{:<12} {:>10} {:>10} {:>10} {:>9}",
            r.scheme,
            r.errors_total(),
            r.recovered,
            r.avoided,
            r.cost.penalty_cycles()
        );
    }
    println!(
        "\nDCS prediction accuracy: {:.1}%  |  speedup over Razor: {:.2}x",
        dcs.prediction_accuracy(),
        dcs.performance() / razor.performance()
    );
}
