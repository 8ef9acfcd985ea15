//! Scheme shootout: every resilience technique in the library — Razor,
//! HFG, OCST, DCS-ICSLT, DCS-ACSLT and Trident — over the same workload on
//! the same fabricated chip, with penalty / performance / energy columns.
//!
//! Run with: `cargo run --release --example scheme_shootout [benchmark]`
//! where `benchmark` is one of bzip, gap, gzip, mcf, parser, vortex
//! (default: gzip).

use ntc_choke::core::baselines::{Hfg, Ocst, Razor};
use ntc_choke::core::dcs::Dcs;
use ntc_choke::core::sim::{run_scheme, SimResult};
use ntc_choke::core::trident::Trident;
use ntc_choke::core::ResilienceScheme;
use ntc_choke::experiments::{build_oracle, CH4_REGIME};
use ntc_choke::pipeline::{EnergyModel, Pipeline};
use ntc_choke::varmodel::Corner;
use ntc_choke::workload::{Benchmark, TraceGenerator, ALL_BENCHMARKS};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "gzip".into());
    let bench = ALL_BENCHMARKS
        .iter()
        .copied()
        .find(|b| b.name() == name)
        .unwrap_or(Benchmark::Gzip);

    let cycles = 60_000;
    let seed = 7;
    let trace = TraceGenerator::new(bench, 3).trace(cycles);
    let pipe = Pipeline::core1();
    let model = EnergyModel::ntc_core();

    // Razor-family schemes run on the hold-buffered netlist with the
    // double-sampling min constraint; Trident runs bufferless with its
    // transition-detector guard interval.
    let mut oracle_buf = build_oracle(Corner::NTC, seed, true, CH4_REGIME);
    let mut oracle_bare = build_oracle(Corner::NTC, seed, false, CH4_REGIME);
    let clock = CH4_REGIME.clock(oracle_buf.nominal_critical_delay_ps());
    let tdc_clock = CH4_REGIME.tdc_clock(oracle_bare.nominal_critical_delay_ps());

    let hfg_stretch = (oracle_buf.static_critical_delay_ps() * 1.02 / clock.period_ps).max(1.0);

    let mut results: Vec<SimResult> = Vec::new();
    let mut razor = Razor::ch4();
    results.push(run_scheme(&mut razor, &mut oracle_buf, &trace, clock, pipe));
    let mut hfg = Hfg::with_stretch(hfg_stretch);
    results.push(run_scheme(&mut hfg, &mut oracle_buf, &trace, clock, pipe));
    let mut ocst = Ocst::new(cycles as u64 / 10, 0.30);
    results.push(run_scheme(&mut ocst, &mut oracle_buf, &trace, clock, pipe));
    let mut icslt = Dcs::icslt_default().with_min_corruption(true);
    results.push(run_scheme(&mut icslt, &mut oracle_buf, &trace, clock, pipe));
    let mut acslt = Dcs::acslt_default().with_min_corruption(true);
    results.push(run_scheme(&mut acslt, &mut oracle_buf, &trace, clock, pipe));
    let mut trident = Trident::paper();
    results.push(run_scheme(
        &mut trident,
        &mut oracle_bare,
        &trace,
        tdc_clock,
        pipe,
    ));

    let base_perf = results[0].performance();
    let base_eff = results[0].energy(model).efficiency;

    println!(
        "benchmark {bench}, {cycles} cycles, chip seed {seed} (HFG guardband {:.2}x)\n",
        hfg_stretch
    );
    println!(
        "{:<11} {:>8} {:>9} {:>8} {:>7} {:>9} {:>9} {:>8}",
        "scheme", "errors", "recovered", "avoided", "silent", "penalty", "perf", "energy"
    );
    for r in &results {
        println!(
            "{:<11} {:>8} {:>9} {:>8} {:>7} {:>9} {:>8.2}x {:>7.2}x",
            r.scheme,
            r.errors_total(),
            r.recovered,
            r.avoided,
            r.corruptions,
            r.cost.penalty_cycles(),
            r.performance() / base_perf,
            r.energy(model).efficiency / base_eff,
        );
    }
    println!(
        "\nnote: `silent` counts min-timing corruptions the double-sampling\n\
         schemes cannot even detect (choke buffers defeating the hold fix);\n\
         Trident is the only scheme with zero silent corruptions by design."
    );
    let _ = razor.name();
}
