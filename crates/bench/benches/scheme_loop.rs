//! Bench: the scheme loop — the per-cycle work of a grid cell once its
//! delays are cached.
//!
//! One oracle of chip 220 streams the first 200,000 instructions of the
//! vortex trace (seed 7) to the four Ch. 3 schemes of the `full_grid`
//! comparison (Razor, HFG, DCS-ICSLT, DCS-ACSLT) at the Ch. 3 clock,
//! through one `run_schemes` call per iteration, as a grid cell does. The
//! oracle is warmed first, so every pair is a local hit and no exact
//! simulation runs in the timed loop; the schemes are built afresh each
//! iteration, so their tables start empty as in a cell. The per-element
//! figure is the median time per cycle: the delay stream plus all four
//! lanes.
use ntc_bench::harness as criterion;
use ntc_bench::{criterion_group, criterion_main};

use criterion::{Criterion, Throughput};
use std::time::Duration;

use ntc_core::scenario::{ChipContext, SchemeSpec};
use ntc_core::sim::run_schemes;
use ntc_core::tag_delay::TagDelayOracle;
use ntc_experiments::config::CH3_REGIME;
use ntc_isa::Instruction;
use ntc_pipeline::Pipeline;
use ntc_varmodel::{Corner, OperatingPoint, VariationParams};
use ntc_workload::{Benchmark, TraceGenerator};

const SCHEMES: [&str; 4] = ["razor", "hfg", "dcs-icslt", "dcs-acslt"];

fn bench(c: &mut Criterion) {
    let mut oracle = TagDelayOracle::for_chip(Corner::NTC, VariationParams::ntc(), 220);
    let trace: Vec<Instruction> = TraceGenerator::new(Benchmark::Vortex, 7)
        .take(200_000)
        .collect();
    let ctx = ChipContext {
        static_critical_delay_ps: oracle.static_critical_delay_ps(),
        clock: CH3_REGIME.clock(oracle.nominal_critical_delay_ps()),
        trace_len: trace.len(),
        point: OperatingPoint::NTC,
    };
    let roster = || -> Vec<_> {
        SCHEMES
            .iter()
            .map(|name| {
                let spec = SchemeSpec::parse(name).expect("registered scheme");
                (spec.build(&ctx), ctx.clock)
            })
            .collect()
    };
    // Warm the oracle: every pair of the trace resolved once.
    run_schemes(&mut roster(), &mut oracle, &trace, Pipeline::core1());

    let mut g = c.benchmark_group("scheme_loop");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(3));
    g.warm_up_time(Duration::from_millis(300));
    g.throughput(Throughput::Elements(trace.len() as u64 - 1));
    g.bench_function("ch3_four_schemes", |b| {
        b.iter(|| run_schemes(&mut roster(), &mut oracle, &trace, Pipeline::core1()))
    });
    g.finish();
}
criterion_group!(benches, bench);
criterion_main!(benches);
