//! Bench: the dynamic timing kernel itself.
//!
//! The `first_pairs_*` cases replay what a delay-oracle miss pays: the
//! oracle simulates the `ntc_isa::ARCH_WIDTH` (32-bit) ALU once per
//! (tag, bucket) it first meets. They take the first pair of each distinct
//! error tag in the first 200,000 instructions of the vortex trace (seed
//! 7) and simulate all of them per iteration on one fabricated NTC chip,
//! through the lean `simulate_pair_minmax` sweep the oracle runs and
//! through the full `simulate_pair_into` sweep; `first_pairs_settle`
//! times the settle pass (`Netlist::eval_all_into` of each initializing
//! vector) that both sweeps start with.
//!
//! The other cases stress shapes on the 64-bit ALU under nominal and
//! fabricated signatures. Sparse pairs (`Buffer`→`Buffer`) exercise the
//! event-driven worklist (few gates visited); dense pairs (`Mult` with
//! wide operands) exercise the per-gate evaluation loop itself.
use ntc_bench::harness as criterion;
use ntc_bench::{criterion_group, criterion_main};

use criterion::Criterion;
use std::collections::HashSet;
use std::time::Duration;

use ntc_isa::{ErrorTag, Instruction};
use ntc_netlist::generators::alu::{Alu, AluFunc};
use ntc_timing::{CycleTiming, SimWorkspace};
use ntc_varmodel::{ChipSignature, Corner, VariationParams};
use ntc_workload::{Benchmark, TraceGenerator};

fn settings(c: &mut Criterion) -> criterion::BenchmarkGroup<'_, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group("dynamic_sim");
    g.sample_size(10);
    g.measurement_time(Duration::from_millis(1500));
    g.warm_up_time(Duration::from_millis(300));
    g
}

/// The encoded first pair of each distinct error tag in the first
/// 200,000 instructions of the vortex trace (seed 7).
fn first_pairs(alu: &Alu) -> Vec<(Vec<bool>, Vec<bool>)> {
    let encode =
        |i: &Instruction| alu.encode(i.opcode.alu_func(), u64::from(i.a), u64::from(i.b));
    let trace: Vec<Instruction> = TraceGenerator::new(Benchmark::Vortex, 7)
        .take(200_000)
        .collect();
    let mut seen = HashSet::new();
    trace
        .windows(2)
        .filter(|w| seen.insert(ErrorTag::of(&w[0], &w[1])))
        .map(|w| (encode(&w[0]), encode(&w[1])))
        .collect()
}

fn bench(c: &mut Criterion) {
    let oracle_alu = Alu::new(ntc_isa::ARCH_WIDTH);
    let chip = ChipSignature::fabricate(
        oracle_alu.netlist(),
        Corner::NTC,
        VariationParams::ntc(),
        220,
    );
    let pairs = first_pairs(&oracle_alu);
    println!("first_pairs: {} pairs per iteration", pairs.len());

    let alu = Alu::new(64);
    let nominal = ChipSignature::nominal(alu.netlist(), Corner::NTC);
    let fabricated =
        ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), 7);

    // Sparse activity: a Buffer op whose single toggling operand bit
    // sensitizes a short path — the common case in real traces.
    let sparse = (
        alu.encode(AluFunc::Buffer, 0x01, 0x00),
        alu.encode(AluFunc::Buffer, 0x03, 0x00),
    );
    // Long sensitized path: a full-width carry ripple.
    let carry = (
        alu.encode(AluFunc::Add, 0, 0),
        alu.encode(AluFunc::Add, u64::MAX, 1),
    );
    // Dense activity: wide-operand multiply toggling most of the array.
    let dense = (
        alu.encode(AluFunc::Mult, 0, 0),
        alu.encode(AluFunc::Mult, 0xDEAD_BEEF_1234_5678, 0x1357_9BDF_2468_ACE0),
    );

    let oracle_nl = oracle_alu.netlist();
    let mut g = settings(c);
    g.bench_function("first_pairs_minmax", |b| {
        let mut ws = SimWorkspace::new();
        b.iter(|| {
            pairs
                .iter()
                .filter_map(|(init, sens)| {
                    ws.simulate_pair_minmax(oracle_nl, &chip, init, sens).max_ps
                })
                .fold(0.0, f64::max)
        })
    });
    // The settle pass alone: both sweeps start by settling the
    // initializing vector over the whole netlist.
    g.bench_function("first_pairs_settle", |b| {
        let mut settled = Vec::new();
        b.iter(|| {
            pairs
                .iter()
                .filter(|(init, _)| {
                    oracle_nl.eval_all_into(init, &mut settled);
                    settled[settled.len() - 1]
                })
                .count()
        })
    });
    g.bench_function("first_pairs_full", |b| {
        let mut ws = SimWorkspace::new();
        let mut out = CycleTiming::default();
        b.iter(|| {
            pairs
                .iter()
                .filter_map(|(init, sens)| {
                    ws.simulate_pair_into(oracle_nl, &chip, init, sens, &mut out);
                    out.delays.max_ps
                })
                .fold(0.0, f64::max)
        })
    });
    // The full sweep, into one reused result.
    let nl = alu.netlist();
    for (name, sig, (init, sens)) in [
        ("sparse_buffer_nominal", &nominal, &sparse),
        ("sparse_buffer_fabricated", &fabricated, &sparse),
        ("carry_ripple_nominal", &nominal, &carry),
        ("dense_mult_fabricated", &fabricated, &dense),
    ] {
        g.bench_function(name, |b| {
            let mut ws = SimWorkspace::new();
            let mut out = CycleTiming::default();
            b.iter(|| {
                ws.simulate_pair_into(nl, sig, init, sens, &mut out);
                out.delays.max_ps
            })
        });
    }
    // The oracle's Phase-A entry point: min/max only, no per-output
    // activity vectors.
    for (name, sig, (init, sens)) in [
        ("sparse_buffer_minmax", &fabricated, &sparse),
        ("carry_ripple_minmax", &nominal, &carry),
    ] {
        g.bench_function(name, |b| {
            let mut ws = SimWorkspace::new();
            b.iter(|| ws.simulate_pair_minmax(nl, sig, init, sens))
        });
    }
    g.finish();
}
criterion_group!(benches, bench);
criterion_main!(benches);
