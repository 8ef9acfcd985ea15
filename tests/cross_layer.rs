//! Cross-crate integration tests: the full device → circuit → timing →
//! architecture → scheme stack, exercised end to end.

use ntc_choke::core::baselines::{Hfg, Ocst, Razor};
use ntc_choke::core::dcs::Dcs;
use ntc_choke::core::sim::{profile_errors, run_scheme};
use ntc_choke::core::tag_delay::TagDelayOracle;
use ntc_choke::core::trident::Trident;
use ntc_choke::isa::{Instruction, Opcode, ALL_OPCODES};
use ntc_choke::netlist::generators::alu::Alu;
use ntc_choke::pipeline::{EnergyModel, Pipeline};
use ntc_choke::timing::ClockSpec;
use ntc_choke::varmodel::{ChipSignature, Corner, VariationParams};
use ntc_choke::workload::{Benchmark, TraceGenerator};

fn oracle(seed: u64) -> TagDelayOracle {
    TagDelayOracle::for_chip(Corner::NTC, VariationParams::ntc(), seed)
}

fn clock(oracle: &TagDelayOracle) -> ClockSpec {
    let nominal = oracle.nominal_critical_delay_ps();
    ClockSpec {
        period_ps: nominal * 1.10,
        hold_ps: nominal * 0.10,
    }
}

#[test]
fn netlist_alu_matches_isa_golden_model_at_arch_width() {
    // The gate-level ALU and the ISA's behavioural semantics must agree
    // for every opcode at the architectural width.
    let alu = Alu::new(ntc_choke::isa::ARCH_WIDTH);
    for op in ALL_OPCODES {
        for (a, b) in [
            (0u64, 0u64),
            (0xFFFF_FFFF, 1),
            (0xDEAD_BEEF, 0x1357_9BDF),
            (0x8000_0000, 0x1F),
            (1, 31),
        ] {
            let instr = Instruction::new(op, a, b);
            let hw = alu.execute(op.alu_func(), u64::from(instr.a), u64::from(instr.b));
            assert_eq!(hw, instr.execute(), "{op} a={a:#x} b={b:#x}");
        }
    }
}

#[test]
fn dcs_beats_razor_on_every_benchmark() {
    let pipe = Pipeline::core1();
    for bench in [Benchmark::Mcf, Benchmark::Gzip, Benchmark::Vortex] {
        let mut o = oracle(1);
        let c = clock(&o);
        let trace = TraceGenerator::new(bench, 1).trace(8_000);
        let razor = run_scheme(&mut Razor::ch3(), &mut o, &trace, c, pipe);
        let dcs = run_scheme(&mut Dcs::icslt_default(), &mut o, &trace, c, pipe);
        assert!(razor.recovered > 0, "{bench}: clock must induce errors");
        assert!(
            dcs.cost.penalty_cycles() < razor.cost.penalty_cycles(),
            "{bench}: DCS {} vs Razor {}",
            dcs.cost.penalty_cycles(),
            razor.cost.penalty_cycles()
        );
        assert!(dcs.performance() > razor.performance());
        let model = EnergyModel::ntc_core();
        assert!(dcs.energy(model).efficiency > razor.energy(model).efficiency);
    }
}

#[test]
fn hfg_trades_errors_for_a_slow_clock() {
    let mut o = oracle(3);
    let c = clock(&o);
    let trace = TraceGenerator::new(Benchmark::Gap, 2).trace(6_000);
    let stretch = (o.static_critical_delay_ps() * 1.02 / c.period_ps).max(1.0);
    let hfg = run_scheme(
        &mut Hfg::with_stretch(stretch),
        &mut o,
        &trace,
        c,
        Pipeline::core1(),
    );
    assert_eq!(hfg.recovered, 0, "guardband covers the worst case");
    assert_eq!(hfg.cost.penalty_cycles(), 0);
    assert!(hfg.period_stretch > 1.0, "but every cycle pays for it");
}

#[test]
fn ocst_reduces_recoveries_after_tuning() {
    let mut o = oracle(5);
    let c = clock(&o);
    let trace = TraceGenerator::new(Benchmark::Mcf, 3).trace(10_000);
    let razor = run_scheme(&mut Razor::ch3(), &mut o, &trace, c, Pipeline::core1());
    let ocst = run_scheme(
        &mut Ocst::new(1_000, 0.30),
        &mut o,
        &trace,
        c,
        Pipeline::core1(),
    );
    assert!(
        ocst.cost.penalty_cycles() < razor.cost.penalty_cycles(),
        "OCST {} vs Razor {}",
        ocst.cost.penalty_cycles(),
        razor.cost.penalty_cycles()
    );
}

#[test]
fn trident_handles_min_violations_razor_cannot() {
    // Clock with a hold window inside the intrinsic min-delay range: min
    // violations occur. Razor silently corrupts; Trident detects, learns
    // and avoids.
    let mut o = oracle(11);
    let nominal = o.nominal_critical_delay_ps();
    let c = ClockSpec {
        period_ps: nominal * 0.95,
        hold_ps: nominal * 0.16,
    };
    let trace = TraceGenerator::new(Benchmark::Gap, 5).trace(10_000);
    let razor = run_scheme(&mut Razor::ch4(), &mut o, &trace, c, Pipeline::core1());
    let trident = run_scheme(&mut Trident::paper(), &mut o, &trace, c, Pipeline::core1());
    assert!(razor.corruptions > 0, "min violations must exist");
    assert_eq!(trident.corruptions, 0, "Trident sees every violation");
    assert!(trident.avoided > 0);
}

#[test]
fn error_stream_is_deterministic_per_chip() {
    let run = || {
        let mut o = oracle(9);
        let c = clock(&o);
        let trace = TraceGenerator::new(Benchmark::Parser, 4).trace(5_000);
        let r = run_scheme(
            &mut Dcs::acslt_default(),
            &mut o,
            &trace,
            c,
            Pipeline::core1(),
        );
        (
            r.recovered,
            r.avoided,
            r.false_positives,
            r.cost.penalty_cycles(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn profiling_is_consistent_with_scheme_observations() {
    // The scheme-free profiler and a Razor run must agree on the number of
    // max-side errors (Razor recovers exactly those).
    let mut o = oracle(13);
    let c = clock(&o);
    let trace = TraceGenerator::new(Benchmark::Bzip2, 6).trace(5_000);
    let profile = profile_errors(&mut o, &trace, c);
    let razor = run_scheme(&mut Razor::ch3(), &mut o, &trace, c, Pipeline::core1());
    let profiled_max: u64 = profile
        .per_opcode_minmax
        .values()
        .map(|(max_e, _)| *max_e)
        .sum();
    assert_eq!(razor.recovered, profiled_max);
}

#[test]
fn buffered_and_bare_netlists_share_function_not_timing() {
    use ntc_choke::netlist::buffer_insertion::insert_hold_buffers;
    let alu = Alu::new(16);
    let nominal = ChipSignature::nominal(alu.netlist(), Corner::NTC);
    let crit = ntc_choke::timing::StaticTiming::analyze(alu.netlist(), &nominal)
        .critical_delay_ps(alu.netlist());
    let f = Corner::NTC.delay_factor();
    let (padded, _, report) = insert_hold_buffers(alu.netlist(), crit * 0.25 / f, crit * 0.72 / f);
    assert!(report.buffers_inserted > 0);
    // Same function...
    for op in [Opcode::Addu, Opcode::Nor, Opcode::Sllv] {
        let i = Instruction::new(op, 0xBEEF, 0x13);
        let pis = alu.encode(
            op.alu_func(),
            u64::from(i.a & 0xFFFF),
            u64::from(i.b & 0xFFFF),
        );
        assert_eq!(alu.netlist().eval(&pis), padded.eval(&pis));
    }
    // ...different min-path timing.
    assert!(report.min_delay_after_ps > report.min_delay_before_ps);
}
