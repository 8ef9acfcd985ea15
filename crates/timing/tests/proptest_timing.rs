//! Randomized tests for the timing analyses: structural invariants that
//! must hold for arbitrary stimuli and fabrication draws.
//!
//! Formerly `proptest`-based; rewritten as seeded deterministic sweeps
//! (fixed-seed [`SplitMix64`] streams) so the workspace builds with zero
//! registry dependencies and every failure reproduces exactly.

use ntc_netlist::generators::alu::{Alu, AluFunc, ALL_ALU_FUNCS};
use ntc_netlist::{Builder, CellKind, Netlist, Signal};
use ntc_timing::{k_critical_paths, DynamicSim, StaticTiming};
use ntc_varmodel::rng::SplitMix64;
use ntc_varmodel::{ChipSignature, Corner, VariationParams};

fn alu8() -> Alu {
    Alu::new(8)
}

fn pick_func(rng: &mut SplitMix64) -> AluFunc {
    ALL_ALU_FUNCS[rng.gen_index(ALL_ALU_FUNCS.len())]
}

/// The dynamic simulator's settled state always equals combinational
/// evaluation, regardless of the vector pair or the chip drawn.
#[test]
fn dynamic_final_state_matches_eval() {
    let alu = alu8();
    let mut rng = SplitMix64::seed_from_u64(0x71AE_0001);
    for case in 0..48 {
        let seed = rng.gen_u64() % 64;
        let sig =
            ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), seed);
        let mut sim = DynamicSim::new(alu.netlist(), &sig);
        let init = alu.encode(pick_func(&mut rng), rng.gen_u64() & 0xFF, rng.gen_u64() & 0xFF);
        let sens_f = pick_func(&mut rng);
        let (a2, b2) = (rng.gen_u64() & 0xFF, rng.gen_u64() & 0xFF);
        let sens = alu.encode(sens_f, a2, b2);
        let t = sim.simulate_pair(&init, &sens);
        let expect = alu.netlist().eval(&sens);
        let got: Vec<bool> = t.outputs.iter().map(|o| o.final_value).collect();
        assert_eq!(got, expect, "case {case} chip {seed} {sens_f:?} a={a2} b={b2}");
    }
}

/// A random DAG of at most 35 gates over the two-input library plus
/// Inv/Buf/Mux2/Maj3. Every gate samples earlier signals only, so paths
/// reconverge and the same delays add up in different orders; every gate
/// is an output.
fn random_small_netlist(rng: &mut SplitMix64) -> Netlist {
    const KINDS: [CellKind; 10] = [
        CellKind::Inv,
        CellKind::Buf,
        CellKind::And2,
        CellKind::Or2,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Mux2,
        CellKind::Maj3,
    ];
    let mut b = Builder::new();
    let n_in = rng.gen_range_inclusive(2, 6);
    let mut sigs: Vec<Signal> = (0..n_in).map(|i| b.input(&format!("i{i}"))).collect();
    let n_gates = rng.gen_range_inclusive(1, 35);
    for g in 0..n_gates {
        let kind = KINDS[rng.gen_index(KINDS.len())];
        let mut pin = || sigs[rng.gen_index(sigs.len())];
        let s = match kind.arity() {
            1 => b.gate1(kind, pin()),
            2 => b.gate2(kind, pin(), pin()),
            _ => b.gate3(kind, pin(), pin(), pin()),
        };
        b.output(&format!("o{g}"), s);
        sigs.push(s);
    }
    b.finish()
}

/// Every output settles at the value combinational evaluation gives the
/// sensitizing vector, on random netlists, for nominal and fabricated
/// delays at both corners. Fanin toggles one ulp apart (the same delays
/// summed along reconvergent paths in a different order) must each be
/// evaluated; merging them into the earlier time settles gates wrong.
#[test]
fn dynamic_final_values_match_eval_on_random_netlists() {
    let mut rng = SplitMix64::seed_from_u64(0x71AE_0006);
    for case in 0..3_000 {
        let nl = random_small_netlist(&mut rng);
        let width = nl.inputs().len();
        let pairs: Vec<(Vec<bool>, Vec<bool>)> = (0..4)
            .map(|_| {
                let mut vector = || (0..width).map(|_| rng.gen_bool()).collect::<Vec<bool>>();
                (vector(), vector())
            })
            .collect();
        let chip = rng.gen_u64();
        for (corner, params) in [
            (Corner::NTC, VariationParams::ntc()),
            (Corner::STC, VariationParams::stc()),
        ] {
            for sig in [
                ChipSignature::nominal(&nl, corner),
                ChipSignature::fabricate(&nl, corner, params, chip),
            ] {
                let mut sim = DynamicSim::new(&nl, &sig);
                for (p, (init, sens)) in pairs.iter().enumerate() {
                    let t = sim.simulate_pair(init, sens);
                    let got: Vec<bool> = t.outputs.iter().map(|o| o.final_value).collect();
                    assert_eq!(
                        got,
                        nl.eval(sens),
                        "netlist {case}, pair {p}, chip {chip}, {corner:?}"
                    );
                }
            }
        }
    }
}

/// Dynamic sensitized delays never exceed the static critical delay
/// (static analysis assumes every path sensitizable).
#[test]
fn dynamic_bounded_by_static() {
    let alu = alu8();
    let mut rng = SplitMix64::seed_from_u64(0x71AE_0002);
    for case in 0..32 {
        let seed = rng.gen_u64() % 32;
        let sig =
            ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), seed);
        let bound = StaticTiming::analyze(alu.netlist(), &sig).critical_delay_ps(alu.netlist());
        let mut sim = DynamicSim::new(alu.netlist(), &sig);
        let init = alu.encode(AluFunc::Buffer, 0, 0);
        let sens = alu.encode(pick_func(&mut rng), rng.gen_u64() & 0xFF, rng.gen_u64() & 0xFF);
        let t = sim.simulate_pair(&init, &sens);
        if let Some(d) = t.max_delay_ps {
            assert!(d <= bound + 1e-6, "case {case}: dynamic {d} vs static {bound}");
        }
        if let (Some(lo), Some(hi)) = (t.min_delay_ps, t.max_delay_ps) {
            assert!(lo <= hi + 1e-9, "case {case}");
        }
    }
}

/// Every enumerated path's delay equals the sum of its gate delays, and
/// the ranking is non-increasing — for any chip.
#[test]
fn enumerated_paths_are_consistent() {
    let alu = alu8();
    let mut rng = SplitMix64::seed_from_u64(0x71AE_0003);
    for case in 0..32 {
        let seed = rng.gen_u64() % 32;
        let k = 1 + rng.gen_index(9);
        let sig =
            ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), seed);
        let paths = k_critical_paths(alu.netlist(), &sig, k);
        assert_eq!(paths.len(), k, "case {case}");
        let mut prev = f64::INFINITY;
        for p in &paths {
            let sum: f64 = p.signals.iter().map(|s| sig.delay_ps(s.index())).sum();
            assert!((sum - p.delay_ps).abs() < 1e-6, "case {case}");
            assert!(p.delay_ps <= prev + 1e-9, "case {case}");
            prev = p.delay_ps;
        }
    }
}

/// Identical consecutive vectors never produce output transitions — the
/// circuit is settled, nothing can toggle.
#[test]
fn no_transitions_without_input_change() {
    let alu = alu8();
    let mut rng = SplitMix64::seed_from_u64(0x71AE_0004);
    for case in 0..32 {
        let seed = rng.gen_u64() % 32;
        let sig =
            ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), seed);
        let mut sim = DynamicSim::new(alu.netlist(), &sig);
        let v = alu.encode(pick_func(&mut rng), rng.gen_u64() & 0xFF, rng.gen_u64() & 0xFF);
        let t = sim.simulate_pair(&v, &v);
        assert_eq!(t.total_output_transitions, 0, "case {case}");
    }
}

/// Transition parity: an output's final value differs from its initial
/// value iff it saw an odd number of transitions.
#[test]
fn transition_parity_holds() {
    let alu = alu8();
    let mut rng = SplitMix64::seed_from_u64(0x71AE_0005);
    for case in 0..16 {
        let seed = rng.gen_u64() % 16;
        let sig =
            ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), seed);
        let mut sim = DynamicSim::new(alu.netlist(), &sig);
        let init = alu.encode(AluFunc::Xor, rng.gen_u64() & 0xFF, rng.gen_u64() & 0xFF);
        let sens = alu.encode(AluFunc::Add, rng.gen_u64() & 0xFF, rng.gen_u64() & 0xFF);
        let t = sim.simulate_pair(&init, &sens);
        for o in &t.outputs {
            assert_eq!(
                o.final_value != o.initial,
                o.transitions.len() % 2 == 1,
                "case {case}"
            );
        }
    }
}
