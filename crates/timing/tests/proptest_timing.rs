//! Randomized tests for the timing analyses: structural invariants that
//! must hold for arbitrary stimuli and fabrication draws.
//!
//! Formerly `proptest`-based; rewritten as seeded deterministic sweeps
//! (fixed-seed [`SplitMix64`] streams) so the workspace builds with zero
//! registry dependencies and every failure reproduces exactly.

use ntc_netlist::generators::alu::{Alu, AluFunc, ALL_ALU_FUNCS};
use ntc_netlist::{Builder, CellKind, Netlist, Signal};
use ntc_timing::{k_critical_paths, CycleTiming, SimWorkspace, StaticTiming};
use ntc_varmodel::rng::SplitMix64;
use ntc_varmodel::{ChipSignature, Corner, VariationParams};

fn alu8() -> Alu {
    Alu::new(8)
}

fn pick_func(rng: &mut SplitMix64) -> AluFunc {
    ALL_ALU_FUNCS[rng.gen_index(ALL_ALU_FUNCS.len())]
}

/// The kernel's full sweep into a fresh result.
fn full(
    ws: &mut SimWorkspace,
    nl: &Netlist,
    sig: &ChipSignature,
    init: &[bool],
    sens: &[bool],
) -> CycleTiming {
    let mut out = CycleTiming::default();
    ws.simulate_pair_into(nl, sig, init, sens, &mut out);
    out
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
        let init = alu.encode(pick_func(&mut rng), rng.gen_u64() & 0xFF, rng.gen_u64() & 0xFF);
        let sens_f = pick_func(&mut rng);
        let (a2, b2) = (rng.gen_u64() & 0xFF, rng.gen_u64() & 0xFF);
        let sens = alu.encode(sens_f, a2, b2);
        let t = full(&mut SimWorkspace::new(), alu.netlist(), &sig, &init, &sens);
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
                let mut ws = SimWorkspace::new();
                for (p, (init, sens)) in pairs.iter().enumerate() {
                    let t = full(&mut ws, &nl, &sig, init, sens);
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

/// A random DAG of 10–200 gates built to have many guards: half the gates
/// are AND2/OR2/NAND2/NOR2/MUX2, and half of all pins sample the first
/// `inputs + 4` nets, so steady masking nets are common. Constants,
/// repeated pins and dangling nets all occur; about a quarter of the gates
/// are outputs.
fn random_gated_netlist(rng: &mut SplitMix64) -> Netlist {
    const GATING: [CellKind; 5] = [
        CellKind::And2,
        CellKind::Or2,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::Mux2,
    ];
    const ANY: [CellKind; 10] = [
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
    let n_in = rng.gen_range_inclusive(2, 8);
    let mut sigs: Vec<Signal> = (0..n_in).map(|i| b.input(&format!("i{i}"))).collect();
    if rng.gen_bool() {
        sigs.push(b.const0());
    }
    if rng.gen_bool() {
        sigs.push(b.const1());
    }
    let near = n_in + 4;
    let n_gates = rng.gen_range_inclusive(10, 200);
    for g in 0..n_gates {
        let kind = if rng.gen_bool() {
            GATING[rng.gen_index(GATING.len())]
        } else {
            ANY[rng.gen_index(ANY.len())]
        };
        let mut pin = || {
            let span = if rng.gen_bool() {
                near.min(sigs.len())
            } else {
                sigs.len()
            };
            sigs[rng.gen_index(span)]
        };
        let s = match kind.arity() {
            1 => b.gate1(kind, pin()),
            2 => b.gate2(kind, pin(), pin()),
            _ => b.gate3(kind, pin(), pin(), pin()),
        };
        if g + 1 == n_gates || rng.gen_index(4) == 0 {
            b.output(&format!("o{g}"), s);
        }
        sigs.push(s);
    }
    b.finish()
}

/// The inputs of the lean-sweep property tests: random gated netlists at
/// nominal and fabricated delays at both corners, each pair flipping each
/// input with probability 1/4, then the 8-bit ALU over all 169 function
/// pairs on three chips. `check` gets a workspace reused across one
/// signature's pairs, the pair, and a description of the case.
fn for_each_gated_case(
    mut check: impl FnMut(
        &mut SimWorkspace,
        (&Netlist, &ChipSignature),
        &[bool],
        &[bool],
        &dyn Fn() -> String,
    ),
) {
    let mut rng = SplitMix64::seed_from_u64(0x71AE_0007);
    for case in 0..1_500 {
        let nl = random_gated_netlist(&mut rng);
        let width = nl.inputs().len();
        let pairs: Vec<(Vec<bool>, Vec<bool>)> = (0..4)
            .map(|_| {
                let init: Vec<bool> = (0..width).map(|_| rng.gen_bool()).collect();
                let sens = init.iter().map(|&v| v ^ (rng.gen_index(4) == 0)).collect();
                (init, sens)
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
                let mut ws = SimWorkspace::new();
                for (p, (init, sens)) in pairs.iter().enumerate() {
                    check(&mut ws, (&nl, &sig), init, sens, &|| {
                        format!("netlist {case}, pair {p}, chip {chip}, {corner:?}")
                    });
                }
            }
        }
    }

    let alu = alu8();
    for chip in 0..3u64 {
        let sig =
            ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), chip);
        let mut ws = SimWorkspace::new();
        for f1 in ALL_ALU_FUNCS {
            for f2 in ALL_ALU_FUNCS {
                for _ in 0..4 {
                    let (a1, b1, a2, b2) = (
                        rng.gen_u64() & 0xFF,
                        rng.gen_u64() & 0xFF,
                        rng.gen_u64() & 0xFF,
                        rng.gen_u64() & 0xFF,
                    );
                    check(
                        &mut ws,
                        (alu.netlist(), &sig),
                        &alu.encode(f1, a1, b1),
                        &alu.encode(f2, a2, b2),
                        &|| format!("chip {chip}, {f1} {a1:#x},{b1:#x} -> {f2} {a2:#x},{b2:#x}"),
                    );
                }
            }
        }
    }
}

/// The lean sweep behind `simulate_pair_minmax` skips gates whose guard
/// holds; its min/max arrivals must still equal the full sweep's bit for
/// bit, on every case of `for_each_gated_case`.
#[test]
fn lean_minmax_matches_full_path_on_gated_netlists() {
    for_each_gated_case(|ws, (nl, sig), init, sens, what| {
        let full = full(ws, nl, sig, init, sens);
        let lean = ws.simulate_pair_minmax(nl, sig, init, sens);
        assert_eq!(
            lean.min_ps.map(f64::to_bits),
            full.delays.min_ps.map(f64::to_bits),
            "min, {}",
            what()
        );
        assert_eq!(
            lean.max_ps.map(f64::to_bits),
            full.delays.max_ps.map(f64::to_bits),
            "max, {}",
            what()
        );
    });
}

/// `critical_path_into` after the lean sweep names the toggle chain that
/// set `max_ps`: it starts at the first output whose last toggle is
/// `max_ps`, steps from each gate to one of its fanins, ends on a gate fed
/// by a primary input the pair flips, and its delays, summed from the
/// input end, give `max_ps` bit for bit. Each of its gates also toggles on
/// the full sweep. Every case of `for_each_gated_case`.
#[test]
fn causal_path_chains_an_input_toggle_to_the_latest_output_toggle() {
    let mut path = Vec::new();
    for_each_gated_case(|ws, (nl, sig), init, sens, what| {
        let full = full(ws, nl, sig, init, sens);
        let toggled = ws.sensitized_gates(nl);
        let lean = ws.simulate_pair_minmax(nl, sig, init, sens);
        ws.critical_path_into(nl, sig, &mut path);
        let Some(max_ps) = lean.max_ps else {
            assert!(path.is_empty(), "quiet cycle, {}", what());
            return;
        };
        let start = nl
            .outputs()
            .iter()
            .zip(&full.outputs)
            .find(|(_, o)| o.transitions.last().map(|t| t.to_bits()) == Some(max_ps.to_bits()))
            .map(|(s, _)| s.index());
        assert_eq!(path.first().copied(), start, "start, {}", what());
        for pair in path.windows(2) {
            let fanins = nl.gates()[pair[0]].inputs();
            assert!(
                fanins.iter().any(|s| s.index() == pair[1]),
                "{} is no fanin of {}, {}",
                pair[1],
                pair[0],
                what()
            );
        }
        let last = nl.gates()[*path.last().expect("nonempty")].inputs();
        let launched = nl
            .inputs()
            .iter()
            .zip(init.iter().zip(sens))
            .any(|(s, (a, b))| a != b && last.contains(s));
        assert!(launched, "no flipped input feeds the path, {}", what());
        let mut t = 0.0f64;
        for &g in path.iter().rev() {
            t += sig.delay_ps(g);
        }
        assert_eq!(
            t.to_bits(),
            max_ps.to_bits(),
            "delay sum {t} vs {max_ps}, {}",
            what()
        );
        assert!(
            path.iter().all(|g| toggled.contains(g)),
            "a path gate is quiet on the full sweep, {}",
            what()
        );
    });
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
        let init = alu.encode(AluFunc::Buffer, 0, 0);
        let sens = alu.encode(pick_func(&mut rng), rng.gen_u64() & 0xFF, rng.gen_u64() & 0xFF);
        let t = full(&mut SimWorkspace::new(), alu.netlist(), &sig, &init, &sens);
        if let Some(d) = t.delays.max_ps {
            assert!(d <= bound + 1e-6, "case {case}: dynamic {d} vs static {bound}");
        }
        if let (Some(lo), Some(hi)) = (t.delays.min_ps, t.delays.max_ps) {
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
        let v = alu.encode(pick_func(&mut rng), rng.gen_u64() & 0xFF, rng.gen_u64() & 0xFF);
        let t = full(&mut SimWorkspace::new(), alu.netlist(), &sig, &v, &v);
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
        let init = alu.encode(AluFunc::Xor, rng.gen_u64() & 0xFF, rng.gen_u64() & 0xFF);
        let sens = alu.encode(AluFunc::Add, rng.gen_u64() & 0xFF, rng.gen_u64() & 0xFF);
        let t = full(&mut SimWorkspace::new(), alu.netlist(), &sig, &init, &sens);
        for o in &t.outputs {
            assert_eq!(
                o.final_value != o.initial,
                o.transitions.len() % 2 == 1,
                "case {case}"
            );
        }
    }
}
