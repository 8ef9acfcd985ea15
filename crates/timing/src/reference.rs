//! Reference implementation of the dynamic timing kernel, kept only for
//! tests: the straightforward all-gates scan with `Vec`-based waveforms
//! that `dynamic.rs` used before the event-driven rewrite. It evaluates
//! every gate and reads no guard, so its waves are the unguarded sweep's
//! (see the `dynamic` module docs): the kernel's one oracle.
//!
//! The suites below pin the lean sweep behind
//! [`SimWorkspace::simulate_pair_minmax`] against it over random, gated
//! and glitch-heavy netlists and the ALU, asserting **bit-for-bit**
//! identical output transition lists. Any divergence — a reordered
//! candidate sort, a different dedup window, a missed fanout edge, a guard
//! that does not hold — fails here long before it would corrupt a golden
//! CSV.

use ntc_netlist::{CellKind, Netlist};
use ntc_varmodel::ChipSignature;

use crate::dynamic::{CycleDelays, MAX_EVENTS_PER_NET};

/// One net of a reference simulation: its settled value before the
/// sensitizing vector and its ascending toggle times.
#[derive(Debug, Clone, Default)]
pub(crate) struct RefWave {
    pub(crate) init: bool,
    pub(crate) toggles: Vec<f64>,
}

impl RefWave {
    fn value_at(&self, t: f64) -> bool {
        let k = self.toggles.partition_point(|&x| x <= t);
        self.init ^ (k % 2 == 1)
    }

    fn push_toggle(&mut self, t: f64) {
        if self.toggles.len() >= MAX_EVENTS_PER_NET {
            let len = self.toggles.len();
            self.toggles.drain(len - 3..len - 1);
        }
        self.toggles.push(t);
    }
}

/// The pre-rewrite kernel, verbatim (up to the NaN-safe candidate sort):
/// settle, then scan *every* gate in topological order, gathering
/// candidate times into a scratch `Vec`, sorting with `total_cmp` and
/// emitting through a temporary `Vec`. Returns every net's wave, indexed
/// like the netlist's gates.
#[allow(clippy::needless_range_loop)] // kept verbatim as the reference
pub(crate) fn simulate_pair_reference(
    nl: &Netlist,
    sig: &ChipSignature,
    initializing: &[bool],
    sensitizing: &[bool],
) -> Vec<RefWave> {
    assert_eq!(initializing.len(), nl.inputs().len(), "init vector width");
    assert_eq!(sensitizing.len(), nl.inputs().len(), "sens vector width");

    let settled = nl.eval_all(initializing);
    let mut waves: Vec<RefWave> = settled
        .iter()
        .map(|&v| RefWave {
            init: v,
            toggles: Vec::new(),
        })
        .collect();

    let mut pi_iter = sensitizing.iter();
    let mut scratch_times: Vec<f64> = Vec::new();
    for (i, gate) in nl.gates().iter().enumerate() {
        match gate.kind() {
            CellKind::Input => {
                let new = *pi_iter.next().expect("width checked");
                if new != waves[i].init {
                    waves[i].toggles.push(0.0);
                }
            }
            CellKind::Const0 | CellKind::Const1 => {}
            kind => {
                scratch_times.clear();
                for s in gate.inputs() {
                    scratch_times.extend_from_slice(&waves[s.index()].toggles);
                }
                if scratch_times.is_empty() {
                    continue;
                }
                // `total_cmp`, not `partial_cmp().expect(...)`: a NaN delay
                // (e.g. injected by a corrupted signature) must not panic
                // the kernel. Identical ordering on finite values, so the
                // equivalence suite's bit-identity contract is unchanged.
                scratch_times.sort_by(f64::total_cmp);
                scratch_times.dedup_by(|a, b| a.to_bits() == b.to_bits());

                let delay = sig.delay_ps(i);
                let ins = gate.inputs();
                let mut last_val = waves[i].init;
                let mut emitted: Vec<f64> = Vec::new();
                for k in 0..scratch_times.len() {
                    let t = scratch_times[k];
                    let mut vals = [false; 3];
                    for (j, s) in ins.iter().enumerate() {
                        vals[j] = waves[s.index()].value_at(t);
                    }
                    let v = kind.eval(&vals[..ins.len()]);
                    if v != last_val {
                        emitted.push(t + delay);
                        last_val = v;
                    }
                }
                for t in emitted {
                    waves[i].push_toggle(t);
                }
            }
        }
    }
    waves
}

/// The earliest and latest output toggles of a reference simulation.
pub(crate) fn reference_delays(nl: &Netlist, waves: &[RefWave]) -> CycleDelays {
    let mut delays = CycleDelays::default();
    for s in nl.outputs() {
        let w = &waves[s.index()].toggles;
        if let Some(&first) = w.first() {
            delays.min_ps = Some(delays.min_ps.map_or(first, |m| m.min(first)));
        }
        if let Some(&last) = w.last() {
            delays.max_ps = Some(delays.max_ps.map_or(last, |m| m.max(last)));
        }
    }
    delays
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::SimWorkspace;
    use crate::sta::StaticTiming;
    use ntc_netlist::generators::alu::{Alu, AluFunc, ALL_ALU_FUNCS};
    use ntc_netlist::{Builder, Guard, Signal};
    use ntc_varmodel::{Corner, SplitMix64, VariationParams};

    fn bits(t: Option<f64>) -> Option<u64> {
        t.map(f64::to_bits)
    }

    /// Run the lean sweep on one pair and assert that its min/max arrivals,
    /// and every output's settled value and transition list (so its final
    /// value too), equal the reference's bit for bit: every f64 compared by
    /// `to_bits`, so a result that differs only in the last ulp still
    /// fails. Returns the reference's waves.
    fn assert_lean_matches_reference(
        ws: &mut SimWorkspace,
        nl: &Netlist,
        sig: &ChipSignature,
        init: &[bool],
        sens: &[bool],
        ctx: &dyn Fn() -> String,
    ) -> Vec<RefWave> {
        let want = simulate_pair_reference(nl, sig, init, sens);
        let want_delays = reference_delays(nl, &want);
        let lean = ws.simulate_pair_minmax(nl, sig, init, sens);
        assert_eq!(
            bits(lean.min_ps),
            bits(want_delays.min_ps),
            "{}: min_ps",
            ctx()
        );
        assert_eq!(
            bits(lean.max_ps),
            bits(want_delays.max_ps),
            "{}: max_ps",
            ctx()
        );
        for (k, s) in nl.outputs().iter().enumerate() {
            let (initial, toggles) = ws.net_wave(s.index());
            let w = &want[s.index()];
            assert_eq!(initial, w.init, "{}: output {k} initial", ctx());
            let got: Vec<u64> = toggles.iter().map(|t| t.to_bits()).collect();
            let expect: Vec<u64> = w.toggles.iter().map(|t| t.to_bits()).collect();
            assert_eq!(got, expect, "{}: output {k} transition list", ctx());
        }
        want
    }

    /// Each output's value at the end of the last lean sweep.
    fn final_values(ws: &SimWorkspace, nl: &Netlist) -> Vec<bool> {
        nl.outputs()
            .iter()
            .map(|s| {
                let (initial, toggles) = ws.net_wave(s.index());
                initial ^ (toggles.len() % 2 == 1)
            })
            .collect()
    }

    fn pick(rng: &mut SplitMix64, sigs: &[Signal]) -> Signal {
        sigs[rng.gen_index(sigs.len())]
    }

    fn pick_func(rng: &mut SplitMix64) -> AluFunc {
        ALL_ALU_FUNCS[rng.gen_index(ALL_ALU_FUNCS.len())]
    }

    /// Every logic cell of the library.
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

    /// Random DAG over the full standard-cell library: any gate may sample
    /// any earlier signal (including constants and repeated pins), and
    /// outputs tap arbitrary internal nets.
    fn random_netlist(seed: u64) -> Netlist {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut b = Builder::new();
        let n_in = rng.gen_range_inclusive(3, 10);
        let mut sigs: Vec<Signal> = (0..n_in).map(|i| b.input(&format!("i{i}"))).collect();
        if rng.gen_bool() {
            sigs.push(b.const0());
        }
        if rng.gen_bool() {
            sigs.push(b.const1());
        }
        let n_gates = rng.gen_range_inclusive(40, 200);
        for _ in 0..n_gates {
            let kind = ANY[rng.gen_index(ANY.len())];
            let s = match kind.arity() {
                1 => {
                    let a = pick(&mut rng, &sigs);
                    b.gate1(kind, a)
                }
                2 => {
                    let a = pick(&mut rng, &sigs);
                    let x = pick(&mut rng, &sigs);
                    b.gate2(kind, a, x)
                }
                _ => {
                    let a = pick(&mut rng, &sigs);
                    let x = pick(&mut rng, &sigs);
                    let y = pick(&mut rng, &sigs);
                    b.gate3(kind, a, x, y)
                }
            };
            sigs.push(s);
        }
        b.output("o_last", *sigs.last().expect("nonempty"));
        let n_out = rng.gen_range_inclusive(1, 6);
        for k in 0..n_out {
            let s = pick(&mut rng, &sigs);
            b.output(&format!("o{k}"), s);
        }
        b.finish()
    }

    /// A random DAG of at most 35 gates over the two-input library plus
    /// Inv/Buf/Mux2/Maj3. Every gate samples earlier signals only, so paths
    /// reconverge and the same delays add up in different orders; every gate
    /// is an output.
    fn random_small_netlist(rng: &mut SplitMix64) -> Netlist {
        let mut b = Builder::new();
        let n_in = rng.gen_range_inclusive(2, 6);
        let mut sigs: Vec<Signal> = (0..n_in).map(|i| b.input(&format!("i{i}"))).collect();
        let n_gates = rng.gen_range_inclusive(1, 35);
        for g in 0..n_gates {
            let kind = ANY[rng.gen_index(ANY.len())];
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

    fn random_vector(rng: &mut SplitMix64, width: usize) -> Vec<bool> {
        (0..width).map(|_| rng.gen_bool()).collect()
    }

    /// The inputs of the lean-sweep property tests: random gated netlists at
    /// nominal and fabricated delays at both corners, each pair flipping each
    /// input with probability 1/4, then the 8-bit ALU and the 32-bit ALU the
    /// delay oracle runs, each over all 169 function pairs with four operand
    /// draws on three NTC chips. The 32-bit ALU carries the three-pair masks
    /// of the shared adder and the right shifter. `check` gets a workspace
    /// reused across one signature's pairs, the pair, and a description of
    /// the case.
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

        for width in [8, 32] {
            let alu = Alu::new(width);
            let operand = u64::MAX >> (64 - width);
            for chip in 0..3u64 {
                let sig = ChipSignature::fabricate(
                    alu.netlist(),
                    Corner::NTC,
                    VariationParams::ntc(),
                    chip,
                );
                let mut ws = SimWorkspace::new();
                for f1 in ALL_ALU_FUNCS {
                    for f2 in ALL_ALU_FUNCS {
                        for _ in 0..4 {
                            let (a1, b1, a2, b2) = (
                                rng.gen_u64() & operand,
                                rng.gen_u64() & operand,
                                rng.gen_u64() & operand,
                                rng.gen_u64() & operand,
                            );
                            check(
                                &mut ws,
                                (alu.netlist(), &sig),
                                &alu.encode(f1, a1, b1),
                                &alu.encode(f2, a2, b2),
                                &|| {
                                    format!(
                                        "{width}-bit ALU, chip {chip}, \
                                         {f1} {a1:#x},{b1:#x} -> {f2} {a2:#x},{b2:#x}"
                                    )
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn randomized_netlists_match_reference_bit_for_bit() {
        for seed in 0..48u64 {
            let nl = random_netlist(seed);
            // Nominal delays put bit-equal toggle times on different pins
            // of one gate wherever equal paths reconverge, which
            // fabricated delays almost never do.
            let signatures = [
                (
                    "fabricated",
                    ChipSignature::fabricate(&nl, Corner::NTC, VariationParams::ntc(), seed),
                ),
                ("nominal", ChipSignature::nominal(&nl, Corner::NTC)),
            ];
            for (label, sig) in &signatures {
                let mut ws = SimWorkspace::new();
                let mut rng = SplitMix64::seed_from_u64(seed ^ 0xD1CE);
                let width = nl.inputs().len();
                for pair in 0..10 {
                    let init = random_vector(&mut rng, width);
                    let sens = random_vector(&mut rng, width);
                    assert_lean_matches_reference(&mut ws, &nl, sig, &init, &sens, &|| {
                        format!("{label} netlist {seed}, pair {pair}")
                    });
                }
                // Quiet pair: identical vectors must produce zero activity
                // in both kernels.
                let v = random_vector(&mut rng, width);
                let want = assert_lean_matches_reference(&mut ws, &nl, sig, &v, &v, &|| {
                    format!("{label} netlist {seed}, quiet pair")
                });
                assert!(want.iter().all(|w| w.toggles.is_empty()));
            }
        }
    }

    #[test]
    fn alu_matches_reference_bit_for_bit() {
        let alu = Alu::new(16);
        let sig = ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), 99);
        let mut ws = SimWorkspace::new();
        let cases = [
            (AluFunc::Add, 0u64, 0u64, AluFunc::Add, 0xFFFF, 1u64),
            (AluFunc::Buffer, 1, 0, AluFunc::Buffer, 3, 0),
            (AluFunc::Mult, 0, 0, AluFunc::Mult, 0xBEEF, 0x1357),
            (AluFunc::Xor, 0xAAAA, 0x5555, AluFunc::Nor, 0x0F0F, 0xF0F0),
            (AluFunc::And, 0x1234, 0x4321, AluFunc::Or, 0x8765, 0x5678),
        ];
        for (f1, a1, b1, f2, a2, b2) in cases {
            let init = alu.encode(f1, a1, b1);
            let sens = alu.encode(f2, a2, b2);
            assert_lean_matches_reference(&mut ws, alu.netlist(), &sig, &init, &sens, &|| {
                format!("{f1}->{f2}")
            });
        }
    }

    #[test]
    fn glitch_heavy_netlist_exercises_event_cap() {
        // Deep xor/buffer reconvergence generates glitch trains that hit
        // the MAX_EVENTS_PER_NET cap; the truncation policy must agree
        // bit-for-bit too.
        let mut b = Builder::new();
        let ins: Vec<Signal> = (0..6).map(|i| b.input(&format!("i{i}"))).collect();
        let mut layer = ins.clone();
        for _ in 0..10 {
            let mut next = Vec::with_capacity(layer.len());
            for w in layer.windows(2) {
                next.push(b.xor(w[0], w[1]));
            }
            next.push(b.buf(*layer.last().expect("nonempty")));
            layer = next;
        }
        for (k, s) in layer.iter().enumerate() {
            b.output(&format!("o{k}"), *s);
        }
        let nl = b.finish();
        let sig = ChipSignature::fabricate(&nl, Corner::NTC, VariationParams::ntc(), 5);
        let mut ws = SimWorkspace::new();
        let mut rng = SplitMix64::seed_from_u64(0xCAFE);
        let mut saw_cap = false;
        for pair in 0..20 {
            let init = random_vector(&mut rng, 6);
            let sens = random_vector(&mut rng, 6);
            let want = assert_lean_matches_reference(&mut ws, &nl, &sig, &init, &sens, &|| {
                format!("glitch pair {pair}")
            });
            saw_cap |= nl
                .outputs()
                .iter()
                .any(|s| want[s.index()].toggles.len() == MAX_EVENTS_PER_NET);
        }
        assert!(saw_cap, "test netlist never filled a wave to the cap");
    }

    #[test]
    fn nan_delay_does_not_panic_the_reference_kernel() {
        // A corrupted signature (NaN gate delay) must degrade to NaN
        // delays, never panic the candidate sort — the daemon-facing
        // hardening contract of the `total_cmp` audit.
        let nl = random_netlist(3);
        let mut sig = ChipSignature::fabricate(&nl, Corner::NTC, VariationParams::ntc(), 3);
        let poisoned: Vec<usize> = nl
            .gates()
            .iter()
            .enumerate()
            .filter(|(_, g)| !g.kind().is_pseudo())
            .map(|(i, _)| i)
            .collect();
        sig.inject_choke(&poisoned, f64::NAN);
        let mut rng = SplitMix64::seed_from_u64(0x4A4E);
        let width = nl.inputs().len();
        let init = random_vector(&mut rng, width);
        let sens = random_vector(&mut rng, width);
        let waves = simulate_pair_reference(&nl, &sig, &init, &sens);
        // Any emitted transition went through a NaN delay sum.
        for s in nl.outputs() {
            assert!(waves[s.index()].toggles.iter().all(|t| t.is_nan()));
        }
        // The event-driven kernel survives the same poisoned chip.
        let _ = SimWorkspace::new().simulate_pair_minmax(&nl, &sig, &init, &sens);
    }

    /// The lean sweep's settled outputs always equal combinational
    /// evaluation, regardless of the vector pair or the chip drawn.
    #[test]
    fn dynamic_final_state_matches_eval() {
        let alu = Alu::new(8);
        let mut rng = SplitMix64::seed_from_u64(0x71AE_0001);
        for case in 0..48 {
            let seed = rng.gen_u64() % 64;
            let sig =
                ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), seed);
            let init = alu.encode(
                pick_func(&mut rng),
                rng.gen_u64() & 0xFF,
                rng.gen_u64() & 0xFF,
            );
            let sens_f = pick_func(&mut rng);
            let (a2, b2) = (rng.gen_u64() & 0xFF, rng.gen_u64() & 0xFF);
            let sens = alu.encode(sens_f, a2, b2);
            let mut ws = SimWorkspace::new();
            ws.simulate_pair_minmax(alu.netlist(), &sig, &init, &sens);
            assert_eq!(
                final_values(&ws, alu.netlist()),
                alu.netlist().eval(&sens),
                "case {case} chip {seed} {sens_f:?} a={a2} b={b2}"
            );
        }
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
                    (
                        random_vector(&mut rng, width),
                        random_vector(&mut rng, width),
                    )
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
                        ws.simulate_pair_minmax(&nl, &sig, init, sens);
                        assert_eq!(
                            final_values(&ws, &nl),
                            nl.eval(sens),
                            "netlist {case}, pair {p}, chip {chip}, {corner:?}"
                        );
                    }
                }
            }
        }
    }

    /// The lean sweep skips gates whose mask holds all cycle and truncates
    /// gates whose mask holds from a deadline on; its arrivals and every
    /// output wave must still equal the reference's bit for bit, on every
    /// case of `for_each_gated_case`. The random netlists carry masks of
    /// one, two and three pairs.
    #[test]
    fn lean_sweep_matches_reference_on_gated_netlists() {
        let mut mask_sizes = [0usize; 4];
        for_each_gated_case(|ws, (nl, sig), init, sens, what| {
            for i in 0..nl.len() {
                if let Guard::MaskedBy(m) = nl.guard_of_index(i) {
                    mask_sizes[m.pairs().len()] += 1;
                }
            }
            assert_lean_matches_reference(ws, nl, sig, init, sens, what);
        });
        assert!(mask_sizes[1..].iter().all(|&n| n > 0), "{mask_sizes:?}");
    }

    /// The lean sweep must rerun a pair when a cut wave holds more toggles
    /// than the event cap always keeps. Select line `s` falls at its delay,
    /// T. `x = XOR(y, w)`, masked by {s=0}, toggles six times before T through
    /// `w`, and three times after it through `y`, masked by {r=0, s=0}. `y`
    /// hangs off a buffer chain whose first gate drops its only pass at T, so
    /// the lean sweep never reaches `y`. The unguarded `x` toggles nine
    /// times, and the cap evicts its sixth and seventh toggle, so
    /// `z = AND(x, s)` stays high until `s` falls. A lean `x` stopped at T
    /// with six toggles keeps its sixth, and `z` would fall early. So `x`
    /// must be cut: it reads an unreached fanin whose mask strictly contains
    /// its own. And a cut wave of six toggles sends the pair to the rerun.
    #[test]
    fn a_cut_wave_past_the_caps_exact_prefix_reruns_the_pair() {
        let mut b = Builder::new();
        let a = b.input("a");
        let sel = b.input("sel");
        let r = b.input("r");
        let mut taps = vec![b.buf(a)];
        for k in 1..6 {
            taps.push(b.buf(taps[k - 1]));
        }
        let mut w = b.xor(taps[0], taps[1]);
        for &tap in &taps[2..] {
            w = b.xor(w, tap);
        }
        // `s` comes after `w`'s cone, so it cannot mask it.
        let s = b.buf(sel);
        let late0 = b.buf(taps[5]);
        let late1 = b.buf(late0);
        let late = [late0, late1, b.buf(late1)];
        let y1 = b.xor(late[0], late[1]);
        let y = b.xor(y1, late[2]);
        let x = b.xor(y, w);
        let z = b.and(x, s);
        let q = b.and(y, r);
        b.output("z", z);
        b.output("q", q);
        let nl = b.finish();
        let mask = |g: Signal| match nl.guard_of_index(g.index()) {
            Guard::MaskedBy(m) => m.pairs().collect::<Vec<_>>(),
            other => panic!("{g} is {other:?}"),
        };
        assert_eq!(mask(x), [(s, false)]);
        assert_eq!(mask(y), [(r, false), (s, false)]);
        assert_eq!(mask(late[0]), [(r, false), (s, false)]);

        // Taps every 65 ps, `s` falls at 520 ps, late taps at 650, 715, 780.
        let mut sig = ChipSignature::nominal(&nl, Corner::STC);
        let index = |sigs: &[Signal]| sigs.iter().map(|g| g.index()).collect::<Vec<_>>();
        sig.inject_choke(&index(&taps), 5.0);
        sig.inject_choke(&index(&[s]), 40.0);
        sig.inject_choke(&index(&late[..1]), 20.0);
        sig.inject_choke(&index(&late[1..]), 5.0);
        let (init, sens) = ([false, true, false], [true, false, false]);
        let want = simulate_pair_reference(&nl, &sig, &init, &sens);
        // z follows the five toggles the cap kept before T, then falls with s.
        let fall = sig.delay_ps(s.index()) + sig.delay_ps(z.index());
        assert_eq!(want[z.index()].toggles.len(), 6);
        assert_eq!(
            bits(reference_delays(&nl, &want).max_ps),
            Some(fall.to_bits())
        );
        // The lean sweep's max_ps, and z's whole wave, match bit for bit.
        assert_lean_matches_reference(&mut SimWorkspace::new(), &nl, &sig, &init, &sens, &|| {
            "the cut pair".to_owned()
        });
    }

    /// `critical_path_into` after the lean sweep names the toggle chain that
    /// set `max_ps`: it starts at the first output whose last toggle is
    /// `max_ps`, steps from each gate to one of its fanins, ends on a gate fed
    /// by a primary input the pair flips, and its delays, summed from the
    /// input end, give `max_ps` bit for bit. Each of its gates also toggles on
    /// the reference. Every case of `for_each_gated_case`.
    #[test]
    fn causal_path_chains_an_input_toggle_to_the_latest_output_toggle() {
        let mut path = Vec::new();
        for_each_gated_case(|ws, (nl, sig), init, sens, what| {
            let want = simulate_pair_reference(nl, sig, init, sens);
            let lean = ws.simulate_pair_minmax(nl, sig, init, sens);
            ws.critical_path_into(nl, sig, &mut path);
            let Some(max_ps) = lean.max_ps else {
                assert!(path.is_empty(), "quiet cycle, {}", what());
                return;
            };
            let start = nl
                .outputs()
                .iter()
                .map(|s| s.index())
                .find(|&i| bits(want[i].toggles.last().copied()) == Some(max_ps.to_bits()));
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
                path.iter().all(|&g| !want[g].toggles.is_empty()),
                "a path gate is quiet on the reference, {}",
                what()
            );
        });
    }

    /// Dynamic sensitized delays never exceed the static critical delay
    /// (static analysis assumes every path sensitizable).
    #[test]
    fn dynamic_bounded_by_static() {
        let alu = Alu::new(8);
        let mut rng = SplitMix64::seed_from_u64(0x71AE_0002);
        for case in 0..32 {
            let seed = rng.gen_u64() % 32;
            let sig =
                ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), seed);
            let bound = StaticTiming::analyze(alu.netlist(), &sig).critical_delay_ps(alu.netlist());
            let init = alu.encode(AluFunc::Buffer, 0, 0);
            let sens = alu.encode(
                pick_func(&mut rng),
                rng.gen_u64() & 0xFF,
                rng.gen_u64() & 0xFF,
            );
            let t = SimWorkspace::new().simulate_pair_minmax(alu.netlist(), &sig, &init, &sens);
            if let Some(d) = t.max_ps {
                assert!(
                    d <= bound + 1e-6,
                    "case {case}: dynamic {d} vs static {bound}"
                );
            }
            if let (Some(lo), Some(hi)) = (t.min_ps, t.max_ps) {
                assert!(lo <= hi + 1e-9, "case {case}");
            }
        }
    }

    /// Identical consecutive vectors never produce output transitions — the
    /// circuit is settled, nothing can toggle.
    #[test]
    fn no_transitions_without_input_change() {
        let alu = Alu::new(8);
        let mut rng = SplitMix64::seed_from_u64(0x71AE_0004);
        for case in 0..32 {
            let seed = rng.gen_u64() % 32;
            let sig =
                ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), seed);
            let v = alu.encode(
                pick_func(&mut rng),
                rng.gen_u64() & 0xFF,
                rng.gen_u64() & 0xFF,
            );
            let mut ws = SimWorkspace::new();
            let t = ws.simulate_pair_minmax(alu.netlist(), &sig, &v, &v);
            assert_eq!(t, CycleDelays::default(), "case {case}");
            let outputs = alu.netlist().outputs();
            assert!(
                outputs.iter().all(|s| ws.net_wave(s.index()).1.is_empty()),
                "case {case}"
            );
        }
    }

    /// Transition parity: an output saw an odd number of transitions iff
    /// combinational evaluation gives it different values under the two
    /// vectors, and its initial value is the initializing vector's.
    #[test]
    fn transition_parity_holds() {
        let alu = Alu::new(8);
        let nl = alu.netlist();
        let mut rng = SplitMix64::seed_from_u64(0x71AE_0005);
        for case in 0..16 {
            let seed = rng.gen_u64() % 16;
            let sig = ChipSignature::fabricate(nl, Corner::NTC, VariationParams::ntc(), seed);
            let init = alu.encode(AluFunc::Xor, rng.gen_u64() & 0xFF, rng.gen_u64() & 0xFF);
            let sens = alu.encode(AluFunc::Add, rng.gen_u64() & 0xFF, rng.gen_u64() & 0xFF);
            let mut ws = SimWorkspace::new();
            ws.simulate_pair_minmax(nl, &sig, &init, &sens);
            let (before, after) = (nl.eval(&init), nl.eval(&sens));
            for (k, s) in nl.outputs().iter().enumerate() {
                let (initial, toggles) = ws.net_wave(s.index());
                assert_eq!(initial, before[k], "case {case}, output {k}");
                assert_eq!(
                    before[k] != after[k],
                    toggles.len() % 2 == 1,
                    "case {case}, output {k}"
                );
            }
        }
    }
}
