//! Reference implementation of the dynamic timing kernel, kept only for
//! tests: the straightforward all-gates scan with `Vec`-based waveforms
//! that `dynamic.rs` used before the event-driven rewrite.
//!
//! The equivalence suite below pins the optimized kernel against this one
//! over randomized netlists and vector pairs, asserting **bit-for-bit**
//! identical transition lists. Any divergence — a reordered candidate
//! sort, a different dedup window, a missed fanout edge — fails here long
//! before it would corrupt a golden CSV.

use ntc_netlist::{CellKind, Netlist};
use ntc_varmodel::ChipSignature;

use crate::dynamic::{CycleDelays, CycleTiming, OutputActivity, MAX_EVENTS_PER_NET};

#[derive(Debug, Clone, Default)]
struct RefWave {
    init: bool,
    toggles: Vec<f64>,
}

impl RefWave {
    fn final_value(&self) -> bool {
        self.init ^ (self.toggles.len() % 2 == 1)
    }

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
/// emitting through a temporary `Vec`.
#[allow(clippy::needless_range_loop)] // kept verbatim as the reference
pub(crate) fn simulate_pair_reference(
    nl: &Netlist,
    sig: &ChipSignature,
    initializing: &[bool],
    sensitizing: &[bool],
) -> CycleTiming {
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
    let mut internal_toggles = 0usize;
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
                internal_toggles += emitted.len();
                for t in emitted {
                    waves[i].push_toggle(t);
                }
            }
        }
    }

    let mut min_d: Option<f64> = None;
    let mut max_d: Option<f64> = None;
    let mut total = 0usize;
    let outputs: Vec<OutputActivity> = nl
        .outputs()
        .iter()
        .map(|s| {
            let w = &waves[s.index()];
            if let Some(&first) = w.toggles.first() {
                min_d = Some(min_d.map_or(first, |m: f64| m.min(first)));
            }
            if let Some(&last) = w.toggles.last() {
                max_d = Some(max_d.map_or(last, |m: f64| m.max(last)));
            }
            total += w.toggles.len();
            OutputActivity {
                initial: w.init,
                final_value: w.final_value(),
                transitions: w.toggles.clone(),
            }
        })
        .collect();

    CycleTiming {
        delays: CycleDelays {
            min_ps: min_d,
            max_ps: max_d,
        },
        outputs,
        total_output_transitions: total,
        internal_toggles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::SimWorkspace;
    use ntc_netlist::generators::alu::{Alu, AluFunc};
    use ntc_netlist::{Builder, Signal};
    use ntc_varmodel::{Corner, SplitMix64, VariationParams};

    /// Bit-for-bit comparison: every f64 compared by `to_bits`, so a
    /// result that differs only in the last ulp still fails.
    fn assert_bit_identical(got: &CycleTiming, want: &CycleTiming, ctx: &str) {
        assert_eq!(
            got.delays.min_ps.map(f64::to_bits),
            want.delays.min_ps.map(f64::to_bits),
            "{ctx}: min_ps"
        );
        assert_eq!(
            got.delays.max_ps.map(f64::to_bits),
            want.delays.max_ps.map(f64::to_bits),
            "{ctx}: max_ps"
        );
        assert_eq!(
            got.total_output_transitions, want.total_output_transitions,
            "{ctx}: total_output_transitions"
        );
        assert_eq!(got.internal_toggles, want.internal_toggles, "{ctx}: internal_toggles");
        assert_eq!(got.outputs.len(), want.outputs.len(), "{ctx}: output count");
        for (k, (g, w)) in got.outputs.iter().zip(want.outputs.iter()).enumerate() {
            assert_eq!(g.initial, w.initial, "{ctx}: output {k} initial");
            assert_eq!(g.final_value, w.final_value, "{ctx}: output {k} final");
            let gb: Vec<u64> = g.transitions.iter().map(|t| t.to_bits()).collect();
            let wb: Vec<u64> = w.transitions.iter().map(|t| t.to_bits()).collect();
            assert_eq!(gb, wb, "{ctx}: output {k} transition list");
        }
    }

    /// The event-driven kernel's full sweep into a fresh result.
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

    fn pick(rng: &mut SplitMix64, sigs: &[Signal]) -> Signal {
        sigs[rng.gen_index(sigs.len())]
    }

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
        let n_gates = rng.gen_range_inclusive(40, 200);
        for _ in 0..n_gates {
            let kind = KINDS[rng.gen_index(KINDS.len())];
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

    fn random_vector(rng: &mut SplitMix64, width: usize) -> Vec<bool> {
        (0..width).map(|_| rng.gen_bool()).collect()
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
                    let ctx = format!("{label} netlist {seed}, pair {pair}");
                    let init = random_vector(&mut rng, width);
                    let sens = random_vector(&mut rng, width);
                    let want = simulate_pair_reference(&nl, sig, &init, &sens);
                    let got = full(&mut ws, &nl, sig, &init, &sens);
                    assert_bit_identical(&got, &want, &ctx);
                    // The lean path must agree with the full path exactly.
                    let lean = ws.simulate_pair_minmax(&nl, sig, &init, &sens);
                    assert_eq!(
                        lean.min_ps.map(f64::to_bits),
                        want.delays.min_ps.map(f64::to_bits),
                        "{ctx}: lean min"
                    );
                    assert_eq!(
                        lean.max_ps.map(f64::to_bits),
                        want.delays.max_ps.map(f64::to_bits),
                        "{ctx}: lean max"
                    );
                }
                // Quiet pair: identical vectors must produce zero activity
                // in both kernels.
                let v = random_vector(&mut rng, width);
                let want = simulate_pair_reference(&nl, sig, &v, &v);
                let got = full(&mut ws, &nl, sig, &v, &v);
                assert_bit_identical(&got, &want, &format!("{label} netlist {seed}, quiet pair"));
                assert_eq!(want.total_output_transitions, 0);
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
            let want = simulate_pair_reference(alu.netlist(), &sig, &init, &sens);
            let got = full(&mut ws, alu.netlist(), &sig, &init, &sens);
            assert_bit_identical(&got, &want, &format!("{f1}->{f2}"));
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
            let want = simulate_pair_reference(&nl, &sig, &init, &sens);
            let got = full(&mut ws, &nl, &sig, &init, &sens);
            assert_bit_identical(&got, &want, &format!("glitch pair {pair}"));
            saw_cap |= want
                .outputs
                .iter()
                .any(|o| o.transitions.len() == MAX_EVENTS_PER_NET);
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
        let t = simulate_pair_reference(&nl, &sig, &init, &sens);
        // Any emitted transition went through a NaN delay sum.
        for o in &t.outputs {
            assert!(o.transitions.iter().all(|t| t.is_nan()));
        }
        // The event-driven kernel survives the same poisoned chip.
        let _ = SimWorkspace::new().simulate_pair_minmax(&nl, &sig, &init, &sens);
    }

    #[test]
    fn sensitized_gates_match_reference_activity() {
        let nl = random_netlist(7);
        let sig = ChipSignature::fabricate(&nl, Corner::NTC, VariationParams::ntc(), 7);
        let mut ws = SimWorkspace::new();
        let mut rng = SplitMix64::seed_from_u64(0xBEEF);
        let width = nl.inputs().len();
        let init = random_vector(&mut rng, width);
        let sens = random_vector(&mut rng, width);
        let got = full(&mut ws, &nl, &sig, &init, &sens);
        let full = simulate_pair_reference(&nl, &sig, &init, &sens);
        assert_bit_identical(&got, &full, "sensitized-gates pair");
        // Sensitized gates are exactly the non-pseudo gates whose nets
        // toggled; the total toggle count across them equals the kernel's
        // internal_toggles only when no wave hit the cap, so check the
        // weaker invariants that always hold.
        let sens_gates = ws.sensitized_gates(&nl);
        for &g in &sens_gates {
            assert!(!nl.gates()[g].kind().is_pseudo());
        }
        if full.total_output_transitions > 0 {
            assert!(!sens_gates.is_empty());
        }
        assert!(sens_gates.len() <= full.internal_toggles);
    }
}
