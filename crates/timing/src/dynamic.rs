//! Dynamic (two-vector) timing simulation — the in-house "statistical
//! dynamic timing analysis tool" of the paper's circuit layer.
//!
//! Timing errors depend on *sensitized* paths, which depend on two
//! consecutive input vectors: the **initializing** vector (previous cycle)
//! settles the circuit state, and the **sensitizing** vector (current
//! cycle) launches transitions through whichever paths the pair activates.
//! The simulator propagates bounded per-net transition waveforms through
//! the netlist in topological order, so it is glitch-aware: it reports not
//! just the earliest/latest output arrival but the full transition list per
//! output — precisely what Trident's transition detector monitors.
//!
//! # Event-driven evaluation
//!
//! The kernel is event-driven: primary-input toggles seed a worklist, and
//! only gates reachable from a toggled net through the netlist's
//! precomputed fanout index are ever evaluated. The worklist is a bitset
//! scanned in ascending gate order, which *is* topological order, so every
//! visited gate sees exactly the same final input waveforms — and computes
//! exactly the same candidate times, in the same order, with the same
//! sort and dedup — as the original scan over all gates. Quiet gates
//! contribute nothing in either formulation, so results are bit-identical;
//! only the cost of skipping them changes (O(gates) scan → O(words)
//! bitset sweep plus work proportional to actual switching activity).
//!
//! # Allocation discipline
//!
//! All per-net state is inline: a `Wave` holds a fixed-capacity
//! `[f64; MAX_EVENTS_PER_NET]` instead of a heap `Vec`, candidate times
//! live in a fixed stack array, and the settle/dirty buffers belong to a
//! reusable [`SimWorkspace`]. After warm-up, [`SimWorkspace`]'s
//! `simulate_pair_minmax` and `simulate_pair_into` entry points perform
//! zero heap allocations per call.

use ntc_netlist::Netlist;
use ntc_varmodel::ChipSignature;

/// Maximum transitions tracked per net within one cycle. Nets that glitch
/// more keep their first and last transitions (the ones that matter for
/// min/max violation analysis) and drop interior ones.
pub const MAX_EVENTS_PER_NET: usize = 8;

/// Upper bound on candidate evaluation times per gate: three input pins,
/// each contributing at most [`MAX_EVENTS_PER_NET`] toggles.
const MAX_CANDIDATES: usize = 3 * MAX_EVENTS_PER_NET;

/// One net's transition times during a cycle, stored inline — no heap
/// allocation per net. The net's settled initial value lives in the
/// workspace's settle buffer (keeping this struct out of the per-call
/// reset path: only waves that actually toggled are reset, via the
/// active list).
#[derive(Debug, Clone, Copy)]
struct Wave {
    /// True if interior events were dropped due to the cap.
    truncated: bool,
    /// Number of valid entries in `toggles`.
    len: u8,
    /// Times at which the net toggles; the value after event `k` is
    /// `init ^ ((k+1) & 1 == 1)`... i.e. it alternates starting from init.
    toggles: [f64; MAX_EVENTS_PER_NET],
}

impl Default for Wave {
    fn default() -> Self {
        Wave {
            truncated: false,
            len: 0,
            toggles: [0.0; MAX_EVENTS_PER_NET],
        }
    }
}

impl Wave {
    #[inline]
    fn toggles(&self) -> &[f64] {
        &self.toggles[..self.len as usize]
    }

    #[inline]
    fn final_value(&self, init: bool) -> bool {
        init ^ (self.len % 2 == 1)
    }

    #[inline]
    fn value_at(&self, init: bool, t: f64) -> bool {
        // Number of toggles at or before t.
        let k = self.toggles().partition_point(|&x| x <= t);
        init ^ (k % 2 == 1)
    }

    fn push_toggle(&mut self, t: f64) {
        let len = self.len as usize;
        if len >= MAX_EVENTS_PER_NET {
            // Keep parity and the extremes: drop the second-to-last event.
            // Removing an interior *pair* preserves the final value; we drop
            // two interior toggles (a glitch) nearest the end.
            self.toggles[len - 3] = self.toggles[len - 1];
            self.len -= 2;
            self.truncated = true;
        }
        self.toggles[self.len as usize] = t;
        self.len += 1;
    }
}

/// Transition activity of one primary output during a cycle.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OutputActivity {
    /// Settled value before the sensitizing vector was applied.
    pub initial: bool,
    /// Final settled value.
    pub final_value: bool,
    /// Transition times, ps after the launch edge, in increasing order.
    pub transitions: Vec<f64>,
}

impl OutputActivity {
    /// Earliest transition time, if the output toggled at all.
    pub fn first_transition(&self) -> Option<f64> {
        self.transitions.first().copied()
    }

    /// Latest transition time, if the output toggled at all.
    pub fn last_transition(&self) -> Option<f64> {
        self.transitions.last().copied()
    }
}

/// Result of simulating one (initializing, sensitizing) vector pair.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CycleTiming {
    /// Earliest output transition across all primary outputs (`None` if no
    /// output toggled).
    pub min_delay_ps: Option<f64>,
    /// Latest output transition across all primary outputs.
    pub max_delay_ps: Option<f64>,
    /// Per-output transition activity, in output declaration order.
    pub outputs: Vec<OutputActivity>,
    /// Total output transitions (a switching-activity proxy for the energy
    /// model).
    pub total_output_transitions: usize,
    /// Total internal net toggles observed (switching-activity proxy).
    pub internal_toggles: usize,
}

/// The lean result of [`simulate_pair_minmax`](SimWorkspace::simulate_pair_minmax):
/// just the earliest/latest output arrivals, with no per-output activity.
/// This is all the Phase-A delay oracle consumes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MinMaxDelays {
    /// Earliest output transition (`None` when no output toggled).
    pub min_ps: Option<f64>,
    /// Latest output transition.
    pub max_ps: Option<f64>,
}

/// Reusable buffers of the dynamic timing kernel: per-net waveforms, the
/// settle buffer and the event-worklist bitset.
///
/// A workspace is not bound to a netlist: every `simulate_*` call takes
/// the netlist and signature explicitly, and the buffers resize on first
/// use (or when the netlist size changes). Long-lived owners — the
/// Phase-A delay oracle simulates one pair per cache miss — keep one
/// workspace alive so steady-state simulation performs **zero heap
/// allocations**.
#[derive(Debug, Default)]
pub struct SimWorkspace {
    waves: Vec<Wave>,
    settle: Vec<bool>,
    dirty: Vec<u64>,
    /// Nets that toggled in the most recent call — the only waves that
    /// need resetting next call, so per-call cost scales with switching
    /// activity, not netlist size.
    active: Vec<u32>,
}

impl SimWorkspace {
    /// Create an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn bind(&mut self, n: usize) {
        if self.waves.len() != n {
            self.waves.clear();
            self.waves.resize(n, Wave::default());
            self.dirty.clear();
            self.dirty.resize(n.div_ceil(64), 0);
            self.active.clear();
        }
    }

    /// Settle `initializing`, apply `sensitizing` at t = 0 and propagate
    /// transition waveforms through every gate reachable from a toggled
    /// net. Returns the total internal toggle count.
    fn propagate(
        &mut self,
        nl: &Netlist,
        sig: &ChipSignature,
        initializing: &[bool],
        sensitizing: &[bool],
    ) -> usize {
        assert_eq!(sig.delays_ps().len(), nl.len(), "signature/netlist mismatch");
        assert_eq!(sensitizing.len(), nl.inputs().len(), "sens vector width");
        self.bind(nl.len());

        // Settle the initializing vector (width-checked by eval_all_into).
        nl.eval_all_into(initializing, &mut self.settle);

        // Reset only the waves the previous call toggled; everything else
        // is already quiet.
        for &i in &self.active {
            let w = &mut self.waves[i as usize];
            w.len = 0;
            w.truncated = false;
        }
        self.active.clear();
        debug_assert!(self.waves.iter().all(|w| w.len == 0));
        debug_assert!(self.dirty.iter().all(|&w| w == 0));

        // Primary-input transitions at t = 0 seed the worklist with their
        // fanout gates.
        for (s, &new) in nl.inputs().iter().zip(sensitizing.iter()) {
            let i = s.index();
            if new != self.settle[i] {
                self.waves[i].push_toggle(0.0);
                self.active.push(i as u32);
                for &g in nl.fanout_of_index(i) {
                    self.dirty[g as usize / 64] |= 1u64 << (g % 64);
                }
            }
        }

        // Sweep the worklist in ascending gate order — topological order,
        // so a gate is visited only after every fanin waveform is final.
        // Fanout marks always land ahead of the cursor (targets have larger
        // indices), so each dirty gate is processed exactly once.
        let mut internal_toggles = 0usize;
        let mut cand = [0.0f64; MAX_CANDIDATES];
        for word in 0..self.dirty.len() {
            loop {
                let bits = self.dirty[word];
                if bits == 0 {
                    break;
                }
                let bit = bits.trailing_zeros() as usize;
                self.dirty[word] &= !(1u64 << bit);
                let i = word * 64 + bit;

                let gate = &nl.gates()[i];
                let kind = gate.kind();
                debug_assert!(!kind.is_pseudo(), "pseudo-cells have no fanins");
                let ins = gate.inputs();

                // Inputs precede gate i topologically, so splitting at i
                // separates the read-only fanin waves from this gate's
                // output wave.
                let (fanin_waves, rest) = self.waves.split_at_mut(i);
                let out_wave = &mut rest[0];

                // Gather candidate evaluation times from input toggles.
                let mut n = 0usize;
                for s in ins {
                    for &t in fanin_waves[s.index()].toggles() {
                        cand[n] = t;
                        n += 1;
                    }
                }
                if n == 0 {
                    continue;
                }
                let cand = &mut cand[..n];
                cand.sort_by(f64::total_cmp);
                // Drop only bit-equal repeats: a toggle one ulp later is a
                // distinct event, and skipping it can settle the gate wrong.
                let mut m = 1usize;
                for k in 1..n {
                    if cand[k].to_bits() == cand[m - 1].to_bits() {
                        continue;
                    }
                    cand[m] = cand[k];
                    m += 1;
                }

                let delay = sig.delay_ps(i);
                let mut last_val = self.settle[i];
                // Evaluate the gate at each candidate time; emit output
                // toggles (delayed) whenever the value changes.
                let mut emitted = false;
                for &t in &cand[..m] {
                    let mut vals = [false; 3];
                    for (j, s) in ins.iter().enumerate() {
                        let si = s.index();
                        vals[j] = fanin_waves[si].value_at(self.settle[si], t);
                    }
                    let v = kind.eval(&vals[..ins.len()]);
                    if v != last_val {
                        out_wave.push_toggle(t + delay);
                        internal_toggles += 1;
                        emitted = true;
                        last_val = v;
                    }
                }
                if emitted {
                    self.active.push(i as u32);
                    for &g in nl.fanout_of_index(i) {
                        self.dirty[g as usize / 64] |= 1u64 << (g % 64);
                    }
                }
            }
        }
        internal_toggles
    }

    fn min_max(&self, nl: &Netlist) -> MinMaxDelays {
        let mut min_d: Option<f64> = None;
        let mut max_d: Option<f64> = None;
        for s in nl.outputs() {
            let w = &self.waves[s.index()];
            if let Some(&first) = w.toggles().first() {
                min_d = Some(min_d.map_or(first, |m: f64| m.min(first)));
            }
            if let Some(&last) = w.toggles().last() {
                max_d = Some(max_d.map_or(last, |m: f64| m.max(last)));
            }
        }
        MinMaxDelays {
            min_ps: min_d,
            max_ps: max_d,
        }
    }

    /// Simulate one cycle and return only the min/max output arrivals —
    /// the Phase-A oracle's entry point. Performs no heap allocation in
    /// steady state.
    ///
    /// # Panics
    ///
    /// Panics if a vector width or the signature length mismatches `nl`.
    pub fn simulate_pair_minmax(
        &mut self,
        nl: &Netlist,
        sig: &ChipSignature,
        initializing: &[bool],
        sensitizing: &[bool],
    ) -> MinMaxDelays {
        self.propagate(nl, sig, initializing, sensitizing);
        self.min_max(nl)
    }

    /// Simulate one cycle into a caller-owned [`CycleTiming`], reusing its
    /// per-output transition buffers. Performs no heap allocation in
    /// steady state (after the output vectors reach their high-water
    /// capacity).
    ///
    /// # Panics
    ///
    /// Panics if a vector width or the signature length mismatches `nl`.
    pub fn simulate_pair_into(
        &mut self,
        nl: &Netlist,
        sig: &ChipSignature,
        initializing: &[bool],
        sensitizing: &[bool],
        out: &mut CycleTiming,
    ) {
        let internal_toggles = self.propagate(nl, sig, initializing, sensitizing);

        let outs = nl.outputs();
        out.outputs.resize_with(outs.len(), OutputActivity::default);
        let mut min_d: Option<f64> = None;
        let mut max_d: Option<f64> = None;
        let mut total = 0usize;
        for (o, s) in out.outputs.iter_mut().zip(outs.iter()) {
            let i = s.index();
            let w = &self.waves[i];
            let toggles = w.toggles();
            if let Some(&first) = toggles.first() {
                min_d = Some(min_d.map_or(first, |m: f64| m.min(first)));
            }
            if let Some(&last) = toggles.last() {
                max_d = Some(max_d.map_or(last, |m: f64| m.max(last)));
            }
            total += toggles.len();
            o.initial = self.settle[i];
            o.final_value = w.final_value(self.settle[i]);
            o.transitions.clear();
            o.transitions.extend_from_slice(toggles);
        }
        out.min_delay_ps = min_d;
        out.max_delay_ps = max_d;
        out.total_output_transitions = total;
        out.internal_toggles = internal_toggles;
    }
}

/// Reusable dynamic timing simulator bound to one netlist + chip signature.
///
/// # Examples
///
/// ```
/// use ntc_netlist::generators::alu::{Alu, AluFunc};
/// use ntc_timing::DynamicSim;
/// use ntc_varmodel::{ChipSignature, Corner};
///
/// let alu = Alu::new(8);
/// let chip = ChipSignature::nominal(alu.netlist(), Corner::NTC);
/// let mut sim = DynamicSim::new(alu.netlist(), &chip);
/// let init = alu.encode(AluFunc::Add, 0, 0);
/// let sens = alu.encode(AluFunc::Add, 0xFF, 0x01);
/// let timing = sim.simulate_pair(&init, &sens);
/// assert!(timing.max_delay_ps.expect("carry chain toggles") > 0.0);
/// ```
#[derive(Debug)]
pub struct DynamicSim<'a> {
    nl: &'a Netlist,
    sig: &'a ChipSignature,
    ws: SimWorkspace,
}

impl<'a> DynamicSim<'a> {
    /// Bind a simulator to a netlist and a fabricated chip's signature.
    ///
    /// # Panics
    ///
    /// Panics if the signature length does not match the netlist.
    pub fn new(nl: &'a Netlist, sig: &'a ChipSignature) -> Self {
        assert_eq!(sig.delays_ps().len(), nl.len(), "signature/netlist mismatch");
        let mut ws = SimWorkspace::new();
        ws.bind(nl.len());
        DynamicSim { nl, sig, ws }
    }

    /// Simulate one cycle: the circuit is settled at `initializing`, then
    /// `sensitizing` is applied at t = 0.
    ///
    /// # Panics
    ///
    /// Panics if either vector's width differs from the primary-input count.
    pub fn simulate_pair(&mut self, initializing: &[bool], sensitizing: &[bool]) -> CycleTiming {
        let mut out = CycleTiming::default();
        self.ws
            .simulate_pair_into(self.nl, self.sig, initializing, sensitizing, &mut out);
        out
    }

    /// [`simulate_pair`](Self::simulate_pair) into a caller-owned result,
    /// reusing its buffers — allocation-free in steady state.
    ///
    /// # Panics
    ///
    /// Panics if either vector's width differs from the primary-input count.
    pub fn simulate_pair_into(
        &mut self,
        initializing: &[bool],
        sensitizing: &[bool],
        out: &mut CycleTiming,
    ) {
        self.ws
            .simulate_pair_into(self.nl, self.sig, initializing, sensitizing, out);
    }

    /// Simulate one cycle and return only the min/max output arrivals —
    /// skips building the per-output activity entirely. Allocation-free in
    /// steady state.
    ///
    /// # Panics
    ///
    /// Panics if either vector's width differs from the primary-input count.
    pub fn simulate_pair_minmax(
        &mut self,
        initializing: &[bool],
        sensitizing: &[bool],
    ) -> MinMaxDelays {
        self.ws
            .simulate_pair_minmax(self.nl, self.sig, initializing, sensitizing)
    }

    /// Indices of gates that toggled during the most recent
    /// [`simulate_pair`](Self::simulate_pair) call — i.e. the *sensitized*
    /// gates of that cycle. Pseudo-cells (inputs) are excluded.
    pub fn sensitized_gates(&self) -> Vec<usize> {
        self.nl
            .gates()
            .iter()
            .enumerate()
            .filter(|(i, g)| !g.kind().is_pseudo() && self.ws.waves[*i].len > 0)
            .map(|(i, _)| i)
            .collect()
    }

    /// The bound netlist.
    pub fn netlist(&self) -> &Netlist {
        self.nl
    }

    /// The bound chip signature.
    pub fn signature(&self) -> &ChipSignature {
        self.sig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_netlist::generators::alu::{Alu, AluFunc};
    use ntc_netlist::Builder;
    use ntc_varmodel::{Corner, VariationParams};

    #[test]
    fn settled_final_values_match_eval() {
        let alu = Alu::new(8);
        let sig = ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), 2);
        let mut sim = DynamicSim::new(alu.netlist(), &sig);
        let cases = [
            (AluFunc::Add, 0u64, 0u64, AluFunc::Add, 0xFFu64, 0x01u64),
            (AluFunc::Xor, 0xAA, 0x55, AluFunc::Mult, 0x12, 0x34),
            (AluFunc::Buffer, 1, 0, AluFunc::Nor, 0xF0, 0x0F),
        ];
        for (f1, a1, b1, f2, a2, b2) in cases {
            let init = alu.encode(f1, a1, b1);
            let sens = alu.encode(f2, a2, b2);
            let timing = sim.simulate_pair(&init, &sens);
            let expect = alu.netlist().eval(&sens);
            let got: Vec<bool> = timing.outputs.iter().map(|o| o.final_value).collect();
            assert_eq!(got, expect, "{f1}->{f2}");
            // Initial values must match the settled initializing vector.
            let expect_init = alu.netlist().eval(&init);
            let got_init: Vec<bool> = timing.outputs.iter().map(|o| o.initial).collect();
            assert_eq!(got_init, expect_init);
        }
    }

    #[test]
    fn identical_vectors_produce_no_transitions() {
        let alu = Alu::new(8);
        let sig = ChipSignature::nominal(alu.netlist(), Corner::NTC);
        let mut sim = DynamicSim::new(alu.netlist(), &sig);
        let v = alu.encode(AluFunc::And, 0x3C, 0x5A);
        let timing = sim.simulate_pair(&v, &v);
        assert_eq!(timing.total_output_transitions, 0);
        assert!(timing.min_delay_ps.is_none());
        assert!(timing.max_delay_ps.is_none());
    }

    #[test]
    fn max_delay_bounded_by_static_analysis() {
        let alu = Alu::new(8);
        let sig = ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), 9);
        let static_t = crate::sta::StaticTiming::analyze(alu.netlist(), &sig);
        let bound = static_t.critical_delay_ps(alu.netlist());
        let mut sim = DynamicSim::new(alu.netlist(), &sig);
        for (a, b) in [(0u64, 0xFFu64), (0x80, 0x7F), (0xFF, 0xFF)] {
            let init = alu.encode(AluFunc::Mult, 0, 0);
            let sens = alu.encode(AluFunc::Mult, a, b);
            let timing = sim.simulate_pair(&init, &sens);
            if let Some(d) = timing.max_delay_ps {
                assert!(d <= bound + 1e-6, "dynamic {d} vs static bound {bound}");
            }
        }
    }

    #[test]
    fn carry_ripple_takes_longer_than_single_bit() {
        // a=0xFF + 1 ripples the whole carry chain; a=0x01+1 does not.
        let alu = Alu::new(8);
        let sig = ChipSignature::nominal(alu.netlist(), Corner::NTC);
        let mut sim = DynamicSim::new(alu.netlist(), &sig);
        let init = alu.encode(AluFunc::Add, 0, 0);
        let long = sim
            .simulate_pair(&init, &alu.encode(AluFunc::Add, 0xFF, 0x01))
            .max_delay_ps
            .expect("toggles");
        let short = sim
            .simulate_pair(&init, &alu.encode(AluFunc::Buffer, 0x01, 0x00))
            .max_delay_ps
            .expect("toggles");
        assert!(
            long > short * 1.5,
            "full-carry add {long} vs buffer {short}"
        );
    }

    #[test]
    fn transition_lists_are_sorted() {
        let alu = Alu::new(8);
        let sig = ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), 4);
        let mut sim = DynamicSim::new(alu.netlist(), &sig);
        let init = alu.encode(AluFunc::Xor, 0x00, 0x00);
        let sens = alu.encode(AluFunc::Add, 0xAB, 0x55);
        let timing = sim.simulate_pair(&init, &sens);
        for o in &timing.outputs {
            for w in o.transitions.windows(2) {
                assert!(w[0] <= w[1] + 1e-9);
            }
            // Parity: even transition count => final == initial.
            assert_eq!(o.final_value, o.initial ^ (o.transitions.len() % 2 == 1));
        }
    }

    #[test]
    fn glitches_are_observed() {
        // A classic glitch generator: y = a AND (NOT a) with asymmetric
        // delays pulses when a rises.
        let mut b = Builder::new();
        let a = b.input("a");
        let na = b.not(a);
        let na2 = b.buf(na);
        let y = b.and(a, na2);
        b.output("y", y);
        let nl = b.finish();
        let sig = ChipSignature::nominal(&nl, Corner::STC);
        let mut sim = DynamicSim::new(&nl, &sig);
        let timing = sim.simulate_pair(&[false], &[true]);
        // Output starts 0, pulses to 1, falls back to 0: two transitions.
        assert_eq!(timing.outputs[0].transitions.len(), 2);
        assert!(!timing.outputs[0].initial);
        assert!(!timing.outputs[0].final_value);
        let rise = timing.outputs[0].transitions[0];
        let fall = timing.outputs[0].transitions[1];
        assert!(fall > rise);
    }

    #[test]
    fn pv_changes_dynamic_delays() {
        let alu = Alu::new(8);
        let nom = ChipSignature::nominal(alu.netlist(), Corner::NTC);
        let pv = ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), 77);
        let init = alu.encode(AluFunc::Add, 0, 0);
        let sens = alu.encode(AluFunc::Add, 0xFF, 0x01);
        let d_nom = DynamicSim::new(alu.netlist(), &nom)
            .simulate_pair(&init, &sens)
            .max_delay_ps
            .expect("toggles");
        let d_pv = DynamicSim::new(alu.netlist(), &pv)
            .simulate_pair(&init, &sens)
            .max_delay_ps
            .expect("toggles");
        assert!((d_pv - d_nom).abs() / d_nom > 0.01, "nom {d_nom} pv {d_pv}");
    }

    #[test]
    fn event_cap_preserves_parity_and_extremes() {
        let mut w = Wave::default();
        for i in 0..40 {
            w.push_toggle(i as f64);
        }
        assert!(w.toggles().len() <= MAX_EVENTS_PER_NET);
        assert!(w.truncated);
        // 40 toggles => even => final value equals init.
        assert!(!w.final_value(false));
        assert!(w.final_value(true));
        assert_eq!(w.toggles()[0], 0.0);
        assert_eq!(*w.toggles().last().expect("nonempty"), 39.0);
    }

    #[test]
    fn minmax_matches_full_simulation() {
        let alu = Alu::new(16);
        let sig = ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), 3);
        let mut sim = DynamicSim::new(alu.netlist(), &sig);
        let cases = [
            (AluFunc::Add, 0u64, 0u64, AluFunc::Add, 0xFFFF, 1u64),
            (AluFunc::Buffer, 1, 0, AluFunc::Buffer, 3, 0),
            (AluFunc::Mult, 0, 0, AluFunc::Mult, 0xBEEF, 0x1357),
            (AluFunc::And, 5, 5, AluFunc::And, 5, 5),
        ];
        for (f1, a1, b1, f2, a2, b2) in cases {
            let init = alu.encode(f1, a1, b1);
            let sens = alu.encode(f2, a2, b2);
            let full = sim.simulate_pair(&init, &sens);
            let lean = sim.simulate_pair_minmax(&init, &sens);
            assert_eq!(lean.min_ps.map(f64::to_bits), full.min_delay_ps.map(f64::to_bits));
            assert_eq!(lean.max_ps.map(f64::to_bits), full.max_delay_ps.map(f64::to_bits));
        }
    }

    #[test]
    fn simulate_pair_into_reuses_buffers() {
        let alu = Alu::new(8);
        let sig = ChipSignature::nominal(alu.netlist(), Corner::NTC);
        let mut sim = DynamicSim::new(alu.netlist(), &sig);
        let init = alu.encode(AluFunc::Add, 0, 0);
        let sens = alu.encode(AluFunc::Add, 0xFF, 0x01);
        let fresh = sim.simulate_pair(&init, &sens);
        // A dirty, differently-shaped output struct must be fully reset.
        let mut out = CycleTiming {
            min_delay_ps: Some(-1.0),
            max_delay_ps: Some(-1.0),
            outputs: vec![
                OutputActivity {
                    initial: true,
                    final_value: true,
                    transitions: vec![1.0, 2.0, 3.0],
                };
                99
            ],
            total_output_transitions: 77,
            internal_toggles: 77,
        };
        sim.simulate_pair_into(&init, &sens, &mut out);
        assert_eq!(out, fresh);
    }

    #[test]
    fn workspace_rebinds_across_netlists() {
        // One workspace driving two different netlists must resize cleanly
        // and reproduce the per-netlist results.
        let small = Alu::new(4);
        let large = Alu::new(12);
        let sig_s = ChipSignature::nominal(small.netlist(), Corner::NTC);
        let sig_l = ChipSignature::nominal(large.netlist(), Corner::NTC);
        let mut ws = SimWorkspace::new();
        let expect_l = DynamicSim::new(large.netlist(), &sig_l)
            .simulate_pair(
                &large.encode(AluFunc::Add, 0, 0),
                &large.encode(AluFunc::Add, 0xFFF, 1),
            )
            .max_delay_ps;
        let _ = ws.simulate_pair_minmax(
            small.netlist(),
            &sig_s,
            &small.encode(AluFunc::Add, 0, 0),
            &small.encode(AluFunc::Add, 0xF, 1),
        );
        let got_l = ws.simulate_pair_minmax(
            large.netlist(),
            &sig_l,
            &large.encode(AluFunc::Add, 0, 0),
            &large.encode(AluFunc::Add, 0xFFF, 1),
        );
        assert_eq!(got_l.max_ps.map(f64::to_bits), expect_l.map(f64::to_bits));
    }
}
