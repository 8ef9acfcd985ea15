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
//! visited gate sees exactly the same final input waveforms as the
//! original scan over all gates. Quiet gates contribute nothing in either
//! formulation, so results are bit-identical; only the cost of skipping
//! them changes (O(gates) scan → O(words) bitset sweep plus work
//! proportional to actual switching activity).
//!
//! A visited gate is evaluated at each distinct time one of its fanins
//! toggles, in ascending order, and emits a toggle `delay` later whenever
//! its output changes. Each fanin wave is ascending, so the gate merges
//! them with one cursor per pin: it takes the earliest toggle not yet
//! applied, `t`, applies every toggle at or before `t` on every pin by
//! flipping that pin's bit of a 3-bit state, and reads the output from
//! the cell's [`truth_table`](ntc_netlist::CellKind::truth_table). A
//! pin's cursor then sits past exactly the toggles `x <= t`, so the pin
//! carries its value at `t`. Times are finite and non-negative, so
//! grouping equal values groups exactly the bit-equal times; distinct
//! times a ulp apart are evaluated separately, since skipping one can
//! settle the gate at the wrong value. The gate is thus evaluated at the
//! same times, on the same pin values, as the reference kernel's sorted,
//! deduplicated candidate list, and emits the same toggles in the same
//! order: every wave, every event-cap truncation and every
//! `internal_toggles` count is unchanged. A NaN time (from a corrupted
//! delay) never wins the minimum but is applied in the same pass, so the
//! merge still ends.
//!
//! # The guarded lean sweep
//!
//! The sweep runs in one of two modes. The full sweep, behind
//! [`SimWorkspace::simulate_pair_into`], evaluates every reachable gate;
//! it serves only as the lean sweep's test oracle and as the
//! `choke_buffers` example's per-output view. The lean sweep, behind
//! [`SimWorkspace::simulate_pair_minmax`], reads each popped gate's entry
//! in the netlist's guard index ([`Netlist::guard_of_index`]). It skips an
//! [`Unobservable`](Guard::Unobservable) gate. A gate
//! [`MaskedBy`](Guard::MaskedBy) one to three `(net, value)` pairs has a
//! mask that *holds from* `T` when every pair's net ends the cycle at its
//! value; `T` is the latest last toggle of those nets (−∞ when none
//! toggles). The nets precede the gate, so their waves are final when it
//! is popped. Four rules follow.
//!
//! 1. **Guards.** The index promises, for every fanout edge of the gate,
//!    one of: (a) the target is unobservable; (b) the target's mask is a
//!    subset of the gate's; (c) one pair of the gate's mask masks the
//!    target's pin, so the target ignores the pin while that pair's net
//!    carries its value.
//! 2. **Steady rule.** When the mask holds from `T = −∞`, the gate is
//!    skipped: it keeps an empty wave and marks no fanout. On the 32-bit
//!    ALU the MULT select line guards the 2,337-gate multiplier, the ADD,
//!    SUB and LOAD lines together the 471-gate shared adder, and the ASR,
//!    LSR and ROR lines the 192-gate right shifter.
//! 3. **Deadline rule.** When the mask holds from a finite `T`, the gate
//!    is *truncated*: it runs only the merge passes at times `t` with
//!    `t + delay < T`, those whose toggles land before `T`. From `T` on,
//!    each fanout target masks the gate's pin, is unobservable, or holds
//!    from `T` or earlier itself. The decoder ANDs raw `op` bits with
//!    inverted ones that arrive a gate later, so an op change often pulses
//!    the MULT line; the multiplier then stops where the pulse ends.
//! 4. **The event cap.** `Wave::push_toggle` evicts positions 5 and
//!    6 when a ninth toggle arrives, so on the full sweep toggles after `T`
//!    can evict toggles before it, and a truncated wave is the full wave's
//!    prefix only while it holds at most five toggles. A truncated gate is
//!    *cut* when it drops a pass, or when it reads a fanin whose mask holds
//!    every pair of its own and whose lean wave may lack toggles: a cut
//!    fanin, or one with an empty wave. A gate the sweep never reached has
//!    an empty wave and no cut mark, though its full wave may toggle after
//!    `T`. A truncated gate that reaches `T` holding six or more toggles and
//!    is not cut finishes in full instead. A cut gate holding six or more
//!    toggles makes `simulate_pair_minmax` rerun the pair under the steady
//!    rule alone, inside the call.
//!
//! None of this changes an output wave. Call a net *faithful* at `t` when
//! both sweeps give it the same value at `t`. First, the masking argument.
//! Take a gate `h` and a time `t`, and say each fanin of `h` that is not
//! faithful at `t` has a pair `(n, v)` in its mask that masks `h`'s pin,
//! where `n` carries `v` at `t` on the lean sweep and is either faithful at
//! `t`, not a pin of `h`, or itself such a fanin. Then `h`'s output at `t`
//! is the same on both sweeps. Take those fanins in ascending order. The
//! first one's `n` comes earlier, so it is not such a fanin. If `n` drives
//! no pin of `h`, `h` never depends on the fanin; if `n` is faithful, it
//! carries `v` on both sweeps, and `h` ignores the fanin. A later one's `n`
//! may be an earlier such fanin. `h` already ignores that one, so setting
//! it to `v` changes nothing, and then `h` ignores the later fanin too. So
//! `h`'s output at `t` depends only on faithful fanins. Where that holds at
//! every `t`, both sweeps push the same toggles in the same order (at a
//! time only the full sweep evaluates, `h` keeps the value it holds), and
//! the event cap truncates them alike.
//!
//! Now an induction over gate order, on the gates that are not
//! unobservable. The claim: when a gate's lean wave differs from its full
//! wave, its mask holds from some `T`, its lean wave is empty or it is
//! cut, and it is faithful before `T`; and a cut gate's lean wave holds
//! exactly the full wave's toggles before `T`. Take a gate `h` and a fanin
//! `y` not faithful at some `t`. By the claim `y`'s mask holds from
//! `T_y <= t`, and the guard index gives the edge `y -> h` one of its
//! three cases. If (c), the masking pair's net ends at its value, its last
//! lean toggle at or before `T_y`, so it carries its value at `t`. If (b),
//! `h`'s mask is a subset of `y`'s, so it holds from `T_h <= T_y`.
//!
//! - `h` evaluated in full, as observable or with a mask that does not
//!   hold: no such `y` is (b), so the masking argument holds at every `t`.
//!   Every primary output is observable.
//! - `h` truncated and not cut: each (b) fanin has a non-empty lean wave
//!   and is not cut, so by the claim it is faithful everywhere. The masking
//!   argument holds at every `t`, and `h` ran every lean pass.
//! - `h` cut: it reads its fanins only at `t < T_h`, where the (b) fanins
//!   are faithful, so its lean toggles are the full wave's toggles before
//!   `T_h`. Holding at most five, they are all the cap keeps of the full
//!   wave there; with six or more, the pair reruns.
//! - `h` skipped by the steady rule: its mask holds from `T = −∞`.
//! - `h` never reached, with a non-empty full wave: no lean fanin wave
//!   toggles, so if no unfaithful fanin were (b), the masking argument
//!   would leave `h`'s output constant. So one is, `h`'s mask holds from
//!   `T_h`, and before `T_h` the masking argument keeps its lean value.
//!
//! So every output wave, and with it `min_ps`/`max_ps`, is bit-identical
//! to the full sweep's. The rerun, the steady rule alone, is the case
//! without truncated gates. No rule needs a mask net to be observable
//! itself: a net whose lean wave falls short of its full one is faithful
//! before its own `T`, and the masking argument covers it after.
//!
//! # The causal path
//!
//! [`SimWorkspace::critical_path_into`] walks back from the latest output
//! toggle to the primary-input toggle that launched it: the cycle's
//! sensitized critical path, which the choke study charges for an
//! overshoot. It starts at the first output, in declaration order, whose
//! last toggle is `max_ps`. A gate `g` emits a toggle at exactly `x +
//! delay(g)` for a toggle `x` of one of its fanins' final waves, so from a
//! toggle at `t` the walk steps to the fanin toggle `x` with `(x +
//! delay(g)).to_bits() == t.to_bits()`, taking the lowest pin, then the
//! earliest toggle, on a tie. The event cap only drops toggles, so such a
//! fanin toggle always exists, and each step lowers the gate index, so
//! the walk ends at a primary input. Summing the path's delays from the
//! input end, one `+=` per gate starting at `0.0`, reproduces `max_ps`
//! bit for bit. After the lean sweep the walk reads lean waves, and each
//! is a prefix of the full one: the full wave, the toggles before a cut
//! gate's deadline, or empty. So every gate on the path toggles on the
//! full sweep too. The path can differ from the full sweep's only where a
//! toggle has two causes at a bit-equal time and the lower pin's lies
//! past a deadline; that takes two paths whose delays sum alike.
//!
//! # Allocation discipline
//!
//! All per-net state is inline: a `Wave` holds a fixed-capacity
//! `[f64; MAX_EVENTS_PER_NET]` instead of a heap `Vec`, a gate's merge
//! state is three cursors and a 3-bit pin state on the stack, and the
//! settle, dirty and cut buffers belong to a reusable [`SimWorkspace`],
//! the one handle on the kernel. After warm-up, its `simulate_pair_minmax`,
//! `simulate_pair_into` and `critical_path_into` entry points perform
//! zero heap allocations per call.

use ntc_netlist::{Guard, Mask, Netlist};
use ntc_varmodel::ChipSignature;

/// Maximum transitions tracked per net within one cycle. Nets that glitch
/// more keep their first and last transitions (the ones that matter for
/// min/max violation analysis) and drop interior ones.
pub const MAX_EVENTS_PER_NET: usize = 8;

/// How many leading toggles of a wave the event cap never evicts:
/// `Wave::push_toggle` drops positions 5 and 6 when a ninth arrives. A
/// truncated wave holding at most this many toggles is therefore exactly
/// the toggles of the full wave before its deadline.
const EXACT_PREFIX: usize = MAX_EVENTS_PER_NET - 3;

/// One net's transition times during a cycle, stored inline — no heap
/// allocation per net. The net's settled initial value lives in the
/// workspace's settle buffer (keeping this struct out of the per-call
/// reset path: only waves that actually toggled are reset, via the
/// active list).
#[derive(Debug, Clone, Copy, Default)]
struct Wave {
    /// Number of valid entries in `toggles`.
    len: u8,
    /// Ascending times at which the net toggles; its value alternates
    /// from the settled one at each.
    toggles: [f64; MAX_EVENTS_PER_NET],
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

    fn push_toggle(&mut self, t: f64) {
        let len = self.len as usize;
        if len >= MAX_EVENTS_PER_NET {
            // Keep parity and the extremes: drop the second-to-last event.
            // Removing an interior *pair* preserves the final value; we drop
            // two interior toggles (a glitch) nearest the end.
            self.toggles[len - 3] = self.toggles[len - 1];
            self.len -= 2;
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

/// Result of simulating one (initializing, sensitizing) vector pair.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CycleTiming {
    /// Earliest and latest output transitions across all primary outputs
    /// (both `None` if no output toggled).
    pub delays: CycleDelays,
    /// Per-output transition activity, in output declaration order.
    pub outputs: Vec<OutputActivity>,
    /// Total output transitions (a switching-activity proxy for the energy
    /// model).
    pub total_output_transitions: usize,
    /// Total internal net toggles observed (switching-activity proxy).
    pub internal_toggles: usize,
}

/// Min/max sensitized delay of one simulated cycle, picoseconds: the
/// earliest and latest output arrivals, with no per-output activity. The
/// lean result of [`simulate_pair_minmax`](SimWorkspace::simulate_pair_minmax),
/// the value the delay oracle caches, and what
/// [`classify_cycle`](crate::classify_cycle) checks against a clock.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CycleDelays {
    /// Earliest output transition (`None` when the cycle toggles nothing).
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
///
/// # Examples
///
/// ```
/// use ntc_netlist::generators::alu::{Alu, AluFunc};
/// use ntc_timing::{CycleTiming, SimWorkspace};
/// use ntc_varmodel::{ChipSignature, Corner};
///
/// let alu = Alu::new(8);
/// let chip = ChipSignature::nominal(alu.netlist(), Corner::NTC);
/// let init = alu.encode(AluFunc::Add, 0, 0);
/// let sens = alu.encode(AluFunc::Add, 0xFF, 0x01);
/// let mut timing = CycleTiming::default();
/// SimWorkspace::new().simulate_pair_into(alu.netlist(), &chip, &init, &sens, &mut timing);
/// assert!(timing.delays.max_ps.expect("carry chain toggles") > 0.0);
/// ```
#[derive(Debug, Default)]
pub struct SimWorkspace {
    waves: Vec<Wave>,
    settle: Vec<bool>,
    dirty: Vec<u64>,
    /// One bit per net: the gates the current lean sweep cut (see the
    /// module docs).
    cut: Vec<u64>,
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
            self.cut.clear();
            self.cut.resize(n.div_ceil(64), 0);
            self.active.clear();
        }
    }

    /// Settle `initializing`, apply `sensitizing` at t = 0 and propagate
    /// transition waveforms through every gate reachable from a toggled
    /// net. The `LEAN` sweep skips a gate whose mask holds all cycle and,
    /// with `deadlines`, truncates one whose mask holds from a time on (see
    /// the module docs). Returns the total internal toggle count of the
    /// gates evaluated, or `None` when a truncated wave may have lost
    /// toggles to the event cap and the pair must be rerun without
    /// `deadlines`.
    fn propagate<const LEAN: bool>(
        &mut self,
        nl: &Netlist,
        sig: &ChipSignature,
        initializing: &[bool],
        sensitizing: &[bool],
        deadlines: bool,
    ) -> Option<usize> {
        assert_eq!(
            sig.delays_ps().len(),
            nl.len(),
            "signature/netlist mismatch"
        );
        assert_eq!(sensitizing.len(), nl.inputs().len(), "sens vector width");
        self.bind(nl.len());

        // Settle the initializing vector (width-checked by eval_all_into).
        nl.eval_all_into(initializing, &mut self.settle);

        // Reset only the waves the previous call toggled; everything else
        // is already quiet.
        for &i in &self.active {
            self.waves[i as usize].len = 0;
        }
        self.active.clear();
        debug_assert!(self.waves.iter().all(|w| w.len == 0));
        debug_assert!(self.dirty.iter().all(|&w| w == 0));
        if LEAN {
            self.cut.fill(0);
        }

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
        for word in 0..self.dirty.len() {
            loop {
                let bits = self.dirty[word];
                if bits == 0 {
                    break;
                }
                let bit = bits.trailing_zeros() as usize;
                self.dirty[word] &= !(1u64 << bit);
                let i = word * 64 + bit;

                // A truncated gate runs only the passes whose toggle would
                // land before `deadline`; it is cut when it drops one, or
                // when a fanin whose mask holds its own may be cut.
                let mut truncated = false;
                let mut deadline = f64::INFINITY;
                let mut cut = false;
                if LEAN {
                    match nl.guard_of_index(i) {
                        Guard::Observable => {}
                        Guard::Unobservable => continue,
                        Guard::MaskedBy(mask) => {
                            deadline = self.mask_deadline(mask);
                            if deadline == f64::NEG_INFINITY {
                                continue; // the steady rule
                            }
                            truncated = deadlines && deadline < f64::INFINITY;
                            cut = truncated && self.reads_cut(nl, i, &mask);
                        }
                    }
                }

                let gate = &nl.gates()[i];
                debug_assert!(!gate.kind().is_pseudo(), "pseudo-cells have no fanins");
                let table = gate.kind().truth_table();

                // Inputs precede gate i topologically, so splitting at i
                // separates the read-only fanin waves from this gate's
                // output wave.
                let (fanin_waves, rest) = self.waves.split_at_mut(i);
                let out_wave = &mut rest[0];

                // Bit j of `pins` is pin j's value, starting from its
                // settled one; its wave is `waves[j]`, of which `seen[j]`
                // toggles are applied. Pins past the arity stay 0 with
                // empty waves.
                let mut pins = 0usize;
                let mut waves: [&[f64]; 3] = [&[]; 3];
                for (j, s) in gate.inputs().iter().enumerate() {
                    let si = s.index();
                    pins |= usize::from(self.settle[si]) << j;
                    waves[j] = fanin_waves[si].toggles();
                }
                let mut seen = [0usize; 3];

                let delay = sig.delay_ps(i);
                let mut last_val = self.settle[i];
                let mut emitted = 0usize;
                loop {
                    // The earliest toggle not yet applied on any pin. A NaN
                    // time never wins the minimum, but is applied below, so
                    // every pass applies at least one toggle.
                    let mut t = f64::INFINITY;
                    let mut pending = false;
                    for (w, &k) in waves.iter().zip(&seen) {
                        if let Some(&x) = w.get(k) {
                            pending = true;
                            if x < t {
                                t = x;
                            }
                        }
                    }
                    if !pending {
                        break;
                    }
                    if LEAN && truncated && t + delay >= deadline {
                        // A wave past the cap's exact prefix whose fanins
                        // are all exact finishes in full instead.
                        if emitted > EXACT_PREFIX && !cut {
                            truncated = false;
                        } else {
                            cut = true;
                            break;
                        }
                    }
                    // Apply every toggle at or before t: the waves ascend,
                    // so each pin's value is now its value at t. Equal
                    // times on several pins (or twice on one) land in one
                    // evaluation.
                    for (j, (w, k)) in waves.iter().zip(&mut seen).enumerate() {
                        while let Some(&x) = w.get(*k) {
                            if x > t {
                                break;
                            }
                            pins ^= 1 << j;
                            *k += 1;
                        }
                    }
                    let v = table >> pins & 1 == 1;
                    if v != last_val {
                        out_wave.push_toggle(t + delay);
                        emitted += 1;
                        last_val = v;
                    }
                }
                internal_toggles += emitted;
                if emitted > 0 {
                    self.active.push(i as u32);
                    for &g in nl.fanout_of_index(i) {
                        self.dirty[g as usize / 64] |= 1u64 << (g % 64);
                    }
                }
                if LEAN && cut {
                    self.cut[i / 64] |= 1u64 << (i % 64);
                    if emitted > EXACT_PREFIX {
                        // The cap may have kept toggles the full wave lost.
                        self.dirty[word..].fill(0);
                        return None;
                    }
                }
            }
        }
        Some(internal_toggles)
    }

    /// When `mask` starts to hold on the lean sweep: the latest last toggle
    /// of its nets when every net ends the cycle at its value (−∞ when none
    /// toggles), else +∞.
    #[inline]
    fn mask_deadline(&self, mask: Mask) -> f64 {
        let mut deadline = f64::NEG_INFINITY;
        for (net, value) in mask.pairs() {
            let n = net.index();
            let wave = &self.waves[n];
            if wave.final_value(self.settle[n]) != value {
                return f64::INFINITY;
            }
            if let Some(&last) = wave.toggles().last() {
                deadline = deadline.max(last);
            }
        }
        deadline
    }

    /// Whether gate `i`, guarded by `mask`, reads a fanin whose mask holds
    /// every pair of `mask` and whose lean wave may lack toggles of its
    /// full one: a cut fanin, or one with an empty wave, which covers the
    /// fanins the sweep never reached.
    #[inline]
    fn reads_cut(&self, nl: &Netlist, i: usize, mask: &Mask) -> bool {
        nl.gates()[i].inputs().iter().any(|s| {
            let y = s.index();
            matches!(nl.guard_of_index(y), Guard::MaskedBy(m) if mask.is_subset_of(&m))
                && (self.waves[y].len == 0 || self.cut[y / 64] >> (y % 64) & 1 == 1)
        })
    }

    fn min_max(&self, nl: &Netlist) -> CycleDelays {
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
        CycleDelays {
            min_ps: min_d,
            max_ps: max_d,
        }
    }

    /// Simulate one cycle and return only the min/max output arrivals —
    /// the Phase-A oracle's entry point. Runs the lean sweep, which skips
    /// gates whose mask holds all cycle and truncates gates whose mask
    /// holds from a deadline on, rerunning the pair without deadlines in
    /// the rare case the event cap calls for it (see the module docs); the
    /// arrivals are bit-identical to the full sweep's. Performs no heap
    /// allocation in steady state.
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
    ) -> CycleDelays {
        if self
            .propagate::<true>(nl, sig, initializing, sensitizing, true)
            .is_none()
        {
            self.propagate::<true>(nl, sig, initializing, sensitizing, false);
        }
        self.min_max(nl)
    }

    /// Simulate one cycle into a caller-owned [`CycleTiming`], reusing its
    /// per-output transition buffers. Runs the full sweep, which evaluates
    /// every reachable gate. Performs no heap allocation in steady state
    /// (after the output vectors reach their high-water capacity).
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
        let internal_toggles = self
            .propagate::<false>(nl, sig, initializing, sensitizing, false)
            .expect("the full sweep truncates nothing");

        let outs = nl.outputs();
        out.outputs.resize_with(outs.len(), OutputActivity::default);
        let mut total = 0usize;
        for (o, s) in out.outputs.iter_mut().zip(outs.iter()) {
            let i = s.index();
            let w = &self.waves[i];
            let toggles = w.toggles();
            total += toggles.len();
            o.initial = self.settle[i];
            o.final_value = w.final_value(self.settle[i]);
            o.transitions.clear();
            o.transitions.extend_from_slice(toggles);
        }
        out.delays = self.min_max(nl);
        out.total_output_transitions = total;
        out.internal_toggles = internal_toggles;
    }

    /// Indices of the gates of `nl` that toggled during this workspace's
    /// most recent simulation of `nl`: the *sensitized* gates of that
    /// cycle. Pseudo-cells (inputs) are excluded.
    ///
    /// After [`simulate_pair_into`](Self::simulate_pair_into) this is
    /// every gate that toggled. After
    /// [`simulate_pair_minmax`](Self::simulate_pair_minmax) it lists only
    /// the gates that toggled on the lean sweep (see the module docs): a
    /// gate whose mask held all cycle is missing even if it would have
    /// toggled, and a truncated gate is listed only if it toggled before
    /// its deadline.
    ///
    /// # Panics
    ///
    /// Panics if the last simulation was of a netlist of another size.
    pub fn sensitized_gates(&self, nl: &Netlist) -> Vec<usize> {
        assert_eq!(self.waves.len(), nl.len(), "last simulated another netlist");
        nl.gates()
            .iter()
            .zip(&self.waves)
            .enumerate()
            .filter(|(_, (g, w))| !g.kind().is_pseudo() && w.len > 0)
            .map(|(i, _)| i)
            .collect()
    }

    /// Write into `path` the causal path of the latest output toggle of
    /// this workspace's most recent simulation of `nl` under `sig`: the
    /// gates, output first, whose toggles chained from a primary-input
    /// toggle to `max_ps` (see the module docs). `path` is left empty when
    /// no output toggled, or when the latest toggle sits on an output that
    /// is itself a primary input. Performs no heap allocation once `path`
    /// has the capacity of the longest path.
    ///
    /// Call it after either sweep. Each lean wave is a prefix of the full
    /// one, so every gate on a lean-sweep path toggles on the full sweep
    /// too; the two paths part only where a toggle has two causes at a
    /// bit-equal time (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if the last simulation was of a netlist of another size, or
    /// if a gate on the path has no fanin toggle one delay before its own,
    /// which would be a kernel bug.
    pub fn critical_path_into(&self, nl: &Netlist, sig: &ChipSignature, path: &mut Vec<usize>) {
        assert_eq!(self.waves.len(), nl.len(), "last simulated another netlist");
        path.clear();
        let Some(mut t) = self.min_max(nl).max_ps else {
            return;
        };
        let mut g = nl
            .outputs()
            .iter()
            .map(|s| s.index())
            .find(|&i| self.waves[i].toggles().last().map(|x| x.to_bits()) == Some(t.to_bits()))
            .expect("max_ps is some output's last toggle");
        let gates = nl.gates();
        while !gates[g].kind().is_pseudo() {
            path.push(g);
            let delay = sig.delay_ps(g);
            // The lowest pin, then its earliest toggle, one delay before t.
            (g, t) = gates[g]
                .inputs()
                .iter()
                .find_map(|s| {
                    let w = self.waves[s.index()].toggles();
                    let x = w.iter().find(|&&x| (x + delay).to_bits() == t.to_bits())?;
                    Some((s.index(), *x))
                })
                .unwrap_or_else(|| panic!("gate {g}: no fanin toggle causes its toggle at {t} ps"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_netlist::generators::alu::{Alu, AluFunc, ALL_ALU_FUNCS};
    use ntc_netlist::Builder;
    use ntc_varmodel::{Corner, VariationParams};

    /// The full sweep into a fresh result.
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

    #[test]
    fn settled_final_values_match_eval() {
        let alu = Alu::new(8);
        let sig = ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), 2);
        let mut ws = SimWorkspace::new();
        let cases = [
            (AluFunc::Add, 0u64, 0u64, AluFunc::Add, 0xFFu64, 0x01u64),
            (AluFunc::Xor, 0xAA, 0x55, AluFunc::Mult, 0x12, 0x34),
            (AluFunc::Buffer, 1, 0, AluFunc::Nor, 0xF0, 0x0F),
        ];
        for (f1, a1, b1, f2, a2, b2) in cases {
            let init = alu.encode(f1, a1, b1);
            let sens = alu.encode(f2, a2, b2);
            let timing = full(&mut ws, alu.netlist(), &sig, &init, &sens);
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
        let v = alu.encode(AluFunc::And, 0x3C, 0x5A);
        let timing = full(&mut SimWorkspace::new(), alu.netlist(), &sig, &v, &v);
        assert_eq!(timing.total_output_transitions, 0);
        assert_eq!(timing.delays, CycleDelays::default());
    }

    #[test]
    fn max_delay_bounded_by_static_analysis() {
        let alu = Alu::new(8);
        let sig = ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), 9);
        let static_t = crate::sta::StaticTiming::analyze(alu.netlist(), &sig);
        let bound = static_t.critical_delay_ps(alu.netlist());
        let mut ws = SimWorkspace::new();
        for (a, b) in [(0u64, 0xFFu64), (0x80, 0x7F), (0xFF, 0xFF)] {
            let init = alu.encode(AluFunc::Mult, 0, 0);
            let sens = alu.encode(AluFunc::Mult, a, b);
            let timing = full(&mut ws, alu.netlist(), &sig, &init, &sens);
            if let Some(d) = timing.delays.max_ps {
                assert!(d <= bound + 1e-6, "dynamic {d} vs static bound {bound}");
            }
        }
    }

    #[test]
    fn carry_ripple_takes_longer_than_single_bit() {
        // a=0xFF + 1 ripples the whole carry chain; a=0x01+1 does not.
        let alu = Alu::new(8);
        let sig = ChipSignature::nominal(alu.netlist(), Corner::NTC);
        let mut ws = SimWorkspace::new();
        let init = alu.encode(AluFunc::Add, 0, 0);
        let mut max_delay = |sens: &[bool]| {
            full(&mut ws, alu.netlist(), &sig, &init, sens)
                .delays
                .max_ps
                .expect("toggles")
        };
        let long = max_delay(&alu.encode(AluFunc::Add, 0xFF, 0x01));
        let short = max_delay(&alu.encode(AluFunc::Buffer, 0x01, 0x00));
        assert!(
            long > short * 1.5,
            "full-carry add {long} vs buffer {short}"
        );
    }

    #[test]
    fn transition_lists_are_sorted() {
        let alu = Alu::new(8);
        let sig = ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), 4);
        let init = alu.encode(AluFunc::Xor, 0x00, 0x00);
        let sens = alu.encode(AluFunc::Add, 0xAB, 0x55);
        let timing = full(&mut SimWorkspace::new(), alu.netlist(), &sig, &init, &sens);
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
        let timing = full(&mut SimWorkspace::new(), &nl, &sig, &[false], &[true]);
        // Output starts 0, pulses to 1, falls back to 0: two transitions.
        assert_eq!(timing.outputs[0].transitions.len(), 2);
        assert!(!timing.outputs[0].initial);
        assert!(!timing.outputs[0].final_value);
        let rise = timing.outputs[0].transitions[0];
        let fall = timing.outputs[0].transitions[1];
        assert!(fall > rise);
    }

    #[test]
    fn critical_path_follows_the_toggle_that_set_max_ps() {
        // The glitch netlist: y rises one AND delay after `a` (pin 0) and
        // falls once `a`'s inverse arrives through the buffer (pin 1), so
        // the latest toggle chains back through pin 1.
        let mut b = Builder::new();
        let a = b.input("a");
        let na = b.not(a);
        let na2 = b.buf(na);
        let y = b.and(a, na2);
        b.output("y", y);
        let nl = b.finish();
        let sig = ChipSignature::nominal(&nl, Corner::STC);
        let mut ws = SimWorkspace::new();
        let mut path = vec![99];
        ws.simulate_pair_minmax(&nl, &sig, &[false], &[false]);
        ws.critical_path_into(&nl, &sig, &mut path);
        assert!(path.is_empty(), "a quiet cycle has no path");
        let max_ps = ws.simulate_pair_minmax(&nl, &sig, &[false], &[true]).max_ps;
        ws.critical_path_into(&nl, &sig, &mut path);
        assert_eq!(path, [y.index(), na2.index(), na.index()]);
        let sum = path.iter().rev().fold(0.0, |t, &g| t + sig.delay_ps(g));
        assert_eq!(Some(sum.to_bits()), max_ps.map(f64::to_bits));
    }

    #[test]
    fn pv_changes_dynamic_delays() {
        let alu = Alu::new(8);
        let nom = ChipSignature::nominal(alu.netlist(), Corner::NTC);
        let pv = ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), 77);
        let init = alu.encode(AluFunc::Add, 0, 0);
        let sens = alu.encode(AluFunc::Add, 0xFF, 0x01);
        let d_nom = full(&mut SimWorkspace::new(), alu.netlist(), &nom, &init, &sens)
            .delays
            .max_ps
            .expect("toggles");
        let d_pv = full(&mut SimWorkspace::new(), alu.netlist(), &pv, &init, &sens)
            .delays
            .max_ps
            .expect("toggles");
        assert!((d_pv - d_nom).abs() / d_nom > 0.01, "nom {d_nom} pv {d_pv}");
    }

    #[test]
    fn event_cap_preserves_parity_and_extremes() {
        let mut w = Wave::default();
        for i in 0..40 {
            w.push_toggle(i as f64);
        }
        assert_eq!(w.toggles().len(), MAX_EVENTS_PER_NET);
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
        let mut ws = SimWorkspace::new();
        let cases = [
            (AluFunc::Add, 0u64, 0u64, AluFunc::Add, 0xFFFF, 1u64),
            (AluFunc::Buffer, 1, 0, AluFunc::Buffer, 3, 0),
            (AluFunc::Mult, 0, 0, AluFunc::Mult, 0xBEEF, 0x1357),
            (AluFunc::And, 5, 5, AluFunc::And, 5, 5),
        ];
        for (f1, a1, b1, f2, a2, b2) in cases {
            let init = alu.encode(f1, a1, b1);
            let sens = alu.encode(f2, a2, b2);
            let full = full(&mut ws, alu.netlist(), &sig, &init, &sens);
            let lean = ws.simulate_pair_minmax(alu.netlist(), &sig, &init, &sens);
            let bits = |d: CycleDelays| (d.min_ps.map(f64::to_bits), d.max_ps.map(f64::to_bits));
            assert_eq!(bits(lean), bits(full.delays));
        }
    }

    /// The gates of `alu` whose mask is exactly its functions' select
    /// lines at 0: the datapath those functions alone read. A select line
    /// is the net that settles at 1 under exactly its function.
    fn cone_behind(alu: &Alu, funcs: &[AluFunc]) -> Vec<usize> {
        let nl = alu.netlist();
        let settled: Vec<Vec<bool>> = ALL_ALU_FUNCS
            .iter()
            .map(|&f| nl.eval_all(&alu.encode(f, 0, 0)))
            .collect();
        let line = |f: AluFunc| {
            (0..nl.len())
                .find(|&n| {
                    ALL_ALU_FUNCS
                        .iter()
                        .zip(&settled)
                        .all(|(&g, v)| v[n] == (g == f))
                })
                .expect("a one-hot select line")
        };
        let mut lines: Vec<(usize, bool)> = funcs.iter().map(|&f| (line(f), false)).collect();
        lines.sort();
        (0..nl.len())
            .filter(|&i| match nl.guard_of_index(i) {
                Guard::MaskedBy(m) => m
                    .pairs()
                    .map(|(n, v)| (n.index(), v))
                    .eq(lines.iter().copied()),
                _ => false,
            })
            .collect()
    }

    /// Gates of `cone` the last sweep of `ws` toggled.
    fn toggled_in(ws: &SimWorkspace, nl: &Netlist, cone: &[usize]) -> usize {
        let toggled = ws.sensitized_gates(nl);
        cone.iter().filter(|g| toggled.contains(g)).count()
    }

    #[test]
    fn lean_sweep_skips_the_masked_multiplier() {
        let alu = Alu::new(8);
        let nl = alu.netlist();
        let mult_cone = cone_behind(&alu, &[AluFunc::Mult]);
        assert!(
            mult_cone.len() > 100,
            "{} multiplier gates",
            mult_cone.len()
        );

        let sig = ChipSignature::fabricate(nl, Corner::NTC, VariationParams::ntc(), 5);
        let mut ws = SimWorkspace::new();
        let init = alu.encode(AluFunc::Add, 0x5A, 0x3C);
        let sens = alu.encode(AluFunc::Add, 0xA7, 0xC9);
        ws.simulate_pair_minmax(nl, &sig, &init, &sens);
        assert_eq!(toggled_in(&ws, nl, &mult_cone), 0);
        full(&mut ws, nl, &sig, &init, &sens);
        assert!(toggled_in(&ws, nl, &mult_cone) > 0);
    }

    /// On the 32-bit ALU three select lines guard the shared adder and
    /// three the right shifter: a pair of AND operations evaluates neither.
    #[test]
    fn lean_sweep_skips_the_adder_and_the_right_shifter() {
        let alu = Alu::new(32);
        let nl = alu.netlist();
        let adder = cone_behind(&alu, &[AluFunc::Add, AluFunc::Sub, AluFunc::Load]);
        let right = cone_behind(
            &alu,
            &[
                AluFunc::ShiftRightArith,
                AluFunc::ShiftRightLogical,
                AluFunc::RotateRight,
            ],
        );
        assert_eq!((adder.len(), right.len()), (471, 192));

        let sig = ChipSignature::fabricate(nl, Corner::NTC, VariationParams::ntc(), 11);
        let mut ws = SimWorkspace::new();
        let init = alu.encode(AluFunc::And, 0x5A5A_0F0F, 0x3C3C_1234);
        let sens = alu.encode(AluFunc::And, 0xA7A7_F00F, 0xC9C9_8765);
        ws.simulate_pair_minmax(nl, &sig, &init, &sens);
        assert_eq!(toggled_in(&ws, nl, &adder) + toggled_in(&ws, nl, &right), 0);
        full(&mut ws, nl, &sig, &init, &sens);
        assert!(toggled_in(&ws, nl, &adder) > 0 && toggled_in(&ws, nl, &right) > 0);
    }

    /// ADD→SLL pulses the MULT select line (the decoder ANDs raw `op` bits
    /// with inverted ones that arrive a gate later), so its mask does not
    /// hold all cycle; the lean sweep still stops the multiplier at the
    /// pulse's end, where the full sweep runs it to completion.
    #[test]
    fn lean_sweep_stops_the_multiplier_when_its_select_line_pulses() {
        let alu = Alu::new(32);
        let nl = alu.netlist();
        let mult_cone = cone_behind(&alu, &[AluFunc::Mult]);
        let sig = ChipSignature::fabricate(nl, Corner::NTC, VariationParams::ntc(), 3);
        let mut ws = SimWorkspace::new();
        let init = alu.encode(AluFunc::Add, 0x1357_9BDF, 0x2468_ACE0);
        let sens = alu.encode(AluFunc::ShiftLeft, 0xFDB9_7531, 0x0ECA_8643);
        let timing = full(&mut ws, nl, &sig, &init, &sens);
        let on_full = toggled_in(&ws, nl, &mult_cone);
        let lean = ws.simulate_pair_minmax(nl, &sig, &init, &sens);
        let on_lean = toggled_in(&ws, nl, &mult_cone);
        assert!(on_lean < on_full, "lean {on_lean} vs full {on_full}");
        assert_eq!(lean, timing.delays);
        // The pulse: the line's mask net toggles and ends at 0.
        let Guard::MaskedBy(mask) = nl.guard_of_index(mult_cone[0]) else {
            unreachable!()
        };
        let (line, _) = mask.pairs().next().expect("one pair");
        assert!(ws.sensitized_gates(nl).contains(&line.index()));
    }

    #[test]
    fn simulate_pair_into_reuses_buffers() {
        let alu = Alu::new(8);
        let sig = ChipSignature::nominal(alu.netlist(), Corner::NTC);
        let mut ws = SimWorkspace::new();
        let init = alu.encode(AluFunc::Add, 0, 0);
        let sens = alu.encode(AluFunc::Add, 0xFF, 0x01);
        let fresh = full(&mut ws, alu.netlist(), &sig, &init, &sens);
        // A dirty, differently-shaped output struct must be fully reset.
        let mut out = CycleTiming {
            delays: CycleDelays {
                min_ps: Some(-1.0),
                max_ps: Some(-1.0),
            },
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
        ws.simulate_pair_into(alu.netlist(), &sig, &init, &sens, &mut out);
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
        let expect_l = full(
            &mut SimWorkspace::new(),
            large.netlist(),
            &sig_l,
            &large.encode(AluFunc::Add, 0, 0),
            &large.encode(AluFunc::Add, 0xFFF, 1),
        )
        .delays
        .max_ps;
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
