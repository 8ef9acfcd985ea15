//! The two-phase delay oracle linking the circuit layer to the
//! architecture layer — the paper's own flow: the statistical timing tool
//! produces cyclewise sensitized path delays (circuit layer), then the
//! timing-error simulation runs at instruction granularity over millions of
//! cycles (architecture layer).
//!
//! **The chip.** A [`Chip`] is one fabricated die: its netlist, its
//! post-silicon signature, its critical delays and the table of delays
//! its oracles have simulated. Every [`TagDelayOracle`] reads its chip
//! through an `Arc<Chip>`, so oracles of one die share that die's parts
//! and table instead of owning copies.
//!
//! **Phase A (lazy, gate-level):** the first time a `(previous, current)`
//! instruction pair with a given operand bucket is seen, the two vectors
//! are encoded by [`encode_into`] and pushed through the glitch-aware
//! kernel ([`SimWorkspace::simulate_pair_minmax`]) against the chip's
//! signature, and the resulting min/max sensitized delays are cached.
//!
//! **Phase B (instruction-level):** subsequent occurrences replay the
//! cached delays. Because choke paths are a *permanent characteristic of a
//! chip instance* (§3.3), the same instruction pair sensitizing the same
//! paths reproduces the same delays — exactly the property the caching
//! exploits, and exactly why history-based prediction works at all.
//!
//! Within-tag variability (the reason prediction is not 100 % accurate) is
//! preserved: operand values hash into one of several buckets per tag, each
//! bucket simulated with its own real operands.
//!
//! The Phase-B table is dense: one `u16` slot per (opcode, OWM, prev
//! opcode, prev OWM, bucket), pointing into a values vector. A cycle's
//! delays depend only on the operand state and the chip, never on the
//! scheme consuming them, so the simulator resolves each window of a
//! trace once into an oracle-owned chunk buffer and lets every scheme
//! read the same chunk (see [`crate::sim::run_schemes`]). The chunk keeps
//! each pair's [`ErrorTag`] beside its delays, so the tag is built once
//! per cycle, not once per scheme.

use ntc_isa::{ErrorTag, Instruction};
use ntc_netlist::generators::alu::{encode_into, Alu};
use ntc_netlist::Netlist;
pub use ntc_timing::CycleDelays;
use ntc_timing::{SimWorkspace, StaticTiming};
use ntc_varmodel::telemetry::{self, Counts, Metric};
use ntc_varmodel::{ChipSignature, Corner, VariationParams};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, PoisonError};

/// Key of one entry in a chip's [`ShardedDelayCache`]: the tag plus the
/// *full operand words* of both instructions.
///
/// The chip's table deliberately uses a finer key than the per-oracle
/// `(tag, bucket)` cache. A bucket aliases many operand pairs, so a
/// `(tag, bucket)` entry is path-dependent — it holds the delays of
/// whichever pair a given oracle happened to simulate first, which is part
/// of the modeled within-tag diversity and must stay private to each
/// oracle. The full-operand key, by contrast, pins down the gate-level
/// simulation inputs exactly, making the entry a pure function of the
/// chip: safe to share across experiments and threads. The words are the
/// instructions' own `u32` operands, so a key is 20 bytes.
type SharedDelayKey = (ErrorTag, u32, u32, u32, u32);

/// Number of independently locked shards in a [`ShardedDelayCache`]. A
/// power of two so the shard index is a mask of the key hash.
const CACHE_SHARDS: usize = 16;

/// Most entries one shard keeps, so a chip's table holds at most 16,384
/// however many traces run on the chip. The largest shard measured is
/// 446 entries on full fig3.10 and 326 in the fast suite, at every
/// voltage roster, so no suite reaches the cap; past it, a miss costs a
/// kernel simulation, never a different value.
const SHARD_CAP: usize = 1_024;

/// An N-way hash-sharded delay table: each key maps (by hash) to one of
/// `CACHE_SHARDS` independently locked `HashMap`s, so Phase-A misses
/// from parallel sweep workers no longer serialize on a single mutex.
///
/// Shard choice cannot affect simulation results: every entry is a pure
/// function of the chip and each key always hashes to the same shard. A
/// missing key is simulated under its shard's lock, so each key is
/// simulated once per table however many workers miss it together, and
/// the simulation count does not depend on the thread count.
#[derive(Debug, Default)]
struct ShardedDelayCache {
    shards: [Mutex<HashMap<SharedDelayKey, CycleDelays>>; CACHE_SHARDS],
}

impl ShardedDelayCache {
    #[inline]
    fn shard(&self, key: &SharedDelayKey) -> &Mutex<HashMap<SharedDelayKey, CycleDelays>> {
        // DefaultHasher::new() is deterministic (fixed-key SipHash), unlike
        // a HashMap's per-instance RandomState.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) & (CACHE_SHARDS - 1)]
    }

    /// The delays of `key`, and whether `simulate` ran to produce them.
    /// A missing key is simulated while its shard is locked, then kept
    /// unless the shard is full.
    fn get_or_simulate(
        &self,
        key: SharedDelayKey,
        simulate: impl FnOnce() -> CycleDelays,
    ) -> (CycleDelays, bool) {
        // Nothing is inserted before `simulate` returns, so a panic inside
        // it leaves the shard as it was: take the guard back instead of
        // failing every later request on this chip.
        let mut shard = self
            .shard(&key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(&d) = shard.get(&key) {
            return (d, false);
        }
        let d = simulate();
        if shard.len() < SHARD_CAP {
            shard.insert(key, d);
        }
        (d, true)
    }
}

/// One fabricated die: the netlist it was fabricated from, its
/// post-silicon signature, its nominal and static critical delays, and
/// the delay table its oracles share.
///
/// Sharing the table is sound because an entry, keyed by the tag and the
/// full operand words of both instructions, is a pure function of the
/// chip: whichever oracle simulates it first stores exactly the value
/// every other oracle would have computed from the same pair. Results are
/// therefore the same bits however many oracles read the chip, at any
/// thread count; only the number of gate-level simulations changes.
pub struct Chip {
    netlist: Arc<Netlist>,
    signature: ChipSignature,
    /// Operand width of the ALU the netlist implements.
    width: usize,
    /// Nominal (PV-free) critical delay: the reference for clock
    /// selection.
    nominal_critical_ps: f64,
    /// Post-silicon static critical delay of this die.
    static_critical_ps: f64,
    delays: ShardedDelayCache,
}

impl std::fmt::Debug for Chip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chip")
            .field("gates", &self.netlist.len())
            .field("corner", &self.signature.corner())
            .field("nominal_critical_ps", &self.nominal_critical_ps)
            .field("static_critical_ps", &self.static_critical_ps)
            .finish_non_exhaustive()
    }
}

impl Chip {
    /// A die fabricated from `netlist` with `signature`, whose nominal
    /// (PV-free) critical delay at its corner is `nominal_critical_ps`.
    /// Runs the chip's one static analysis, for its post-silicon critical
    /// delay, and starts it with an empty delay table.
    ///
    /// # Panics
    ///
    /// Panics if the signature length does not match the netlist, or the
    /// netlist's primary inputs are not exactly the ALU's `op` (4 bits),
    /// `a` and `b` (`w` bits each), in that order: the layout
    /// [`encode_into`] writes.
    pub fn new(netlist: Arc<Netlist>, signature: ChipSignature, nominal_critical_ps: f64) -> Self {
        assert_eq!(signature.delays_ps().len(), netlist.len());
        let ports = netlist.input_ports();
        let width = ports.get(1).map_or(0, |p| p.bits.len());
        let shape: Vec<(&str, usize)> = ports
            .iter()
            .map(|p| (p.name.as_str(), p.bits.len()))
            .collect();
        assert!(
            shape == [("op", 4), ("a", width), ("b", width)]
                && ports.iter().flat_map(|p| &p.bits).eq(netlist.inputs()),
            "the oracle encodes the ALU inputs op[4], a[w], b[w] in that order, \
             not {shape:?}"
        );
        let static_critical_ps =
            StaticTiming::analyze(&netlist, &signature).critical_delay_ps(&netlist);
        Chip {
            netlist,
            signature,
            width,
            nominal_critical_ps,
            static_critical_ps,
            delays: ShardedDelayCache::default(),
        }
    }
}

/// Oracle efficiency counters: a typed view of the oracle's
/// [`telemetry`] metrics, from a [`take_oracle_stats`] drain or a
/// [`telemetry::scoped`] run.
///
/// The struct doubles as the serialization contract for run telemetry:
/// [`OracleStats::fields`] enumerates the counters as stable
/// `(name, value)` pairs, so an encoder (the `repro` manifest writer)
/// never hard-codes field names that could drift from the struct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Phase-A gate-level simulations (cache misses all the way through).
    pub gate_sims: u64,
    /// Hits in per-oracle `(tag, bucket)` caches: one per resolved pair,
    /// however many schemes then read the resolved delays.
    pub local_hits: u64,
    /// Hits in the shared full-operand cache.
    pub shared_hits: u64,
    /// Static timing analyses
    /// ([`ntc_timing::StaticTiming::analyze`] passes).
    pub sta_full: u64,
}

impl OracleStats {
    /// Total delay queries answered.
    pub fn queries(&self) -> u64 {
        self.gate_sims + self.local_hits + self.shared_hits
    }

    /// The counters as stable `(field name, value)` pairs, in declaration
    /// order — the single source of truth for serializers.
    pub fn fields(&self) -> [(&'static str, u64); 4] {
        [
            ("gate_sims", self.gate_sims),
            ("local_hits", self.local_hits),
            ("shared_hits", self.shared_hits),
            ("sta_full", self.sta_full),
        ]
    }
}

impl From<&Counts> for OracleStats {
    fn from(c: &Counts) -> Self {
        OracleStats {
            gate_sims: c.get(Metric::GateSims),
            local_hits: c.get(Metric::LocalHits),
            shared_hits: c.get(Metric::SharedHits),
            sta_full: c.get(Metric::StaFull),
        }
    }
}

/// Oracle counter increments accumulated over a run of lookups and
/// flushed into [`telemetry`] in one go: once per resolved chunk, not
/// once per hit.
#[derive(Debug, Default)]
struct Tally {
    gate_sims: u64,
    local_hits: u64,
    shared_hits: u64,
}

impl Tally {
    fn flush(self) {
        for (metric, n) in [
            (Metric::GateSims, self.gate_sims),
            (Metric::LocalHits, self.local_hits),
            (Metric::SharedHits, self.shared_hits),
        ] {
            if n > 0 {
                telemetry::add(metric, n);
            }
        }
    }
}

/// Drain the process-wide [`OracleStats`] counters, resetting them to
/// zero. The static-timing count comes from the same telemetry array,
/// so one drain covers the whole timing stack.
pub fn take_oracle_stats() -> OracleStats {
    OracleStats::from(&telemetry::take(&[
        Metric::GateSims,
        Metric::LocalHits,
        Metric::SharedHits,
        Metric::StaFull,
    ]))
}

/// Operand buckets per tag: distinct gate-level samples kept for one
/// `(prev, cur)` opcode+OWM tag. More buckets = finer within-tag delay
/// diversity at more Phase-A cost.
pub const BUCKETS_PER_TAG: usize = 2;

/// Marks an unresolved slot of the dense local table.
const EMPTY_SLOT: u16 = u16::MAX;

/// Most buckets per tag the dense local table indexes (33): every
/// `(tag, bucket)` slot id must fit a `u16` below the empty marker.
const MAX_BUCKETS: usize = (EMPTY_SLOT as usize) / ErrorTag::COUNT;

const _: () = assert!(
    BUCKETS_PER_TAG >= 1 && BUCKETS_PER_TAG <= MAX_BUCKETS,
    "every (tag, bucket) of the local table needs a u16 id"
);

/// Consecutive pairs the simulator's delay stream resolves at a time
/// (see [`crate::sim::run_schemes`]): large enough that the
/// per-chunk counter flush is noise, small enough that the chunk buffer
/// (6 B a pair: the tag and a `values` id) stays cache-resident.
pub const STREAM_CHUNK: usize = 4_096;

/// The per-chip tag→delay oracle.
///
/// Reads its [`Chip`] through an `Arc` and owns only its own lookup
/// state, so it can be moved into long-running simulations.
pub struct TagDelayOracle {
    chip: Arc<Chip>,
    /// The local `(tag, bucket)` table, dense: one slot per
    /// [`slot_of`] index holding an id into `values`, or [`EMPTY_SLOT`].
    slots: Vec<u16>,
    values: Vec<CycleDelays>,
    /// The chunk buffer [`resolve_pairs`](Self::resolve_pairs) fills:
    /// each pair's tag and the id of its delays in `values`.
    chunk: Vec<(ErrorTag, u16)>,
    gate_sims: u64,
    /// Reusable kernel buffers: Phase-A simulation allocates nothing in
    /// steady state.
    workspace: SimWorkspace,
    pi_init: Vec<bool>,
    pi_sens: Vec<bool>,
}

impl std::fmt::Debug for TagDelayOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TagDelayOracle")
            .field("gates", &self.chip.netlist.len())
            .field("cached", &self.values.len())
            .field("gate_sims", &self.gate_sims)
            .finish_non_exhaustive()
    }
}

impl TagDelayOracle {
    /// Build an oracle over a fresh chip, with a delay table of its own:
    /// an EX-stage ALU of the architectural width, fabricated as chip
    /// `seed` at `corner` with `params` variation.
    pub fn for_chip(corner: Corner, params: VariationParams, seed: u64) -> Self {
        let netlist = Alu::new(ntc_isa::ARCH_WIDTH).into_netlist();
        let signature = ChipSignature::fabricate(&netlist, corner, params, seed);
        let nominal = ChipSignature::nominal(&netlist, corner);
        let nominal_critical_ps =
            StaticTiming::analyze(&netlist, &nominal).critical_delay_ps(&netlist);
        Self::new(Arc::new(Chip::new(
            Arc::new(netlist),
            signature,
            nominal_critical_ps,
        )))
    }

    /// Build an oracle over `chip`. Its misses go to the chip's delay
    /// table, which every other oracle of the chip shares.
    pub fn new(chip: Arc<Chip>) -> Self {
        TagDelayOracle {
            chip,
            slots: vec![EMPTY_SLOT; ErrorTag::COUNT * BUCKETS_PER_TAG],
            values: Vec::new(),
            chunk: Vec::new(),
            gate_sims: 0,
            workspace: SimWorkspace::new(),
            pi_init: Vec::new(),
            pi_sens: Vec::new(),
        }
    }

    /// The nominal (PV-free) critical delay of the chip's netlist at its
    /// corner — the reference for clock selection.
    pub fn nominal_critical_delay_ps(&self) -> f64 {
        self.chip.nominal_critical_ps
    }

    /// The *post-silicon* static critical delay of this chip — what a
    /// worst-case guardbanding controller (HFG) must budget for, since it
    /// cannot know which paths a workload will sensitize.
    pub fn static_critical_delay_ps(&self) -> f64 {
        self.chip.static_critical_ps
    }

    /// Sensitized min/max delays for executing `cur` right after `prev` on
    /// this chip: the local `(tag, bucket)` table, then the chip's
    /// full-operand table, then the exact kernel.
    pub fn delays(&mut self, prev: &Instruction, cur: &Instruction) -> CycleDelays {
        let mut tally = Tally::default();
        let id = self.resolve(ErrorTag::of(prev, cur), prev, cur, &mut tally);
        tally.flush();
        self.values[usize::from(id)]
    }

    /// Resolve every consecutive pair of `instrs`, in order, and return
    /// their tags and delays: item `j` is the pair's [`ErrorTag::of`] and
    /// what [`delays`](Self::delays)`(&instrs[j], &instrs[j + 1])`
    /// answers. The window lives in the oracle's chunk buffer as tags and
    /// two-byte ids into the local table, overwritten by the next call,
    /// and the counters are flushed once for the whole window.
    /// Allocation-free once the buffer has grown to the window size
    /// ([`STREAM_CHUNK`] pairs for the simulator's stream).
    pub(crate) fn resolve_pairs(
        &mut self,
        instrs: &[Instruction],
    ) -> impl Iterator<Item = (ErrorTag, CycleDelays)> + '_ {
        let mut chunk = std::mem::take(&mut self.chunk);
        chunk.clear();
        let mut tally = Tally::default();
        // Each instruction is the current one of a pair and the previous
        // one of the next, so its OWM (two popcounts) is computed once.
        let mut prev_owm = instrs.first().is_some_and(Instruction::owm);
        for w in instrs.windows(2) {
            let (prev, cur) = (&w[0], &w[1]);
            let owm = cur.owm();
            let tag = ErrorTag {
                opcode: cur.opcode.encoding(),
                owm,
                prev_opcode: prev.opcode.encoding(),
                prev_owm,
            };
            chunk.push((tag, self.resolve(tag, prev, cur, &mut tally)));
            prev_owm = owm;
        }
        tally.flush();
        self.chunk = chunk;
        self.chunk
            .iter()
            .map(|&(tag, id)| (tag, self.values[usize::from(id)]))
    }

    /// Resolve one pair, whose tag is `tag`, through the three tiers,
    /// counted into `tally`, and return the id of its delays in `values`.
    fn resolve(
        &mut self,
        tag: ErrorTag,
        prev: &Instruction,
        cur: &Instruction,
        tally: &mut Tally,
    ) -> u16 {
        let slot = slot_of(tag, operand_bucket(prev, cur), BUCKETS_PER_TAG);
        if self.slots[slot] != EMPTY_SLOT {
            tally.local_hits += 1;
            return self.slots[slot];
        }
        let chip = &*self.chip;
        // A hit in the chip's table under the full-operand key is exactly
        // the result simulating (prev, cur) here would produce, so sharing
        // changes only the number of simulations, never a delay. An oracle
        // alone on its chip never hits it: each key it holds came from a
        // pair that filled this oracle's local slot, which answers first.
        let key = (tag, prev.a, prev.b, cur.a, cur.b);
        let (d, simulated) = chip.delays.get_or_simulate(key, || {
            for (i, pis) in [(prev, &mut self.pi_init), (cur, &mut self.pi_sens)] {
                let (a, b) = (u64::from(i.a), u64::from(i.b));
                encode_into(chip.width, i.opcode.alu_func(), a, b, pis);
            }
            // Lean min/max entry point on the owned workspace: no
            // per-miss simulator construction, no per-output activity
            // vectors.
            self.workspace.simulate_pair_minmax(
                &chip.netlist,
                &chip.signature,
                &self.pi_init,
                &self.pi_sens,
            )
        });
        if simulated {
            self.gate_sims += 1;
            tally.gate_sims += 1;
        } else {
            tally.shared_hits += 1;
        }
        // At most one entry per slot, and the slot count stays below
        // EMPTY_SLOT (a compile-time bound on BUCKETS_PER_TAG), so the id
        // fits and is never the marker.
        let id = u16::try_from(self.values.len()).expect("slot ids fit a u16");
        self.slots[slot] = id;
        self.values.push(d);
        id
    }

    /// Number of gate-level simulations run so far (Phase-A cost).
    pub fn gate_sim_count(&self) -> u64 {
        self.gate_sims
    }

    /// The chip's netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.chip.netlist
    }
}

/// Stable operand bucket for within-tag delay diversity.
fn operand_bucket(prev: &Instruction, cur: &Instruction) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [prev.a, prev.b, cur.a, cur.b] {
        h ^= u64::from(v);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h % BUCKETS_PER_TAG as u64) as usize
}

/// Index of `(tag, bucket)` in the dense local table: the bucket is the
/// last digit after [`ErrorTag::index`]'s four.
#[inline]
fn slot_of(tag: ErrorTag, bucket: usize, buckets: usize) -> usize {
    tag.index() * buckets + bucket
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_isa::Opcode;

    fn oracle() -> TagDelayOracle {
        TagDelayOracle::for_chip(Corner::NTC, VariationParams::ntc(), 11)
    }

    #[test]
    fn delays_are_cached_per_tag_bucket() {
        let mut o = oracle();
        let prev = Instruction::new(Opcode::Addu, 0, 0);
        let cur = Instruction::new(Opcode::Addu, 0xFFFF_FFFF, 1);
        let d1 = o.delays(&prev, &cur);
        let sims = o.gate_sim_count();
        let d2 = o.delays(&prev, &cur);
        assert_eq!(d1, d2);
        assert_eq!(o.gate_sim_count(), sims, "second query hits the cache");
        assert!(d1.max_ps.expect("carry toggles") > 0.0);
    }

    #[test]
    fn different_operands_can_use_different_buckets() {
        let mut o = oracle();
        let prev = Instruction::new(Opcode::Addu, 0, 0);
        let mut sims = 0;
        for a in [1u64, 0xFF, 0xFFFF, 0xFFFF_FFFF, 0x8000_0000, 0x1234_5678] {
            let cur = Instruction::new(Opcode::Addu, a, 1);
            let _ = o.delays(&prev, &cur);
            sims = o.gate_sim_count();
        }
        assert!(sims >= 2, "multiple buckets simulated, got {sims}");
        assert!(sims <= 6);
    }

    #[test]
    fn mult_is_slower_than_move() {
        let mut o = oracle();
        let prev = Instruction::new(Opcode::Move, 0, 0);
        let mult = Instruction::new(Opcode::Mult, 0xABCD_1234, 0x1357_9BDF);
        let mv = Instruction::new(Opcode::Move, 0xABCD_1234, 0);
        let d_mult = o.delays(&prev, &mult).max_ps.expect("mult toggles");
        let d_move = o.delays(&prev, &mv).max_ps.expect("move toggles");
        assert!(
            d_mult > 2.0 * d_move,
            "mult {d_mult:.0}ps vs move {d_move:.0}ps"
        );
    }

    #[test]
    fn nominal_critical_delay_is_positive_and_stable() {
        let o = oracle();
        let d1 = o.nominal_critical_delay_ps();
        let d2 = o.nominal_critical_delay_ps();
        assert!(d1 > 0.0);
        assert_eq!(d1, d2);
    }

    #[test]
    fn shared_cache_matches_fresh_oracle_and_skips_simulation() {
        let mut fresh = oracle();
        let netlist = Alu::new(ntc_isa::ARCH_WIDTH).into_netlist();
        let signature = ChipSignature::fabricate(&netlist, Corner::NTC, VariationParams::ntc(), 11);
        let chip = Arc::new(Chip::new(
            Arc::new(netlist),
            signature,
            fresh.nominal_critical_delay_ps(),
        ));
        let mut warm = TagDelayOracle::new(chip.clone());
        let mut reader = TagDelayOracle::new(chip);
        let pairs = [
            (
                Instruction::new(Opcode::Addu, 0, 0),
                Instruction::new(Opcode::Addu, u64::MAX, 1),
            ),
            (
                Instruction::new(Opcode::Mult, 3, 9),
                Instruction::new(Opcode::Xor, 0xF0F0, 0x0F0F),
            ),
            (
                Instruction::new(Opcode::Sllv, 1, 7),
                Instruction::new(Opcode::Srav, 0x8000, 4),
            ),
        ];
        for (p, c) in &pairs {
            assert_eq!(warm.delays(p, c), fresh.delays(p, c));
        }
        // The second oracle of the chip answers every query without a
        // single gate-level simulation of its own.
        for (p, c) in &pairs {
            assert_eq!(reader.delays(p, c), fresh.delays(p, c));
        }
        assert_eq!(
            reader.gate_sim_count(),
            0,
            "all hits came from the shared table"
        );
    }

    #[test]
    fn a_shared_table_stops_growing_at_its_cap() {
        let table = ShardedDelayCache::default();
        let tag = ErrorTag {
            opcode: 0,
            owm: false,
            prev_opcode: 0,
            prev_owm: false,
        };
        let d = CycleDelays {
            min_ps: None,
            max_ps: Some(1.0),
        };
        let keys = (0..2 * (CACHE_SHARDS * SHARD_CAP) as u32).map(|a| (tag, a, 0, 0, 0));
        for key in keys.clone() {
            assert_eq!(
                table.get_or_simulate(key, || d),
                (d, true),
                "first ask simulates"
            );
        }
        let held = keys
            .filter(|&key| !table.get_or_simulate(key, || d).1)
            .count();
        assert_eq!(
            held,
            CACHE_SHARDS * SHARD_CAP,
            "every shard filled to its cap"
        );
        assert_eq!(
            table.get_or_simulate((tag, 0, 0, 0, 0), || panic!("early entries stay")),
            (d, false)
        );
    }

    #[test]
    fn a_panicking_simulation_leaves_its_shard_usable() {
        let table = ShardedDelayCache::default();
        let key = (ErrorTag::all().next().expect("a tag"), 1, 2, 3, 4);
        let d = CycleDelays {
            min_ps: Some(1.0),
            max_ps: Some(2.0),
        };
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            table.get_or_simulate(key, || panic!("kernel failure"))
        }));
        assert!(failed.is_err());
        // The shard still locks, and the failed simulation kept nothing.
        assert_eq!(table.get_or_simulate(key, || d), (d, true));
        assert_eq!(table.get_or_simulate(key, || panic!("kept")), (d, false));
    }

    #[test]
    fn oracle_stats_fields() {
        let stats = OracleStats {
            gate_sims: 3,
            local_hits: 5,
            shared_hits: 5,
            sta_full: 4,
        };
        // Queries = answered lookups: sims + local + shared. The STA
        // count meters the timing stack, not lookups.
        assert_eq!(stats.queries(), 13);
        assert_eq!(
            stats.fields(),
            [
                ("gate_sims", 3),
                ("local_hits", 5),
                ("shared_hits", 5),
                ("sta_full", 4),
            ]
        );
    }

    #[test]
    fn slot_of_numbers_every_tag_and_bucket_once() {
        // Tags are numbered by `ErrorTag::index` (tested in ntc-isa); the
        // bucket digit must keep the numbering a bijection onto the table,
        // whose ids all stay below the marker.
        let buckets = MAX_BUCKETS;
        let mut slots: Vec<usize> = ErrorTag::all()
            .flat_map(|tag| (0..buckets).map(move |b| slot_of(tag, b, buckets)))
            .collect();
        slots.sort_unstable();
        assert!(slots.into_iter().eq(0..ErrorTag::COUNT * buckets));
        assert!(ErrorTag::COUNT * buckets < usize::from(EMPTY_SLOT));
    }

    #[test]
    #[should_panic(expected = "the oracle encodes the ALU inputs")]
    fn an_ex_stage_netlist_is_refused() {
        // Its inputs start with the ALU's op/a/b but go on to forwarding
        // buses and bypass selects, which the encoder never writes.
        let ex = ntc_netlist::generators::ex_stage::ExStage::new(32).into_netlist();
        let signature = ChipSignature::nominal(&ex, Corner::NTC);
        let _ = Chip::new(Arc::new(ex), signature, 1.0);
    }

    #[test]
    fn bucket_is_stable_and_bounded() {
        let p = Instruction::new(Opcode::Or, 3, 4);
        let c = Instruction::new(Opcode::And, 5, 6);
        let b1 = operand_bucket(&p, &c);
        assert_eq!(b1, operand_bucket(&p, &c));
        assert!(b1 < BUCKETS_PER_TAG);
    }
}
