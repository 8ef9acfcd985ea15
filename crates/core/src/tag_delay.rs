//! The two-phase delay oracle linking the circuit layer to the
//! architecture layer — the paper's own flow: the statistical timing tool
//! produces cyclewise sensitized path delays (circuit layer), then the
//! timing-error simulation runs at instruction granularity over millions of
//! cycles (architecture layer).
//!
//! **Phase A (lazy, gate-level):** the first time a `(previous, current)`
//! instruction pair with a given operand bucket is seen, the two vectors
//! are pushed through the glitch-aware [`DynamicSim`](ntc_timing::DynamicSim) against the bound
//! chip signature, and the resulting min/max sensitized delays are cached.
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
//! read the same chunk (see [`crate::sim::run_schemes`]).

use ntc_isa::{ErrorTag, Instruction};
use ntc_netlist::generators::alu::Alu;
use ntc_netlist::Netlist;
use ntc_timing::SimWorkspace;
use ntc_varmodel::telemetry::{self, Counts, Metric};
use ntc_varmodel::{ChipSignature, Corner};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Key of one entry in a [`SharedDelayCache`]: the tag plus the *full
/// operand words* of both instructions.
///
/// The shared table deliberately uses a finer key than the per-oracle
/// `(tag, bucket)` cache. A bucket aliases many operand pairs, so a
/// `(tag, bucket)` entry is path-dependent — it holds the delays of
/// whichever pair a given oracle happened to simulate first, which is part
/// of the modeled within-tag diversity and must stay private to each
/// oracle. The full-operand key, by contrast, pins down the gate-level
/// simulation inputs exactly, making the entry a pure function of the
/// chip: safe to share across experiments and threads.
pub type SharedDelayKey = (ErrorTag, u64, u64, u64, u64);

/// Number of independently locked shards in a [`ShardedDelayCache`]. A
/// power of two so the shard index is a mask of the key hash.
const CACHE_SHARDS: usize = 16;

/// An N-way hash-sharded delay table: each key maps (by hash) to one of
/// `CACHE_SHARDS` independently locked `HashMap`s, so Phase-A misses
/// from parallel sweep workers no longer serialize on a single mutex.
///
/// Shard choice cannot affect simulation results: every entry is a pure
/// function of the chip, each key always hashes to the same shard, and a
/// racing insert keeps the first writer's (identical) value — so the table
/// behaves observably like one big map, just with cheaper locks.
#[derive(Debug, Default)]
pub struct ShardedDelayCache {
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

    /// Look up a cached delay pair.
    pub fn get(&self, key: &SharedDelayKey) -> Option<CycleDelays> {
        self.shard(key).lock().expect("delay cache poisoned").get(key).copied()
    }

    /// Insert unless present, keeping the first writer's entry on a race —
    /// the values are identical anyway (pure function of the chip).
    pub fn insert_if_absent(&self, key: SharedDelayKey, d: CycleDelays) {
        self.shard(&key)
            .lock()
            .expect("delay cache poisoned")
            .entry(key)
            .or_insert(d);
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("delay cache poisoned").len())
            .sum()
    }

    /// True when no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.lock().expect("delay cache poisoned").is_empty())
    }
}

/// A delay table shared between oracles bound to the *same* fabricated
/// chip (same netlist + signature), so experiments replaying the same
/// instruction pairs reuse each other's Phase-A gate simulations instead
/// of repeating them.
///
/// Sharing is sound because a [`SharedDelayKey`] entry is a pure function
/// of the chip: whichever oracle simulates it first stores exactly the
/// value every other oracle would have computed from the same pair.
/// Results are therefore bit-identical with or without a shared cache, at
/// any thread count — only the number of gate-level simulations changes.
pub type SharedDelayCache = Arc<ShardedDelayCache>;

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

/// Min/max sensitized delay of one simulated cycle, picoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleDelays {
    /// Earliest output transition (`None` when the cycle toggles nothing).
    pub min_ps: Option<f64>,
    /// Latest output transition.
    pub max_ps: Option<f64>,
}

/// Configuration of the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleConfig {
    /// Operand buckets per tag: distinct gate-level samples kept for one
    /// `(prev, cur)` opcode+OWM tag. More buckets = finer within-tag
    /// delay diversity at more Phase-A cost. At most 33, so that every
    /// `(tag, bucket)` of the dense local table has a `u16` id.
    pub buckets_per_tag: usize,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig { buckets_per_tag: 2 }
    }
}

/// Distinct `(opcode, OWM, prev opcode, prev OWM)` error tags.
const TAGS: usize = ntc_isa::ALL_OPCODES.len() * 2 * ntc_isa::ALL_OPCODES.len() * 2;

/// Marks an unresolved slot of the dense local table.
const EMPTY_SLOT: u16 = u16::MAX;

/// Largest [`OracleConfig::buckets_per_tag`] the dense local table
/// indexes (33): every `(tag, bucket)` slot id must fit a `u16` below
/// the empty marker.
const MAX_BUCKETS: usize = (EMPTY_SLOT as usize) / TAGS;

/// Consecutive pairs the simulator's delay stream resolves at a time
/// (see [`crate::sim::run_schemes`]): large enough that the
/// per-chunk counter flush is noise, small enough that the chunk buffer
/// (2 B a pair) stays cache-resident.
pub const STREAM_CHUNK: usize = 4_096;

/// The per-chip tag→delay oracle.
///
/// Owns the netlist and its fabricated signature; borrows nothing, so it
/// can be moved into long-running simulations.
pub struct TagDelayOracle {
    netlist: Netlist,
    signature: ChipSignature,
    width: usize,
    /// Operand buckets per tag (at least one).
    buckets: usize,
    /// The local `(tag, bucket)` table, dense: one slot per
    /// [`slot_of`] index holding an id into `values`, or [`EMPTY_SLOT`].
    slots: Vec<u16>,
    values: Vec<CycleDelays>,
    /// The chunk buffer [`resolve_pairs`](Self::resolve_pairs) fills:
    /// one `values` id per pair.
    chunk: Vec<u16>,
    shared: Option<SharedDelayCache>,
    /// Precomputed critical delays (from the chip memo pool); computed on
    /// demand when absent.
    nominal_critical_ps: Option<f64>,
    static_critical_ps: Option<f64>,
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
            .field("gates", &self.netlist.len())
            .field("cached", &self.values.len())
            .field("gate_sims", &self.gate_sims)
            .finish_non_exhaustive()
    }
}

impl TagDelayOracle {
    /// Build an oracle over an EX-stage ALU of the architectural width,
    /// fabricated as chip `seed` at `corner` with `params` variation.
    pub fn for_chip(
        corner: Corner,
        params: ntc_varmodel::VariationParams,
        seed: u64,
        config: OracleConfig,
    ) -> Self {
        let alu = Alu::new(ntc_isa::ARCH_WIDTH);
        let netlist = alu.into_netlist();
        let signature = ChipSignature::fabricate(&netlist, corner, params, seed);
        Self::new(netlist, signature, config)
    }

    /// Build an oracle from an explicit netlist + signature (e.g. the
    /// hold-buffered variant used by Razor-style schemes).
    ///
    /// # Panics
    ///
    /// Panics if the signature length does not match the netlist, the
    /// netlist lacks the `op`/`a`/`b` input ports of an ALU-shaped block,
    /// or `config` asks for more than 33 buckets per tag.
    pub fn new(netlist: Netlist, signature: ChipSignature, config: OracleConfig) -> Self {
        assert_eq!(signature.delays_ps().len(), netlist.len());
        let width = netlist
            .input_port("a")
            .expect("ALU-shaped netlist with an `a` port")
            .bits
            .len();
        assert!(netlist.input_port("op").is_some(), "missing `op` port");
        assert!(netlist.input_port("b").is_some(), "missing `b` port");
        let buckets = config.buckets_per_tag.max(1);
        assert!(
            buckets <= MAX_BUCKETS,
            "{buckets} buckets per tag exceed the local table's {MAX_BUCKETS}"
        );
        TagDelayOracle {
            netlist,
            signature,
            width,
            buckets,
            slots: vec![EMPTY_SLOT; TAGS * buckets],
            values: Vec::new(),
            chunk: Vec::new(),
            shared: None,
            nominal_critical_ps: None,
            static_critical_ps: None,
            gate_sims: 0,
            workspace: SimWorkspace::new(),
            pi_init: Vec::new(),
            pi_sens: Vec::new(),
        }
    }

    /// Attach a [`SharedDelayCache`]: misses in the local table consult
    /// (and populate) the shared one before falling back to gate-level
    /// simulation. The cache must belong to the same fabricated chip —
    /// the caller owns that invariant, typically by storing the cache
    /// alongside the memoized netlist/signature pair.
    pub fn with_shared_cache(mut self, cache: SharedDelayCache) -> Self {
        self.shared = Some(cache);
        self
    }

    /// Seed the precomputed critical delays (nominal and post-silicon
    /// static), so the accessors below stop re-running static analysis.
    /// The values must equal what the accessors would compute.
    pub fn with_critical_delays(mut self, nominal_ps: f64, static_ps: f64) -> Self {
        self.nominal_critical_ps = Some(nominal_ps);
        self.static_critical_ps = Some(static_ps);
        self
    }

    /// The nominal (PV-free) critical delay of this oracle's netlist at its
    /// corner — the reference for clock selection. Answered from the value
    /// seeded by the chip memo pool when present; otherwise one static
    /// analysis runs per call.
    pub fn nominal_critical_delay_ps(&self) -> f64 {
        self.nominal_critical_ps.unwrap_or_else(|| {
            let nominal = ChipSignature::nominal(&self.netlist, self.signature.corner());
            ntc_timing::StaticTiming::analyze(&self.netlist, &nominal)
                .critical_delay_ps(&self.netlist)
        })
    }

    /// The *post-silicon* static critical delay of this chip — what a
    /// worst-case guardbanding controller (HFG) must budget for, since it
    /// cannot know which paths a workload will sensitize. Seeded by the
    /// chip memo pool when present.
    pub fn static_critical_delay_ps(&self) -> f64 {
        self.static_critical_ps.unwrap_or_else(|| {
            ntc_timing::StaticTiming::analyze(&self.netlist, &self.signature)
                .critical_delay_ps(&self.netlist)
        })
    }

    /// Sensitized min/max delays for executing `cur` right after `prev` on
    /// this chip: the local `(tag, bucket)` table, then the shared
    /// full-operand table, then the exact kernel.
    pub fn delays(&mut self, prev: &Instruction, cur: &Instruction) -> CycleDelays {
        let mut tally = Tally::default();
        let id = self.resolve(prev, cur, &mut tally);
        tally.flush();
        self.values[usize::from(id)]
    }

    /// Resolve every consecutive pair of `instrs`, in order, and return
    /// their delays: item `j` is what
    /// [`delays`](Self::delays)`(&instrs[j], &instrs[j + 1])` answers. The
    /// window lives in the oracle's chunk buffer as two-byte ids into the
    /// local table, overwritten by the next call, and the counters are
    /// flushed once for the whole window. Allocation-free once the buffer
    /// has grown to the window size ([`STREAM_CHUNK`] pairs for the
    /// simulator's stream).
    pub(crate) fn resolve_pairs(
        &mut self,
        instrs: &[Instruction],
    ) -> impl Iterator<Item = CycleDelays> + '_ {
        let mut chunk = std::mem::take(&mut self.chunk);
        chunk.clear();
        let mut tally = Tally::default();
        for w in instrs.windows(2) {
            chunk.push(self.resolve(&w[0], &w[1], &mut tally));
        }
        tally.flush();
        self.chunk = chunk;
        self.chunk.iter().map(|&id| self.values[usize::from(id)])
    }

    /// Resolve one pair through the three tiers, counted into `tally`,
    /// and return the id of its delays in `values`.
    fn resolve(&mut self, prev: &Instruction, cur: &Instruction, tally: &mut Tally) -> u16 {
        let tag = ErrorTag::of(prev, cur);
        let slot = slot_of(tag, operand_bucket(prev, cur, self.buckets), self.buckets);
        if self.slots[slot] != EMPTY_SLOT {
            tally.local_hits += 1;
            return self.slots[slot];
        }
        // A shared hit under the full-operand key is exactly the result
        // simulating (prev, cur) here would produce, so sharing changes
        // only the number of simulations, never a delay.
        let full: SharedDelayKey = (tag, prev.a, prev.b, cur.a, cur.b);
        let d = match self.shared.as_ref().and_then(|shared| shared.get(&full)) {
            Some(d) => {
                tally.shared_hits += 1;
                d
            }
            None => {
                encode_into(self.width, prev, &mut self.pi_init);
                encode_into(self.width, cur, &mut self.pi_sens);
                // Lean min/max entry point on the owned workspace: no
                // per-miss simulator construction, no per-output activity
                // vectors.
                let t = self.workspace.simulate_pair_minmax(
                    &self.netlist,
                    &self.signature,
                    &self.pi_init,
                    &self.pi_sens,
                );
                self.gate_sims += 1;
                tally.gate_sims += 1;
                let d = CycleDelays {
                    min_ps: t.min_ps,
                    max_ps: t.max_ps,
                };
                if let Some(shared) = &self.shared {
                    shared.insert_if_absent(full, d);
                }
                d
            }
        };
        // At most one entry per slot, and `new` keeps the slot count below
        // EMPTY_SLOT (MAX_BUCKETS), so the id fits and is never the marker.
        let id = u16::try_from(self.values.len()).expect("slot ids fit a u16");
        self.slots[slot] = id;
        self.values.push(d);
        id
    }

    /// Number of gate-level simulations run so far (Phase-A cost).
    pub fn gate_sim_count(&self) -> u64 {
        self.gate_sims
    }

    /// Number of cached (tag, bucket) delay entries.
    pub fn cache_len(&self) -> usize {
        self.values.len()
    }

    /// The bound netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The bound chip signature.
    pub fn signature(&self) -> &ChipSignature {
        &self.signature
    }
}

/// Stable operand bucket for within-tag delay diversity.
fn operand_bucket(prev: &Instruction, cur: &Instruction, buckets: usize) -> usize {
    if buckets <= 1 {
        return 0;
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [prev.a, prev.b, cur.a, cur.b] {
        h ^= v;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h % buckets as u64) as usize
}

/// Index of `(tag, bucket)` in the dense local table: opcode, OWM, prev
/// opcode, prev OWM and bucket as the digits of one mixed-radix number.
#[inline]
fn slot_of(tag: ErrorTag, bucket: usize, buckets: usize) -> usize {
    let ops = ntc_isa::ALL_OPCODES.len();
    let tag_index = ((usize::from(tag.opcode) * 2 + usize::from(tag.owm)) * ops
        + usize::from(tag.prev_opcode))
        * 2
        + usize::from(tag.prev_owm);
    tag_index * buckets + bucket
}

/// Encode an instruction as the ALU-shaped netlist's primary inputs,
/// reusing the caller's buffer (allocation-free once warm).
fn encode_into(width: usize, instr: &Instruction, pis: &mut Vec<bool>) {
    let func = instr.opcode.alu_func();
    let code = func.select_code();
    pis.clear();
    pis.extend((0..4).map(|i| (code >> i) & 1 == 1));
    pis.extend((0..width).map(|i| (instr.a >> i) & 1 == 1));
    pis.extend((0..width).map(|i| (instr.b >> i) & 1 == 1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_isa::Opcode;
    use ntc_varmodel::VariationParams;

    fn oracle() -> TagDelayOracle {
        TagDelayOracle::for_chip(
            Corner::NTC,
            VariationParams::ntc(),
            11,
            OracleConfig::default(),
        )
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
        let shared: SharedDelayCache = Default::default();
        let mut warm = TagDelayOracle::for_chip(
            Corner::NTC,
            VariationParams::ntc(),
            11,
            OracleConfig::default(),
        )
        .with_shared_cache(shared.clone());
        let mut reader = TagDelayOracle::for_chip(
            Corner::NTC,
            VariationParams::ntc(),
            11,
            OracleConfig::default(),
        )
        .with_shared_cache(shared);
        let pairs = [
            (Instruction::new(Opcode::Addu, 0, 0), Instruction::new(Opcode::Addu, u64::MAX, 1)),
            (Instruction::new(Opcode::Mult, 3, 9), Instruction::new(Opcode::Xor, 0xF0F0, 0x0F0F)),
            (Instruction::new(Opcode::Sllv, 1, 7), Instruction::new(Opcode::Srav, 0x8000, 4)),
        ];
        for (p, c) in &pairs {
            assert_eq!(warm.delays(p, c), fresh.delays(p, c));
        }
        // The second shared-cache oracle answers every query without a
        // single gate-level simulation of its own.
        for (p, c) in &pairs {
            assert_eq!(reader.delays(p, c), fresh.delays(p, c));
        }
        assert_eq!(reader.gate_sim_count(), 0, "all hits came from the shared table");
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
        let ops = ntc_isa::ALL_OPCODES.len() as u8;
        let buckets = MAX_BUCKETS;
        let mut slots = Vec::new();
        for opcode in 0..ops {
            for prev_opcode in 0..ops {
                for owm_bits in 0..4u8 {
                    let tag = ErrorTag {
                        opcode,
                        owm: owm_bits & 1 == 1,
                        prev_opcode,
                        prev_owm: owm_bits & 2 == 2,
                    };
                    slots.extend((0..buckets).map(|b| slot_of(tag, b, buckets)));
                }
            }
        }
        // A bijection onto the table, whose ids all stay below the marker.
        slots.sort_unstable();
        assert!(slots.into_iter().eq(0..TAGS * buckets));
        assert!(TAGS * buckets < usize::from(EMPTY_SLOT));
    }

    #[test]
    #[should_panic(expected = "buckets per tag exceed")]
    fn more_buckets_than_u16_ids_are_rejected() {
        let _ = TagDelayOracle::for_chip(
            Corner::NTC,
            VariationParams::ntc(),
            11,
            OracleConfig {
                buckets_per_tag: MAX_BUCKETS + 1,
            },
        );
    }

    #[test]
    fn bucket_is_stable_and_bounded() {
        let p = Instruction::new(Opcode::Or, 3, 4);
        let c = Instruction::new(Opcode::And, 5, 6);
        let b1 = operand_bucket(&p, &c, 4);
        let b2 = operand_bucket(&p, &c, 4);
        assert_eq!(b1, b2);
        assert!(b1 < 4);
        assert_eq!(operand_bucket(&p, &c, 1), 0);
    }
}
