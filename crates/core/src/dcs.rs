//! Dynamic Choke Sensing (DCS) — the paper's primary contribution.
//!
//! DCS learns a chip's individual choke paths at runtime. Each unique
//! timing-error instance is tagged with the four-part key (errant
//! opcode+OWM, previous-cycle opcode+OWM) and stored in the Choke Sensor
//! Lookup Table (CSLT). Every decoded instruction is looked up (through a
//! Bloom-filter front-end, in parallel with the normal pipestage flow); a
//! hit makes the Choke Controller insert one stall cycle in the EX stage,
//! which pre-empts the error — an instruction is assumed to finish within
//! two cycles even under the worst choke delay (§3.3.1). A miss that errs
//! costs a full pipeline flush + replay and populates the table.
//!
//! Two CSLT organizations are provided (§3.3.3):
//!
//! * **ICSLT** — every error instance occupies an independent tuple
//!   (fully associative, pseudo-LRU);
//! * **ACSLT** — one tuple per errant opcode+OWM pair holding up to
//!   `associativity` previous-cycle pairs, removing the redundant errant
//!   pair storage.
//!
//! The hardware hashes each tag beside the pipestage, so the screen costs
//! no cycles. The model does not hash per cycle either: each [`Dcs`]
//! hashes all [`ErrorTag::COUNT`] tags once, when it is built, and the
//! per-cycle screen and every filter update read that table at
//! [`ErrorTag::index`].

use crate::scheme::{CycleContext, CycleOutcome, ResilienceScheme};
use crate::tables::{AssociativeTable, CountingBloom, SetAssociativeTable};
use ntc_isa::ErrorTag;
use ntc_timing::ErrorClass;

/// Which CSLT organization a [`Dcs`] instance uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsltKind {
    /// Independent CSLT: `entries` fully-associative tuples.
    Independent {
        /// Total tuples.
        entries: usize,
    },
    /// Associative CSLT: `entries` set tuples × `associativity` ways.
    Associative {
        /// Set tuples (errant opcode+OWM pairs).
        entries: usize,
        /// Previous-cycle pairs per tuple.
        associativity: usize,
    },
}

#[derive(Debug)]
enum Cslt {
    Independent(AssociativeTable<ErrorTag, ()>),
    Associative(SetAssociativeTable<(u8, bool), (u8, bool)>),
}

/// The DCS scheme: Choke Controller + CSLT + Bloom-filter lookup.
#[derive(Debug)]
pub struct Dcs {
    kind: CsltKind,
    table: Cslt,
    bloom: CountingBloom,
    /// `bloom.indexes(&tag)` of every tag, at [`ErrorTag::index`].
    bloom_slots: Box<[(usize, usize)]>,
    power_overhead: f64,
    /// Like Razor, DCS's detector is the double-sampling flip-flop and its
    /// design relies on hold buffers; min-side violations (when the
    /// experiment's netlist produces them) slip through undetected.
    min_is_corruption: bool,
}

impl Dcs {
    /// Create a DCS instance with the given CSLT organization.
    ///
    /// # Panics
    ///
    /// Panics if any capacity parameter is zero.
    pub fn new(kind: CsltKind) -> Self {
        let (table, bloom_bits, power) = match kind {
            CsltKind::Independent { entries } => (
                Cslt::Independent(AssociativeTable::new(entries)),
                (entries * 8).next_power_of_two(),
                // §3.5.6: ICSLT power overhead 0.85 % of core power.
                0.0085,
            ),
            CsltKind::Associative {
                entries,
                associativity,
            } => (
                Cslt::Associative(SetAssociativeTable::new(entries, associativity)),
                (entries * associativity * 4).next_power_of_two(),
                // §3.5.6: ACSLT power overhead 1.2 %.
                0.012,
            ),
        };
        let bloom = CountingBloom::new(bloom_bits.max(64));
        Dcs {
            kind,
            table,
            bloom_slots: ErrorTag::all().map(|tag| bloom.indexes(&tag)).collect(),
            bloom,
            power_overhead: power,
            min_is_corruption: false,
        }
    }

    /// The ICSLT configuration the paper settles on: 128 entries (§3.5.2).
    pub fn icslt_default() -> Self {
        Dcs::new(CsltKind::Independent { entries: 128 })
    }

    /// The ACSLT configuration the paper settles on: 32 entries ×
    /// 16 ways (§3.5.2).
    pub fn acslt_default() -> Self {
        Dcs::new(CsltKind::Associative {
            entries: 32,
            associativity: 16,
        })
    }

    /// Configure whether minimum-timing violations exist in the evaluated
    /// system and silently corrupt state (DCS inherits Razor's
    /// double-sampling detector and hold-buffer reliance, so in a Ch.4-style
    /// setting choke buffers defeat it exactly as they defeat Razor).
    pub fn with_min_corruption(mut self, yes: bool) -> Self {
        self.min_is_corruption = yes;
        self
    }

    /// The table organization.
    pub fn kind(&self) -> CsltKind {
        self.kind
    }

    fn lookup(&mut self, tag: &ErrorTag) -> bool {
        // Bloom filter screens first (§3.3.4); a bloom false positive with
        // a table miss is still treated as a hit by the controller — the
        // stall is inserted on the filter's word. That is the false-
        // positive stall penalty §3.3.5 describes.
        if !self.bloom.contains(self.bloom_slots[tag.index()]) {
            return false;
        }
        match &mut self.table {
            Cslt::Independent(t) => {
                let _ = t.lookup(tag);
            }
            Cslt::Associative(t) => {
                let _ = t.lookup(&tag.errant_pair(), &tag.previous_pair());
            }
        }
        true
    }

    fn record(&mut self, tag: ErrorTag) {
        match &mut self.table {
            Cslt::Independent(t) => {
                if let Some((evicted, ())) = t.insert(tag, ()) {
                    self.bloom.remove(self.bloom_slots[evicted.index()]);
                }
            }
            Cslt::Associative(t) => {
                // Mirror every displaced association in the bloom filter so
                // the filter tracks the table contents exactly (up to hash
                // collisions — which surface as false-positive stalls).
                for ((opcode, owm), (prev_opcode, prev_owm)) in
                    t.insert(tag.errant_pair(), tag.previous_pair())
                {
                    let evicted = ErrorTag {
                        opcode,
                        owm,
                        prev_opcode,
                        prev_owm,
                    };
                    self.bloom.remove(self.bloom_slots[evicted.index()]);
                }
            }
        }
        self.bloom.insert(self.bloom_slots[tag.index()]);
    }
}

impl ResilienceScheme for Dcs {
    fn name(&self) -> &'static str {
        match self.kind {
            CsltKind::Independent { .. } => "DCS-ICSLT",
            CsltKind::Associative { .. } => "DCS-ACSLT",
        }
    }

    fn on_cycle(&mut self, ctx: &CycleContext<'_>) -> CycleOutcome {
        let v = ctx.violation_at(&ctx.base_clock);
        if self.lookup(&ctx.tag) {
            // Predicted: the Choke Controller stalls the EX stage for one
            // cycle, giving the instruction the second cycle it needs.
            return CycleOutcome::Avoided {
                stalls: 1,
                needed: v.max,
            };
        }
        if v.max {
            // First (or re-learned) occurrence: detect in EX, flush,
            // replay, and latch the tag into the CSLT.
            self.record(ctx.tag);
            return CycleOutcome::Recovered {
                class: ErrorClass::SingleMax,
            };
        }
        if v.min && self.min_is_corruption {
            return CycleOutcome::SilentCorruption;
        }
        CycleOutcome::Clean
    }

    fn power_overhead_frac(&self) -> f64 {
        self.power_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag_delay::CycleDelays;
    use ntc_isa::{Instruction, Opcode};
    use ntc_timing::ClockSpec;

    fn ctx<'a>(prev: &'a Instruction, cur: &'a Instruction, max: Option<f64>) -> CycleContext<'a> {
        CycleContext {
            prev,
            cur,
            tag: ErrorTag::of(prev, cur),
            delays: CycleDelays {
                min_ps: Some(40.0),
                max_ps: max,
            },
            next_delays: None,
            base_clock: ClockSpec {
                period_ps: 100.0,
                hold_ps: 12.0,
            },
            min_consumed: false,
        }
    }

    /// Instruction pairs with seed-distinct error tags (the opcodes differ
    /// per seed, so the four-part tags are guaranteed unique).
    fn pair(seed: u64) -> (Instruction, Instruction) {
        let prev_ops = [Opcode::Addu, Opcode::Lw, Opcode::Sll, Opcode::Xor];
        let cur_ops = [Opcode::Mult, Opcode::Mflo, Opcode::Subu, Opcode::Nor];
        (
            Instruction::new(prev_ops[(seed % 4) as usize], seed, seed ^ 3),
            Instruction::new(cur_ops[(seed % 4) as usize], seed | 1, seed | 2),
        )
    }

    #[test]
    fn first_error_recovers_then_predicts() {
        for mut dcs in [Dcs::icslt_default(), Dcs::acslt_default()] {
            let (p, c) = pair(1);
            // First occurrence: recovery.
            assert!(matches!(
                dcs.on_cycle(&ctx(&p, &c, Some(150.0))),
                CycleOutcome::Recovered { .. }
            ));
            // Second occurrence: avoided with one stall.
            assert_eq!(
                dcs.on_cycle(&ctx(&p, &c, Some(150.0))),
                CycleOutcome::Avoided {
                    stalls: 1,
                    needed: true
                }
            );
        }
    }

    #[test]
    fn false_positive_stall_when_tagged_pair_runs_clean() {
        let mut dcs = Dcs::icslt_default();
        let (p, c) = pair(2);
        let _ = dcs.on_cycle(&ctx(&p, &c, Some(150.0)));
        // Same tag, but this dynamic instance would not err.
        assert_eq!(
            dcs.on_cycle(&ctx(&p, &c, Some(90.0))),
            CycleOutcome::Avoided {
                stalls: 1,
                needed: false
            }
        );
    }

    #[test]
    fn clean_cycles_stay_clean() {
        let mut dcs = Dcs::icslt_default();
        let (p, c) = pair(3);
        assert_eq!(dcs.on_cycle(&ctx(&p, &c, Some(90.0))), CycleOutcome::Clean);
        assert_eq!(dcs.on_cycle(&ctx(&p, &c, None)), CycleOutcome::Clean);
    }

    #[test]
    fn capacity_pressure_causes_re_learning() {
        let mut dcs = Dcs::new(CsltKind::Independent { entries: 2 });
        // Learn three distinct tags; the first gets evicted.
        let pairs: Vec<_> = (0..3).map(pair).collect();
        for (p, c) in &pairs {
            assert!(matches!(
                dcs.on_cycle(&ctx(p, c, Some(150.0))),
                CycleOutcome::Recovered { .. }
            ));
        }
        // The first-learned tag was evicted: revisiting it is a capacity
        // miss (recover + re-learn), while the most recent tag is still
        // resident and gets predicted.
        let (p0, c0) = &pairs[0];
        assert!(matches!(
            dcs.on_cycle(&ctx(p0, c0, Some(150.0))),
            CycleOutcome::Recovered { .. }
        ));
        let (p2, c2) = &pairs[2];
        assert!(matches!(
            dcs.on_cycle(&ctx(p2, c2, Some(150.0))),
            CycleOutcome::Avoided { .. }
        ));
    }

    #[test]
    fn acslt_shares_errant_pairs_across_ways() {
        let mut dcs = Dcs::new(CsltKind::Associative {
            entries: 4,
            associativity: 4,
        });
        let cur = Instruction::new(Opcode::Mult, 0xFFFF_FFFF, 0xFFFF_FFFF);
        // Same errant instruction after four different initializers: one
        // set tuple, four ways.
        let prevs = [
            Instruction::new(Opcode::Addu, 1, 1),
            Instruction::new(Opcode::Lw, 2, 2),
            Instruction::new(Opcode::Sll, 3, 3),
            Instruction::new(Opcode::Move, 4, 4),
        ];
        for p in &prevs {
            let _ = dcs.on_cycle(&ctx(p, &cur, Some(150.0)));
        }
        for p in &prevs {
            assert!(
                matches!(
                    dcs.on_cycle(&ctx(p, &cur, Some(150.0))),
                    CycleOutcome::Avoided { .. }
                ),
                "all ways retained under one set"
            );
        }
    }

    #[test]
    fn bloom_slots_are_the_filters_own_hash_of_every_tag() {
        // Both default filter sizes and the 64-counter minimum.
        for (dcs, counters) in [
            (Dcs::icslt_default(), 1_024),
            (Dcs::acslt_default(), 2_048),
            (Dcs::new(CsltKind::Independent { entries: 2 }), 64),
        ] {
            let reference = CountingBloom::new(counters);
            assert_eq!(dcs.bloom_slots.len(), ErrorTag::COUNT);
            for tag in ErrorTag::all() {
                assert_eq!(
                    dcs.bloom_slots[tag.index()],
                    reference.indexes(&tag),
                    "{tag:?}, {counters} counters"
                );
            }
        }
    }

    #[test]
    fn names_and_overheads_differ_by_variant() {
        let i = Dcs::icslt_default();
        let a = Dcs::acslt_default();
        assert_eq!(i.name(), "DCS-ICSLT");
        assert_eq!(a.name(), "DCS-ACSLT");
        assert!(a.power_overhead_frac() > i.power_overhead_frac());
        assert_eq!(i.period_stretch(), 1.0);
    }
}
