//! Trident — the comprehensive choke-error mitigation technique (Ch. 4).
//!
//! Unlike the Razor-lineage detectors, Trident treats *every* gate —
//! including hold buffers — as a potential choke point, drops the buffer
//! insertion crutch entirely, and instead monitors signal transitions:
//! a Transition Detector and Counter (TDC) per pipestage flags transitions
//! that land in the transparent phase of a detection clock as illegal, and
//! the illegal-transition count classifies the error:
//!
//! * one illegal transition → Single Error, SE(Min) or SE(Max);
//! * two in one detection cycle → Consecutive Error (CE: a maximum
//!   violation immediately followed by the next instruction's minimum
//!   violation).
//!
//! The Choke Detection Controller (CDC) logs each error in the Choke Error
//! Table (CET) under an Error ID (EID: initializing + sensitizing opcodes,
//! their operand sizes, the error class and the errant pipestage) and
//! corrects with flush + replay. On a subsequent CET match the CDC inserts
//! one stall (SE) or two stalls (CE) ahead of the error, avoiding the
//! recurrent detection/correction penalty entirely.

use crate::scheme::{CycleContext, CycleOutcome, ResilienceScheme};
use crate::tables::AssociativeTable;
use ntc_isa::{ErrorTag, Instruction, OperandSize};
use ntc_timing::ErrorClass;

/// The Error ID: the CET key plus the stored classification (§4.3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Eid {
    /// Initializing + sensitizing opcode/OWM tag.
    pub tag: ErrorTag,
    /// Operand size of the sensitizing instruction.
    pub size: OperandSize,
    /// Operand size of the initializing instruction.
    pub prev_size: OperandSize,
    /// Errant pipestage (the EX stage in this study).
    pub pipestage: u8,
}

/// Storage bits of one EID entry: 18 tag bits + 2 operand-size bits +
/// 2 error-class bits + 4 pipestage bits.
pub const EID_BITS: usize = ErrorTag::BITS + 2 + 2 + 4;

impl Eid {
    /// Build the EID for an instruction pair whose [`ErrorTag`] is `tag`
    /// (the one the delay stream already built for the cycle) at a
    /// pipestage.
    pub fn of(tag: ErrorTag, prev: &Instruction, cur: &Instruction, pipestage: u8) -> Self {
        Eid {
            tag,
            size: cur.operand_size(),
            prev_size: prev.operand_size(),
            pipestage,
        }
    }
}

/// The EX pipestage index in the modelled Core-1 pipeline.
pub const EX_STAGE: u8 = 6;

/// The Trident scheme: TDC + CDC + CCR + CET.
#[derive(Debug)]
pub struct Trident {
    cet: AssociativeTable<Eid, ErrorClass>,
    power_overhead: f64,
}

impl Trident {
    /// Create a Trident instance with a CET of `cet_entries` EIDs.
    ///
    /// # Panics
    ///
    /// Panics if `cet_entries` is zero.
    pub fn new(cet_entries: usize) -> Self {
        Trident {
            cet: AssociativeTable::new(cet_entries),
            // §4.5.7: 1.58 % of pipeline power.
            power_overhead: 0.0158,
        }
    }

    /// The configuration the paper settles on: a 128-entry CET (§4.5.3).
    pub fn paper() -> Self {
        Trident::new(128)
    }
}

impl ResilienceScheme for Trident {
    fn name(&self) -> &'static str {
        "Trident"
    }

    fn on_cycle(&mut self, ctx: &CycleContext<'_>) -> CycleOutcome {
        let eid = Eid::of(ctx.tag, ctx.prev, ctx.cur, EX_STAGE);
        let actual = ctx.error_class_at(&ctx.base_clock);

        if let Some(&predicted) = self.cet.lookup(&eid).map(|c| c as &ErrorClass) {
            // Avoidance: the CDC inserts stalls per the recorded class —
            // one for an SE, two for a CE (§4.3.7). False positives pay
            // the stalls for nothing.
            return CycleOutcome::Avoided {
                stalls: predicted.stall_cycles(),
                needed: actual.is_some(),
            };
        }

        match actual {
            Some(class) => {
                // Detection (TDC counts the illegal transitions), logging
                // (CDC writes the EID into the CET) and correction (flush
                // + replay via the CCR's recorded PC).
                self.cet.insert(eid, class);
                CycleOutcome::Recovered { class }
            }
            None => CycleOutcome::Clean,
        }
    }

    fn power_overhead_frac(&self) -> f64 {
        self.power_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag_delay::CycleDelays;
    use ntc_isa::Opcode;
    use ntc_timing::ClockSpec;

    fn clock() -> ClockSpec {
        ClockSpec {
            period_ps: 100.0,
            hold_ps: 12.0,
        }
    }

    fn ctx<'a>(
        prev: &'a Instruction,
        cur: &'a Instruction,
        min: Option<f64>,
        max: Option<f64>,
        next_min: Option<f64>,
    ) -> CycleContext<'a> {
        CycleContext {
            prev,
            cur,
            tag: ErrorTag::of(prev, cur),
            delays: CycleDelays {
                min_ps: min,
                max_ps: max,
            },
            next_delays: next_min.map(|m| CycleDelays {
                min_ps: Some(m),
                max_ps: Some(50.0),
            }),
            base_clock: clock(),
            min_consumed: false,
        }
    }

    fn pair() -> (Instruction, Instruction) {
        (
            Instruction::new(Opcode::Lw, 0x1000, 8),
            Instruction::new(Opcode::Mflo, 0xFFFF_0001, 0xFF),
        )
    }

    #[test]
    fn detects_all_three_classes() {
        let (p, c) = pair();
        // SE(Min)
        let mut t = Trident::paper();
        assert_eq!(
            t.on_cycle(&ctx(&p, &c, Some(5.0), Some(80.0), None)),
            CycleOutcome::Recovered {
                class: ErrorClass::SingleMin
            }
        );
        // SE(Max)
        let mut t = Trident::paper();
        assert_eq!(
            t.on_cycle(&ctx(&p, &c, Some(40.0), Some(150.0), Some(40.0))),
            CycleOutcome::Recovered {
                class: ErrorClass::SingleMax
            }
        );
        // CE: max now + min next.
        let mut t = Trident::paper();
        assert_eq!(
            t.on_cycle(&ctx(&p, &c, Some(40.0), Some(150.0), Some(4.0))),
            CycleOutcome::Recovered {
                class: ErrorClass::Consecutive
            }
        );
    }

    #[test]
    fn avoidance_uses_class_specific_stalls() {
        let (p, c) = pair();
        let mut t = Trident::paper();
        // Learn a CE.
        let _ = t.on_cycle(&ctx(&p, &c, Some(40.0), Some(150.0), Some(4.0)));
        // Next occurrence: two stalls.
        assert_eq!(
            t.on_cycle(&ctx(&p, &c, Some(40.0), Some(150.0), Some(4.0))),
            CycleOutcome::Avoided {
                stalls: 2,
                needed: true
            }
        );

        let mut t = Trident::paper();
        let _ = t.on_cycle(&ctx(&p, &c, Some(5.0), Some(80.0), None));
        assert_eq!(
            t.on_cycle(&ctx(&p, &c, Some(5.0), Some(80.0), None)),
            CycleOutcome::Avoided {
                stalls: 1,
                needed: true
            }
        );
    }

    #[test]
    fn min_errors_are_first_class_citizens() {
        // The whole point vs. Razor: a min violation is detected and
        // avoided, not silently latched.
        let (p, c) = pair();
        let mut t = Trident::paper();
        let out = t.on_cycle(&ctx(&p, &c, Some(3.0), Some(90.0), None));
        assert!(matches!(out, CycleOutcome::Recovered { .. }));
        assert!(matches!(
            t.on_cycle(&ctx(&p, &c, Some(3.0), Some(90.0), None)),
            CycleOutcome::Avoided { .. }
        ));
    }

    #[test]
    fn eid_distinguishes_operand_sizes() {
        let p = Instruction::new(Opcode::Addu, 1, 2);
        let small = Instruction::new(Opcode::Mult, 0xFF, 0x0F);
        let large = Instruction::new(Opcode::Mult, 0xFFFF_0000, 0x0F);
        let e1 = Eid::of(ErrorTag::of(&p, &small), &p, &small, EX_STAGE);
        let e2 = Eid::of(ErrorTag::of(&p, &large), &p, &large, EX_STAGE);
        assert_ne!(e1, e2, "operand size is part of the EID");
        // Note both share the ErrorTag when OWM matches; the EID is finer.
    }

    #[test]
    fn false_positive_accounting() {
        let (p, c) = pair();
        let mut t = Trident::paper();
        let _ = t.on_cycle(&ctx(&p, &c, Some(40.0), Some(150.0), None));
        // Same EID but a clean dynamic instance.
        assert_eq!(
            t.on_cycle(&ctx(&p, &c, Some(40.0), Some(90.0), None)),
            CycleOutcome::Avoided {
                stalls: 1,
                needed: false
            }
        );
    }

    #[test]
    fn eid_bits_matches_field_budget() {
        assert_eq!(EID_BITS, 26);
    }
}
