//! Closed-loop dynamic voltage scaling on the operating-point roster.
//!
//! Kaul et al. ("DVS for On-Chip Bus Designs Based on Timing Error
//! Correction") make the observation this controller reproduces: with a
//! Razor-style correction mechanism in place, the supply can be trimmed
//! until the *measured* timing-error correction rate reaches a target —
//! the guardband between the worst-case and the actual operating margin is
//! harvested as energy, and the error counter closes the loop without any
//! canary circuits.
//!
//! The controller walks the [`OperatingPoint`](ntc_varmodel::OperatingPoint)
//! ladder below the grid's supply. Undervolting from the grid point to a
//! lower level scales every gate delay up by the ratio of the alpha-power
//! delay factors; testing the *unscaled* chip delays against a clock whose
//! period and hold window are shrunk by the inverse ratio is numerically
//! identical, so the controller is expressed entirely in effective-clock
//! terms and the wall clock (and therefore [`period_stretch`]) is
//! untouched.
//!
//! [`period_stretch`]: crate::scheme::ResilienceScheme::period_stretch

use crate::scheme::{CycleContext, CycleOutcome, ResilienceScheme};
use ntc_timing::ClockSpec;

/// Default correction-rate target, in corrections per million cycles: the
/// knee where harvested supply margin stops paying for replay penalty.
pub const DVS_TARGET_PPM: u64 = 10_000;

/// One rung of the undervolting ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvsLevel {
    /// Supply voltage at this rung, volts.
    pub vdd: f64,
    /// Effective-clock scale at this rung: the ratio of the grid point's
    /// alpha-power delay factor to this rung's (`<= 1.0`; `1.0` at the
    /// grid point itself). Both the period and the hold window shrink by
    /// this factor — equivalent to every chip delay growing by its
    /// inverse.
    pub period_scale: f64,
}

/// The closed-loop DVS controller: a Razor-style corrector whose supply
/// rung is retuned every `window` cycles from the measured correction
/// rate. Rates below the target walk the supply down (harvest margin);
/// rates above walk it back up (replay is eating the savings), capped at
/// the grid point.
#[derive(Debug, Clone)]
pub struct DvsController {
    /// Rung 0 is the grid operating point; higher indices are lower
    /// supplies, ending at the roster's NTC endpoint.
    levels: Vec<DvsLevel>,
    level: usize,
    window: u64,
    target_ppm: u64,
    /// Cycles into the current window.
    pos: u64,
    /// Corrections observed in the current window.
    corrections: u64,
    power_overhead: f64,
}

impl DvsController {
    /// Build a controller over an undervolting ladder.
    ///
    /// `levels[0]` must be the grid operating point (scale `1.0`); rungs
    /// must descend in voltage.
    ///
    /// # Panics
    ///
    /// Panics if the ladder is empty, the first rung's scale is not 1,
    /// the rungs are not strictly descending in voltage, or `window` is
    /// zero.
    pub fn new(levels: Vec<DvsLevel>, window: u64, target_ppm: u64) -> Self {
        assert!(!levels.is_empty(), "DVS ladder must have at least one rung");
        assert!(
            (levels[0].period_scale - 1.0).abs() < 1e-12,
            "rung 0 is the grid point (scale 1.0)"
        );
        assert!(
            levels
                .windows(2)
                .all(|w| w[1].vdd < w[0].vdd && w[1].period_scale < w[0].period_scale),
            "rungs must descend in voltage and effective-clock scale"
        );
        assert!(window > 0, "retune window must be nonzero");
        DvsController {
            levels,
            level: 0,
            window,
            target_ppm,
            pos: 0,
            corrections: 0,
            // The loop hardware: supply-rail control, the per-window error
            // counter and the comparator (far below HFG's sensor network).
            power_overhead: 0.006,
        }
    }

    /// The effective clock at the current rung.
    fn effective_clock(&self, base: ClockSpec) -> ClockSpec {
        let s = self.levels[self.level].period_scale;
        ClockSpec {
            period_ps: base.period_ps * s,
            hold_ps: base.hold_ps * s,
        }
    }

    /// Integer-exact rate comparison and rung move at the window boundary.
    fn retune(&mut self) {
        let scaled = self.corrections * 1_000_000;
        let target = self.target_ppm * self.window;
        if scaled > target {
            // Replay penalty is eating the savings: back toward the grid.
            self.level = self.level.saturating_sub(1);
        } else if scaled < target && self.level + 1 < self.levels.len() {
            // Margin left on the table: harvest another rung.
            self.level += 1;
        }
        self.pos = 0;
        self.corrections = 0;
    }

    /// Current supply rung (0 = the grid operating point).
    pub fn level(&self) -> usize {
        self.level
    }
}

impl ResilienceScheme for DvsController {
    fn name(&self) -> &'static str {
        "DVS"
    }

    fn on_cycle(&mut self, ctx: &CycleContext<'_>) -> CycleOutcome {
        let clock = self.effective_clock(ctx.base_clock);
        let outcome = match ctx.error_class_at(&clock) {
            Some(class) => {
                self.corrections += 1;
                CycleOutcome::Recovered { class }
            }
            None => CycleOutcome::Clean,
        };
        self.pos += 1;
        if self.pos >= self.window {
            self.retune();
        }
        outcome
    }

    fn power_overhead_frac(&self) -> f64 {
        self.power_overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag_delay::CycleDelays;
    use ntc_isa::{ErrorTag, Instruction, Opcode};

    fn ladder() -> Vec<DvsLevel> {
        vec![
            DvsLevel {
                vdd: 0.60,
                period_scale: 1.0,
            },
            DvsLevel {
                vdd: 0.55,
                period_scale: 0.80,
            },
            DvsLevel {
                vdd: 0.50,
                period_scale: 0.62,
            },
        ]
    }

    fn ctx<'a>(prev: &'a Instruction, cur: &'a Instruction, max: Option<f64>) -> CycleContext<'a> {
        CycleContext {
            prev,
            cur,
            tag: ErrorTag::of(prev, cur),
            delays: CycleDelays {
                min_ps: Some(50.0),
                max_ps: max,
            },
            next_delays: None,
            base_clock: ClockSpec {
                period_ps: 100.0,
                hold_ps: 10.0,
            },
            min_consumed: false,
        }
    }

    fn instrs() -> (Instruction, Instruction) {
        (
            Instruction::new(Opcode::Addu, 1, 2),
            Instruction::new(Opcode::Subu, 3, 4),
        )
    }

    #[test]
    fn clean_windows_walk_the_supply_down() {
        let (p, c) = instrs();
        // 90 ps delay: clean at rungs 0 (100 ps) and 1 (80 ps? no — 90>80:
        // errs). Use 70 ps: clean at rungs 0/1, errs at rung 2 (62 ps).
        let mut dvs = DvsController::new(ladder(), 10, DVS_TARGET_PPM);
        for _ in 0..10 {
            assert_eq!(dvs.on_cycle(&ctx(&p, &c, Some(70.0))), CycleOutcome::Clean);
        }
        assert_eq!(dvs.level(), 1, "one clean window harvests one rung");
        for _ in 0..10 {
            assert_eq!(dvs.on_cycle(&ctx(&p, &c, Some(70.0))), CycleOutcome::Clean);
        }
        assert_eq!(dvs.level(), 2, "still clean: bottom rung reached");
        // At the bottom rung 70 ps > 62 ps: every cycle corrects, and the
        // next boundary walks the supply back up.
        for _ in 0..10 {
            assert!(matches!(
                dvs.on_cycle(&ctx(&p, &c, Some(70.0))),
                CycleOutcome::Recovered { .. }
            ));
        }
        assert_eq!(dvs.level(), 1, "saturated correction rate backs off");
    }

    #[test]
    #[should_panic(expected = "descend in voltage")]
    fn ladder_must_descend() {
        let mut l = ladder();
        l[2].vdd = 0.58;
        let _ = DvsController::new(l, 10, DVS_TARGET_PPM);
    }
}
