//! The comparison baselines: Razor (reactive detect + recover), HFG
//! (proactive adaptive guardbanding) and OCST (online clock-skew tuning).
//! All three are state-of-the-art STC techniques the paper shows to be
//! inefficient against choke errors at NTC.

use crate::scheme::{CycleContext, CycleOutcome, ResilienceScheme};
use ntc_timing::ErrorClass;

/// Razor: double-sampling flip-flops detect late transitions; recovery is
/// a full pipeline flush + instruction replay. Short paths are padded with
/// buffers at design time to protect the shadow-latch window — which is
/// exactly what choke buffers defeat at NTC: a minimum-timing violation
/// slips past the detector and silently corrupts state.
#[derive(Debug, Clone)]
pub struct Razor {
    /// Whether min-side violations can occur in this experiment's netlist
    /// (Ch. 4 uses the buffered EX stage where choke buffers break the
    /// hold fix; Ch. 3 studies the max side only).
    detect_min_as_corruption: bool,
    power_overhead: f64,
}

impl Razor {
    /// Razor as evaluated in Ch. 3 (maximum-timing violations only).
    pub fn ch3() -> Self {
        Razor {
            detect_min_as_corruption: false,
            power_overhead: 0.004,
        }
    }

    /// Razor as evaluated in Ch. 4: minimum violations exist (choke
    /// buffers) and pass undetected.
    pub fn ch4() -> Self {
        Razor {
            detect_min_as_corruption: true,
            power_overhead: 0.004,
        }
    }
}

impl ResilienceScheme for Razor {
    fn name(&self) -> &'static str {
        "Razor"
    }

    fn on_cycle(&mut self, ctx: &CycleContext<'_>) -> CycleOutcome {
        let v = ctx.violation_at(&ctx.base_clock);
        if v.max {
            // The shadow latch catches the late transition; flush + replay.
            CycleOutcome::Recovered {
                class: ErrorClass::SingleMax,
            }
        } else if v.min && self.detect_min_as_corruption {
            // Choke buffer defeated the hold fix: silent corruption.
            CycleOutcome::SilentCorruption
        } else {
            CycleOutcome::Clean
        }
    }

    fn power_overhead_frac(&self) -> f64 {
        self.power_overhead
    }
}

/// The selective-hardening ablation: Razor detection on a die whose top-k
/// slow choke gates were hardened (de-rated to the nominal delay) before
/// fabrication. The hardening itself lives in the experiment harness —
/// the delay oracle is built from a de-rated chip signature — so this
/// wrapper only renames the scheme for the figures and charges the
/// upsized gates' always-on power on top of Razor's shadow latches.
#[derive(Debug, Clone)]
pub struct HardenedRazor {
    inner: Razor,
    power_overhead: f64,
}

impl HardenedRazor {
    /// Razor over a die with `top_k` hardened choke gates. The per-gate
    /// upsizing power is small and saturates: hardening beyond the few
    /// genuine choke gates buys nothing but leakage.
    pub fn new(top_k: usize) -> Self {
        let inner = Razor::ch3();
        let hardening = 0.0005 * top_k.min(32) as f64;
        let power_overhead = inner.power_overhead + hardening;
        HardenedRazor {
            inner,
            power_overhead,
        }
    }
}

impl ResilienceScheme for HardenedRazor {
    fn name(&self) -> &'static str {
        "Harden-choke"
    }

    fn on_cycle(&mut self, ctx: &CycleContext<'_>) -> CycleOutcome {
        self.inner.on_cycle(ctx)
    }

    fn power_overhead_frac(&self) -> f64 {
        self.power_overhead
    }
}

/// Hierarchically Focused Guardbanding: in-situ PVTA sensors drive an
/// adaptive timing guardband wide enough that errors never occur. No
/// recovery penalty — but every single cycle pays the stretched clock, and
/// the sensor network burns power (§3.5.1).
#[derive(Debug, Clone)]
pub struct Hfg {
    stretch: f64,
    power_overhead: f64,
}

impl Hfg {
    /// HFG with the guardband required to cover the chip's observed
    /// worst-case sensitized delay, expressed as a period stretch factor.
    ///
    /// # Panics
    ///
    /// Panics if `stretch < 1.0` (a guardband cannot shrink the period).
    pub fn with_stretch(stretch: f64) -> Self {
        assert!(stretch >= 1.0, "guardband stretch must be >= 1.0");
        Hfg {
            stretch,
            // The hierarchical PVTA sensor network, its sampling logic and
            // the guardband controller are distributed across every block
            // of the chip — the "considerably high power overhead" the
            // paper attributes to HFG (Section 3.5.1).
            power_overhead: 0.10,
        }
    }
}

impl ResilienceScheme for Hfg {
    fn name(&self) -> &'static str {
        "HFG"
    }

    fn on_cycle(&mut self, ctx: &CycleContext<'_>) -> CycleOutcome {
        // The guardbanded clock covers even worst-case choke delays.
        let clock = ctx.base_clock.stretched(self.stretch);
        let v = ctx.violation_at(&clock);
        if v.max {
            // Guardband insufficient for an extreme outlier: recover.
            CycleOutcome::Recovered {
                class: ErrorClass::SingleMax,
            }
        } else {
            CycleOutcome::Clean
        }
    }

    fn period_stretch(&self) -> f64 {
        self.stretch
    }

    fn power_overhead_frac(&self) -> f64 {
        self.power_overhead
    }
}

/// Online Clock-Skew Tuning: the circuit is observed in fixed intervals
/// (100 000 cycles in the paper); blocks whose error frequency crosses a
/// threshold get their clock skew tuned to grant extra time, borrowed from
/// neighbouring stages up to a cap. Errors during observation are handled
/// Razor-style; min-side violations still rely on buffers.
#[derive(Debug, Clone)]
pub struct Ocst {
    /// Tuning interval, cycles.
    interval: u64,
    /// Maximum skew slack as a fraction of the clock period.
    max_slack_frac: f64,
    /// Current granted slack, ps.
    slack_ps: f64,
    /// Cycles into the current interval.
    pos: u64,
    /// Max-violation overshoots observed this interval, ps.
    overshoots: Vec<f64>,
    power_overhead: f64,
}

impl Ocst {
    /// OCST with the paper's 100 k-cycle tuning interval and a skew budget
    /// of `max_slack_frac` of the period.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero or the slack fraction is negative.
    pub fn new(interval: u64, max_slack_frac: f64) -> Self {
        assert!(interval > 0, "tuning interval must be nonzero");
        assert!(max_slack_frac >= 0.0, "slack fraction must be non-negative");
        Ocst {
            interval,
            max_slack_frac,
            slack_ps: 0.0,
            pos: 0,
            overshoots: Vec::new(),
            power_overhead: 0.008,
        }
    }

    /// The paper's configuration: tune every 100 000 cycles.
    pub fn paper() -> Self {
        Ocst::new(100_000, 0.30)
    }

    /// Currently granted skew slack, ps.
    pub fn slack_ps(&self) -> f64 {
        self.slack_ps
    }

    fn retune(&mut self, period_ps: f64) {
        if !self.overshoots.is_empty() {
            // Grant enough slack to cover the 90th percentile of observed
            // overshoots, within the skew budget.
            self.overshoots.sort_by(f64::total_cmp);
            let idx = ((self.overshoots.len() as f64) * 0.9) as usize;
            let target = self.overshoots[idx.min(self.overshoots.len() - 1)];
            self.slack_ps = target.min(period_ps * self.max_slack_frac);
        }
        self.overshoots.clear();
    }
}

impl ResilienceScheme for Ocst {
    fn name(&self) -> &'static str {
        "OCST"
    }

    fn on_cycle(&mut self, ctx: &CycleContext<'_>) -> CycleOutcome {
        let outcome = self.process(ctx);
        // Tuning happens at the interval boundary, after the interval's
        // observations are complete.
        self.pos += 1;
        if self.pos >= self.interval {
            self.pos = 0;
            self.retune(ctx.base_clock.period_ps);
        }
        outcome
    }

    fn power_overhead_frac(&self) -> f64 {
        self.power_overhead
    }
}

impl Ocst {
    fn process(&mut self, ctx: &CycleContext<'_>) -> CycleOutcome {
        let base = ctx.violation_at(&ctx.base_clock);
        if let Some(max_d) = ctx.delays.max_ps {
            let overshoot = max_d - ctx.base_clock.period_ps;
            if overshoot > 0.0 {
                self.overshoots.push(overshoot);
                return if overshoot <= self.slack_ps {
                    // Covered by the tuned skew: executes cleanly.
                    CycleOutcome::Clean
                } else {
                    CycleOutcome::Recovered {
                        class: ErrorClass::SingleMax,
                    }
                };
            }
        }
        if base.min {
            CycleOutcome::SilentCorruption
        } else {
            CycleOutcome::Clean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::CycleContext;
    use crate::tag_delay::CycleDelays;
    use ntc_isa::{ErrorTag, Instruction, Opcode};
    use ntc_timing::ClockSpec;

    fn ctx<'a>(
        prev: &'a Instruction,
        cur: &'a Instruction,
        min: Option<f64>,
        max: Option<f64>,
    ) -> CycleContext<'a> {
        CycleContext {
            prev,
            cur,
            tag: ErrorTag::of(prev, cur),
            delays: CycleDelays {
                min_ps: min,
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

    fn instrs() -> (Instruction, Instruction) {
        (
            Instruction::new(Opcode::Addu, 1, 2),
            Instruction::new(Opcode::Subu, 3, 4),
        )
    }

    #[test]
    fn razor_recovers_max_violations() {
        let (p, c) = instrs();
        let mut r = Razor::ch3();
        assert_eq!(
            r.on_cycle(&ctx(&p, &c, Some(50.0), Some(150.0))),
            CycleOutcome::Recovered {
                class: ErrorClass::SingleMax
            }
        );
        assert_eq!(
            r.on_cycle(&ctx(&p, &c, Some(50.0), Some(90.0))),
            CycleOutcome::Clean
        );
    }

    #[test]
    fn razor_ch4_misses_min_violations() {
        let (p, c) = instrs();
        let mut r = Razor::ch4();
        assert_eq!(
            r.on_cycle(&ctx(&p, &c, Some(5.0), Some(90.0))),
            CycleOutcome::SilentCorruption
        );
        let mut r3 = Razor::ch3();
        assert_eq!(
            r3.on_cycle(&ctx(&p, &c, Some(5.0), Some(90.0))),
            CycleOutcome::Clean
        );
    }

    #[test]
    fn hardened_razor_detects_like_ch3_and_charges_hardening_power() {
        let (p, c) = instrs();
        let mut h = HardenedRazor::new(8);
        assert_eq!(h.name(), "Harden-choke");
        assert!(matches!(
            h.on_cycle(&ctx(&p, &c, Some(50.0), Some(150.0))),
            CycleOutcome::Recovered { .. }
        ));
        assert_eq!(
            h.on_cycle(&ctx(&p, &c, Some(5.0), Some(90.0))),
            CycleOutcome::Clean
        );
        // More hardened gates cost more power, saturating past 32.
        assert!(HardenedRazor::new(16).power_overhead_frac() > h.power_overhead_frac());
        assert_eq!(
            HardenedRazor::new(64).power_overhead_frac(),
            HardenedRazor::new(32).power_overhead_frac()
        );
        assert!(h.power_overhead_frac() > Razor::ch3().power_overhead_frac());
    }

    #[test]
    fn hfg_avoids_errors_by_stretching() {
        let (p, c) = instrs();
        let mut h = Hfg::with_stretch(1.6);
        // 150 ps < 160 ps stretched period: clean, but at a slower clock.
        assert_eq!(
            h.on_cycle(&ctx(&p, &c, Some(50.0), Some(150.0))),
            CycleOutcome::Clean
        );
        assert!(h.period_stretch() > 1.0);
        // An extreme outlier still escapes the guardband.
        assert!(matches!(
            h.on_cycle(&ctx(&p, &c, Some(50.0), Some(170.0))),
            CycleOutcome::Recovered { .. }
        ));
    }

    #[test]
    #[should_panic(expected = ">= 1.0")]
    fn hfg_rejects_negative_guardband() {
        let _ = Hfg::with_stretch(0.9);
    }

    #[test]
    fn ocst_learns_slack_after_interval() {
        let (p, c) = instrs();
        let mut o = Ocst::new(10, 0.5);
        // First interval: all overshoots recovered Razor-style.
        for _ in 0..10 {
            let out = o.on_cycle(&ctx(&p, &c, Some(50.0), Some(120.0)));
            assert!(matches!(out, CycleOutcome::Recovered { .. }));
        }
        // Tuning happened; 20 ps overshoot now covered.
        assert!(o.slack_ps() >= 20.0 - 1e-9);
        let out = o.on_cycle(&ctx(&p, &c, Some(50.0), Some(120.0)));
        assert_eq!(out, CycleOutcome::Clean);
        // A bigger overshoot still fails.
        let out = o.on_cycle(&ctx(&p, &c, Some(50.0), Some(200.0)));
        assert!(matches!(out, CycleOutcome::Recovered { .. }));
    }

    #[test]
    fn ocst_slack_is_capped() {
        let (p, c) = instrs();
        let mut o = Ocst::new(4, 0.1); // cap at 10 ps
        for _ in 0..8 {
            let _ = o.on_cycle(&ctx(&p, &c, Some(50.0), Some(180.0)));
        }
        assert!(o.slack_ps() <= 10.0 + 1e-9);
    }

    #[test]
    fn ocst_min_violations_corrupt() {
        let (p, c) = instrs();
        let mut o = Ocst::paper();
        assert_eq!(
            o.on_cycle(&ctx(&p, &c, Some(3.0), Some(90.0))),
            CycleOutcome::SilentCorruption
        );
    }
}
