//! The common interface every timing-error resilience scheme implements,
//! plus the per-cycle context/outcome vocabulary the simulator speaks.

use ntc_isa::{ErrorTag, Instruction};
use ntc_timing::{classify_cycle, ClockSpec, CycleDelays, CycleViolation, ErrorClass};

/// Everything a scheme may inspect about the cycle being executed.
#[derive(Debug, Clone, Copy)]
pub struct CycleContext<'a> {
    /// The initializing (previous-cycle) instruction.
    pub prev: &'a Instruction,
    /// The sensitizing (current) instruction.
    pub cur: &'a Instruction,
    /// The DCS four-part error tag of the pair.
    pub tag: ErrorTag,
    /// Raw sensitized delays of this cycle on this chip.
    pub delays: CycleDelays,
    /// Raw sensitized delays of the *next* cycle (for consecutive-error
    /// detection); `None` at the end of the stream.
    pub next_delays: Option<CycleDelays>,
    /// The nominal (unstretched) clock.
    pub base_clock: ClockSpec,
    /// This cycle's min violation was already absorbed into the previous
    /// cycle's consecutive error (and handled there); it must not be
    /// charged twice.
    pub min_consumed: bool,
}

impl CycleContext<'_> {
    /// Violation this cycle would suffer at a given clock, with a
    /// CE-consumed min violation masked out.
    pub fn violation_at(&self, clock: &ClockSpec) -> CycleViolation {
        let mut v = classify_cycle(self.delays, clock);
        if self.min_consumed {
            v.min = false;
        }
        v
    }

    /// Whether the next cycle would suffer a *min* violation at a clock
    /// (the second half of a consecutive error).
    pub fn next_min_at(&self, clock: &ClockSpec) -> bool {
        self.next_delays
            .is_some_and(|d| classify_cycle(d, clock).min)
    }

    /// The Trident error class of this cycle at a clock, if any.
    pub fn error_class_at(&self, clock: &ClockSpec) -> Option<ErrorClass> {
        ntc_timing::classify_stream(self.violation_at(clock), self.next_min_at(clock))
    }
}

/// What the scheme did with the cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleOutcome {
    /// No violation (at the scheme's effective clock); normal execution.
    Clean,
    /// The scheme stalled the pipeline to pre-empt a predicted error.
    /// `needed` is false when no error would actually have occurred (a
    /// false-positive prediction: the stall is pure overhead, §3.3.5).
    Avoided {
        /// Stall cycles inserted.
        stalls: u64,
        /// Whether an error would really have occurred.
        needed: bool,
    },
    /// The scheme detected the error after the fact and recovered with a
    /// pipeline flush + instruction replay.
    Recovered {
        /// The detected error class.
        class: ErrorClass,
    },
    /// A violation occurred that this scheme cannot even detect (e.g. a
    /// choke-buffer-induced minimum violation under Razor): wrong data is
    /// silently latched. No penalty cycles, but a correctness failure.
    SilentCorruption,
}

/// A timing-error resilience scheme under evaluation.
pub trait ResilienceScheme {
    /// Scheme name as used in the figures.
    fn name(&self) -> &'static str;

    /// Process one cycle and report the outcome.
    fn on_cycle(&mut self, ctx: &CycleContext<'_>) -> CycleOutcome;

    /// Constant clock-period stretch this scheme imposes (1.0 = nominal;
    /// guardbanding schemes run slower clocks).
    fn period_stretch(&self) -> f64 {
        1.0
    }

    /// Always-on power of the scheme's hardware as a fraction of core
    /// power (fed by the overhead tables).
    fn power_overhead_frac(&self) -> f64 {
        0.0
    }
}
