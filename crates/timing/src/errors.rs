//! Timing-violation classification against a clock specification.
//!
//! A cycle's min/max output arrivals ([`CycleDelays`], from
//! [`SimWorkspace::simulate_pair_minmax`](crate::SimWorkspace::simulate_pair_minmax)
//! or the delay oracle that caches them) are checked against two
//! constraints by [`classify_cycle`], the one violation rule:
//!
//! * the **setup/maximum** constraint — no output transition may occur
//!   after the clock period `T`;
//! * the **hold/minimum** constraint — no output transition may occur
//!   before the minimum-path-delay bound `T_min` (the window in which the
//!   capturing flop / Razor shadow latch still holds the *previous* value).
//!
//! Trident further classifies errors by the number of illegal transitions
//! in one detection-clock cycle: a Single Error (one illegal transition,
//! min- or max-induced) or a Consecutive Error (a max violation immediately
//! followed by a min violation of the next instruction).

use crate::dynamic::CycleDelays;
use std::fmt;

/// Clock specification for a pipestage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockSpec {
    /// Clock period, ps.
    pub period_ps: f64,
    /// Minimum path-delay constraint (hold window), ps.
    pub hold_ps: f64,
}

impl ClockSpec {
    /// A clock derived from a nominal critical delay with a guardband
    /// margin and a hold window expressed as a fraction of the period.
    ///
    /// # Panics
    ///
    /// Panics if the resulting hold window is not below the period.
    pub fn from_critical_delay(nominal_critical_ps: f64, guardband: f64, hold_frac: f64) -> Self {
        let period = nominal_critical_ps * (1.0 + guardband);
        let hold = period * hold_frac;
        assert!(hold < period, "hold window must be below the clock period");
        ClockSpec {
            period_ps: period,
            hold_ps: hold,
        }
    }

    /// Stretch the period by `factor` (used by guardbanding schemes like
    /// HFG and by OCST's skew tuning).
    pub fn stretched(&self, factor: f64) -> ClockSpec {
        ClockSpec {
            period_ps: self.period_ps * factor,
            hold_ps: self.hold_ps,
        }
    }
}

/// Which constraints one cycle violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleViolation {
    /// An output transitioned before the hold window closed.
    pub min: bool,
    /// An output transitioned after the clock period.
    pub max: bool,
}

impl CycleViolation {
    /// Whether any constraint was violated.
    #[inline]
    pub fn any(&self) -> bool {
        self.min || self.max
    }
}

/// Error class as detected by Trident's transition detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorClass {
    /// Single error caused by a minimum-timing violation.
    SingleMin,
    /// Single error caused by a maximum-timing violation.
    SingleMax,
    /// Consecutive error: a maximum violation immediately followed by a
    /// minimum violation within one detection window (two illegal
    /// transitions).
    Consecutive,
}

impl ErrorClass {
    /// Number of error classes (the size of per-class count arrays).
    pub const COUNT: usize = 3;

    /// Every class, ordered by [`ErrorClass::index`].
    pub const ALL: [ErrorClass; ErrorClass::COUNT] = [
        ErrorClass::SingleMin,
        ErrorClass::SingleMax,
        ErrorClass::Consecutive,
    ];

    /// Dense index of this class into a `[T; ErrorClass::COUNT]` array.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Number of stall cycles Trident's avoidance mechanism inserts for
    /// this class (one illegal transition → one stall, two → two).
    #[inline]
    pub fn stall_cycles(self) -> u64 {
        match self {
            ErrorClass::SingleMin | ErrorClass::SingleMax => 1,
            ErrorClass::Consecutive => 2,
        }
    }
}

impl fmt::Display for ErrorClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ErrorClass::SingleMin => "SE(Min)",
            ErrorClass::SingleMax => "SE(Max)",
            ErrorClass::Consecutive => "CE",
        })
    }
}

/// Classify one simulated cycle's delays against a clock specification.
/// A quiet cycle (no output toggled) violates nothing.
pub fn classify_cycle(delays: CycleDelays, clock: &ClockSpec) -> CycleViolation {
    CycleViolation {
        min: delays.min_ps.is_some_and(|d| d < clock.hold_ps),
        max: delays.max_ps.is_some_and(|d| d > clock.period_ps),
    }
}

/// Classify a *pair* of consecutive cycle violations into Trident's error
/// classes:
///
/// * this cycle max + next cycle min → [`ErrorClass::Consecutive`] (the
///   late transition and the next instruction's early transition land in
///   one detection window);
/// * otherwise a lone violation maps to the corresponding single error.
///
/// Returns the class chargeable to *this* cycle (a `Consecutive` consumes
/// the next cycle's min violation; the caller must not double-count it).
pub fn classify_stream(current: CycleViolation, next_min: bool) -> Option<ErrorClass> {
    match (current.max, current.min) {
        (true, _) if next_min => Some(ErrorClass::Consecutive),
        (true, _) => Some(ErrorClass::SingleMax),
        (false, true) => Some(ErrorClass::SingleMin),
        (false, false) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delays(min_ps: Option<f64>, max_ps: Option<f64>) -> CycleDelays {
        CycleDelays { min_ps, max_ps }
    }

    fn clock() -> ClockSpec {
        ClockSpec {
            period_ps: 100.0,
            hold_ps: 15.0,
        }
    }

    #[test]
    fn classify_min_max_none() {
        let c = clock();
        let v = classify_cycle(delays(Some(10.0), Some(90.0)), &c);
        assert!(v.min && !v.max && v.any());
        let v = classify_cycle(delays(Some(20.0), Some(120.0)), &c);
        assert!(!v.min && v.max);
        let v = classify_cycle(delays(Some(20.0), Some(90.0)), &c);
        assert!(!v.any());
        // Quiet cycle: no transitions, no violations.
        let v = classify_cycle(delays(None, None), &c);
        assert!(!v.any());
        // Early and late in one cycle: both sides violated.
        let v = classify_cycle(delays(Some(5.0), Some(120.0)), &c);
        assert!(v.min && v.max);
    }

    #[test]
    fn stream_classification() {
        use ErrorClass::*;
        let max_v = CycleViolation { min: false, max: true };
        let min_v = CycleViolation { min: true, max: false };
        let none = CycleViolation::default();
        assert_eq!(classify_stream(max_v, true), Some(Consecutive));
        assert_eq!(classify_stream(max_v, false), Some(SingleMax));
        assert_eq!(classify_stream(min_v, false), Some(SingleMin));
        assert_eq!(classify_stream(min_v, true), Some(SingleMin));
        assert_eq!(classify_stream(none, true), None);
    }

    #[test]
    fn stall_budget_per_class() {
        assert_eq!(ErrorClass::SingleMin.stall_cycles(), 1);
        assert_eq!(ErrorClass::SingleMax.stall_cycles(), 1);
        assert_eq!(ErrorClass::Consecutive.stall_cycles(), 2);
    }

    #[test]
    fn clock_from_critical_delay() {
        let c = ClockSpec::from_critical_delay(200.0, 0.1, 0.15);
        assert!((c.period_ps - 220.0).abs() < 1e-9);
        assert!((c.hold_ps - 33.0).abs() < 1e-9);
        let s = c.stretched(1.5);
        assert!((s.period_ps - 330.0).abs() < 1e-9);
        assert!((s.hold_ps - c.hold_ps).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "hold window")]
    fn hold_must_be_below_period() {
        let _ = ClockSpec::from_critical_delay(100.0, 0.0, 1.5);
    }
}
