//! Temperature and aging: the remaining letters of PVTA.
//!
//! The paper's baselines motivate them — HFG guardbands against process,
//! voltage, temperature *and aging*, and §3.3 notes that "newer timing
//! violations may arise or existing violations may magnify due to aging,
//! yet an existing choke point will continue to cause timing violations
//! for the entire lifetime of the chip". This module provides the
//! operating-condition model those statements need:
//!
//! * **Temperature** shifts the threshold voltage down (≈ −1 mV/K) and
//!   degrades carrier mobility; near threshold the Vth effect wins, so NTC
//!   circuits exhibit *inverted temperature dependence* — they get
//!   *faster* when hot. The model reproduces that inversion.
//! * **Aging** (BTI-style) drifts Vth upward with the log of stress time,
//!   slowing every gate — slightly, but enough to promote borderline
//!   paths into new choke paths over a chip's lifetime.

use crate::device::Corner;
use crate::signature::ChipSignature;
use ntc_netlist::Netlist;

/// Reference junction temperature, kelvin.
pub const T_REF_K: f64 = 300.0;

/// Threshold-voltage temperature coefficient, volts per kelvin.
pub const VTH_TEMP_COEFF: f64 = -1.0e-3;

/// Mobility temperature exponent: mobility ∝ (T/T_ref)^(−1.5).
pub const MOBILITY_EXPONENT: f64 = 1.5;

/// An operating condition beyond the supply corner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingCondition {
    /// Junction temperature, kelvin.
    pub temperature_k: f64,
    /// Accumulated stress time, hours (0 = fresh silicon).
    pub age_hours: f64,
}

impl OperatingCondition {
    /// Fresh silicon at the reference temperature.
    pub fn nominal() -> Self {
        OperatingCondition {
            temperature_k: T_REF_K,
            age_hours: 0.0,
        }
    }

    /// A hot condition (e.g. 360 K under load).
    pub fn hot() -> Self {
        OperatingCondition {
            temperature_k: 360.0,
            age_hours: 0.0,
        }
    }

    /// The BTI-style threshold drift after the accumulated stress, volts.
    ///
    /// Classic log-time dependence: ~15 mV after three years of continuous
    /// stress, scaled from a per-decade coefficient.
    pub fn aging_dvth(&self) -> f64 {
        if self.age_hours <= 0.0 {
            return 0.0;
        }
        // 6 mV per decade of hours, anchored at 1 hour.
        6.0e-3 * (1.0 + self.age_hours).log10()
    }

    /// Delay multiplier this condition applies on top of a gate's
    /// process-variation multiplier, at the given corner.
    ///
    /// Combines the mobility slowdown (hotter → slower) with the
    /// Vth-driven speedup (hotter → lower Vth → faster) and the aging
    /// drift (older → higher Vth → slower). Near threshold the Vth term
    /// dominates, inverting the usual temperature dependence. The Vth term
    /// is the corner's [`Corner::variation_multiplier`] of the combined
    /// threshold shift.
    ///
    /// # Panics
    ///
    /// Panics if the corner's supply is at or below
    /// [`MIN_VDD`](crate::device::MIN_VDD).
    pub fn delay_multiplier(&self, corner: Corner) -> f64 {
        let dvth = VTH_TEMP_COEFF * (self.temperature_k - T_REF_K) + self.aging_dvth();
        let mobility_term = (self.temperature_k / T_REF_K).powf(MOBILITY_EXPONENT);
        corner.variation_multiplier(dvth) * mobility_term
    }
}

impl Default for OperatingCondition {
    fn default() -> Self {
        Self::nominal()
    }
}

/// Re-derive a chip signature under a new operating condition: every
/// gate's post-silicon delay is scaled by the condition's multiplier
/// (process variation is per-gate; temperature and aging act globally in
/// this first-order model).
///
/// # Panics
///
/// Panics if the signature does not match the netlist.
pub fn at_condition(
    nl: &Netlist,
    sig: &ChipSignature,
    condition: OperatingCondition,
) -> ChipSignature {
    assert_eq!(
        sig.delays_ps().len(),
        nl.len(),
        "signature/netlist mismatch"
    );
    let m = condition.delay_multiplier(sig.corner());
    let mut out = sig.clone();
    let indices: Vec<usize> = nl
        .gates()
        .iter()
        .enumerate()
        .filter(|(_, g)| !g.kind().is_pseudo())
        .map(|(i, _)| i)
        .collect();
    for i in indices {
        let scaled = sig.multiplier(i) * m;
        out.inject_choke(&[i], scaled);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variation::VariationParams;
    use ntc_netlist::generators::alu::Alu;

    #[test]
    fn nominal_condition_is_identity() {
        let c = OperatingCondition::nominal();
        assert!((c.delay_multiplier(Corner::NTC) - 1.0).abs() < 1e-12);
        assert_eq!(c.aging_dvth(), 0.0);
    }

    #[test]
    #[should_panic(expected = "below the 0.058 V floor")]
    fn sub_floor_corner_is_rejected_not_inverted() {
        // A struct-literal corner at 50 mV used to reach the raw clamp,
        // whose window [0.05, vdd - 0.008] is inverted there.
        let rogue = Corner {
            vdd: 0.05,
            name: "rogue",
        };
        let _ = OperatingCondition::nominal().delay_multiplier(rogue);
    }

    #[test]
    fn ntc_shows_inverted_temperature_dependence() {
        // Hotter chips run FASTER near threshold (Vth drop dominates),
        // and SLOWER at super-threshold (mobility dominates).
        let hot = OperatingCondition::hot();
        assert!(
            hot.delay_multiplier(Corner::NTC) < 1.0,
            "NTC inversion: {:.3}",
            hot.delay_multiplier(Corner::NTC)
        );
        assert!(
            hot.delay_multiplier(Corner::STC) > 1.0,
            "STC normal dependence: {:.3}",
            hot.delay_multiplier(Corner::STC)
        );
    }

    #[test]
    fn aging_slows_monotonically() {
        let fresh = OperatingCondition::nominal();
        let year = OperatingCondition {
            age_hours: 8760.0,
            ..fresh
        };
        let three_years = OperatingCondition {
            age_hours: 3.0 * 8760.0,
            ..fresh
        };
        let m1 = year.delay_multiplier(Corner::NTC);
        let m3 = three_years.delay_multiplier(Corner::NTC);
        assert!(m1 > 1.0);
        assert!(m3 > m1, "aging is monotone: {m1:.3} vs {m3:.3}");
        // Drift magnitude is tens of millivolts, not volts.
        assert!(three_years.aging_dvth() > 0.01 && three_years.aging_dvth() < 0.05);
    }

    #[test]
    fn condition_rescales_whole_signature() {
        let alu = Alu::new(8);
        let sig = ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), 3);
        let aged_cond = OperatingCondition {
            age_hours: 10_000.0,
            ..OperatingCondition::nominal()
        };
        let aged = at_condition(alu.netlist(), &sig, aged_cond);
        let m = aged_cond.delay_multiplier(Corner::NTC);
        for (i, g) in alu.netlist().gates().iter().enumerate() {
            if g.kind().is_pseudo() {
                continue;
            }
            assert!(
                (aged.delay_ps(i) - sig.delay_ps(i) * m).abs() < 1e-6,
                "gate {i} rescaled"
            );
        }
    }

    #[test]
    fn existing_choke_points_persist_with_age() {
        // Section 3.3: aging magnifies violations but existing choke
        // points remain choke points.
        let alu = Alu::new(8);
        let sig = ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), 9);
        let chokes_fresh = sig.slow_choke_gates();
        let aged = at_condition(
            alu.netlist(),
            &sig,
            OperatingCondition {
                age_hours: 20_000.0,
                ..OperatingCondition::nominal()
            },
        );
        let chokes_aged = aged.slow_choke_gates();
        for g in &chokes_fresh {
            assert!(chokes_aged.contains(g), "choke gate {g} persists");
        }
        assert!(
            chokes_aged.len() >= chokes_fresh.len(),
            "aging adds, never removes"
        );
    }
}
