//! Device-layer delay model: the HSPICE + predictive-technology-model
//! substitute.
//!
//! A gate's propagation delay is modelled with the alpha-power law,
//! `t_pd ∝ Vdd / (Vdd − Vth)^α`, which captures the property everything in
//! this study rests on: near threshold, `Vdd − Vth` is small, so the *same*
//! threshold-voltage variation produces enormously larger delay variation
//! than at super-threshold. The paper reports ~10× nominal slowdown and up
//! to ~20× PV-induced delay spread at NTC; this model reproduces both.

use std::fmt;

/// Velocity-saturation exponent for a 16 nm-class FinFET.
pub const ALPHA: f64 = 1.5;

/// Nominal threshold voltage (volts) of the 16 nm-class device.
pub const VTH_NOMINAL: f64 = 0.38;

/// Lowest supply voltage (volts) at which the delay-multiplier paths are
/// defined. Both [`Corner::variation_multiplier`] and the PVTA layer clamp
/// the effective threshold voltage into `[0.05 V, vdd − 8 mV]`; at
/// `vdd ≤ 0.058 V` that window inverts (its ceiling drops below its
/// floor) and the alpha-power law has no safe evaluation point, so such
/// corners are rejected at construction instead.
pub const MIN_VDD: f64 = 0.058;

/// An operating corner: a supply voltage with helper constructors for the
/// two corners the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Corner {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Human-readable corner name ("STC" / "NTC" for the stock corners).
    pub name: &'static str,
}

impl Corner {
    /// Super-threshold corner: 0.8 V (the paper's STC setting).
    pub const STC: Corner = Corner {
        vdd: 0.8,
        name: "STC",
    };

    /// Near-threshold corner: 0.45 V (the paper's NTC setting).
    pub const NTC: Corner = Corner {
        vdd: 0.45,
        name: "NTC",
    };

    /// A custom supply voltage.
    ///
    /// # Panics
    ///
    /// Panics unless `vdd` exceeds the nominal threshold voltage (which
    /// itself sits far above the [`MIN_VDD`] floor where the Vth clamp
    /// window of the delay-multiplier paths would invert).
    pub fn custom(vdd: f64) -> Corner {
        assert!(
            vdd > MIN_VDD,
            "supply voltage {vdd} V inverts the Vth clamp window (floor {MIN_VDD} V)"
        );
        assert!(
            vdd > VTH_NOMINAL + 0.02,
            "supply voltage {vdd} V must stay above Vth = {VTH_NOMINAL} V"
        );
        Corner {
            vdd,
            name: "custom",
        }
    }

    /// Re-check the [`MIN_VDD`] floor on the delay paths: `Corner`'s
    /// fields are public, so struct-literal corners bypass
    /// [`Corner::custom`]'s validation. Failing loudly here replaces the
    /// silent alpha-power-law inversion (or bare `clamp` panic) the raw
    /// formula would produce.
    fn assert_operable(&self) {
        assert!(
            self.vdd > MIN_VDD,
            "corner {} at {} V is below the {MIN_VDD} V floor: the Vth clamp \
             window [0.05, vdd - 0.008] is inverted",
            self.name,
            self.vdd
        );
    }

    /// Alpha-power-law delay factor relative to the STC corner: how much a
    /// gate slows down at this supply voltage with the nominal Vth.
    pub fn delay_factor(&self) -> f64 {
        delay_scale(self.vdd, VTH_NOMINAL) / delay_scale(Corner::STC.vdd, VTH_NOMINAL)
    }

    /// Delay multiplier (relative to this corner's nominal) for a device
    /// whose threshold voltage deviates by `dvth` volts.
    ///
    /// Positive `dvth` (higher threshold) slows the gate; negative speeds
    /// it up. Near threshold the sensitivity is dramatically larger: this
    /// single formula is the source of the STC/NTC asymmetry in every
    /// figure.
    pub fn variation_multiplier(&self, dvth: f64) -> f64 {
        self.assert_operable();
        let vth = (VTH_NOMINAL + dvth).clamp(0.05, self.vdd - 0.008);
        delay_scale(self.vdd, vth) / delay_scale(self.vdd, VTH_NOMINAL)
    }

    /// Dynamic-energy scale relative to STC (`∝ Vdd²`).
    pub fn energy_factor(&self) -> f64 {
        (self.vdd / Corner::STC.vdd).powi(2)
    }
}

impl fmt::Display for Corner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({:.2} V)", self.name, self.vdd)
    }
}

/// Raw alpha-power-law delay scale `Vdd / (Vdd − Vth)^α`.
#[inline]
pub fn delay_scale(vdd: f64, vth: f64) -> f64 {
    vdd / (vdd - vth).powf(ALPHA)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ntc_is_roughly_ten_times_slower() {
        let f = Corner::NTC.delay_factor();
        assert!(
            (5.0..20.0).contains(&f),
            "NTC slowdown {f:.1}x should be order-10x"
        );
        assert!((Corner::STC.delay_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn variation_sensitivity_amplified_at_ntc() {
        // The same +30 mV Vth shift must hurt far more at NTC.
        let dvth = 0.03;
        let stc = Corner::STC.variation_multiplier(dvth);
        let ntc = Corner::NTC.variation_multiplier(dvth);
        assert!(stc > 1.0 && ntc > 1.0);
        assert!(
            (ntc - 1.0) > 4.0 * (stc - 1.0),
            "NTC multiplier {ntc:.3} vs STC {stc:.3}"
        );
    }

    #[test]
    fn negative_dvth_speeds_up() {
        assert!(Corner::NTC.variation_multiplier(-0.03) < 1.0);
        assert!(Corner::STC.variation_multiplier(-0.03) < 1.0);
    }

    #[test]
    fn extreme_dvth_is_clamped_not_nan() {
        let m = Corner::NTC.variation_multiplier(0.5);
        assert!(m.is_finite() && m > 1.0);
        let m = Corner::NTC.variation_multiplier(-0.5);
        assert!(m.is_finite() && m > 0.0);
    }

    #[test]
    fn twenty_x_spread_is_reachable_at_ntc() {
        // A strongly slow device (e.g. +3 sigma systematic + random) can
        // reach the ~20x delay deviation the paper cites.
        let m = Corner::NTC.variation_multiplier(0.09);
        assert!(m > 3.0, "+90 mV at NTC gives {m:.1}x");
        let stress = Corner::NTC.variation_multiplier(0.13);
        assert!(stress > 6.0);
    }

    #[test]
    fn energy_factor_quadratic() {
        assert!((Corner::NTC.energy_factor() - (0.45f64 / 0.8).powi(2)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must stay above")]
    fn custom_corner_validates_vdd() {
        let _ = Corner::custom(0.2);
    }

    #[test]
    #[should_panic(expected = "inverts the Vth clamp window")]
    fn custom_corner_rejects_clamp_inverting_vdd() {
        // At vdd <= 0.058 V the clamp ceiling (vdd - 8 mV) drops below
        // the 0.05 V floor — the alpha-power law would silently invert
        // (or the clamp panic with an unhelpful message); construction
        // must reject it outright.
        let _ = Corner::custom(0.05);
    }

    #[test]
    #[should_panic(expected = "below the 0.058 V floor")]
    fn struct_literal_corner_below_floor_fails_loudly() {
        // Public fields let a literal bypass `custom`; the delay path
        // still refuses to evaluate an inverted clamp window.
        let rogue = Corner {
            vdd: 0.05,
            name: "rogue",
        };
        let _ = rogue.variation_multiplier(0.01);
    }
}
