//! Aging: the last letter of PVTA.
//!
//! The paper's baselines motivate it — HFG guardbands against process,
//! voltage, temperature *and aging*, and §3.3 notes that "newer timing
//! violations may arise or existing violations may magnify due to aging,
//! yet an existing choke point will continue to cause timing violations
//! for the entire lifetime of the chip". Aging (BTI-style) drifts Vth
//! upward with the log of stress time, slowing every gate — slightly,
//! but enough to promote borderline paths into new choke paths over a
//! chip's lifetime.

use crate::signature::ChipSignature;
use ntc_netlist::Netlist;

/// The BTI-style threshold drift after `age_hours` of stress, volts
/// (0 for fresh silicon).
///
/// Classic log-time dependence: ~15 mV after three years of continuous
/// stress, scaled from a per-decade coefficient.
pub fn aging_dvth(age_hours: f64) -> f64 {
    if age_hours <= 0.0 {
        return 0.0;
    }
    // 6 mV per decade of hours, anchored at 1 hour.
    6.0e-3 * (1.0 + age_hours).log10()
}

/// Re-derive a chip signature after `age_hours` of stress: every gate's
/// post-silicon delay is scaled by the corner's
/// [`variation_multiplier`](crate::Corner::variation_multiplier) of the
/// aging drift (process variation is per-gate; aging acts globally in
/// this first-order model).
///
/// # Panics
///
/// Panics if the signature does not match the netlist, or if its
/// corner's supply is at or below [`MIN_VDD`](crate::device::MIN_VDD).
pub fn at_age(nl: &Netlist, sig: &ChipSignature, age_hours: f64) -> ChipSignature {
    assert_eq!(
        sig.delays_ps().len(),
        nl.len(),
        "signature/netlist mismatch"
    );
    let m = sig.corner().variation_multiplier(aging_dvth(age_hours));
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
    use crate::device::Corner;
    use crate::variation::VariationParams;
    use ntc_netlist::generators::alu::Alu;

    #[test]
    fn fresh_silicon_is_identity() {
        assert_eq!(aging_dvth(0.0), 0.0);
        assert_eq!(Corner::NTC.variation_multiplier(aging_dvth(0.0)), 1.0);
    }

    #[test]
    #[should_panic(expected = "below the 0.058 V floor")]
    fn sub_floor_corner_is_rejected_not_inverted() {
        // A struct-literal corner at 50 mV would reach the raw clamp,
        // whose window [0.05, vdd - 0.008] is inverted there. A netlist
        // of one primary input fabricates without evaluating a gate
        // delay, so the refusal is `at_age`'s own.
        let mut b = ntc_netlist::Builder::new();
        b.input("a");
        let nl = b.finish();
        let rogue = Corner {
            vdd: 0.05,
            name: "rogue",
        };
        let sig = ChipSignature::nominal(&nl, rogue);
        assert_eq!(sig.corner(), rogue, "fabrication does not refuse it");
        let _ = at_age(&nl, &sig, 8760.0);
    }

    #[test]
    fn aging_slows_monotonically() {
        let at = |hours| Corner::NTC.variation_multiplier(aging_dvth(hours));
        let m1 = at(8760.0);
        let m3 = at(3.0 * 8760.0);
        assert!(m1 > 1.0);
        assert!(m3 > m1, "aging is monotone: {m1:.3} vs {m3:.3}");
        // Drift magnitude is tens of millivolts, not volts.
        let dvth = aging_dvth(3.0 * 8760.0);
        assert!(dvth > 0.01 && dvth < 0.05);
    }

    #[test]
    fn age_rescales_whole_signature() {
        let alu = Alu::new(8);
        let sig = ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), 3);
        let aged = at_age(alu.netlist(), &sig, 10_000.0);
        let m = Corner::NTC.variation_multiplier(aging_dvth(10_000.0));
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
        let aged = at_age(alu.netlist(), &sig, 20_000.0);
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
