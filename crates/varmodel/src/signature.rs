//! Per-chip delay signatures: what one fabricated die looks like.
//!
//! A [`ChipSignature`] assigns every gate of a netlist its post-silicon
//! propagation delay at a given corner. Choke points — the small set of
//! PV-affected gates whose deviation dominates the paths they sit on — are
//! identified here, and a "chip lottery" helper samples many die from the
//! same design, since the paper stresses that the choke-point distribution
//! varies chip-to-chip within one design.

use crate::device::Corner;
use crate::variation::{VariationParams, VariationSampler};
use ntc_netlist::Netlist;

/// Threshold on a gate's delay multiplier beyond which it is considered a
/// (potential) choke gate: the paper characterizes choke points as gates
/// whose PV deviation dominates an entire path.
pub const CHOKE_SLOW_MULTIPLIER: f64 = 2.0;

/// Threshold below which a gate counts as a *fast* choke gate (the Ch. 4
/// delay-reduction side: choke buffers / minimum-timing violators).
pub const CHOKE_FAST_MULTIPLIER: f64 = 0.6;

/// The post-silicon delay signature of one fabricated chip at one corner.
#[derive(Debug, Clone)]
pub struct ChipSignature {
    corner: Corner,
    seed: u64,
    /// Per-gate absolute propagation delay in picoseconds (index =
    /// `Signal::index()` of the gate's output).
    delays_ps: Vec<f64>,
    /// Per-gate delay multiplier relative to the corner nominal.
    multipliers: Vec<f64>,
    /// Nominal (PV-free) per-gate delay at this corner.
    nominal_ps: Vec<f64>,
}

impl ChipSignature {
    /// Fabricate one chip: sample PV for every gate of `nl` at `corner`.
    ///
    /// Gates are placed on a row-major virtual floorplan so the systematic
    /// field correlates physically adjacent logic, like a placed design.
    pub fn fabricate(nl: &Netlist, corner: Corner, params: VariationParams, seed: u64) -> Self {
        let mut sampler = VariationSampler::new(params, seed);
        let n = nl.len();
        let side = (n as f64).sqrt().ceil().max(1.0);
        let corner_factor = corner.delay_factor();
        let mut delays = Vec::with_capacity(n);
        let mut mults = Vec::with_capacity(n);
        let mut nominal = Vec::with_capacity(n);
        for (i, gate) in nl.gates().iter().enumerate() {
            let base = gate.kind().nominal_delay_ps() * corner_factor;
            nominal.push(base);
            if gate.kind().is_pseudo() {
                delays.push(0.0);
                mults.push(1.0);
                continue;
            }
            let x = (i as f64 % side) / side;
            let y = (i as f64 / side) / side;
            let var = sampler.draw(x, y);
            let m = var.delay_multiplier(corner);
            mults.push(m);
            delays.push(base * m);
        }
        ChipSignature {
            corner,
            seed,
            delays_ps: delays,
            multipliers: mults,
            nominal_ps: nominal,
        }
    }

    /// A PV-free reference signature (every multiplier exactly 1.0).
    pub fn nominal(nl: &Netlist, corner: Corner) -> Self {
        Self::fabricate(nl, corner, VariationParams::none(), 0)
    }

    /// The operating corner this signature was fabricated at.
    #[inline]
    pub fn corner(&self) -> Corner {
        self.corner
    }

    /// The fabrication-lottery seed.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Post-silicon delay of the gate driving signal index `idx`, ps.
    #[inline]
    pub fn delay_ps(&self, idx: usize) -> f64 {
        self.delays_ps[idx]
    }

    /// All post-silicon gate delays, indexed by signal index.
    #[inline]
    pub fn delays_ps(&self) -> &[f64] {
        &self.delays_ps
    }

    /// Delay multiplier of gate `idx` relative to the corner nominal.
    #[inline]
    pub fn multiplier(&self, idx: usize) -> f64 {
        self.multipliers[idx]
    }

    /// Nominal (PV-free) delay of gate `idx` at this corner, ps.
    #[inline]
    pub fn nominal_ps(&self, idx: usize) -> f64 {
        self.nominal_ps[idx]
    }

    /// Indices of *slow* choke gates (multiplier ≥ [`CHOKE_SLOW_MULTIPLIER`]).
    pub fn slow_choke_gates(&self) -> Vec<usize> {
        self.multipliers
            .iter()
            .enumerate()
            .filter(|(_, &m)| m >= CHOKE_SLOW_MULTIPLIER)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of *fast* choke gates (multiplier ≤ [`CHOKE_FAST_MULTIPLIER`]).
    pub fn fast_choke_gates(&self) -> Vec<usize> {
        self.multipliers
            .iter()
            .enumerate()
            .filter(|(_, &m)| m > 0.0 && m <= CHOKE_FAST_MULTIPLIER)
            .map(|(i, _)| i)
            .collect()
    }

    /// Overwrite the delays of selected gates with `multiplier × nominal`.
    ///
    /// This is the *controlled choke-injection* mode used by Fig. 4.2,
    /// where the paper limits choke gates to 2 % of the netlist to show
    /// even a limited presence has visible impact.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn inject_choke(&mut self, gates: &[usize], multiplier: f64) {
        for &g in gates {
            self.multipliers[g] = multiplier;
            self.delays_ps[g] = self.nominal_ps[g] * multiplier;
        }
    }

    /// Summary statistics of the multiplier distribution over logic gates.
    pub fn multiplier_stats(&self, nl: &Netlist) -> MultiplierStats {
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        let mut sum = 0.0f64;
        let mut n = 0usize;
        for (i, gate) in nl.gates().iter().enumerate() {
            if gate.kind().is_pseudo() {
                continue;
            }
            let m = self.multipliers[i];
            min = min.min(m);
            max = max.max(m);
            sum += m;
            n += 1;
        }
        MultiplierStats {
            min,
            max,
            mean: if n > 0 { sum / n as f64 } else { 1.0 },
        }
    }
}

/// Min / max / mean of the per-gate delay multipliers on one chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiplierStats {
    /// Smallest multiplier (fastest gate relative to nominal).
    pub min: f64,
    /// Largest multiplier (slowest gate relative to nominal).
    pub max: f64,
    /// Mean multiplier.
    pub mean: f64,
}

/// Fabricate `count` chips of the same design (the chip lottery).
pub fn chip_lottery(
    nl: &Netlist,
    corner: Corner,
    params: VariationParams,
    base_seed: u64,
    count: usize,
) -> Vec<ChipSignature> {
    (0..count)
        .map(|i| ChipSignature::fabricate(nl, corner, params, base_seed.wrapping_add(i as u64)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_netlist::generators::alu::Alu;

    fn small_alu() -> Netlist {
        Alu::new(8).into_netlist()
    }

    #[test]
    fn nominal_signature_is_unity() {
        let nl = small_alu();
        let sig = ChipSignature::nominal(&nl, Corner::NTC);
        for (i, g) in nl.gates().iter().enumerate() {
            assert!((sig.multiplier(i) - 1.0).abs() < 1e-9);
            if !g.kind().is_pseudo() {
                assert!(sig.delay_ps(i) > 0.0);
            }
        }
        assert!(sig.slow_choke_gates().is_empty());
        assert!(sig.fast_choke_gates().is_empty());
    }

    #[test]
    fn ntc_delays_scaled_up() {
        let nl = small_alu();
        let stc = ChipSignature::nominal(&nl, Corner::STC);
        let ntc = ChipSignature::nominal(&nl, Corner::NTC);
        let i = nl
            .gates()
            .iter()
            .position(|g| !g.kind().is_pseudo())
            .expect("alu has logic gates");
        let ratio = ntc.delay_ps(i) / stc.delay_ps(i);
        assert!((5.0..20.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn ntc_chips_have_more_choke_gates_than_stc() {
        let nl = small_alu();
        let mut stc_chokes = 0usize;
        let mut ntc_chokes = 0usize;
        for seed in 0..10 {
            stc_chokes += ChipSignature::fabricate(&nl, Corner::STC, VariationParams::stc(), seed)
                .slow_choke_gates()
                .len();
            ntc_chokes += ChipSignature::fabricate(&nl, Corner::NTC, VariationParams::ntc(), seed)
                .slow_choke_gates()
                .len();
        }
        assert!(
            ntc_chokes > 4 * stc_chokes.max(1),
            "NTC chokes {ntc_chokes} vs STC {stc_chokes}"
        );
    }

    #[test]
    fn fabrication_is_deterministic() {
        let nl = small_alu();
        let a = ChipSignature::fabricate(&nl, Corner::NTC, VariationParams::ntc(), 42);
        let b = ChipSignature::fabricate(&nl, Corner::NTC, VariationParams::ntc(), 42);
        assert_eq!(a.delays_ps(), b.delays_ps());
    }

    #[test]
    fn lottery_chips_differ() {
        let nl = small_alu();
        let chips = chip_lottery(&nl, Corner::NTC, VariationParams::ntc(), 0, 3);
        assert_eq!(chips.len(), 3);
        assert_ne!(chips[0].delays_ps(), chips[1].delays_ps());
        assert_ne!(chips[1].delays_ps(), chips[2].delays_ps());
    }

    #[test]
    fn choke_injection_sets_exact_delays() {
        let nl = small_alu();
        let mut sig = ChipSignature::nominal(&nl, Corner::NTC);
        let target = nl
            .gates()
            .iter()
            .position(|g| !g.kind().is_pseudo())
            .expect("logic gate");
        sig.inject_choke(&[target], 5.0);
        assert!((sig.multiplier(target) - 5.0).abs() < 1e-12);
        assert!((sig.delay_ps(target) - 5.0 * sig.nominal_ps(target)).abs() < 1e-9);
        assert_eq!(sig.slow_choke_gates(), vec![target]);
    }

    #[test]
    fn multiplier_stats_bracket_unity_at_ntc() {
        let nl = small_alu();
        let sig = ChipSignature::fabricate(&nl, Corner::NTC, VariationParams::ntc(), 7);
        let stats = sig.multiplier_stats(&nl);
        assert!(stats.min < 1.0, "some gates speed up: {stats:?}");
        assert!(stats.max > 1.5, "some gates slow down a lot: {stats:?}");
        assert!(stats.mean > 0.5 && stats.mean < 3.0);
    }

    #[test]
    fn both_delay_directions_exist_at_ntc() {
        // Chapter 4's premise: PV can both raise and lower path delays.
        let nl = small_alu();
        let sig = ChipSignature::fabricate(&nl, Corner::NTC, VariationParams::ntc(), 3);
        assert!(!sig.fast_choke_gates().is_empty() || sig.multiplier_stats(&nl).min < 0.8);
    }
}
