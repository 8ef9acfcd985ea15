//! Process-variation model in the VARIUS / VARIUS-NTV style.
//!
//! Threshold-voltage variation is split into a **systematic** component —
//! a spatially correlated Gaussian random field sampled on a chip grid and
//! bilinearly interpolated at each gate's placement — and a **random**
//! (white) per-gate component. Secondary FinFET parameters the paper varies
//! (fin thickness ±10 %, channel length ±12 %, oxide thickness 20 %) are
//! folded into an additional lognormal drive-strength term, matching how
//! they act on delay through the same current equation.

use crate::device::Corner;
use crate::rng::SplitMix64;

/// Parameters of the process-variation model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationParams {
    /// Standard deviation of the systematic Vth component, volts.
    pub sigma_vth_systematic: f64,
    /// Standard deviation of the random (per-gate) Vth component, volts.
    pub sigma_vth_random: f64,
    /// Side length of the correlation grid (cells per chip edge); the
    /// systematic field is constant-correlated within roughly one cell.
    pub grid: usize,
    /// Standard deviation (in log-space) of the secondary geometric
    /// variation term (fin/channel/oxide), applied as a lognormal delay
    /// multiplier.
    pub sigma_geom_ln: f64,
}

impl VariationParams {
    /// The paper's STC variation setting (VARIUS-style, mature process).
    pub fn stc() -> Self {
        VariationParams {
            sigma_vth_systematic: 0.015,
            sigma_vth_random: 0.015,
            grid: 8,
            sigma_geom_ln: 0.03,
        }
    }

    /// The paper's NTC variation setting (VARIUS-NTV-style): the *same*
    /// underlying Vth spread — the amplification to ~20× delay variation
    /// comes from the alpha-power law at low Vdd, not from larger ΔVth.
    pub fn ntc() -> Self {
        VariationParams {
            sigma_vth_systematic: 0.018,
            sigma_vth_random: 0.018,
            grid: 8,
            sigma_geom_ln: 0.04,
        }
    }

    /// The setting a die fabricated for `corner` gets: [`stc`](Self::stc)
    /// above 0.7 V, [`ntc`](Self::ntc) at and below it. Variation
    /// amplification is a near-threshold effect, so the upper part of the
    /// supply roster behaves like the super-threshold corner.
    pub fn for_corner(corner: Corner) -> Self {
        if corner.vdd > 0.7 {
            Self::stc()
        } else {
            Self::ntc()
        }
    }

    /// Variation disabled (PV-free reference chip).
    pub fn none() -> Self {
        VariationParams {
            sigma_vth_systematic: 0.0,
            sigma_vth_random: 0.0,
            grid: 1,
            sigma_geom_ln: 0.0,
        }
    }
}

/// A sampled systematic-variation field over the chip.
#[derive(Debug, Clone)]
pub struct SystematicField {
    grid: usize,
    values: Vec<f64>,
}

impl SystematicField {
    /// Sample a new field on a `grid × grid` lattice with per-cell standard
    /// deviation `sigma`, smoothed once so neighbouring cells correlate
    /// (the spherical-correlation structure of VARIUS, discretized).
    pub fn sample(rng: &mut SplitMix64, grid: usize, sigma: f64) -> Self {
        assert!(grid >= 1);
        let n = grid * grid;
        let raw: Vec<f64> = (0..n).map(|_| gaussian(rng) * sigma).collect();
        // One smoothing pass: average each cell with its neighbours, then
        // re-normalize the variance (smoothing shrinks it).
        let mut smooth = vec![0.0f64; n];
        for y in 0..grid {
            for x in 0..grid {
                let mut acc = 0.0;
                let mut cnt = 0.0;
                for (dx, dy) in [(0i64, 0i64), (1, 0), (-1, 0), (0, 1), (0, -1)] {
                    let nx = x as i64 + dx;
                    let ny = y as i64 + dy;
                    if nx >= 0 && ny >= 0 && (nx as usize) < grid && (ny as usize) < grid {
                        acc += raw[ny as usize * grid + nx as usize];
                        cnt += 1.0;
                    }
                }
                smooth[y * grid + x] = acc / cnt;
            }
        }
        // Restore target sigma (empirical factor for the 5-point average).
        let scale = if sigma > 0.0 {
            5.0f64.sqrt() / 1.6
        } else {
            0.0
        };
        for v in &mut smooth {
            *v *= scale.max(1.0);
        }
        SystematicField {
            grid,
            values: smooth,
        }
    }

    /// Value of the field at normalized chip coordinates `(x, y) ∈ [0,1)²`,
    /// bilinearly interpolated.
    pub fn at(&self, x: f64, y: f64) -> f64 {
        if self.grid == 1 {
            return self.values[0];
        }
        let fx = (x.clamp(0.0, 0.999_999) * (self.grid - 1) as f64).max(0.0);
        let fy = (y.clamp(0.0, 0.999_999) * (self.grid - 1) as f64).max(0.0);
        let x0 = fx.floor() as usize;
        let y0 = fy.floor() as usize;
        let x1 = (x0 + 1).min(self.grid - 1);
        let y1 = (y0 + 1).min(self.grid - 1);
        let tx = fx - x0 as f64;
        let ty = fy - y0 as f64;
        let g = |xx: usize, yy: usize| self.values[yy * self.grid + xx];
        let top = g(x0, y0) * (1.0 - tx) + g(x1, y0) * tx;
        let bot = g(x0, y1) * (1.0 - tx) + g(x1, y1) * tx;
        top * (1.0 - ty) + bot * ty
    }
}

/// Per-gate variation draw: the threshold-voltage deviation and the
/// geometric (drive-strength) multiplier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateVariation {
    /// Threshold-voltage deviation, volts.
    pub dvth: f64,
    /// Lognormal geometric delay multiplier (≈1.0).
    pub geom_mult: f64,
}

impl GateVariation {
    /// Combined delay multiplier at an operating corner.
    pub fn delay_multiplier(&self, corner: Corner) -> f64 {
        corner.variation_multiplier(self.dvth) * self.geom_mult
    }
}

/// Sampler producing per-gate variation draws for one fabricated chip.
#[derive(Debug)]
pub struct VariationSampler {
    params: VariationParams,
    field: SystematicField,
    rng: SplitMix64,
}

impl VariationSampler {
    /// Create a sampler for one chip instance; `seed` selects the chip in
    /// the fabrication lottery.
    pub fn new(params: VariationParams, seed: u64) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        let field = SystematicField::sample(&mut rng, params.grid, params.sigma_vth_systematic);
        VariationSampler { params, field, rng }
    }

    /// Draw the variation of the gate placed at normalized coordinates
    /// `(x, y)`.
    pub fn draw(&mut self, x: f64, y: f64) -> GateVariation {
        let systematic = self.field.at(x, y);
        let random = gaussian(&mut self.rng) * self.params.sigma_vth_random;
        let geom = (gaussian(&mut self.rng) * self.params.sigma_geom_ln).exp();
        GateVariation {
            dvth: systematic + random,
            geom_mult: geom,
        }
    }

    /// The model parameters this sampler was built with.
    pub fn params(&self) -> &VariationParams {
        &self.params
    }
}

/// Standard normal draw (Box–Muller, in-tree [`SplitMix64`] stream).
pub(crate) fn gaussian(rng: &mut SplitMix64) -> f64 {
    rng.normal()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_is_deterministic_per_seed() {
        let mut s1 = VariationSampler::new(VariationParams::ntc(), 7);
        let mut s2 = VariationSampler::new(VariationParams::ntc(), 7);
        for i in 0..32 {
            let x = (i as f64) / 32.0;
            assert_eq!(s1.draw(x, x), s2.draw(x, x));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut s1 = VariationSampler::new(VariationParams::ntc(), 1);
        let mut s2 = VariationSampler::new(VariationParams::ntc(), 2);
        let a = s1.draw(0.5, 0.5);
        let b = s2.draw(0.5, 0.5);
        assert_ne!(a, b);
    }

    #[test]
    fn zero_variation_gives_unity_multiplier() {
        let mut s = VariationSampler::new(VariationParams::none(), 3);
        for _ in 0..16 {
            let v = s.draw(0.3, 0.7);
            assert_eq!(v.dvth, 0.0);
            assert!((v.geom_mult - 1.0).abs() < 1e-12);
            assert!((v.delay_multiplier(Corner::NTC) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn field_is_spatially_correlated() {
        let mut rng = SplitMix64::seed_from_u64(11);
        let f = SystematicField::sample(&mut rng, 16, 0.02);
        // Nearby points differ less than far points, averaged over samples.
        let mut near = 0.0;
        let mut far = 0.0;
        let n = 50;
        for i in 0..n {
            let x = (i as f64 + 0.5) / n as f64 * 0.9;
            near += (f.at(x, 0.5) - f.at(x + 0.02, 0.5)).abs();
            far += (f.at(x, 0.1) - f.at((x + 0.45) % 0.95, 0.9)).abs();
        }
        assert!(
            near < far,
            "near diff {near:.4} should be < far diff {far:.4}"
        );
    }

    #[test]
    fn sampled_dvth_statistics_are_sane() {
        let params = VariationParams::ntc();
        let mut s = VariationSampler::new(params, 99);
        let n = 4000;
        let draws: Vec<f64> = (0..n)
            .map(|i| {
                let x = (i % 64) as f64 / 64.0;
                let y = (i / 64) as f64 / 64.0;
                s.draw(x, y).dvth
            })
            .collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / n as f64;
        let sigma_total =
            (params.sigma_vth_systematic.powi(2) + params.sigma_vth_random.powi(2)).sqrt();
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!(
            (var.sqrt() - sigma_total).abs() < 0.5 * sigma_total,
            "std {:.4} vs expected {:.4}",
            var.sqrt(),
            sigma_total
        );
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = SplitMix64::seed_from_u64(5);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03);
        assert!((var - 1.0).abs() < 0.06);
    }
}
