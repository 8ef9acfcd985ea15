//! # ntc-pipeline
//!
//! The architecture-layer cost model: a FabScalar-Core-1-like pipeline
//! (11 stages, the configuration the paper simulates) with cycle accounting
//! for the three recovery actions resilience schemes use — full pipeline
//! flush + instruction replay, stall-cycle insertion, and clock-period
//! stretching — plus the power/energy/EDP model behind the
//! energy-efficiency figures.
//!
//! Energy efficiency follows the paper's definition: the reciprocal of the
//! energy-delay product computed as `P_avg × t_exec` (§3.5.5).
//!
//! # Examples
//!
//! ```
//! use ntc_pipeline::{EnergyModel, Pipeline, RunCost};
//!
//! let pipe = Pipeline::core1();
//! let mut cost = RunCost::new(1_000_000);
//! cost.add_flush(&pipe); // one timing error recovered Razor-style
//! cost.add_stalls(10);   // ten predicted errors avoided with stalls
//! assert_eq!(cost.total_cycles(), 1_000_000 + 11 + 10);
//!
//! let energy = EnergyModel::ntc_core();
//! let report = energy.report(&cost, 1.0);
//! assert!(report.efficiency > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

/// A processor pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pipeline {
    /// Number of pipe stages; flush + replay costs this many cycles.
    pub stages: usize,
}

impl Pipeline {
    /// The FabScalar Core-1 configuration used throughout the paper:
    /// an 11-stage out-of-order superscalar pipeline.
    pub fn core1() -> Self {
        Pipeline { stages: 11 }
    }

    /// Penalty (in cycles) of one pipeline flush + instruction replay —
    /// as many penalty cycles as there are pipestages (§4.3.6).
    #[inline]
    pub fn flush_penalty(&self) -> u64 {
        self.stages as u64
    }
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline::core1()
    }
}

/// Cycle accounting for one simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunCost {
    /// Committed instructions (base cycles, one per instruction in the
    /// scalar issue model; all schemes share this term so relative results
    /// are unaffected by issue width).
    pub instructions: u64,
    /// Cycles spent in inserted stalls (error avoidance).
    pub stall_cycles: u64,
    /// Cycles spent in pipeline flush + replay (error recovery).
    pub flush_cycles: u64,
    /// Number of flush events (distinct recoveries).
    pub flush_events: u64,
}

impl RunCost {
    /// Start accounting for a run of `instructions` committed instructions.
    pub fn new(instructions: u64) -> Self {
        RunCost {
            instructions,
            ..RunCost::default()
        }
    }

    /// Record one flush + replay recovery.
    pub fn add_flush(&mut self, pipe: &Pipeline) {
        self.flush_cycles += pipe.flush_penalty();
        self.flush_events += 1;
    }

    /// Record `n` inserted stall cycles.
    pub fn add_stalls(&mut self, n: u64) {
        self.stall_cycles += n;
    }

    /// Total penalty cycles (stalls + flushes) — the quantity Figs. 3.10
    /// and 4.10 compare.
    #[inline]
    pub fn penalty_cycles(&self) -> u64 {
        self.stall_cycles + self.flush_cycles
    }

    /// Total execution cycles.
    #[inline]
    pub fn total_cycles(&self) -> u64 {
        self.instructions + self.penalty_cycles()
    }
}

/// Power/energy model for the core at one operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Core average power at the nominal clock, watts.
    pub core_power_w: f64,
    /// Nominal clock period, ps.
    pub period_ps: f64,
    /// Additional always-on power of the resilience hardware, as a
    /// fraction of core power (the overhead tables feed this).
    pub overhead_power_frac: f64,
    /// Fraction of core power that is leakage at the nominal clock.
    /// Leakage does not scale with frequency, so clock stretching (HFG,
    /// OCST skew slack) strictly worsens the energy-delay product — a
    /// large share at NTC, where leakage dominance is well documented.
    pub leakage_frac: f64,
}

impl EnergyModel {
    /// The NTC core operating point: the paper synthesizes at 250 MHz and
    /// 0.45 V. Near threshold a small OoO core burns on the order of tens
    /// of milliwatts, and leakage *dominates*: as the supply approaches
    /// the threshold voltage, dynamic energy shrinks quadratically while
    /// subthreshold leakage grows, leaving leakage at roughly half the
    /// total — the well-known reason frequency scaling saves little power
    /// at NTC.
    pub fn ntc_core() -> Self {
        EnergyModel {
            core_power_w: 0.035,
            period_ps: 4000.0,
            overhead_power_frac: 0.0,
            leakage_frac: 0.55,
        }
    }

    /// Attach a resilience-hardware power overhead (fraction of core
    /// power).
    pub fn with_overhead(self, frac: f64) -> Self {
        EnergyModel {
            overhead_power_frac: frac,
            ..self
        }
    }

    /// Compute the energy report for a run.
    ///
    /// `period_stretch` scales the clock period (guardbanding schemes run
    /// slower clocks; 1.0 = nominal).
    ///
    /// # Panics
    ///
    /// Panics if `period_stretch` is not positive.
    pub fn report(&self, cost: &RunCost, period_stretch: f64) -> EnergyReport {
        assert!(period_stretch > 0.0, "period stretch must be positive");
        let period_s = self.period_ps * period_stretch * 1e-12;
        let t_exec = cost.total_cycles() as f64 * period_s;
        // Dynamic power scales with frequency; leakage does not. A
        // stretched clock therefore lowers power less than proportionally,
        // and the longer execution makes the EDP strictly worse.
        let dyn_frac = 1.0 - self.leakage_frac;
        let p_avg = self.core_power_w
            * (dyn_frac / period_stretch + self.leakage_frac)
            * (1.0 + self.overhead_power_frac);
        let edp = p_avg * t_exec;
        EnergyReport {
            exec_time_s: t_exec,
            avg_power_w: p_avg,
            edp,
            efficiency: 1.0 / edp,
        }
    }
}

/// Execution time, power and the paper's EDP-based efficiency metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Total execution time, seconds.
    pub exec_time_s: f64,
    /// Average power, watts (core + resilience-hardware overhead).
    pub avg_power_w: f64,
    /// The paper's EDP: `P_avg × t_exec` (§3.5.5).
    pub edp: f64,
    /// Energy efficiency: `1 / EDP` — the quantity Figs. 3.12 and 4.12
    /// plot (higher is better).
    pub efficiency: f64,
}

impl fmt::Display for EnergyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t = {:.3e} s, P = {:.3} mW, EDP = {:.3e}, eff = {:.3e}",
            self.exec_time_s,
            self.avg_power_w * 1e3,
            self.edp,
            self.efficiency
        )
    }
}

/// Performance metric used by the comparison figures: committed
/// instructions per unit time. Equal work divided by execution time, so it
/// is inversely proportional to `total_cycles × period_stretch`; figures
/// normalize it against the Razor baseline.
///
/// # Panics
///
/// Panics if `period_stretch` is not positive.
pub fn performance(cost: &RunCost, period_stretch: f64) -> f64 {
    assert!(period_stretch > 0.0, "period stretch must be positive");
    cost.instructions as f64 / (cost.total_cycles() as f64 * period_stretch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_costs_pipeline_depth() {
        let pipe = Pipeline::core1();
        assert_eq!(pipe.stages, 11);
        let mut cost = RunCost::new(100);
        cost.add_flush(&pipe);
        cost.add_flush(&pipe);
        assert_eq!(cost.flush_cycles, 22);
        assert_eq!(cost.flush_events, 2);
        assert_eq!(cost.total_cycles(), 122);
    }

    #[test]
    fn stalls_are_cheaper_than_flushes() {
        let pipe = Pipeline::core1();
        let mut razor_like = RunCost::new(1000);
        let mut dcs_like = RunCost::new(1000);
        for _ in 0..50 {
            razor_like.add_flush(&pipe);
            dcs_like.add_stalls(1);
        }
        assert!(dcs_like.penalty_cycles() < razor_like.penalty_cycles() / 5);
        assert!(performance(&dcs_like, 1.0) > performance(&razor_like, 1.0));
    }

    #[test]
    fn guardband_hurts_performance_and_edp() {
        let cost = RunCost::new(1000);
        let e = EnergyModel::ntc_core();
        let nominal = e.report(&cost, 1.0);
        let guarded = e.report(&cost, 1.4);
        assert!(guarded.exec_time_s > nominal.exec_time_s);
        assert!(performance(&cost, 1.4) < performance(&cost, 1.0));
        assert!(guarded.avg_power_w < nominal.avg_power_w);
        // Leakage makes a stretched clock strictly worse on EDP.
        assert!(guarded.edp > nominal.edp);
        assert!(guarded.efficiency < nominal.efficiency);
    }

    #[test]
    fn overhead_power_reduces_efficiency() {
        let cost = RunCost::new(1000);
        let base = EnergyModel::ntc_core().report(&cost, 1.0);
        let with = EnergyModel::ntc_core()
            .with_overhead(0.012)
            .report(&cost, 1.0);
        assert!(with.efficiency < base.efficiency);
        let ratio = base.efficiency / with.efficiency;
        assert!((ratio - 1.012).abs() < 1e-9);
    }

    #[test]
    fn efficiency_is_reciprocal_edp() {
        let mut cost = RunCost::new(5000);
        cost.add_stalls(10);
        let r = EnergyModel::ntc_core().report(&cost, 1.0);
        assert!((r.efficiency * r.edp - 1.0).abs() < 1e-12);
        assert!((r.edp - r.avg_power_w * r.exec_time_s).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_stretch_rejected() {
        let _ = performance(&RunCost::new(1), 0.0);
    }

    #[test]
    fn display_formats() {
        let r = EnergyModel::ntc_core().report(&RunCost::new(100), 1.0);
        let s = format!("{r}");
        assert!(s.contains("mW"));
    }
}
