//! Extension studies beyond the paper's figures — the "future work"
//! directions the dissertation gestures at, built on the same stack:
//!
//! * **voltage sweep** — the canonical NTC motivation curve: energy per
//!   operation and performance across supply voltages, showing why 0.45 V
//!   is the sweet spot the paper operates at (and how error rates explode
//!   as Vdd falls);
//! * **aging adaptation** — §3.3 claims DCS adapts to violations that
//!   *magnify over the chip's lifetime*; quantify it by aging a learned
//!   chip and comparing a warm DCS against a cold restart;
//! * **stall sufficiency** — the paper assumes every errant instruction
//!   completes within two cycles (§3.3.1); measure how often a choke
//!   delay actually exceeds that budget.

use crate::config::{build_oracle, nominal_critical_ps, topology, Scale, CH3_REGIME};
use crate::runner::{sweep, sweep_over};
use crate::scenario::{expand, fold_cells};
use crate::table::ResultTable;
use ntc_core::baselines::Razor;
use ntc_core::dcs::Dcs;
use ntc_core::sim::run_scheme;
use ntc_core::tag_delay::{Chip, TagDelayOracle};
use ntc_pipeline::Pipeline;
use ntc_varmodel::{at_condition, ChipSignature, Corner, OperatingCondition, VariationParams};
use ntc_workload::{Benchmark, TraceGenerator};
use std::sync::Arc;

/// Voltage sweep: per supply point, the nominal delay factor, energy per
/// operation (∝ Vdd²), a razor-style error rate on a fabricated chip, and
/// the resulting energy-delay product — the NTC sweet-spot curve.
pub fn voltage_sweep(scale: Scale) -> ResultTable {
    let mut t = ResultTable::new(
        "ext.vdd",
        "Supply-voltage sweep: delay, energy/op, error rate, relative EDP",
        ["delay factor", "energy/op", "error %", "rel EDP"],
    );
    let netlist = topology(false, CH3_REGIME);
    let trace = TraceGenerator::new(Benchmark::Gzip, 5).trace(scale.cycles() / 10);
    // One sweep task per supply point; `sweep_over` returns rows in key
    // order, so the table reads top-to-bottom from STC to deep NTC exactly
    // as the sequential loop built it.
    let vdds = [0.80f64, 0.65, 0.55, 0.45, 0.42];
    let rows = sweep_over(&vdds, |_, &vdd| {
        let corner = Corner::custom(vdd);
        let crit = nominal_critical_ps(false, CH3_REGIME, corner);
        let sig =
            ChipSignature::fabricate(&netlist, corner, VariationParams::for_corner(corner), 5);
        let chip = Chip::new(netlist.clone(), sig, crit);
        let mut oracle = TagDelayOracle::new(Arc::new(chip));
        let clock = CH3_REGIME.clock(crit);
        let r = run_scheme(&mut Razor::ch3(), &mut oracle, &trace, clock, Pipeline::core1());
        let error_pct = 100.0 * r.errors_total() as f64 / (trace.len() - 1) as f64;
        let delay_factor = corner.delay_factor();
        let energy_per_op = corner.energy_factor();
        // EDP per op at this voltage, with the error-recovery cycles in:
        // energy/op × delay/op × cycle inflation².
        let inflation = r.cost.total_cycles() as f64 / r.cost.instructions as f64;
        let edp = energy_per_op * delay_factor * inflation * inflation;
        vec![delay_factor, energy_per_op, error_pct, edp]
    });
    for (&vdd, row) in vdds.iter().zip(rows) {
        t.push_row(format!("{vdd:.2} V"), row);
    }
    t
}

/// Aging adaptation: fabricate a chip, let DCS learn it fresh, then age
/// the silicon and compare a *warm* DCS (table carried over) against a
/// *cold* one — the lifetime-adaptivity §3.3 claims.
pub fn aging_adaptation(scale: Scale) -> ResultTable {
    let mut t = ResultTable::new(
        "ext.aging",
        "DCS across chip lifetime: errors and penalty per phase",
        ["errors", "recovered", "penalty"],
    );
    let netlist = topology(false, CH3_REGIME);
    let fresh_sig = ChipSignature::fabricate(&netlist, Corner::NTC, VariationParams::ntc(), 7);
    let crit = nominal_critical_ps(false, CH3_REGIME, Corner::NTC);
    let clock = CH3_REGIME.clock(crit);
    let cycles = scale.cycles() / 4;
    let trace = TraceGenerator::new(Benchmark::Parser, 9).trace(cycles);
    let pipe = Pipeline::core1();

    // Phase 1: fresh silicon, cold DCS.
    let mut dcs = Dcs::icslt_default();
    let fresh_chip = Chip::new(netlist.clone(), fresh_sig.clone(), crit);
    let mut oracle = TagDelayOracle::new(Arc::new(fresh_chip));
    let fresh = run_scheme(&mut dcs, &mut oracle, &trace, clock, pipe);
    t.push_row(
        "fresh, cold DCS",
        vec![
            fresh.errors_total() as f64,
            fresh.recovered as f64,
            fresh.cost.penalty_cycles() as f64,
        ],
    );

    // Phase 2: three-year-old silicon; the SAME DCS instance continues
    // (its CSLT already knows the fresh-chip choke tags; aging magnifies
    // them and adds a few new ones it must learn incrementally).
    let aged_sig = at_condition(
        &netlist,
        &fresh_sig,
        OperatingCondition {
            age_hours: 3.0 * 8760.0,
            ..OperatingCondition::nominal()
        },
    );
    let mut aged_oracle = TagDelayOracle::new(Arc::new(Chip::new(netlist, aged_sig, crit)));
    let warm = run_scheme(&mut dcs, &mut aged_oracle, &trace, clock, pipe);
    t.push_row(
        "aged, warm DCS",
        vec![
            warm.errors_total() as f64,
            warm.recovered as f64,
            warm.cost.penalty_cycles() as f64,
        ],
    );

    // Phase 3: the same aged silicon with a cold DCS, for contrast. It
    // replays phase 2's trace on phase 2's oracle, whose table already
    // holds every first pair this replay resolves: the same pairs, filled
    // in the same order, that a fresh oracle would simulate.
    let mut cold = Dcs::icslt_default();
    let cold_r = run_scheme(&mut cold, &mut aged_oracle, &trace, clock, pipe);
    t.push_row(
        "aged, cold DCS",
        vec![
            cold_r.errors_total() as f64,
            cold_r.recovered as f64,
            cold_r.cost.penalty_cycles() as f64,
        ],
    );
    t
}

/// Stall sufficiency: the fraction of errant cycles whose sensitized delay
/// exceeds one and two clock periods — the validity check on the paper's
/// "an instruction finishes in maximum two cycles" assumption (§3.3.1).
pub fn stall_sufficiency(scale: Scale) -> ResultTable {
    let mut t = ResultTable::new(
        "ext.stall2",
        "Errant-cycle delay vs the two-cycle stall budget (% of errant cycles)",
        ["<= 2T", "> 2T"],
    );
    let benches = [Benchmark::Gzip, Benchmark::Mcf, Benchmark::Vortex];
    let grid = expand(&benches, scale.chips());
    let cells = sweep_over(&grid, |_, &(bench, chip)| {
        let mut oracle = build_oracle(Corner::NTC, 600 + chip as u64, false, CH3_REGIME);
        let clock = CH3_REGIME.clock(oracle.nominal_critical_delay_ps());
        let trace = TraceGenerator::new(bench, 5).trace(scale.cycles() / 4);
        let mut within = 0u64;
        let mut beyond = 0u64;
        for pair in trace.windows(2) {
            if let Some(d) = oracle.delays(&pair[0], &pair[1]).max_ps {
                if d > clock.period_ps {
                    if d <= 2.0 * clock.period_ps {
                        within += 1;
                    } else {
                        beyond += 1;
                    }
                }
            }
        }
        (within, beyond)
    });
    let folded = fold_cells(
        grid.iter().map(|&(b, _)| b),
        cells,
        || (0u64, 0u64),
        |(within, beyond), (w, y)| {
            *within += w;
            *beyond += y;
        },
    );
    for (bench, (within, beyond)) in folded {
        let total = (within + beyond).max(1) as f64;
        t.push_row(
            bench.name(),
            vec![100.0 * within as f64 / total, 100.0 * beyond as f64 / total],
        );
    }
    t
}

/// Die binning: fabricate a batch of dice, clock each aggressively, and
/// bin by delivered throughput (relative to an error-free die at the same
/// clock) under Razor vs under DCS. The manycore-NTC yield argument in one
/// table: choke-heavy dice that miss the bin under replay-storm Razor are
/// recovered by DCS's stall-based avoidance.
pub fn die_binning(scale: Scale) -> ResultTable {
    let mut t = ResultTable::new(
        "ext.binning",
        "Die binning at an aggressive clock: % of dice per throughput bin",
        [">= 90%", "70-90%", "< 70%"],
    );
    let dice = (scale.chips() * 6).max(8);
    let trace = TraceGenerator::new(Benchmark::Gap, 3).trace(scale.cycles() / 6);
    let pipe = Pipeline::core1();

    let per_die = sweep(dice, |die| {
        let mut oracle = build_oracle(Corner::NTC, 700 + die as u64, false, CH3_REGIME);
        let clock = CH3_REGIME.clock(oracle.nominal_critical_delay_ps());
        let razor = run_scheme(&mut Razor::ch3(), &mut oracle, &trace, clock, pipe);
        let dcs = run_scheme(&mut Dcs::icslt_default(), &mut oracle, &trace, clock, pipe);
        [razor, dcs].map(|r| {
            let throughput = r.cost.instructions as f64 / r.cost.total_cycles() as f64;
            if throughput >= 0.90 {
                0usize
            } else if throughput >= 0.70 {
                1
            } else {
                2
            }
        })
    });
    let mut bins = [[0usize; 3]; 2]; // [razor, dcs] x [high, mid, low]
    for die_bins in per_die {
        for (row, bin) in die_bins.into_iter().enumerate() {
            bins[row][bin] += 1;
        }
    }
    for (name, row) in [("Razor", bins[0]), ("DCS-ICSLT", bins[1])] {
        t.push_row(
            name,
            row.iter()
                .map(|&c| 100.0 * c as f64 / dice as f64)
                .collect(),
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binning_dcs_never_bins_worse() {
        let t = die_binning(Scale::Fast);
        let top = |row: &str| t.cell(row, ">= 90%").expect("cell");
        assert!(
            top("DCS-ICSLT") >= top("Razor"),
            "DCS recovers dice into the top bin: DCS {} vs Razor {}",
            top("DCS-ICSLT"),
            top("Razor")
        );
    }

    #[test]
    fn voltage_sweep_shapes() {
        let t = voltage_sweep(Scale::Fast);
        // Delay rises monotonically as Vdd falls; energy/op falls.
        let delays: Vec<f64> = t.rows.iter().map(|(_, v)| v[0]).collect();
        let energies: Vec<f64> = t.rows.iter().map(|(_, v)| v[1]).collect();
        for w in delays.windows(2) {
            assert!(w[1] > w[0], "delay grows as Vdd drops: {delays:?}");
        }
        for w in energies.windows(2) {
            assert!(w[1] < w[0], "energy/op shrinks as Vdd drops: {energies:?}");
        }
    }

    #[test]
    fn warm_dcs_recovers_less_than_cold_on_aged_silicon() {
        let t = aging_adaptation(Scale::Fast);
        let warm = t.cell("aged, warm DCS", "recovered").expect("row");
        let cold = t.cell("aged, cold DCS", "recovered").expect("row");
        assert!(
            warm <= cold,
            "a warm table re-learns less: warm {warm} vs cold {cold}"
        );
    }
}
