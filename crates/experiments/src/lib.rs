//! # ntc-experiments
//!
//! The reproduction harness: one runner per figure/table of the paper's
//! evaluation. Each runner returns a [`ResultTable`] mirroring the rows
//! and series the original figure plots; the `repro` binary prints every
//! table and writes CSVs to `target/repro/`.
//!
//! Experiments come in two scales ([`Scale::Fast`] for CI, [`Scale::Full`]
//! for paper-scale runs), and are grouped by chapter:
//!
//! * [`ch3`] — the DATE 2017 DCS study (Figs. 3.2–3.4, 3.8–3.12, §3.5.6);
//! * [`ch4`] — the Trident study (Figs. 4.2–4.4, 4.8–4.12, §4.5.7);
//! * [`ablation`] — ablations over the design choices DESIGN.md calls out.
//!
//! Grid-shaped runners (a scheme roster compared over benchmarks × chips
//! × operating points) are expressed as [`scenario::GridSpec`]s and
//! executed by [`scenario::run_grid`], which drives the registered
//! [`ntc_core::scenario::SchemeSpec`]s through the parallel sweep engine
//! and folds per (benchmark, voltage) row with one shared accumulator.
//! The supply-voltage axis defaults to NTC and is widened globally with
//! [`config::set_voltages`] (the `repro --vdd` flag).
//!
//! # Examples
//!
//! ```no_run
//! use ntc_experiments::{ch3, Scale};
//!
//! let table = ch3::fig_3_10(Scale::Fast);
//! println!("{table}");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablation;
pub mod cache;
pub mod ch3;
pub mod ch4;
pub mod config;
pub mod extensions;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod table;

pub use cache::CacheStats;
pub use config::{
    build_hardened_oracle, build_oracle, memo_occupancy, normalize_to_first, parse_voltages,
    set_voltages, set_workload_source, voltages, workload_source, ClockRegime, Scale, CH3_REGIME,
    CH4_REGIME,
};
pub use report::{Manifest, RunRecord};
pub use runner::{
    set_jobs, sweep, sweep_over, take_stats, take_sweep_failures, IndexFailure, SweepStats,
};
pub use scenario::{
    row_label, run_grid, run_grid_uncached, take_voltage_cells, voltage_cells, GridResult,
    GridSpec, Regime,
};
pub use table::ResultTable;

/// One named experiment: its figure/table id and scale-parametric runner.
pub type Experiment = (&'static str, fn(Scale) -> ResultTable);

/// Every experiment in the suite: `(id, runner)` pairs, in paper order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("fig3.2a", |s| ch3::fig_3_2(ntc_varmodel::Corner::STC, s)),
        ("fig3.2b", |s| ch3::fig_3_2(ntc_varmodel::Corner::NTC, s)),
        ("fig3.3", ch3::fig_3_3),
        ("fig3.4", ch3::fig_3_4),
        ("fig3.8", ch3::fig_3_8),
        ("fig3.9", ch3::fig_3_9),
        ("fig3.10", ch3::fig_3_10),
        ("fig3.11", ch3::fig_3_11),
        ("fig3.12", ch3::fig_3_12),
        ("tab3.overheads", |_| ch3::overheads_3()),
        ("fig4.2", ch4::fig_4_2),
        ("fig4.3", ch4::fig_4_3),
        ("fig4.4", ch4::fig_4_4),
        ("fig4.8", ch4::fig_4_8),
        ("fig4.9", ch4::fig_4_9),
        ("fig4.10", ch4::fig_4_10),
        ("fig4.11", ch4::fig_4_11),
        ("fig4.12", ch4::fig_4_12),
        ("tab4.overheads", |_| ch4::overheads_4()),
        ("ext.vdd", extensions::voltage_sweep),
        ("ext.aging", extensions::aging_adaptation),
        ("ext.stall2", extensions::stall_sufficiency),
        ("ext.binning", extensions::die_binning),
        ("abl.tags", ablation::tag_granularity),
        ("abl.replacement", ablation::replacement_policy),
        ("abl.window", ablation::detection_window),
        ("abl.adder", ablation::adder_architecture),
    ]
}
