//! Shared circuit-level choke study for Figs. 3.2 / 3.3: Monte-Carlo
//! sampling of sensitized-path delays per ALU operation on a population of
//! fabricated 64-bit ALUs, with CDL/CGL extraction.
//!
//! Each vector pair runs the kernel's lean sweep, and an overshoot is
//! charged to the gates of the cycle's causal path: the chain of toggles
//! from a primary input to the latest output toggle
//! ([`SimWorkspace::critical_path_into`]). A gate that toggled off that
//! chain, say behind a deselected result mux, cannot have set the cycle's
//! delay, so it is never named a choke gate.

use ntc_netlist::generators::alu::{Alu, AluFunc};
use ntc_timing::{identify_choke_event, CdlCglProfile, SimWorkspace, StaticTiming};
use ntc_varmodel::rng::SplitMix64;
use ntc_varmodel::{ChipSignature, Corner, VariationParams};
use std::collections::HashMap;

/// The eleven ALU operations of the paper's Fig. 3.2 study.
pub const STUDY_OPS: [AluFunc; 11] = [
    AluFunc::Add,
    AluFunc::Sub,
    AluFunc::Mult,
    AluFunc::Or,
    AluFunc::And,
    AluFunc::Xor,
    AluFunc::Load,
    AluFunc::ShiftRightArith,
    AluFunc::ShiftRightLogical,
    AluFunc::RotateRight,
    AluFunc::Buffer,
];

/// Result of the per-operation choke study at one corner.
#[derive(Debug, Clone)]
pub struct ChokeStudy {
    /// Per operation: the CDL/CGL profile over all chips and vectors.
    pub per_op: HashMap<AluFunc, CdlCglProfile>,
    /// Per operation: max CDL observed for OWM-set vs OWM-reset vectors.
    pub cdl_by_owm: HashMap<AluFunc, (f64, f64)>,
    /// The ALU width used.
    pub width: usize,
}

/// Draw an operand with a requested significant width profile.
fn draw_operand(rng: &mut SplitMix64, width: usize, wide: bool) -> u64 {
    let mask = if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let raw: u64 = rng.gen_u64() & mask;
    if wide {
        // Dense: OR two draws so roughly 3/4 of bits are set.
        (raw | (rng.gen_u64() & mask)) | 1
    } else {
        // Sparse: AND two draws (~1/4 of bits), confined to the low half.
        (raw & rng.gen_u64()) & (mask >> (width / 2))
    }
}

/// Whether a (a, b) pair would set the OWM at the given width.
fn owm_of(a: u64, b: u64, width: usize) -> bool {
    let half = (width / 2) as u32;
    a.count_ones() >= half || b.count_ones() >= half
}

/// Run the study at one corner.
///
/// For every operation: establish the operation's nominal critical delay
/// on a PV-free chip (max sensitized delay over the vector sample), then
/// for each fabricated chip and vector pair record any overshoot as a
/// choke event with its CDL category and minimal choke-gate set.
pub fn run_choke_study(
    corner: Corner,
    width: usize,
    chips: usize,
    vectors_per_op: usize,
    seed: u64,
) -> ChokeStudy {
    let alu = Alu::new(width);
    let nl = alu.netlist();
    let params = VariationParams::for_corner(corner);
    let nominal = ChipSignature::nominal(nl, corner);
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5eed);

    // Pre-draw the vector sample per op (shared between nominal + chips so
    // nominal critical delays and PV delays are comparable).
    let mut vectors: HashMap<AluFunc, Vec<(u64, u64, u64, u64)>> = HashMap::new();
    for &op in &STUDY_OPS {
        let v: Vec<(u64, u64, u64, u64)> = (0..vectors_per_op)
            .map(|k| {
                let wide = k % 2 == 0;
                (
                    draw_operand(&mut rng, width, !wide),
                    draw_operand(&mut rng, width, !wide),
                    draw_operand(&mut rng, width, wide),
                    draw_operand(&mut rng, width, wide),
                )
            })
            .collect();
        vectors.insert(op, v);
    }

    // Nominal per-op critical delays, and the circuit's nominal critical
    // delay (the CDL reference: the paper expresses CDL as a percentage of
    // the nominal critical path delay of the circuit). One sweep task per
    // op, each with its own workspace; `max` folds each op's sample alone,
    // so the result is the same at any thread count.
    let worst = crate::runner::sweep(STUDY_OPS.len(), |k| {
        let op = STUDY_OPS[k];
        let mut ws = SimWorkspace::new();
        vectors[&op]
            .iter()
            .fold(0.0f64, |worst, &(a1, b1, a2, b2)| {
                let (init, sens) = (alu.encode(op, a1, b1), alu.encode(op, a2, b2));
                match ws.simulate_pair_minmax(nl, &nominal, &init, &sens).max_ps {
                    Some(d) => worst.max(d),
                    None => worst,
                }
            })
    });
    let nominal_crit: HashMap<AluFunc, f64> = STUDY_OPS.into_iter().zip(worst).collect();

    // One sweep task per fabricated chip; each returns its local profiles,
    // merged below in chip order. Every fold (min CGL, max CDL, event
    // counts) is order-independent, so the merged result is bit-identical
    // to the old sequential loop at any thread count.
    let per_chip = crate::runner::sweep(chips, |chip_idx| {
        let sig = ChipSignature::fabricate(nl, corner, params, seed.wrapping_add(chip_idx as u64));
        // Sanity anchor: the static critical delay bounds every dynamic
        // observation (checked in debug builds).
        debug_assert!(StaticTiming::analyze(nl, &sig).critical_delay_ps(nl) > 0.0);
        let mut ws = SimWorkspace::new();
        let mut path = Vec::new();
        let mut per_op: HashMap<AluFunc, CdlCglProfile> = HashMap::new();
        let mut cdl_by_owm: HashMap<AluFunc, (f64, f64)> = HashMap::new();
        for &op in &STUDY_OPS {
            let d_nom = nominal_crit[&op];
            if d_nom <= 0.0 {
                continue;
            }
            for &(a1, b1, a2, b2) in &vectors[&op] {
                let (init, sens) = (alu.encode(op, a1, b1), alu.encode(op, a2, b2));
                let Some(d_pv) = ws.simulate_pair_minmax(nl, &sig, &init, &sens).max_ps else {
                    continue;
                };
                // The gates whose toggles chained to `d_pv`: the only ones
                // that can have set it.
                ws.critical_path_into(nl, &sig, &mut path);
                // A choke path exists when the operation's sensitized delay
                // overshoots the operation's own nominal critical delay —
                // the normalization under which the paper's STC ceiling
                // ("CDL cannot exceed ~12% even when every gate on the
                // path is PV-affected") holds. At NTC our high-CDL band is
                // open-ended: a single extreme choke gate can multiply a
                // short path far beyond the paper's 30% axis.
                if let Some(ev) = identify_choke_event(nl, &sig, &path, d_pv, d_nom) {
                    per_op.entry(op).or_default().record(&ev);
                    let slot = cdl_by_owm.entry(op).or_insert((0.0, 0.0));
                    if owm_of(a2, b2, width) {
                        slot.0 = slot.0.max(ev.cdl_pct);
                    } else {
                        slot.1 = slot.1.max(ev.cdl_pct);
                    }
                }
            }
        }
        (per_op, cdl_by_owm)
    });

    let mut per_op: HashMap<AluFunc, CdlCglProfile> = HashMap::new();
    let mut cdl_by_owm: HashMap<AluFunc, (f64, f64)> = HashMap::new();
    for (chip_per_op, chip_owm) in per_chip {
        for (op, profile) in chip_per_op {
            per_op.entry(op).or_default().merge(&profile);
        }
        for (op, (set_max, reset_max)) in chip_owm {
            let slot = cdl_by_owm.entry(op).or_insert((0.0, 0.0));
            slot.0 = slot.0.max(set_max);
            slot.1 = slot.1.max(reset_max);
        }
    }

    ChokeStudy {
        per_op,
        cdl_by_owm,
        width,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_profiles_differ() {
        let mut rng = SplitMix64::seed_from_u64(1);
        let wide: u32 = (0..50)
            .map(|_| draw_operand(&mut rng, 32, true).count_ones())
            .sum();
        let narrow: u32 = (0..50)
            .map(|_| draw_operand(&mut rng, 32, false).count_ones())
            .sum();
        assert!(wide > 2 * narrow, "wide {wide} vs narrow {narrow}");
    }

    #[test]
    fn small_study_produces_events_at_ntc() {
        let study = run_choke_study(Corner::NTC, 16, 4, 6, 42);
        let total: usize = study.per_op.values().map(|p| p.events).sum();
        assert!(total > 0, "NTC chips must exhibit choke events");
    }

    #[test]
    fn owm_detection() {
        assert!(owm_of(0xFFFF_FFFF, 0, 32));
        assert!(!owm_of(0xFF, 0xF0, 32));
    }
}
