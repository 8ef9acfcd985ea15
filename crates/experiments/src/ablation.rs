//! Ablation studies over the design choices DESIGN.md calls out:
//!
//! * **tag granularity** — §3.3.2 claims the four-part opcode+OWM tag
//!   tracks error instances "at a finer granularity, and thereby, more
//!   precisely" than opcode-only or PC-style keys; quantify it;
//! * **replacement policy** — pseudo-LRU vs FIFO vs random in the CSLT;
//! * **detection window** — Trident's transparent-phase width (the hold
//!   constraint) vs the number of min-side errors that exist to be caught.

use crate::config::{build_oracle, Scale, CH3_REGIME, CH4_REGIME};
use crate::runner::{sweep, sweep_over};
use crate::scenario::{expand, fold_cells};
use crate::table::ResultTable;
use ntc_core::scheme::{CycleContext, CycleOutcome, ResilienceScheme};
use ntc_core::sim::{profile_errors, run_scheme};
use ntc_core::tables::AssociativeTable;
use ntc_isa::ErrorTag;
use ntc_pipeline::Pipeline;
use ntc_timing::{ClockSpec, ErrorClass};
use ntc_varmodel::Corner;
use ntc_workload::{Benchmark, TraceGenerator};

/// Reduced tag variants for the granularity ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ReducedTag {
    /// Errant opcode only (PC-proxy granularity).
    Opcode(u8),
    /// Errant opcode + OWM.
    OpcodeOwm(u8, bool),
    /// Errant + previous opcodes (no OWM).
    Pair(u8, u8),
    /// The full DCS tag.
    Full(ErrorTag),
}

fn reduce(tag: ErrorTag, mode: usize) -> ReducedTag {
    match mode {
        0 => ReducedTag::Opcode(tag.opcode),
        1 => ReducedTag::OpcodeOwm(tag.opcode, tag.owm),
        2 => ReducedTag::Pair(tag.opcode, tag.prev_opcode),
        _ => ReducedTag::Full(tag),
    }
}

/// A DCS-like scheme with a configurable tag reduction (for the
/// granularity ablation) and replacement policy (for the policy ablation).
#[derive(Debug)]
struct AblatedDcs {
    mode: usize,
    policy: Policy,
    plru: AssociativeTable<ReducedTag, ()>,
    fifo: Vec<ReducedTag>,
    capacity: usize,
    rng_state: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    PseudoLru,
    Fifo,
    Random,
}

impl AblatedDcs {
    fn new(mode: usize, policy: Policy, capacity: usize) -> Self {
        AblatedDcs {
            mode,
            policy,
            plru: AssociativeTable::new(capacity),
            fifo: Vec::new(),
            capacity,
            rng_state: 0x1234_5678_9ABC_DEF0,
        }
    }

    fn contains(&mut self, key: &ReducedTag) -> bool {
        match self.policy {
            Policy::PseudoLru => self.plru.lookup(key).is_some(),
            _ => self.fifo.contains(key),
        }
    }

    fn record(&mut self, key: ReducedTag) {
        match self.policy {
            Policy::PseudoLru => {
                let _ = self.plru.insert(key, ());
            }
            Policy::Fifo => {
                if !self.fifo.contains(&key) {
                    if self.fifo.len() >= self.capacity {
                        self.fifo.remove(0);
                    }
                    self.fifo.push(key);
                }
            }
            Policy::Random => {
                if !self.fifo.contains(&key) {
                    if self.fifo.len() >= self.capacity {
                        // xorshift victim selection.
                        self.rng_state ^= self.rng_state << 13;
                        self.rng_state ^= self.rng_state >> 7;
                        self.rng_state ^= self.rng_state << 17;
                        let victim = (self.rng_state % self.capacity as u64) as usize;
                        self.fifo.swap_remove(victim);
                    }
                    self.fifo.push(key);
                }
            }
        }
    }
}

impl ResilienceScheme for AblatedDcs {
    fn name(&self) -> &'static str {
        "DCS-ablated"
    }

    fn on_cycle(&mut self, ctx: &CycleContext<'_>) -> CycleOutcome {
        let key = reduce(ctx.tag, self.mode);
        let v = ctx.violation_at(&ctx.base_clock);
        if self.contains(&key) {
            return CycleOutcome::Avoided {
                stalls: 1,
                needed: v.max,
            };
        }
        if v.max {
            self.record(key);
            return CycleOutcome::Recovered {
                class: ErrorClass::SingleMax,
            };
        }
        CycleOutcome::Clean
    }
}

fn ablation_clock(oracle: &ntc_core::tag_delay::TagDelayOracle) -> ClockSpec {
    CH3_REGIME.clock(oracle.nominal_critical_delay_ps())
}

/// Tag-granularity ablation: prediction accuracy and false-positive rate
/// per tag variant (128-entry table, gzip + vortex averaged).
pub fn tag_granularity(scale: Scale) -> ResultTable {
    let mut t = ResultTable::new(
        "abl.tags",
        "Tag granularity: accuracy (%) and false-positive stalls per 1k cycles",
        ["accuracy", "fp/1k"],
    );
    let names = ["opcode", "opcode+OWM", "opcode-pair", "full-4-part"];
    // Full (mode × benchmark × chip) grid in one sweep; the per-mode sums
    // below fold cells in the old nested-loop order, so the averages are
    // bit-identical at any thread count.
    let groups: Vec<(usize, Benchmark)> = (0..names.len())
        .flat_map(|mode| {
            [Benchmark::Gzip, Benchmark::Vortex]
                .into_iter()
                .map(move |bench| (mode, bench))
        })
        .collect();
    let grid = expand(&groups, scale.chips());
    let cells = sweep_over(&grid, |_, &((mode, bench), chip)| {
        let mut oracle = build_oracle(Corner::NTC, 900 + chip as u64, false, CH3_REGIME);
        let clock = ablation_clock(&oracle);
        let trace = TraceGenerator::new(bench, 3).trace(scale.cycles() / 2);
        let mut scheme = AblatedDcs::new(mode, Policy::PseudoLru, 128);
        let r = run_scheme(&mut scheme, &mut oracle, &trace, clock, Pipeline::core1());
        (
            r.prediction_accuracy(),
            1000.0 * r.false_positives as f64 / trace.len() as f64,
        )
    });
    let folded = fold_cells(
        grid.iter().map(|&((m, _), _)| m),
        cells,
        || (0.0f64, 0.0f64, 0.0f64),
        |(acc, fp, runs), (a, f)| {
            *acc += a;
            *fp += f;
            *runs += 1.0;
        },
    );
    for (mode, (acc, fp, runs)) in folded {
        t.push_row(names[mode], vec![acc / runs, fp / runs]);
    }
    t
}

/// Replacement-policy ablation: prediction accuracy of pseudo-LRU vs FIFO
/// vs random on a capacity-pressured (32-entry) table over vortex.
pub fn replacement_policy(scale: Scale) -> ResultTable {
    let mut t = ResultTable::new(
        "abl.replacement",
        "CSLT replacement policy: prediction accuracy (%) at 32 entries",
        ["accuracy"],
    );
    let policies = [
        (Policy::PseudoLru, "pseudo-LRU"),
        (Policy::Fifo, "FIFO"),
        (Policy::Random, "random"),
    ];
    let grid = expand(&policies.map(|(p, _)| p), scale.chips());
    let cells = sweep_over(&grid, |_, &(policy, chip)| {
        let mut oracle = build_oracle(Corner::NTC, 950 + chip as u64, false, CH3_REGIME);
        let clock = ablation_clock(&oracle);
        let trace = TraceGenerator::new(Benchmark::Vortex, 5).trace(scale.cycles());
        let mut scheme = AblatedDcs::new(3, policy, 32);
        run_scheme(&mut scheme, &mut oracle, &trace, clock, Pipeline::core1()).prediction_accuracy()
    });
    let folded = fold_cells(
        grid.iter().map(|&(p, _)| p),
        cells,
        || (0.0f64, 0.0f64),
        |(acc, runs), a| {
            *acc += a;
            *runs += 1.0;
        },
    );
    for ((policy, (acc, runs)), (expected, name)) in folded.into_iter().zip(policies) {
        assert_eq!(policy, expected, "fold preserves the policy order");
        t.push_row(name, vec![acc / runs]);
    }
    t
}

/// Detection-window ablation: how the hold-window width changes the error
/// population Trident must handle (min errors appear as the window widens).
pub fn detection_window(scale: Scale) -> ResultTable {
    let mut t = ResultTable::new(
        "abl.window",
        "Hold-window width vs error population (per 1k cycles)",
        ["SE(Min)/1k", "SE(Max)/1k", "CE/1k"],
    );
    let fracs = [0.08f64, 0.11, 0.14, 0.17, 0.20];
    let grid = expand(&fracs, scale.chips());
    let cells = sweep_over(&grid, |_, &(frac, chip)| {
        // The bufferless (Trident-context) netlist: the guard interval
        // trades detector safety margin against the min-error
        // population the scheme must then avoid.
        let mut oracle = build_oracle(Corner::NTC, 970 + chip as u64, false, CH4_REGIME);
        let nominal = oracle.nominal_critical_delay_ps();
        let clock = ClockSpec {
            period_ps: nominal * CH4_REGIME.period_frac,
            hold_ps: nominal * frac,
        };
        let trace = TraceGenerator::new(Benchmark::Gap, 9).trace(scale.cycles() / 2);
        let p = profile_errors(&mut oracle, &trace, clock);
        (
            [
                p.class_count(ErrorClass::SingleMin) as f64,
                p.class_count(ErrorClass::SingleMax) as f64,
                p.class_count(ErrorClass::Consecutive) as f64,
            ],
            p.cycles as f64,
        )
    });
    let folded = fold_cells(
        grid.iter().map(|&(f, _)| f),
        cells,
        || ([0.0f64; 3], 0.0f64),
        |(counts, cycles), (cell_counts, cell_cycles)| {
            for (slot, c) in counts.iter_mut().zip(cell_counts) {
                *slot += c;
            }
            *cycles += cell_cycles;
        },
    );
    for (frac, (counts, cycles)) in folded {
        t.push_row(
            format!("hold={:.1}%", frac * 100.0),
            counts.iter().map(|c| 1000.0 * c / cycles).collect(),
        );
    }
    t
}

/// Adder-architecture ablation: choke susceptibility of ripple,
/// carry-select and Kogge–Stone adders of the same width under the same
/// fabrication draws. Deep serial structures average variation out over
/// many gates; shallow parallel ones hand each gate more leverage — the
/// structural side of the choke-point story.
pub fn adder_architecture(scale: Scale) -> ResultTable {
    use ntc_netlist::generators::adder;
    use ntc_netlist::Builder;
    use ntc_timing::{SimWorkspace, StaticTiming};
    use ntc_varmodel::{ChipSignature, VariationParams};
    use ntc_varmodel::rng::SplitMix64;

    let width = 32;
    let build = |kind: u8| {
        let mut b = Builder::new();
        let a = b.input_bus("a", width);
        let x = b.input_bus("x", width);
        let cin = b.input("cin");
        let out = match kind {
            0 => adder::ripple_carry(&mut b, &a, &x, cin),
            1 => adder::carry_select(&mut b, &a, &x, cin, 4),
            _ => adder::kogge_stone(&mut b, &a, &x, cin),
        };
        b.output_bus("sum", &out.sum);
        b.output("cout", out.cout);
        b.finish()
    };

    let mut t = ResultTable::new(
        "abl.adder",
        "Adder architecture vs choke susceptibility at NTC",
        ["depth", "gates", "crit spread", "worst overshoot %"],
    );
    let chips = scale.chips().max(3);
    for (name, kind) in [("ripple", 0u8), ("carry-select", 1), ("kogge-stone", 2)] {
        let nl = build(kind);
        let nominal = ChipSignature::nominal(&nl, Corner::NTC);
        let d_nom = StaticTiming::analyze(&nl, &nominal).critical_delay_ps(&nl);
        let mut rng = SplitMix64::seed_from_u64(77);
        let vectors: Vec<(u64, u64)> = (0..scale.circuit_samples())
            .map(|_| (rng.gen_u64() & 0xFFFF_FFFF, rng.gen_u64() & 0xFFFF_FFFF))
            .collect();
        // One sweep task per fabricated chip; per-chip worst cases merge
        // with max — order-independent, hence bit-identical at any thread
        // count.
        let per_chip = sweep(chips, |chip| {
            let sig = ChipSignature::fabricate(&nl, Corner::NTC, VariationParams::ntc(), chip as u64);
            let chip_static = StaticTiming::analyze(&nl, &sig).critical_delay_ps(&nl) / d_nom;
            let mut chip_dyn: f64 = 0.0;
            let mut ws = SimWorkspace::new();
            let encode = |a: u64, x: u64| {
                let mut pis: Vec<bool> = (0..width).map(|i| (a >> i) & 1 == 1).collect();
                pis.extend((0..width).map(|i| (x >> i) & 1 == 1));
                pis.push(false);
                pis
            };
            for &(a, x) in &vectors {
                let timing = ws.simulate_pair_minmax(&nl, &sig, &encode(0, 0), &encode(a, x));
                if let Some(d) = timing.max_ps {
                    chip_dyn = chip_dyn.max(100.0 * (d - d_nom) / d_nom);
                }
            }
            (chip_static, chip_dyn)
        });
        let mut worst_static: f64 = 0.0;
        let mut worst_dyn: f64 = 0.0;
        for (s, d) in per_chip {
            worst_static = worst_static.max(s);
            worst_dyn = worst_dyn.max(d);
        }
        t.push_row(
            name,
            vec![
                nl.max_depth() as f64,
                nl.logic_gate_count() as f64,
                worst_static,
                worst_dyn,
            ],
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_tags_collapse_information() {
        let tag = ErrorTag {
            opcode: 3,
            owm: true,
            prev_opcode: 7,
            prev_owm: false,
        };
        let other = ErrorTag {
            opcode: 3,
            owm: true,
            prev_opcode: 9,
            prev_owm: true,
        };
        assert_eq!(reduce(tag, 0), reduce(other, 0));
        assert_eq!(reduce(tag, 1), reduce(other, 1));
        assert_ne!(reduce(tag, 2), reduce(other, 2));
        assert_ne!(reduce(tag, 3), reduce(other, 3));
    }

    #[test]
    fn fifo_and_random_respect_capacity() {
        for policy in [Policy::Fifo, Policy::Random] {
            let mut s = AblatedDcs::new(3, policy, 4);
            for i in 0..10u8 {
                s.record(ReducedTag::Opcode(i));
            }
            assert!(s.fifo.len() <= 4);
        }
    }
}
