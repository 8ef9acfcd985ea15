//! # ntc-workload
//!
//! Statistical instruction-trace generators standing in for the SPEC
//! CPU2000 benchmarks the paper feeds through FabScalar (bzip2, gap, gzip,
//! mcf, parser, vortex).
//!
//! Each benchmark profile is a small program model: a set of *basic blocks*
//! (short template sequences of opcode + operand class) walked with strong
//! loop locality, plus per-template operand value registers providing value
//! locality. This reproduces the two properties every result in the paper
//! hinges on:
//!
//! * **instruction-sequence locality** — the same consecutive instruction
//!   pairs (the error-tag key) recur, so learned errors repeat;
//! * **per-benchmark tag diversity** — mcf touches few unique templates
//!   (few unique error instances, many repeats), vortex many, gzip fewer
//!   total dynamic errors than mcf but more unique instances, exactly the
//!   contrasts §3.5.3/§4.5.5 attribute the per-benchmark differences to.
//!
//! # Examples
//!
//! ```
//! use ntc_workload::{Benchmark, TraceGenerator};
//!
//! let mut gen = TraceGenerator::new(Benchmark::Mcf, 1);
//! let trace: Vec<_> = gen.by_ref().take(1000).collect();
//! assert_eq!(trace.len(), 1000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod source;
pub mod trace_bin;

pub use source::{take_stats, trace_memo_occupancy, Segment, TraceSource, WorkloadStats};
pub use trace_bin::write_atomic;

use ntc_isa::{arch_mask, Instruction, Opcode};
use ntc_varmodel::rng::SplitMix64;
use std::fmt;

/// The six modelled benchmarks (SPEC CPU2000 profiles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // variants are the benchmark names
pub enum Benchmark {
    Bzip2,
    Gap,
    Gzip,
    Mcf,
    Parser,
    Vortex,
}

/// All benchmarks, in the order the paper's figures list them.
pub const ALL_BENCHMARKS: [Benchmark; 6] = [
    Benchmark::Bzip2,
    Benchmark::Gap,
    Benchmark::Gzip,
    Benchmark::Mcf,
    Benchmark::Parser,
    Benchmark::Vortex,
];

impl Benchmark {
    /// The benchmark's display name as used in the figures.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Bzip2 => "bzip",
            Benchmark::Gap => "gap",
            Benchmark::Gzip => "gzip",
            Benchmark::Mcf => "mcf",
            Benchmark::Parser => "parser",
            Benchmark::Vortex => "vortex",
        }
    }

    /// The benchmark whose [`name`](Self::name) is `name`, if any.
    pub fn parse(name: &str) -> Option<Benchmark> {
        ALL_BENCHMARKS.into_iter().find(|b| b.name() == name)
    }

    /// The statistical profile of the benchmark.
    pub fn profile(self) -> Profile {
        match self {
            // Compression: shift/mask heavy, moderate diversity.
            Benchmark::Bzip2 => Profile {
                blocks: 24,
                block_len: (4, 10),
                loop_repeat: 0.93,
                wide_operand_bias: 0.45,
                opcode_weights: weights(&[
                    (Opcode::Addu, 10),
                    (Opcode::Addiu, 12),
                    (Opcode::Subu, 6),
                    (Opcode::And, 6),
                    (Opcode::Andi, 8),
                    (Opcode::Or, 6),
                    (Opcode::Sll, 9),
                    (Opcode::Srl, 9),
                    (Opcode::Sra, 3),
                    (Opcode::Xor, 5),
                    (Opcode::Lw, 14),
                    (Opcode::Lui, 3),
                    (Opcode::Move, 5),
                    (Opcode::Mult, 2),
                    (Opcode::Mflo, 2),
                ]),
            },
            // Interpreter: diverse dispatch, many distinct blocks.
            Benchmark::Gap => Profile {
                blocks: 48,
                block_len: (4, 11),
                loop_repeat: 0.88,
                wide_operand_bias: 0.5,
                opcode_weights: weights(&[
                    (Opcode::Addu, 12),
                    (Opcode::Addiu, 12),
                    (Opcode::Subu, 6),
                    (Opcode::And, 5),
                    (Opcode::Andi, 5),
                    (Opcode::Or, 7),
                    (Opcode::Ori, 4),
                    (Opcode::Nor, 2),
                    (Opcode::Xor, 4),
                    (Opcode::Sllv, 4),
                    (Opcode::Srlv, 3),
                    (Opcode::Lw, 16),
                    (Opcode::Lui, 4),
                    (Opcode::Move, 6),
                    (Opcode::Mult, 3),
                    (Opcode::Mflo, 3),
                ]),
            },
            // Compression, small hot loop: few unique instances but fewer
            // total dynamic errors than mcf (lighter error-prone mix).
            Benchmark::Gzip => Profile {
                blocks: 14,
                block_len: (4, 8),
                loop_repeat: 0.95,
                wide_operand_bias: 0.40,
                opcode_weights: weights(&[
                    (Opcode::Addu, 9),
                    (Opcode::Addiu, 13),
                    (Opcode::Subu, 7),
                    (Opcode::And, 5),
                    (Opcode::Andi, 9),
                    (Opcode::Or, 5),
                    (Opcode::Sll, 8),
                    (Opcode::Srl, 10),
                    (Opcode::Xor, 6),
                    (Opcode::Lw, 15),
                    (Opcode::Lui, 3),
                    (Opcode::Move, 6),
                    (Opcode::Mflo, 2),
                ]),
            },
            // Pointer chasing: tiny hot loop, very few unique templates,
            // highest repetition (and the heaviest wide-address operands).
            Benchmark::Mcf => Profile {
                blocks: 6,
                block_len: (4, 7),
                loop_repeat: 0.975,
                wide_operand_bias: 0.72,
                opcode_weights: weights(&[
                    (Opcode::Addu, 14),
                    (Opcode::Addiu, 12),
                    (Opcode::Subu, 8),
                    (Opcode::And, 3),
                    (Opcode::Or, 4),
                    (Opcode::Lw, 26),
                    (Opcode::Sll, 5),
                    (Opcode::Lui, 4),
                    (Opcode::Move, 5),
                    (Opcode::Mult, 4),
                    (Opcode::Mflo, 4),
                ]),
            },
            // NLP parser: branchy, medium diversity.
            Benchmark::Parser => Profile {
                blocks: 40,
                block_len: (4, 10),
                loop_repeat: 0.89,
                wide_operand_bias: 0.42,
                opcode_weights: weights(&[
                    (Opcode::Addu, 11),
                    (Opcode::Addiu, 13),
                    (Opcode::Subu, 7),
                    (Opcode::And, 5),
                    (Opcode::Andi, 6),
                    (Opcode::Or, 6),
                    (Opcode::Nor, 2),
                    (Opcode::Xor, 3),
                    (Opcode::Sll, 5),
                    (Opcode::Srl, 4),
                    (Opcode::Srav, 2),
                    (Opcode::Lw, 18),
                    (Opcode::Lui, 4),
                    (Opcode::Move, 6),
                ]),
            },
            // OO database: the most diverse instruction footprint (largest
            // set of unique error instances, per §3.5.3).
            Benchmark::Vortex => Profile {
                blocks: 96,
                block_len: (6, 14),
                loop_repeat: 0.82,
                wide_operand_bias: 0.55,
                opcode_weights: weights(&[
                    (Opcode::Addu, 10),
                    (Opcode::Addiu, 12),
                    (Opcode::Subu, 5),
                    (Opcode::And, 4),
                    (Opcode::Andi, 5),
                    (Opcode::Or, 6),
                    (Opcode::Ori, 3),
                    (Opcode::Nor, 3),
                    (Opcode::Xor, 3),
                    (Opcode::Xori, 2),
                    (Opcode::Sll, 5),
                    (Opcode::Srl, 4),
                    (Opcode::Sra, 2),
                    (Opcode::Sllv, 2),
                    (Opcode::Srav, 2),
                    (Opcode::Lw, 17),
                    (Opcode::Lui, 5),
                    (Opcode::Move, 5),
                    (Opcode::Mult, 2),
                    (Opcode::Mflo, 2),
                ]),
            },
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The statistical profile backing one benchmark generator.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Number of basic blocks in the program model (template diversity).
    pub blocks: usize,
    /// (min, max) instructions per block.
    pub block_len: (usize, usize),
    /// Probability of staying in / re-entering the current block (loop
    /// locality). Higher → fewer unique consecutive pairs dominate.
    pub loop_repeat: f64,
    /// Probability that a generated operand is drawn wide (upper-half bits
    /// populated); drives the OWM / operand-size mix.
    pub wide_operand_bias: f64,
    /// Relative opcode frequencies.
    pub opcode_weights: Vec<(Opcode, u32)>,
}

fn weights(pairs: &[(Opcode, u32)]) -> Vec<(Opcode, u32)> {
    pairs.to_vec()
}

/// Operand magnitude classes templates draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OperandClass {
    /// Low-byte constants and counters.
    Narrow,
    /// Half-word values (bits in the lower 16).
    Half,
    /// Wide values with upper-half bits populated (addresses, hashes).
    Wide,
    /// Dense bitmasks (high popcount — drives the OWM).
    Mask,
}

/// One instruction template inside a basic block.
#[derive(Debug, Clone, Copy)]
struct Template {
    opcode: Opcode,
    class_a: OperandClass,
    class_b: OperandClass,
    /// Sticky operand values providing value locality.
    reg_a: u64,
    reg_b: u64,
}

/// A deterministic, seeded instruction-trace generator for one benchmark.
///
/// Implements [`Iterator`]; the stream is infinite.
pub struct TraceGenerator {
    benchmark: Benchmark,
    blocks: Vec<Vec<Template>>,
    profile: Profile,
    rng: SplitMix64,
    cur_block: usize,
    cur_pos: usize,
}

impl fmt::Debug for TraceGenerator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceGenerator")
            .field("benchmark", &self.benchmark)
            .field("blocks", &self.blocks.len())
            .finish_non_exhaustive()
    }
}

impl TraceGenerator {
    /// Create a generator for `benchmark`; `seed` selects the simulated
    /// program phase (the same seed always produces the same trace).
    pub fn new(benchmark: Benchmark, seed: u64) -> Self {
        let profile = benchmark.profile();
        let mut rng =
            SplitMix64::seed_from_u64(seed.wrapping_mul(0xA076_1D64_78BD_642F) ^ benchmark as u64);
        let blocks = (0..profile.blocks)
            .map(|_| {
                let len = rng.gen_range_inclusive(profile.block_len.0, profile.block_len.1);
                (0..len)
                    .map(|_| Template::sample(&mut rng, &profile))
                    .collect()
            })
            .collect();
        TraceGenerator {
            benchmark,
            blocks,
            profile,
            rng,
            cur_block: 0,
            cur_pos: 0,
        }
    }

    /// Generate the next dynamic instruction.
    pub fn next_instruction(&mut self) -> Instruction {
        if self.cur_pos >= self.blocks[self.cur_block].len() {
            self.cur_pos = 0;
            // Loop back into the same block with high probability.
            if self.rng.gen_f64() >= self.profile.loop_repeat {
                self.cur_block = self.rng.gen_index(self.blocks.len());
            }
        }
        let (block, pos) = (self.cur_block, self.cur_pos);
        self.cur_pos += 1;
        let wide_bias = self.profile.wide_operand_bias;
        let t = &mut self.blocks[block][pos];
        t.materialize(&mut self.rng, wide_bias)
    }

    /// Collect a finite trace of `n` instructions.
    pub fn trace(&mut self, n: usize) -> Vec<Instruction> {
        (0..n).map(|_| self.next_instruction()).collect()
    }
}

impl Iterator for TraceGenerator {
    type Item = Instruction;

    fn next(&mut self) -> Option<Instruction> {
        Some(self.next_instruction())
    }
}

impl Template {
    fn sample(rng: &mut SplitMix64, profile: &Profile) -> Template {
        assert!(
            !profile.opcode_weights.is_empty(),
            "profile has no opcode weights to sample from"
        );
        // Total-checked weighted pick: a zero total (every weight zero —
        // a shape replayed traces can legally carry) degrades to a
        // uniform pick instead of panicking inside `gen_index(0)` or
        // silently returning entry 0. The nonzero path consumes exactly
        // one `gen_index(total)` draw, unchanged, so every existing
        // seeded trace stays bit-identical.
        let total: u32 = profile.opcode_weights.iter().map(|(_, w)| w).sum();
        let opcode = if total == 0 {
            profile.opcode_weights[rng.gen_index(profile.opcode_weights.len())].0
        } else {
            let mut pick = rng.gen_index(total as usize) as u32;
            let mut chosen = None;
            for &(op, w) in &profile.opcode_weights {
                if pick < w {
                    chosen = Some(op);
                    break;
                }
                pick -= w;
            }
            chosen.expect("pick < total, so some weight bucket matched")
        };
        let class = |rng: &mut SplitMix64| match rng.gen_index(100) as u32 {
            0..=34 => OperandClass::Narrow,
            35..=59 => OperandClass::Half,
            60..=84 => OperandClass::Wide,
            _ => OperandClass::Mask,
        };
        let class_a = class(rng);
        // Immediates are narrower by ISA construction.
        let class_b = if opcode.has_immediate() {
            if rng.gen_bool() {
                OperandClass::Narrow
            } else {
                OperandClass::Half
            }
        } else {
            class(rng)
        };
        let mut t = Template {
            opcode,
            class_a,
            class_b,
            reg_a: 0,
            reg_b: 0,
        };
        t.reg_a = t.draw(rng, t.class_a, 0.5);
        t.reg_b = t.draw(rng, t.class_b, 0.5);
        t
    }

    fn draw(&self, rng: &mut SplitMix64, class: OperandClass, wide_bias: f64) -> u64 {
        let mask = arch_mask();
        let raw: u64 = rng.gen_u64();
        let v = match class {
            OperandClass::Narrow => raw & 0xFF,
            OperandClass::Half => raw & 0xFFFF,
            OperandClass::Wide => {
                if rng.gen_f64() < wide_bias {
                    raw & mask | (1 << 28)
                } else {
                    raw & 0xFF_FFFF
                }
            }
            OperandClass::Mask => {
                // Dense patterns: byte-replicated masks.
                let b = raw & 0xFF | 0x55;
                (b | b << 8 | b << 16 | b << 24) & mask
            }
        };
        v & mask
    }

    fn materialize(&mut self, rng: &mut SplitMix64, wide_bias: f64) -> Instruction {
        // Value locality: usually reuse the sticky registers, occasionally
        // refresh one of them.
        const REFRESH: f64 = 0.18;
        if rng.gen_f64() < REFRESH {
            self.reg_a = self.draw(rng, self.class_a, wide_bias);
        }
        if rng.gen_f64() < REFRESH {
            self.reg_b = self.draw(rng, self.class_b, wide_bias);
        }
        // Shift-immediate opcodes keep b in shift range.
        let b = match self.opcode {
            Opcode::Sll | Opcode::Srl | Opcode::Sra => self.reg_b % 32,
            Opcode::Lui => 16,
            _ => self.reg_b,
        };
        Instruction::new(self.opcode, self.reg_a, b)
    }
}

/// Count the unique consecutive `(prev, cur)` opcode+OWM tag pairs in a
/// trace — the quantity that drives lookup-table pressure.
pub fn unique_tag_count(trace: &[Instruction]) -> usize {
    use std::collections::HashSet;
    let mut set = HashSet::new();
    for pair in trace.windows(2) {
        set.insert(ntc_isa::ErrorTag::of(&pair[0], &pair[1]));
    }
    set.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let mut a = TraceGenerator::new(Benchmark::Gzip, 3);
        let mut b = TraceGenerator::new(Benchmark::Gzip, 3);
        assert_eq!(a.trace(500), b.trace(500));
    }

    #[test]
    fn seeds_and_benchmarks_differ() {
        let t1 = TraceGenerator::new(Benchmark::Gzip, 1).trace(200);
        let t2 = TraceGenerator::new(Benchmark::Gzip, 2).trace(200);
        let t3 = TraceGenerator::new(Benchmark::Mcf, 1).trace(200);
        assert_ne!(t1, t2);
        assert_ne!(t1, t3);
    }

    #[test]
    fn mcf_has_fewest_unique_tags_vortex_most() {
        let n = 20_000;
        let tags: Vec<(Benchmark, usize)> = ALL_BENCHMARKS
            .iter()
            .map(|&b| (b, unique_tag_count(&TraceGenerator::new(b, 1).trace(n))))
            .collect();
        let get = |b: Benchmark| tags.iter().find(|(x, _)| *x == b).expect("present").1;
        assert!(
            get(Benchmark::Mcf) < get(Benchmark::Gzip),
            "mcf {} < gzip {}",
            get(Benchmark::Mcf),
            get(Benchmark::Gzip)
        );
        for b in ALL_BENCHMARKS {
            if b != Benchmark::Vortex {
                assert!(
                    get(Benchmark::Vortex) > get(b),
                    "vortex {} should exceed {b} {}",
                    get(Benchmark::Vortex),
                    get(b)
                );
            }
        }
    }

    #[test]
    fn traces_reuse_tags_heavily() {
        // Loop locality: far fewer unique pairs than instructions.
        for b in ALL_BENCHMARKS {
            let trace = TraceGenerator::new(b, 7).trace(10_000);
            let unique = unique_tag_count(&trace);
            assert!(
                unique < trace.len() / 10,
                "{b}: {unique} unique tags in {} instructions",
                trace.len()
            );
        }
    }

    #[test]
    fn opcode_mix_respects_profile() {
        // mcf must be load-heavy; bzip must be shift-heavy.
        let mcf = TraceGenerator::new(Benchmark::Mcf, 5).trace(20_000);
        let loads = mcf.iter().filter(|i| i.opcode == Opcode::Lw).count();
        assert!(loads as f64 / mcf.len() as f64 > 0.1, "mcf load share");

        let bzip = TraceGenerator::new(Benchmark::Bzip2, 5).trace(20_000);
        let shifts = bzip
            .iter()
            .filter(|i| {
                matches!(
                    i.opcode,
                    Opcode::Sll | Opcode::Srl | Opcode::Sra | Opcode::Sllv | Opcode::Srlv
                )
            })
            .count();
        assert!(shifts as f64 / bzip.len() as f64 > 0.08, "bzip shift share");
    }

    #[test]
    fn wide_bias_shows_in_operand_sizes() {
        use ntc_isa::OperandSize;
        let mcf = TraceGenerator::new(Benchmark::Mcf, 9).trace(20_000);
        let gzip = TraceGenerator::new(Benchmark::Gzip, 9).trace(20_000);
        let large = |t: &[Instruction]| {
            t.iter()
                .filter(|i| i.operand_size() == OperandSize::Large)
                .count() as f64
                / t.len() as f64
        };
        assert!(
            large(&mcf) > large(&gzip),
            "mcf large {:.2} vs gzip {:.2}",
            large(&mcf),
            large(&gzip)
        );
    }

    #[test]
    fn shift_immediates_stay_in_range() {
        let t = TraceGenerator::new(Benchmark::Bzip2, 11).trace(5_000);
        for i in &t {
            if matches!(i.opcode, Opcode::Sll | Opcode::Srl | Opcode::Sra) {
                assert!(i.b < 32, "{i}");
            }
            if i.opcode == Opcode::Lui {
                assert_eq!(i.b, 16);
            }
        }
    }

    #[test]
    fn zero_total_weights_sample_uniformly_instead_of_panicking() {
        // A profile whose weights sum to zero must not panic in
        // gen_index(0) or silently pin every template to entry 0.
        let profile = Profile {
            blocks: 1,
            block_len: (2, 2),
            loop_repeat: 0.5,
            wide_operand_bias: 0.5,
            opcode_weights: vec![(Opcode::Addu, 0), (Opcode::Xor, 0), (Opcode::Lw, 0)],
        };
        let mut rng = SplitMix64::seed_from_u64(17);
        let seen: std::collections::HashSet<Opcode> = (0..96)
            .map(|_| Template::sample(&mut rng, &profile).opcode)
            .collect();
        assert_eq!(seen.len(), 3, "uniform fallback reaches every entry");
    }

    #[test]
    #[should_panic(expected = "no opcode weights")]
    fn empty_weight_table_panics_with_a_clear_message() {
        let profile = Profile {
            blocks: 1,
            block_len: (2, 2),
            loop_repeat: 0.5,
            wide_operand_bias: 0.5,
            opcode_weights: Vec::new(),
        };
        let _ = Template::sample(&mut SplitMix64::seed_from_u64(1), &profile);
    }

    #[test]
    fn iterator_interface_works() {
        let gen = TraceGenerator::new(Benchmark::Parser, 1);
        let v: Vec<Instruction> = gen.take(10).collect();
        assert_eq!(v.len(), 10);
    }
}
