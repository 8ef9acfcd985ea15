//! # ntc-bench
//!
//! Shared fixtures for the Criterion-style benchmark harness. Two bench
//! targets live under `benches/`:
//!
//! * `figures` — one table with a row per timed kernel behind each paper
//!   figure or table (see DESIGN.md's per-experiment index), at a reduced
//!   size so a full `cargo bench` stays laptop-friendly; positional
//!   arguments filter rows by `group/id` substring;
//! * `dynamic_sim` — the exact dynamic-timing kernel on its own.

#![warn(missing_docs)]

pub mod harness;

use ntc_core::tag_delay::{OracleConfig, TagDelayOracle};
use ntc_isa::Instruction;
use ntc_timing::ClockSpec;
use ntc_varmodel::{Corner, VariationParams};
use ntc_workload::{Benchmark, TraceGenerator};

/// Trace length used by the scheme-level benches.
pub const BENCH_CYCLES: usize = 4_000;

/// A small, warmed delay oracle plus a matching trace and clock — the
/// fixture every scheme-level bench runs against. Warming (pre-querying
/// all delays) keeps the benches measuring the scheme logic rather than
/// first-touch gate simulations.
pub struct SchemeFixture {
    /// The warmed per-chip oracle.
    pub oracle: TagDelayOracle,
    /// The benchmark trace.
    pub trace: Vec<Instruction>,
    /// The Razor-family clock.
    pub clock: ClockSpec,
    /// The Trident (TDC guard interval) clock.
    pub tdc_clock: ClockSpec,
}

impl SchemeFixture {
    /// Build and warm the fixture for one benchmark.
    pub fn new(bench: Benchmark) -> Self {
        let mut oracle = TagDelayOracle::for_chip(
            Corner::NTC,
            VariationParams::ntc(),
            7,
            OracleConfig::default(),
        );
        let trace = TraceGenerator::new(bench, 3).trace(BENCH_CYCLES);
        let nominal = oracle.nominal_critical_delay_ps();
        let clock = ClockSpec {
            period_ps: nominal * 0.95,
            hold_ps: nominal * 0.22,
        };
        let tdc_clock = ClockSpec {
            period_ps: nominal * 0.95,
            hold_ps: nominal * 0.14,
        };
        for pair in trace.windows(2) {
            let _ = oracle.delays(&pair[0], &pair[1]);
        }
        SchemeFixture {
            oracle,
            trace,
            clock,
            tdc_clock,
        }
    }
}
