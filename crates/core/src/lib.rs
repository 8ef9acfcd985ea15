//! # ntc-core
//!
//! The paper's contribution: choke-point timing-error resilience schemes
//! for near-threshold computing, together with the cross-layer simulator
//! that evaluates them.
//!
//! * [`dcs`] — **Dynamic Choke Sensing** (DATE 2017 / Ch. 3): four-part
//!   error tags, the ICSLT/ACSLT lookup tables, Bloom-filter lookup and
//!   the stall-based avoidance flow.
//! * [`trident`] — **Trident** (Ch. 4): transition-detection-based
//!   classification into SE(Min)/SE(Max)/CE, the EID-keyed Choke Error
//!   Table and class-specific stall avoidance, with no reliance on hold
//!   buffers.
//! * [`baselines`] — Razor, HFG and OCST, the STC state of the art the
//!   paper compares against.
//! * [`tag_delay`] — the two-phase delay oracle bridging the gate-level
//!   timing simulation and the million-cycle instruction-level runs.
//! * [`sim`] — the error-stream simulator and the scheme-free profiler.
//! * [`scenario`] — the scheme registry ([`scenario::SchemeSpec`]) and the
//!   shared per-benchmark fold ([`scenario::SimAccumulator`]) behind the
//!   data-driven experiment grids.
//! * [`overhead`] — gate-level synthesis of each scheme's hardware for the
//!   overhead tables.
//!
//! # Examples
//!
//! Compare Razor and DCS over an mcf-like trace on one fabricated chip:
//!
//! ```
//! use ntc_core::baselines::Razor;
//! use ntc_core::dcs::Dcs;
//! use ntc_core::sim::run_scheme;
//! use ntc_core::tag_delay::TagDelayOracle;
//! use ntc_pipeline::Pipeline;
//! use ntc_timing::ClockSpec;
//! use ntc_varmodel::{Corner, VariationParams};
//! use ntc_workload::{Benchmark, TraceGenerator};
//!
//! let mut oracle = TagDelayOracle::for_chip(Corner::NTC, VariationParams::ntc(), 7);
//! let trace = TraceGenerator::new(Benchmark::Mcf, 1).trace(2_000);
//! let nominal = oracle.nominal_critical_delay_ps();
//! let clock = ClockSpec { period_ps: nominal * 0.75, hold_ps: nominal * 0.06 };
//!
//! let razor = run_scheme(&mut Razor::ch3(), &mut oracle, &trace, clock, Pipeline::core1());
//! let dcs = run_scheme(&mut Dcs::icslt_default(), &mut oracle, &trace, clock, Pipeline::core1());
//! assert!(dcs.cost.penalty_cycles() <= razor.cost.penalty_cycles());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baselines;
pub mod dcs;
pub mod dvs;
pub mod overhead;
pub mod scenario;
pub mod scheme;
pub mod sim;
pub mod tables;
pub mod tag_delay;
pub mod trident;

pub use baselines::{HardenedRazor, Hfg, Ocst, Razor};
pub use dcs::{CsltKind, Dcs};
pub use dvs::{DvsController, DvsLevel, DVS_TARGET_PPM};
pub use scenario::{ChipContext, ParseSchemeError, SchemeSpec, SimAccumulator};
pub use scheme::{CycleContext, CycleOutcome, ResilienceScheme};
pub use sim::{profile_errors, run_scheme, ErrorProfile, SimResult};
pub use tag_delay::{
    take_oracle_stats, CycleDelays, OracleStats, ShardedDelayCache, SharedDelayCache,
    TagDelayOracle,
};
pub use trident::{Eid, Trident, EID_BITS};
