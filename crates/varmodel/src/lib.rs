//! # ntc-varmodel
//!
//! The device and process-variation layer of the `ntc-choke` cross-layer
//! simulator: the substitute for HSPICE + predictive technology models
//! (device delays) and the VARIUS / VARIUS-NTV microarchitectural variation
//! models the paper builds on.
//!
//! * [`device`] — alpha-power-law FinFET delay model with the paper's two
//!   operating corners ([`Corner::STC`] = 0.8 V, [`Corner::NTC`] = 0.45 V).
//! * [`point`] — the canonical [`OperatingPoint`] roster (`v0.45` …
//!   `v0.80` at a fixed step): supply voltage as a named, parseable sweep
//!   axis between (and including) the two stock corners.
//! * [`variation`] — systematic (spatially correlated) + random threshold
//!   voltage variation, plus a lognormal geometric term for the secondary
//!   FinFET parameters.
//! * [`signature`] — per-chip post-silicon delay assignments, choke-gate
//!   identification, controlled choke injection, and the chip lottery.
//! * [`aging`] — BTI-style threshold drift over a chip's lifetime.
//! * [`telemetry`] — the one counter array and attribution scope every
//!   layer above counts its work through.
//! * [`memo`] — the one bounded, build-once memo behind every process
//!   cache of the layers above.
//!
//! # Examples
//!
//! Fabricate an NTC chip and inspect its delay spread:
//!
//! ```
//! use ntc_netlist::generators::alu::Alu;
//! use ntc_varmodel::{ChipSignature, Corner, VariationParams};
//!
//! let alu = Alu::new(8);
//! let chip = ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), 1);
//! let stats = chip.multiplier_stats(alu.netlist());
//! assert!(stats.max > stats.min);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aging;
pub mod device;
pub mod memo;
pub mod point;
pub mod rng;
pub mod signature;
pub mod telemetry;
pub mod variation;

pub use aging::at_age;
pub use device::{Corner, ALPHA, MIN_VDD, VTH_NOMINAL};
pub use memo::Memo;
pub use point::{OperatingPoint, ParsePointError, VDD_STEP};
pub use rng::SplitMix64;
pub use signature::{chip_lottery, ChipSignature, MultiplierStats};
pub use variation::{GateVariation, SystematicField, VariationParams, VariationSampler};
