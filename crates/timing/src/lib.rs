//! # ntc-timing
//!
//! Timing analysis for the `ntc-choke` cross-layer simulator: the in-house
//! "statistical dynamic timing analysis tool" the paper's circuit layer is
//! built around.
//!
//! * [`sta`] — static min/max arrival analysis and critical-path extraction
//!   under a per-chip delay signature;
//! * [`dynamic`] — glitch-aware two-vector (initializing + sensitizing)
//!   timing simulation producing per-output transition waveforms;
//! * [`choke`] — CDL / CGL choke-point metrics over sensitized cycles;
//! * [`errors`] — classification of cycles into minimum / maximum timing
//!   violations and Trident's SE / CE error classes.
//!
//! # Examples
//!
//! Detect a maximum-timing violation on a PV-affected NTC chip:
//!
//! ```
//! use ntc_netlist::generators::alu::{Alu, AluFunc};
//! use ntc_timing::{classify_cycle, ClockSpec, DynamicSim, StaticTiming};
//! use ntc_varmodel::{ChipSignature, Corner, VariationParams};
//!
//! let alu = Alu::new(8);
//! let nominal = ChipSignature::nominal(alu.netlist(), Corner::NTC);
//! let critical = StaticTiming::analyze(alu.netlist(), &nominal).critical_delay_ps(alu.netlist());
//! let clock = ClockSpec::from_critical_delay(critical, 0.05, 0.12);
//!
//! let chip = ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), 42);
//! let mut sim = DynamicSim::new(alu.netlist(), &chip);
//! let timing = sim.simulate_pair(
//!     &alu.encode(AluFunc::Mult, 0, 0),
//!     &alu.encode(AluFunc::Mult, 0xFF, 0xFF),
//! );
//! let violation = classify_cycle(&timing, &clock);
//! // Whether this chip errs depends on the fabrication lottery; both
//! // outcomes are legal here.
//! let _ = violation.any();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod choke;
pub mod dynamic;
pub mod errors;
pub mod paths;
#[cfg(test)]
mod reference;
pub mod sta;

pub use choke::{identify_choke_event, CdlCategory, CdlCglProfile, ChokeEvent, ALL_CDL_CATEGORIES};
pub use dynamic::{
    CycleTiming, DynamicSim, MinMaxDelays, OutputActivity, SimWorkspace, MAX_EVENTS_PER_NET,
};
pub use errors::{
    classify_cycle, classify_stream, illegal_transition_count, ClockSpec, CycleViolation,
    ErrorClass,
};
pub use paths::{k_critical_paths, RankedPath, SlackReport};
pub use sta::{set_sta_scope, take_sta_full, StaScope, StaticTiming, TimingPath};
