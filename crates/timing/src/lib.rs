//! # ntc-timing
//!
//! Timing analysis for the `ntc-choke` cross-layer simulator: the in-house
//! "statistical dynamic timing analysis tool" the paper's circuit layer is
//! built around.
//!
//! * [`sta`] — static max-arrival analysis under a per-chip delay
//!   signature, and the critical delay it gives;
//! * [`paths`] — the K most critical paths and their slacks, for
//!   inspecting one die;
//! * [`dynamic`] — glitch-aware two-vector (initializing + sensitizing)
//!   timing simulation, driven through one [`SimWorkspace`], producing
//!   each cycle's min/max output arrivals and its causal path;
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
//! use ntc_timing::{classify_cycle, ClockSpec, SimWorkspace, StaticTiming};
//! use ntc_varmodel::{ChipSignature, Corner, VariationParams};
//!
//! let alu = Alu::new(8);
//! let nominal = ChipSignature::nominal(alu.netlist(), Corner::NTC);
//! let critical = StaticTiming::analyze(alu.netlist(), &nominal).critical_delay_ps(alu.netlist());
//! // A 5% guardband on the nominal critical delay; the hold window closes
//! // at 12% of the period.
//! let period_ps = critical * 1.05;
//! let clock = ClockSpec {
//!     period_ps,
//!     hold_ps: period_ps * 0.12,
//! };
//!
//! let chip = ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), 42);
//! let mut ws = SimWorkspace::new();
//! let delays = ws.simulate_pair_minmax(
//!     alu.netlist(),
//!     &chip,
//!     &alu.encode(AluFunc::Mult, 0, 0),
//!     &alu.encode(AluFunc::Mult, 0xFF, 0xFF),
//! );
//! assert!(delays.max_ps.expect("the multiplier toggles") > 0.0);
//! let violation = classify_cycle(delays, &clock);
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
pub use dynamic::{CycleDelays, SimWorkspace, MAX_EVENTS_PER_NET};
pub use errors::{classify_cycle, classify_stream, ClockSpec, CycleViolation, ErrorClass};
pub use paths::{k_critical_paths, RankedPath, SlackReport};
pub use sta::StaticTiming;
