//! # ntc-choke
//!
//! Facade crate for the choke-point timing-error resilience study: a
//! from-scratch Rust reproduction of "Revamping timing error resilience to
//! tackle choke points at NTC systems" (DATE 2017) and its Trident
//! extension, including every substrate (gate-level netlists, device and
//! process-variation models, static/dynamic timing analysis, ISA +
//! workload models, pipeline cost model) and the resilience schemes
//! themselves (DCS-ICSLT, DCS-ACSLT, Trident, and the Razor/HFG/OCST
//! baselines).
//!
//! Each subsystem lives in its own crate and is re-exported here:
//!
//! * [`netlist`] — gate-level circuits and structural generators
//! * [`varmodel`] — FinFET delay + process-variation models
//! * [`timing`] — static STA and dynamic two-vector timing simulation
//! * [`isa`] — the MIPS-like ISA subset and operand metrics
//! * [`workload`] — SPEC-CPU2000-like trace generators
//! * [`pipeline`] — the 11-stage pipeline and energy model
//! * [`core`] — the resilience schemes and the cross-layer simulator
//! * [`experiments`] — per-figure reproduction runners
//! * [`serve`] — the grid-compute daemon (JSON-lines protocol,
//!   build-once memos, admission control)

pub use ntc_core as core;
pub use ntc_experiments as experiments;
pub use ntc_isa as isa;
pub use ntc_netlist as netlist;
pub use ntc_pipeline as pipeline;
pub use ntc_serve as serve;
pub use ntc_timing as timing;
pub use ntc_varmodel as varmodel;
pub use ntc_workload as workload;
