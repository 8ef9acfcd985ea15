//! # ntc-bench
//!
//! The Criterion-style benchmark harness. Two bench targets live under
//! `benches/`: `dynamic_sim`, the exact dynamic-timing kernel on its own,
//! and `scheme_loop`, the per-cycle loop that streams a warm oracle's
//! tags and delays to the Ch. 3 schemes.

#![warn(missing_docs)]

pub mod harness;
