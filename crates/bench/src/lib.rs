//! # ntc-bench
//!
//! The Criterion-style benchmark harness. One bench target lives under
//! `benches/`: `dynamic_sim`, the exact dynamic-timing kernel on its own.

#![warn(missing_docs)]

pub mod harness;
