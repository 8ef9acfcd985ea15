//! # ntc-serve
//!
//! The grid-compute daemon: a long-lived server that turns the one-shot
//! batch repro harness into a shared service. Clients speak a JSON-lines
//! protocol over a Unix or TCP socket ([`protocol`]), requesting either
//! a whole experiment of the suite or an arbitrary
//! [`GridSpec`](ntc_experiments::scenario::GridSpec); the daemon answers
//! from the in-memory grid memo, the on-disk artifact cache, or a fresh
//! compute on the shared parallel runner — and tells the client which,
//! in a schema-versioned receipt.
//!
//! Three mechanisms make many clients cheaper than many batch runs:
//!
//! * **Shared cache tiers** — every request funnels through the same
//!   process-wide grid memo and `--cache-dir` artifacts the batch
//!   binaries use, so results computed once (by anyone, in any process)
//!   are served warm. Every process memo is a capped
//!   [`Memo`](ntc_varmodel::Memo), so memory stays bounded however many
//!   distinct specs the daemon serves.
//! * **In-flight coalescing** ([`coalesce`]) — N concurrent requests
//!   for the same job run ONE compute; the other N−1 block on the open
//!   flight and share its result, each receipt reporting
//!   `coalesced_with > 0`.
//! * **Admission control** ([`admission`]) — a bounded compute budget
//!   plus a bounded wait queue; requests past both get an immediate
//!   `busy` error, the backpressure signal a closed-loop client needs
//!   to shed load instead of stacking timeouts. A grid the memo or disk
//!   tier already holds answers without taking a slot.
//!
//! Determinism carries over unchanged: a served CSV is byte-identical
//! to what a batch `repro` run writes for the same work at any
//! `--jobs` count (pinned by `tests/serve_integration.rs` and the CI
//! gate).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod client;
pub mod coalesce;
pub mod protocol;
pub mod server;

pub use admission::{Admission, Busy};
pub use client::{roundtrip, roundtrip_many};
pub use coalesce::{Flight, FlightMap, Role};
pub use protocol::{ErrorCode, Receipt, Request, RECEIPT_SCHEMA};
pub use server::{install_signal_handlers, request_shutdown, Addr, ServeConfig, Server};
