//! # ntc-netlist
//!
//! Gate-level netlist kernel for the `ntc-choke` cross-layer simulator: the
//! substitute for an RTL synthesis flow (Synopsys Design Compiler + a
//! NanGate-style 15 nm FinFET cell library in the original paper).
//!
//! The crate provides:
//!
//! * a [standard-cell library](cell::CellKind) with per-cell nominal delay,
//!   area, switching energy and leakage;
//! * an arena [`Netlist`] whose gate order is a topological order by
//!   construction, plus the incremental [`Builder`];
//! * [structural generators](generators) for the datapath blocks the paper
//!   studies: parallel-prefix and ripple adders, an array multiplier,
//!   barrel shifters, bitwise logic - composed into the width-parametric
//!   [`Alu`](generators::alu::Alu) and [`ExStage`](generators::ex_stage::ExStage);
//! * the Razor-style [hold-fixing buffer-insertion pass](buffer_insertion)
//!   whose failure mode at NTC ("choke buffers") Chapter 4 studies;
//! * [gate-level synthesis](synth) of the DCS/Trident hardware blocks for
//!   the overhead tables.
//!
//! # Examples
//!
//! Build an 8-bit ALU and execute an operation through the gate network:
//!
//! ```
//! use ntc_netlist::generators::alu::{Alu, AluFunc};
//!
//! let alu = Alu::new(8);
//! assert_eq!(alu.execute(AluFunc::Add, 200, 100), (200u64 + 100) & 0xFF);
//! assert_eq!(alu.execute(AluFunc::Nor, 0xF0, 0x0F), 0x00);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod buffer_insertion;
pub mod cell;
pub mod generators;
mod netlist;
pub mod synth;
pub mod verilog;

pub use cell::{CellKind, ALL_CELL_KINDS};
pub use netlist::{BuildNetlistError, Builder, Gate, Guard, Netlist, Port, Signal};
