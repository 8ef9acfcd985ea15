//! The standard-cell library.
//!
//! Cell timing/area/energy numbers are inspired by the relative figures of a
//! 15 nm FinFET open cell library (the paper synthesizes against NanGate's
//! 15 nm OpenCell library). Absolute values are nominal super-threshold
//! (0.8 V) numbers; the device layer in `ntc-varmodel` rescales them for the
//! near-threshold corner and applies process variation per fabricated chip.

use std::fmt;

/// The kind of a logic cell (or netlist pseudo-cell).
///
/// `Input` and the constant cells are pseudo-cells: they have no inputs and
/// no delay, and exist so every signal in a [`Netlist`](crate::Netlist) is
/// the output of exactly one gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellKind {
    /// Primary input (launched from a pipeline register).
    Input,
    /// Constant logic 0.
    Const0,
    /// Constant logic 1.
    Const1,
    /// Inverter.
    Inv,
    /// Non-inverting buffer (also used by the hold-fixing pass).
    Buf,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 2:1 multiplexer; inputs are `[a, b, sel]`, output is `a` when
    /// `sel == 0` and `b` when `sel == 1`.
    Mux2,
    /// 3-input majority gate (full-adder carry).
    Maj3,
}

/// All cell kinds, in a stable order (useful for iterating library reports).
pub const ALL_CELL_KINDS: [CellKind; 13] = [
    CellKind::Input,
    CellKind::Const0,
    CellKind::Const1,
    CellKind::Inv,
    CellKind::Buf,
    CellKind::And2,
    CellKind::Or2,
    CellKind::Nand2,
    CellKind::Nor2,
    CellKind::Xor2,
    CellKind::Xnor2,
    CellKind::Mux2,
    CellKind::Maj3,
];

impl CellKind {
    /// Number of input pins of this cell.
    #[inline]
    pub fn arity(self) -> usize {
        match self {
            CellKind::Input | CellKind::Const0 | CellKind::Const1 => 0,
            CellKind::Inv | CellKind::Buf => 1,
            CellKind::And2
            | CellKind::Or2
            | CellKind::Nand2
            | CellKind::Nor2
            | CellKind::Xor2
            | CellKind::Xnor2 => 2,
            CellKind::Mux2 | CellKind::Maj3 => 3,
        }
    }

    /// Whether this is a pseudo-cell (input/constant) rather than real logic.
    #[inline]
    pub fn is_pseudo(self) -> bool {
        matches!(self, CellKind::Input | CellKind::Const0 | CellKind::Const1)
    }

    /// Nominal propagation delay in picoseconds at the super-threshold
    /// corner (0.8 V), before process variation.
    #[inline]
    pub fn nominal_delay_ps(self) -> f64 {
        match self {
            CellKind::Input | CellKind::Const0 | CellKind::Const1 => 0.0,
            CellKind::Inv => 8.0,
            CellKind::Buf => 13.0,
            CellKind::Nand2 => 10.0,
            CellKind::Nor2 => 12.0,
            CellKind::And2 => 14.0,
            CellKind::Or2 => 15.0,
            CellKind::Xor2 => 19.0,
            CellKind::Xnor2 => 19.0,
            CellKind::Mux2 => 17.0,
            CellKind::Maj3 => 21.0,
        }
    }

    /// Cell area in square micrometres (15 nm-class relative values).
    #[inline]
    pub fn area_um2(self) -> f64 {
        match self {
            CellKind::Input | CellKind::Const0 | CellKind::Const1 => 0.0,
            CellKind::Inv => 0.196,
            CellKind::Buf => 0.245,
            CellKind::Nand2 => 0.245,
            CellKind::Nor2 => 0.245,
            CellKind::And2 => 0.294,
            CellKind::Or2 => 0.294,
            CellKind::Xor2 => 0.441,
            CellKind::Xnor2 => 0.441,
            CellKind::Mux2 => 0.490,
            CellKind::Maj3 => 0.539,
        }
    }

    /// Switching energy per output transition in femtojoules at 0.8 V.
    ///
    /// Dynamic energy scales quadratically with supply voltage; the energy
    /// model in `ntc-pipeline` applies that scaling for the NTC corner.
    #[inline]
    pub fn switch_energy_fj(self) -> f64 {
        // Roughly proportional to cell area (load + internal capacitance).
        self.area_um2() * 1.6
    }

    /// Leakage power in nanowatts at 0.8 V.
    #[inline]
    pub fn leakage_nw(self) -> f64 {
        self.area_um2() * 0.9
    }

    /// Evaluate the cell's logic function: pin `j` is bit `j` of the
    /// [`truth_table`](Self::truth_table) index.
    ///
    /// `ins` must contain at least [`arity`](Self::arity) values; extra
    /// entries are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `ins` is shorter than the cell's arity, or if called on
    /// [`CellKind::Input`] (inputs have no logic function; their value comes
    /// from the stimulus).
    #[inline]
    pub fn eval(self, ins: &[bool]) -> bool {
        assert!(
            self != CellKind::Input,
            "primary inputs have no logic function"
        );
        let state = ins[..self.arity()]
            .iter()
            .enumerate()
            .fold(0u8, |s, (j, &v)| s | (v as u8) << j);
        self.truth_table() >> state & 1 == 1
    }

    /// The cell's logic function as an 8-entry truth table: bit `s` is the
    /// output when pin `j` carries bit `j` of `s`. Pins past the
    /// [`arity`](Self::arity) are ignored, so a caller may read all three
    /// pins of any gate (1- and 2-input gates repeat a real input there).
    /// `Const0` and `Const1` read as constants; `Input` reads as 0, since an
    /// input's value comes from the stimulus.
    pub const fn truth_table(self) -> u8 {
        // Pin `j`'s column: bit `s` set when bit `j` of `s` is.
        const A: u8 = 0xAA;
        const B: u8 = 0xCC;
        const C: u8 = 0xF0;
        match self {
            CellKind::Input | CellKind::Const0 => 0,
            CellKind::Const1 => !0,
            CellKind::Inv => !A,
            CellKind::Buf => A,
            CellKind::And2 => A & B,
            CellKind::Or2 => A | B,
            CellKind::Nand2 => !(A & B),
            CellKind::Nor2 => !(A | B),
            CellKind::Xor2 => A ^ B,
            CellKind::Xnor2 => !(A ^ B),
            CellKind::Mux2 => (A & !C) | (B & C),
            CellKind::Maj3 => (A & B) | (C & (A ^ B)),
        }
    }

    /// Short library-style cell name (e.g. `NAND2_X1`).
    pub fn lib_name(self) -> &'static str {
        match self {
            CellKind::Input => "INPUT",
            CellKind::Const0 => "TIE0",
            CellKind::Const1 => "TIE1",
            CellKind::Inv => "INV_X1",
            CellKind::Buf => "BUF_X1",
            CellKind::And2 => "AND2_X1",
            CellKind::Or2 => "OR2_X1",
            CellKind::Nand2 => "NAND2_X1",
            CellKind::Nor2 => "NOR2_X1",
            CellKind::Xor2 => "XOR2_X1",
            CellKind::Xnor2 => "XNOR2_X1",
            CellKind::Mux2 => "MUX2_X1",
            CellKind::Maj3 => "MAJ3_X1",
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.lib_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_matches_eval_requirements() {
        for kind in ALL_CELL_KINDS {
            if kind == CellKind::Input {
                continue;
            }
            let ins = vec![true; kind.arity()];
            // Must not panic with exactly `arity` inputs.
            let _ = kind.eval(&ins);
        }
    }

    #[test]
    fn logic_truth_tables() {
        use CellKind::*;
        assert!(!Const0.eval(&[]));
        assert!(Const1.eval(&[]));
        assert!(Inv.eval(&[false]));
        assert!(!Inv.eval(&[true]));
        assert!(Buf.eval(&[true]));
        for a in [false, true] {
            for b in [false, true] {
                assert_eq!(And2.eval(&[a, b]), a & b);
                assert_eq!(Or2.eval(&[a, b]), a | b);
                assert_eq!(Nand2.eval(&[a, b]), !(a & b));
                assert_eq!(Nor2.eval(&[a, b]), !(a | b));
                assert_eq!(Xor2.eval(&[a, b]), a ^ b);
                assert_eq!(Xnor2.eval(&[a, b]), !(a ^ b));
                for s in [false, true] {
                    assert_eq!(Mux2.eval(&[a, b, s]), if s { b } else { a });
                    let maj = (a & b) | (b & s) | (a & s);
                    assert_eq!(Maj3.eval(&[a, b, s]), maj);
                }
            }
        }
    }

    #[test]
    fn truth_table_agrees_with_eval() {
        for kind in ALL_CELL_KINDS.into_iter().filter(|k| !k.is_pseudo()) {
            let table = kind.truth_table();
            for s in 0..8u8 {
                let pins = [s & 1 == 1, s & 2 == 2, s & 4 == 4];
                assert_eq!(
                    table >> s & 1 == 1,
                    kind.eval(&pins[..kind.arity()]),
                    "{kind} at pin state {s:03b}"
                );
            }
        }
        assert_eq!(CellKind::Const0.truth_table(), 0);
        assert_eq!(CellKind::Const1.truth_table(), 0xFF);
    }

    #[test]
    fn pseudo_cells_are_free() {
        for kind in [CellKind::Input, CellKind::Const0, CellKind::Const1] {
            assert!(kind.is_pseudo());
            assert_eq!(kind.nominal_delay_ps(), 0.0);
            assert_eq!(kind.area_um2(), 0.0);
        }
        assert!(!CellKind::Nand2.is_pseudo());
    }

    #[test]
    fn xor_slower_than_nand() {
        assert!(CellKind::Xor2.nominal_delay_ps() > CellKind::Nand2.nominal_delay_ps());
    }
}
