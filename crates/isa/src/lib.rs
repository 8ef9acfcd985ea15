//! # ntc-isa
//!
//! A MIPS-like instruction-set subset with behavioural (golden-model)
//! semantics: the architectural vocabulary shared by the workload
//! generators, the pipeline model and the resilience schemes.
//!
//! The set covers every instruction named in the paper's figures (ADDU,
//! SUBU, ADDIU, AND/ANDI, OR/ORI, NOR, XOR, LUI, SLL/SRL/SRA and their
//! variable variants, ROR, MULT/MFLO, LW, MOVE) and maps each onto an ALU
//! datapath function ([`AluFunc`]) plus an operand routing.
//!
//! Two operand metrics from the paper live here:
//!
//! * the **Operand Width Marker** (OWM, Ch. 3): set when either operand's
//!   *significant width* (population count) reaches half the architectural
//!   width — wide operands sensitize more paths;
//! * the **operand size** classification (Ch. 4): `Large` when the leftmost
//!   set bit of either operand falls in the upper half of the word.
//!
//! # Examples
//!
//! ```
//! use ntc_isa::{Instruction, Opcode, OperandSize};
//!
//! let i = Instruction::new(Opcode::Addu, 0x0001_0000, 0x0000_00FF);
//! assert_eq!(i.execute(), 0x0001_00FF);
//! assert!(!i.owm());
//! assert_eq!(i.operand_size(), OperandSize::Large);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use ntc_netlist::generators::alu::AluFunc;
use std::fmt;

/// Architectural operand width in bits (a 32-bit RISC core, as in the
/// paper's FabScalar Core-1 configuration).
pub const ARCH_WIDTH: usize = 32;

/// Architectural opcodes of the modelled ISA subset. The discriminants
/// are the tag encodings: declaration order is [`ALL_OPCODES`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // variant names are the mnemonics themselves
#[repr(u8)]
pub enum Opcode {
    Addu,
    Subu,
    Addiu,
    And,
    Andi,
    Or,
    Ori,
    Nor,
    Xor,
    Xori,
    Lui,
    Sll,
    Srl,
    Sra,
    Sllv,
    Srlv,
    Srav,
    Ror,
    Mult,
    Mflo,
    Lw,
    Move,
}

/// Every opcode, in encoding order.
pub const ALL_OPCODES: [Opcode; 22] = [
    Opcode::Addu,
    Opcode::Subu,
    Opcode::Addiu,
    Opcode::And,
    Opcode::Andi,
    Opcode::Or,
    Opcode::Ori,
    Opcode::Nor,
    Opcode::Xor,
    Opcode::Xori,
    Opcode::Lui,
    Opcode::Sll,
    Opcode::Srl,
    Opcode::Sra,
    Opcode::Sllv,
    Opcode::Srlv,
    Opcode::Srav,
    Opcode::Ror,
    Opcode::Mult,
    Opcode::Mflo,
    Opcode::Lw,
    Opcode::Move,
];

impl Opcode {
    /// The 8-bit opcode encoding used in the error tags (the paper's CSLT
    /// stores 8-bit opcodes).
    #[inline]
    pub fn encoding(self) -> u8 {
        self as u8
    }

    /// Inverse of [`encoding`](Self::encoding).
    pub fn from_encoding(code: u8) -> Option<Self> {
        ALL_OPCODES.get(code as usize).copied()
    }

    /// The ALU datapath function this opcode exercises.
    ///
    /// MFLO reads the LO register, which was produced by the multiplier; in
    /// the EX-stage timing study it exercises the multiplier read-out path,
    /// matching the paper's observation that MFLO sensitizes deep paths.
    pub fn alu_func(self) -> AluFunc {
        use Opcode::*;
        match self {
            Addu | Addiu => AluFunc::Add,
            Subu => AluFunc::Sub,
            And | Andi => AluFunc::And,
            Or | Ori => AluFunc::Or,
            Nor => AluFunc::Nor,
            Xor | Xori => AluFunc::Xor,
            Lui | Sll | Sllv => AluFunc::ShiftLeft,
            Srl | Srlv => AluFunc::ShiftRightLogical,
            Sra | Srav => AluFunc::ShiftRightArith,
            Ror => AluFunc::RotateRight,
            Mult | Mflo => AluFunc::Mult,
            Lw => AluFunc::Load,
            Move => AluFunc::Buffer,
        }
    }

    /// Whether this opcode takes an immediate (vs. register) second operand.
    pub fn has_immediate(self) -> bool {
        use Opcode::*;
        matches!(self, Addiu | Andi | Ori | Xori | Lui | Sll | Srl | Sra | Lw)
    }

    /// Mnemonic as printed in the paper's figures.
    pub fn mnemonic(self) -> &'static str {
        use Opcode::*;
        match self {
            Addu => "ADDU",
            Subu => "SUBU",
            Addiu => "ADDIU",
            And => "AND",
            Andi => "ANDI",
            Or => "OR",
            Ori => "ORI",
            Nor => "NOR",
            Xor => "XOR",
            Xori => "XORI",
            Lui => "LUI",
            Sll => "SLL",
            Srl => "SRL",
            Sra => "SRA",
            Sllv => "SLLV",
            Srlv => "SRLV",
            Srav => "SRAV",
            Ror => "ROR",
            Mult => "MULT",
            Mflo => "MFLO",
            Lw => "LW",
            Move => "MOVE",
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Chapter 4's operand-size classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperandSize {
    /// Leftmost set bit of both operands lies in the lower half-word.
    Small,
    /// Leftmost set bit of either operand lies in the upper half-word.
    Large,
}

impl fmt::Display for OperandSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OperandSize::Small => "Small",
            OperandSize::Large => "Large",
        })
    }
}

/// A dynamic instruction as seen by the EX stage: opcode plus resolved
/// operand values.
///
/// The operands are `ARCH_WIDTH` = 32-bit words, stored as `u32`, so an
/// instruction is 12 bytes and a 1M-instruction trace 12 MB. Code that
/// feeds them to a netlist or the golden model widens them with
/// `u64::from`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// The architectural opcode.
    pub opcode: Opcode,
    /// First (register) operand value, LSB-aligned.
    pub a: u32,
    /// Second operand value (register or resolved immediate).
    pub b: u32,
}

const _: () = assert!(ARCH_WIDTH <= 32, "operands are stored as u32");
const _: () = assert!(std::mem::size_of::<Instruction>() == 12);

impl Instruction {
    /// Create an instruction, masking the operands to the architectural
    /// width.
    pub fn new(opcode: Opcode, a: u64, b: u64) -> Self {
        let mask = arch_mask();
        // The mask keeps at most 32 bits (asserted above), so the
        // narrowing casts drop nothing.
        Instruction {
            opcode,
            a: (a & mask) as u32,
            b: (b & mask) as u32,
        }
    }

    /// Behavioural result of the instruction (the golden model).
    pub fn execute(&self) -> u64 {
        self.opcode
            .alu_func()
            .golden(u64::from(self.a), u64::from(self.b), ARCH_WIDTH)
    }

    /// The Operand Width Marker (Ch. 3): set when either operand's
    /// significant width (number of set bits) is at least half the
    /// architectural width.
    pub fn owm(&self) -> bool {
        let half = (ARCH_WIDTH / 2) as u32;
        self.a.count_ones() >= half || self.b.count_ones() >= half
    }

    /// The operand-size classification (Ch. 4): `Large` when the leftmost
    /// set bit of either operand lies in the upper half-word.
    pub fn operand_size(&self) -> OperandSize {
        let half = ARCH_WIDTH as u32 / 2;
        let large = |v: u64| v != 0 && (63 - v.leading_zeros()) >= half;
        if large(u64::from(self.a)) || large(u64::from(self.b)) {
            OperandSize::Large
        } else {
            OperandSize::Small
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:#x}, {:#x}", self.opcode, self.a, self.b)
    }
}

/// Bitmask of the architectural width.
#[inline]
pub fn arch_mask() -> u64 {
    if ARCH_WIDTH >= 64 {
        u64::MAX
    } else {
        (1u64 << ARCH_WIDTH) - 1
    }
}

/// The error-tag key of the DCS scheme (Ch. 3): errant and previous-cycle
/// opcode + OWM pairs — the four-part tag stored in the CSLT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ErrorTag {
    /// Errant (sensitizing) instruction opcode encoding.
    pub opcode: u8,
    /// Errant instruction OWM.
    pub owm: bool,
    /// Previous-cycle (initializing) instruction opcode encoding.
    pub prev_opcode: u8,
    /// Previous-cycle OWM.
    pub prev_owm: bool,
}

impl ErrorTag {
    /// Bit count of the stored tag (for the overhead tables): two 8-bit
    /// opcodes + two OWM bits.
    pub const BITS: usize = 18;

    /// Distinct tags of the modelled ISA: 22 opcodes × 2 OWM values, for
    /// the errant and the previous instruction (1,936).
    pub const COUNT: usize = ALL_OPCODES.len() * 2 * ALL_OPCODES.len() * 2;

    /// Build the tag for a consecutive instruction pair.
    pub fn of(prev: &Instruction, cur: &Instruction) -> Self {
        ErrorTag {
            opcode: cur.opcode.encoding(),
            owm: cur.owm(),
            prev_opcode: prev.opcode.encoding(),
            prev_owm: prev.owm(),
        }
    }

    /// The tag's number in `0..ErrorTag::COUNT`: opcode, OWM, previous
    /// opcode and previous OWM as the digits of one mixed-radix number,
    /// so tables keyed by tag can be plain arrays.
    #[inline]
    pub fn index(&self) -> usize {
        let ops = ALL_OPCODES.len();
        ((usize::from(self.opcode) * 2 + usize::from(self.owm)) * ops
            + usize::from(self.prev_opcode))
            * 2
            + usize::from(self.prev_owm)
    }

    /// Every tag, in [`index`](Self::index) order.
    pub fn all() -> impl Iterator<Item = ErrorTag> {
        let ops = ALL_OPCODES.len() as u8;
        (0..ops).flat_map(move |opcode| {
            [false, true].into_iter().flat_map(move |owm| {
                (0..ops).flat_map(move |prev_opcode| {
                    [false, true].map(move |prev_owm| ErrorTag {
                        opcode,
                        owm,
                        prev_opcode,
                        prev_owm,
                    })
                })
            })
        })
    }

    /// The errant half of the tag (used as the ACSLT set key).
    #[inline]
    pub fn errant_pair(&self) -> (u8, bool) {
        (self.opcode, self.owm)
    }

    /// The previous-cycle half of the tag (used as the ACSLT way key).
    #[inline]
    pub fn previous_pair(&self) -> (u8, bool) {
        (self.prev_opcode, self.prev_owm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodings_roundtrip() {
        for op in ALL_OPCODES {
            assert_eq!(Opcode::from_encoding(op.encoding()), Some(op));
        }
        assert_eq!(Opcode::from_encoding(200), None);
    }

    #[test]
    fn discriminants_are_all_opcodes_indices() {
        for (i, op) in ALL_OPCODES.into_iter().enumerate() {
            assert_eq!(op as u8 as usize, i, "{op}");
        }
    }

    #[test]
    fn golden_semantics_spot_checks() {
        let m = arch_mask();
        assert_eq!(Instruction::new(Opcode::Addu, m, 1).execute(), 0);
        assert_eq!(Instruction::new(Opcode::Subu, 5, 7).execute(), m - 1);
        assert_eq!(
            Instruction::new(Opcode::Andi, 0xFF00, 0x0FF0).execute(),
            0x0F00
        );
        assert_eq!(Instruction::new(Opcode::Nor, 0, 0).execute(), m);
        assert_eq!(Instruction::new(Opcode::Sll, 1, 4).execute(), 16);
        assert_eq!(
            Instruction::new(Opcode::Sra, 0x8000_0000, 4).execute(),
            0xF800_0000
        );
        assert_eq!(
            Instruction::new(Opcode::Mult, 0x1_0001, 0x1_0001).execute(),
            0x2_0001 & m
        );
        assert_eq!(Instruction::new(Opcode::Move, 0xAB, 0).execute(), 0xAB);
        assert_eq!(Instruction::new(Opcode::Lw, 0x1000, 0x20).execute(), 0x1020);
    }

    #[test]
    fn operands_are_masked() {
        let i = Instruction::new(Opcode::Addu, u64::MAX, u64::MAX);
        assert_eq!(u64::from(i.a), arch_mask());
        assert_eq!(u64::from(i.b), arch_mask());
    }

    #[test]
    fn owm_uses_popcount() {
        // 16 set bits in a 32-bit word: at threshold -> OWM set.
        let i = Instruction::new(Opcode::Or, 0x0000_FFFF, 0);
        assert!(i.owm());
        let i = Instruction::new(Opcode::Or, 0x0000_7FFF, 0x1);
        assert!(!i.owm());
        // Either operand can set it.
        let i = Instruction::new(Opcode::Or, 0, 0xFFFF_0000);
        assert!(i.owm());
    }

    #[test]
    fn operand_size_uses_leading_bit() {
        assert_eq!(
            Instruction::new(Opcode::Or, 0x0000_8000, 0).operand_size(),
            OperandSize::Small
        );
        assert_eq!(
            Instruction::new(Opcode::Or, 0x0001_0000, 0).operand_size(),
            OperandSize::Large
        );
        assert_eq!(
            Instruction::new(Opcode::Or, 0, 0x8000_0000).operand_size(),
            OperandSize::Large
        );
        assert_eq!(
            Instruction::new(Opcode::Or, 0, 0).operand_size(),
            OperandSize::Small
        );
    }

    #[test]
    fn error_tag_structure() {
        let prev = Instruction::new(Opcode::Lui, 0xFFFF, 0x10);
        let cur = Instruction::new(Opcode::Nor, 0xFFFF_FFFF, 0);
        let tag = ErrorTag::of(&prev, &cur);
        assert_eq!(tag.opcode, Opcode::Nor.encoding());
        assert_eq!(tag.prev_opcode, Opcode::Lui.encoding());
        assert!(
            tag.owm,
            "NOR of an all-ones operand has high significant width"
        );
        assert_eq!(tag.errant_pair(), (Opcode::Nor.encoding(), true));
        assert_eq!(ErrorTag::BITS, 18);
    }

    #[test]
    fn tag_index_numbers_every_tag_once() {
        let ops = ALL_OPCODES.len() as u8;
        let mut indexes = Vec::new();
        for opcode in 0..ops {
            for prev_opcode in 0..ops {
                for owm_bits in 0..4u8 {
                    let tag = ErrorTag {
                        opcode,
                        owm: owm_bits & 1 == 1,
                        prev_opcode,
                        prev_owm: owm_bits & 2 == 2,
                    };
                    indexes.push(tag.index());
                }
            }
        }
        // A bijection onto 0..COUNT ...
        assert_eq!(ErrorTag::COUNT, 1_936);
        indexes.sort_unstable();
        assert!(indexes.into_iter().eq(0..ErrorTag::COUNT));
        // ... which `all` walks in order.
        assert!(ErrorTag::all().map(|t| t.index()).eq(0..ErrorTag::COUNT));
    }

    #[test]
    fn alu_func_mapping_covers_all_opcodes() {
        for op in ALL_OPCODES {
            // Must not panic, and immediates/shifts route sensibly.
            let _ = op.alu_func();
            let _ = op.has_immediate();
            assert!(!op.mnemonic().is_empty());
        }
        assert_eq!(Opcode::Mflo.alu_func(), AluFunc::Mult);
        assert_eq!(Opcode::Move.alu_func(), AluFunc::Buffer);
    }
}
