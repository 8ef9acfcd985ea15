//! The execute (EX) pipestage: the ALU plus the stage glue a synthesized
//! FabScalar-style EX stage carries (operand bypass muxes and result/flag
//! capture logic). This is the block the paper instruments — both chapters
//! focus their timing study on the EX pipestage.

use crate::generators::alu::{build_alu_body, encode_into, AluFunc};
use crate::generators::logic;
use crate::netlist::{Builder, Netlist};

/// A generated EX pipestage.
///
/// Input ports: `op` (4), `a` (`width`), `b` (`width`), `fwd_a` (`width`),
/// `fwd_b` (`width`), `bypass_a` (1), `bypass_b` (1).
/// Output ports: `result` (`width`), `zero` (1), `sign` (1).
#[derive(Debug, Clone)]
pub struct ExStage {
    netlist: Netlist,
    width: usize,
}

impl ExStage {
    /// Generate a `width`-bit EX pipestage.
    ///
    /// # Panics
    ///
    /// Panics if `width < 2`.
    pub fn new(width: usize) -> Self {
        assert!(width >= 2, "EX stage width must be at least 2");
        let mut b = Builder::new();
        let op = b.input_bus("op", 4);
        let a_reg = b.input_bus("a", width);
        let b_reg = b.input_bus("b", width);
        let fwd_a = b.input_bus("fwd_a", width);
        let fwd_b = b.input_bus("fwd_b", width);
        let byp_a = b.input("bypass_a");
        let byp_b = b.input("bypass_b");

        // Operand bypass muxes (forwarding network).
        let a_bus = b.mux_bus(&a_reg, &fwd_a, byp_a);
        let b_bus = b.mux_bus(&b_reg, &fwd_b, byp_b);

        // The ALU body proper, built against the bypassed operand buses.
        let result = build_alu_body(&mut b, &op, &a_bus, &b_bus);
        let zero = logic::is_zero(&mut b, &result);
        let sign = result[width - 1];
        b.output_bus("result", &result);
        b.output("zero", zero);
        b.output("sign", sign);

        ExStage {
            netlist: b.finish(),
            width,
        }
    }

    /// The underlying netlist.
    #[inline]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Consume the wrapper, returning the netlist.
    pub fn into_netlist(self) -> Netlist {
        self.netlist
    }

    /// Operand width in bits.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Encode a stimulus with bypasses disabled: the ALU's `op`, `a`, `b`
    /// ([`encode_into`]), then idle forwarding buses and both bypass
    /// selects at 0.
    pub fn encode(&self, func: AluFunc, a: u64, b: u64) -> Vec<bool> {
        let w = self.width;
        let mut pis = Vec::with_capacity(4 + 4 * w + 2);
        encode_into(w, func, a, b, &mut pis);
        pis.extend(std::iter::repeat_n(false, 2 * w + 2));
        pis
    }

    /// Execute one operation (bypasses disabled) and decode the result bus.
    pub fn execute(&self, func: AluFunc, a: u64, b: u64) -> u64 {
        let out = self.netlist.eval(&self.encode(func, a, b));
        out[..self.width]
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &bit)| acc | ((bit as u64) << i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::alu::{AluFunc, ALL_ALU_FUNCS};

    #[test]
    fn ex_stage_matches_golden_model() {
        let ex = ExStage::new(8);
        for func in ALL_ALU_FUNCS {
            for (a, b) in [(0xA5u64, 0x3Cu64), (0xFF, 0x01), (0x00, 0x00), (0x81, 0x07)] {
                assert_eq!(
                    ex.execute(func, a, b),
                    func.golden(a, b, 8),
                    "{func} a={a:#x} b={b:#x}"
                );
            }
        }
    }

    #[test]
    fn bypass_muxes_forward_operands() {
        let ex = ExStage::new(8);
        let w = 8usize;
        // a=0, b=0 registered; forwarded a=5, b=7; bypass both; ADD -> 12.
        let mut pis = Vec::new();
        pis.extend((0..4).map(|i| (AluFunc::Add.select_code() >> i) & 1 == 1));
        pis.extend(std::iter::repeat_n(false, 2 * w)); // a, b regs = 0
        pis.extend((0..w).map(|i| (5u64 >> i) & 1 == 1)); // fwd_a
        pis.extend((0..w).map(|i| (7u64 >> i) & 1 == 1)); // fwd_b
        pis.push(true); // bypass_a
        pis.push(true); // bypass_b
        let out = ex.netlist().eval(&pis);
        let result = out[..w]
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &bit)| acc | ((bit as u64) << i));
        assert_eq!(result, 12);
    }

    #[test]
    fn flags_are_exposed() {
        let ex = ExStage::new(8);
        let out = ex.netlist().eval(&ex.encode(AluFunc::Sub, 3, 3));
        assert!(out[8], "zero flag");
        assert!(!out[9], "sign flag");
        let out = ex.netlist().eval(&ex.encode(AluFunc::Sub, 3, 4));
        assert!(!out[8]);
        assert!(out[9], "negative result sets sign");
    }

    #[test]
    fn ex_stage_is_larger_than_bare_alu() {
        let ex = ExStage::new(8);
        let alu = crate::generators::alu::Alu::new(8);
        assert!(ex.netlist().logic_gate_count() > alu.netlist().logic_gate_count());
    }
}
