//! The multiplier generator for the ALU's MULT / MFLO datapath:
//! [`wallace_multiplier_low`], a Wallace/CSA-tree reduction with a
//! parallel-prefix final adder, of logarithmic depth. This is what a
//! timing-constrained synthesis run emits: the multiplier stays the
//! *deepest* unit (matching the paper's observation that MULT/MFLO
//! sensitize the longest paths) without towering an order of magnitude
//! over the rest of the datapath.

use crate::generators::adder;
use crate::netlist::{Builder, Signal};

/// Build a Wallace-tree multiplier returning the low `width` bits of
/// `a * x`: the partial-product matrix is reduced column-wise with 3:2
/// carry-save compressors until at most two bits per column remain, then a
/// Kogge–Stone adder resolves the final sum.
///
/// # Panics
///
/// Panics if the operand buses differ in width or are empty.
pub fn wallace_multiplier_low(b: &mut Builder, a: &[Signal], x: &[Signal]) -> Vec<Signal> {
    let w = a.len();
    assert_eq!(w, x.len(), "multiplier operand width mismatch");
    assert!(w > 0, "multiplier width must be nonzero");

    if w == 1 {
        return vec![b.and(a[0], x[0])];
    }

    // Partial-product matrix, column-wise (only the low w columns matter).
    let mut columns: Vec<Vec<Signal>> = vec![Vec::new(); w];
    for (j, &xj) in x.iter().enumerate() {
        for (i, &ai) in a.iter().enumerate() {
            if i + j < w {
                columns[i + j].push(b.and(ai, xj));
            }
        }
    }

    // Carry-save reduction: compress every column with full/half adders
    // until no column holds more than two bits. Carries out of column
    // w-1 are discarded (low-half product).
    loop {
        let tallest = columns.iter().map(Vec::len).max().unwrap_or(0);
        if tallest <= 2 {
            break;
        }
        let mut next: Vec<Vec<Signal>> = vec![Vec::new(); w];
        for c in 0..w {
            let bits = std::mem::take(&mut columns[c]);
            let mut chunks = bits.chunks_exact(3);
            for t in chunks.by_ref() {
                // Full adder: sum stays, carry moves up a column.
                let s1 = b.xor(t[0], t[1]);
                let sum = b.xor(s1, t[2]);
                next[c].push(sum);
                if c + 1 < w {
                    let carry = b.maj(t[0], t[1], t[2]);
                    next[c + 1].push(carry);
                }
            }
            let rest = chunks.remainder();
            if rest.len() == 2 && bits.len() > 2 {
                // Half adder only when the column still needs shrinking.
                let sum = b.xor(rest[0], rest[1]);
                next[c].push(sum);
                if c + 1 < w {
                    let carry = b.and(rest[0], rest[1]);
                    next[c + 1].push(carry);
                }
            } else {
                next[c].extend_from_slice(rest);
            }
        }
        columns = next;
    }

    // Final carry-propagate add of the two remaining rows.
    let zero = b.const0();
    let row0: Vec<Signal> = columns
        .iter()
        .map(|col| col.first().copied().unwrap_or(zero))
        .collect();
    let row1: Vec<Signal> = columns
        .iter()
        .map(|col| col.get(1).copied().unwrap_or(zero))
        .collect();
    adder::kogge_stone(b, &row0, &row1, zero).sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;

    fn build(w: usize) -> Netlist {
        let mut b = Builder::new();
        let a = b.input_bus("a", w);
        let x = b.input_bus("x", w);
        let p = wallace_multiplier_low(&mut b, &a, &x);
        b.output_bus("p", &p);
        b.finish()
    }

    fn run(nl: &Netlist, w: usize, a: u64, x: u64) -> u64 {
        let mut pis: Vec<bool> = (0..w).map(|i| (a >> i) & 1 == 1).collect();
        pis.extend((0..w).map(|i| (x >> i) & 1 == 1));
        nl.eval(&pis)
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &bit)| acc | ((bit as u64) << i))
    }

    #[test]
    fn width_one_is_an_and_gate() {
        let nl = build(1);
        assert_eq!(run(&nl, 1, 1, 1), 1);
        assert_eq!(run(&nl, 1, 1, 0), 0);
    }

    #[test]
    fn wallace_exhaustive_4_bit() {
        let nl = build(4);
        for a in 0..16u64 {
            for x in 0..16u64 {
                assert_eq!(run(&nl, 4, a, x), (a * x) & 0xF, "{a} * {x}");
            }
        }
    }

    #[test]
    fn wallace_exhaustive_5_bit() {
        // Odd width exercises the half-adder remainder handling.
        let nl = build(5);
        for a in 0..32u64 {
            for x in 0..32u64 {
                assert_eq!(run(&nl, 5, a, x), (a * x) & 0x1F, "{a} * {x}");
            }
        }
    }

    #[test]
    fn wallace_spot_checks_32_bit() {
        let nl = build(32);
        for (a, x) in [
            (0xDEAD_BEEFu64, 0xCAFE_F00Du64),
            (u32::MAX as u64, u32::MAX as u64),
            (3, 0x5555_5555),
            (0x8000_0001, 0x7FFF_FFFF),
            (0, 12345),
        ] {
            assert_eq!(
                run(&nl, 32, a, x),
                a.wrapping_mul(x) & 0xFFFF_FFFF,
                "{a} * {x}"
            );
        }
    }

    #[test]
    fn multiplier_is_deepest_datapath_unit() {
        let mul = build(16);
        // Compare against a Kogge-Stone adder of the same width: deeper,
        // but not an order of magnitude deeper (18 levels against 10).
        let mut b = Builder::new();
        let a = b.input_bus("a", 16);
        let x = b.input_bus("x", 16);
        let zero = b.const0();
        let s = crate::generators::adder::kogge_stone(&mut b, &a, &x, zero);
        b.output_bus("s", &s.sum);
        let add = b.finish();
        assert!(
            add.max_depth() < mul.max_depth() && mul.max_depth() < 10 * add.max_depth(),
            "multiplier {} vs adder {}",
            mul.max_depth(),
            add.max_depth()
        );
    }
}
