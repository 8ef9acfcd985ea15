//! Logarithmic barrel shifter for the ALU's shift/rotate datapaths
//! (SLL/SRL/SRA/ROR and their variable-amount variants).

use crate::netlist::{Builder, Signal};

/// Shift/rotate operation performed by the barrel shifter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftKind {
    /// Logical left shift, zero fill.
    LogicalLeft,
    /// Logical right shift, zero fill (LSR / SRL).
    LogicalRight,
    /// Arithmetic right shift, sign fill (ASR / SRA).
    ArithmeticRight,
    /// Rotate right.
    RotateRight,
}

/// Build a logarithmic barrel shifter.
///
/// `amount` is a `ceil(log2(width))`-bit bus selecting the shift distance
/// (LSB first). Each stage conditionally shifts by a power of two through a
/// rank of 2:1 muxes, giving `log2(width)` mux levels — the structure a
/// synthesis tool produces for variable-amount shifts.
///
/// # Panics
///
/// Panics if `value` is empty or `amount.len()` is not `ceil(log2(width))`.
pub fn barrel_shifter(
    b: &mut Builder,
    value: &[Signal],
    amount: &[Signal],
    kind: ShiftKind,
) -> Vec<Signal> {
    let w = value.len();
    assert!(w > 0, "shifter width must be nonzero");
    let stages = usize::BITS as usize - (w - 1).leading_zeros() as usize;
    let stages = stages.max(1);
    assert_eq!(
        amount.len(),
        stages,
        "shift amount must have ceil(log2({w})) = {stages} bits"
    );

    let zero = b.const0();
    let sign = value[w - 1];
    let mut cur: Vec<Signal> = value.to_vec();
    for (stage, &sel) in amount.iter().enumerate() {
        let dist = 1usize << stage;
        let shifted: Vec<Signal> = (0..w)
            .map(|i| match kind {
                ShiftKind::LogicalLeft => {
                    if i >= dist {
                        cur[i - dist]
                    } else {
                        zero
                    }
                }
                ShiftKind::LogicalRight => {
                    if i + dist < w {
                        cur[i + dist]
                    } else {
                        zero
                    }
                }
                ShiftKind::ArithmeticRight => {
                    if i + dist < w {
                        cur[i + dist]
                    } else {
                        sign
                    }
                }
                ShiftKind::RotateRight => cur[(i + dist) % w],
            })
            .collect();
        cur = cur
            .iter()
            .zip(shifted.iter())
            .map(|(&keep, &shift)| b.mux(keep, shift, sel))
            .collect();
    }
    cur
}

/// Number of shift-amount bits a barrel shifter of `width` needs.
pub fn amount_bits(width: usize) -> usize {
    assert!(width > 0, "width must be nonzero");
    (usize::BITS as usize - (width - 1).leading_zeros() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;

    fn build(w: usize, kind: ShiftKind) -> Netlist {
        let mut b = Builder::new();
        let v = b.input_bus("v", w);
        let amt = b.input_bus("amt", amount_bits(w));
        let out = barrel_shifter(&mut b, &v, &amt, kind);
        b.output_bus("out", &out);
        b.finish()
    }

    fn run(nl: &Netlist, w: usize, v: u64, amt: u64) -> u64 {
        let mut pis: Vec<bool> = (0..w).map(|i| (v >> i) & 1 == 1).collect();
        pis.extend((0..amount_bits(w)).map(|i| (amt >> i) & 1 == 1));
        nl.eval(&pis)
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &bit)| acc | ((bit as u64) << i))
    }

    #[test]
    fn logical_left_matches() {
        for w in [8usize, 16, 64] {
            let nl = build(w, ShiftKind::LogicalLeft);
            let mask = if w == 64 { u64::MAX } else { (1 << w) - 1 };
            for amt in 0..w as u64 {
                let v = 0xDEAD_BEEF_CAFE_F00D & mask;
                assert_eq!(run(&nl, w, v, amt), (v << amt) & mask, "w={w} amt={amt}");
            }
        }
    }

    #[test]
    fn logical_right_matches() {
        let w = 16;
        let nl = build(w, ShiftKind::LogicalRight);
        for amt in 0..16u64 {
            let v = 0xB00F;
            assert_eq!(run(&nl, w, v, amt), v >> amt, "amt={amt}");
        }
    }

    #[test]
    fn arithmetic_right_sign_extends() {
        let w = 8;
        let nl = build(w, ShiftKind::ArithmeticRight);
        for amt in 0..8u64 {
            let v = 0x90u64; // negative in 8-bit two's complement
            let expected = (((v as i8) >> amt) as u8) as u64;
            assert_eq!(run(&nl, w, v, amt), expected, "amt={amt}");
        }
        // Positive values shift in zeros.
        assert_eq!(run(&nl, w, 0x70, 4), 0x07);
    }

    #[test]
    fn rotate_right_matches() {
        let w = 8;
        let nl = build(w, ShiftKind::RotateRight);
        for amt in 0..8u32 {
            let v = 0xA3u8;
            assert_eq!(
                run(&nl, w, v as u64, amt as u64),
                v.rotate_right(amt) as u64
            );
        }
    }

    #[test]
    fn depth_is_logarithmic() {
        let nl = build(64, ShiftKind::LogicalRight);
        // 6 mux stages => depth 6.
        assert_eq!(nl.max_depth(), 6);
    }

    #[test]
    fn amount_bits_values() {
        assert_eq!(amount_bits(1), 1);
        assert_eq!(amount_bits(2), 1);
        assert_eq!(amount_bits(8), 3);
        assert_eq!(amount_bits(64), 6);
    }
}
