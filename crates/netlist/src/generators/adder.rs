//! Adder generators: ripple-carry (compact, deep) and Kogge–Stone
//! (parallel-prefix, the shape a synthesis tool would pick for a
//! performance-constrained 64-bit ALU datapath).

use crate::netlist::{Builder, Signal};

/// Result of an addition: sum bits (LSB first) and carry-out.
#[derive(Debug, Clone)]
pub struct AdderOut {
    /// Sum bits, LSB first, same width as the operands.
    pub sum: Vec<Signal>,
    /// Carry out of the most significant bit.
    pub cout: Signal,
}

/// Build a ripple-carry adder.
///
/// Logic depth grows linearly with width; the adder ablation's compact,
/// deep baseline.
///
/// # Panics
///
/// Panics if the operand buses differ in width or are empty.
pub fn ripple_carry(b: &mut Builder, a: &[Signal], x: &[Signal], cin: Signal) -> AdderOut {
    assert_eq!(a.len(), x.len(), "adder operand width mismatch");
    assert!(!a.is_empty(), "adder width must be nonzero");
    let mut sum = Vec::with_capacity(a.len());
    let mut carry = cin;
    for (&ai, &xi) in a.iter().zip(x.iter()) {
        let axb = b.xor(ai, xi);
        sum.push(b.xor(axb, carry));
        carry = b.maj(ai, xi, carry);
    }
    AdderOut { sum, cout: carry }
}

/// Build a Kogge–Stone parallel-prefix adder.
///
/// Logic depth is `O(log2 width)`; this is the adder used in the ALU's ADD /
/// SUB / LOAD (address-generation) datapaths.
///
/// # Panics
///
/// Panics if the operand buses differ in width or are empty.
pub fn kogge_stone(b: &mut Builder, a: &[Signal], x: &[Signal], cin: Signal) -> AdderOut {
    assert_eq!(a.len(), x.len(), "adder operand width mismatch");
    let w = a.len();
    assert!(w > 0, "adder width must be nonzero");

    // Bit-level generate/propagate.
    let mut g: Vec<Signal> = Vec::with_capacity(w);
    let mut p: Vec<Signal> = Vec::with_capacity(w);
    for i in 0..w {
        g.push(b.and(a[i], x[i]));
        p.push(b.xor(a[i], x[i]));
    }
    let p0 = p.clone(); // half-sum bits, needed for the final sum stage

    // Fold carry-in into bit 0: g0' = g0 | (p0 & cin), p0' = 0 conceptually;
    // we keep p0 and simply treat the prefix result as "carry out of bit i".
    let pc = b.and(p[0], cin);
    g[0] = b.or(g[0], pc);

    // Prefix tree: (g, p) composition (G, P) o (g, p) = (G | P&g, P&p).
    let mut dist = 1;
    while dist < w {
        let mut new_g = g.clone();
        let mut new_p = p.clone();
        for i in dist..w {
            let pg = b.and(p[i], g[i - dist]);
            new_g[i] = b.or(g[i], pg);
            new_p[i] = b.and(p[i], p[i - dist]);
        }
        g = new_g;
        p = new_p;
        dist *= 2;
    }

    // carries[i] = carry INTO bit i.
    let mut sum = Vec::with_capacity(w);
    sum.push(b.xor(p0[0], cin));
    for i in 1..w {
        sum.push(b.xor(p0[i], g[i - 1]));
    }
    AdderOut {
        sum,
        cout: g[w - 1],
    }
}

/// Build a carry-select adder: ripple blocks of `block` bits computed for
/// both carry-in values, with the true carry selecting per block.
///
/// Depth grows with `width / block` mux stages — far below the ripple
/// chain, with a mux-heavy gate mix unlike the prefix tree's and/or mix;
/// used by the adder-architecture ablation.
///
/// # Panics
///
/// Panics if the operand buses differ in width, are empty, or `block` is
/// zero.
pub fn carry_select(
    b: &mut Builder,
    a: &[Signal],
    x: &[Signal],
    cin: Signal,
    block: usize,
) -> AdderOut {
    assert_eq!(a.len(), x.len(), "adder operand width mismatch");
    assert!(!a.is_empty(), "adder width must be nonzero");
    assert!(block > 0, "block size must be nonzero");
    let w = a.len();
    let mut sum = Vec::with_capacity(w);
    let mut carry = cin;
    let mut lo = 0usize;
    while lo < w {
        let hi = (lo + block).min(w);
        let (ab, xb) = (&a[lo..hi], &x[lo..hi]);
        if lo == 0 {
            // First block: the carry-in is known, plain ripple.
            let out = ripple_carry(b, ab, xb, carry);
            sum.extend(out.sum);
            carry = out.cout;
        } else {
            // Speculate both carry values, select with the true carry.
            let zero = b.const0();
            let one = b.const1();
            let out0 = ripple_carry(b, ab, xb, zero);
            let out1 = ripple_carry(b, ab, xb, one);
            for (s0, s1) in out0.sum.iter().zip(out1.sum.iter()) {
                sum.push(b.mux(*s0, *s1, carry));
            }
            carry = b.mux(out0.cout, out1.cout, carry);
        }
        lo = hi;
    }
    AdderOut { sum, cout: carry }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;

    fn build_adder(w: usize, kogge: bool) -> Netlist {
        let mut b = Builder::new();
        let a = b.input_bus("a", w);
        let x = b.input_bus("x", w);
        let cin = b.input("cin");
        let out = if kogge {
            kogge_stone(&mut b, &a, &x, cin)
        } else {
            ripple_carry(&mut b, &a, &x, cin)
        };
        b.output_bus("sum", &out.sum);
        b.output("cout", out.cout);
        b.finish()
    }

    fn to_bits(v: u64, w: usize) -> Vec<bool> {
        (0..w).map(|i| (v >> i) & 1 == 1).collect()
    }

    fn from_bits(bits: &[bool]) -> u64 {
        bits.iter()
            .enumerate()
            .fold(0u64, |acc, (i, &bit)| acc | ((bit as u64) << i))
    }

    fn check_adder(w: usize, kogge: bool) {
        let nl = build_adder(w, kogge);
        let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
        let cases = [
            (0u64, 0u64, 0u64),
            (1, 1, 0),
            (mask, 1, 0),
            (mask, mask, 1),
            (
                0x5555_5555_5555_5555 & mask,
                0xAAAA_AAAA_AAAA_AAAA & mask,
                0,
            ),
            (
                0x1234_5678_9ABC_DEF0 & mask,
                0x0FED_CBA9_8765_4321 & mask,
                1,
            ),
        ];
        for (a, x, cin) in cases {
            let mut pis = to_bits(a, w);
            pis.extend(to_bits(x, w));
            pis.push(cin == 1);
            let out = nl.eval(&pis);
            let full = (a as u128) + (x as u128) + (cin as u128);
            assert_eq!(
                from_bits(&out[..w]),
                (full as u64) & mask,
                "{a} + {x} + {cin} (w={w}, kogge={kogge})"
            );
            assert_eq!(out[w], full >> w & 1 == 1, "cout of {a} + {x} + {cin}");
        }
    }

    #[test]
    fn ripple_matches_arithmetic() {
        for w in [1, 2, 3, 8, 16, 64] {
            check_adder(w, false);
        }
    }

    #[test]
    fn kogge_stone_matches_arithmetic() {
        for w in [1, 2, 3, 5, 8, 16, 64] {
            check_adder(w, true);
        }
    }

    #[test]
    fn kogge_stone_exhaustive_small() {
        let w = 4;
        let nl = build_adder(w, true);
        for a in 0..16u64 {
            for x in 0..16u64 {
                for cin in 0..2u64 {
                    let mut pis = to_bits(a, w);
                    pis.extend(to_bits(x, w));
                    pis.push(cin == 1);
                    let out = nl.eval(&pis);
                    let expected = a + x + cin;
                    assert_eq!(from_bits(&out[..w]), expected & 0xF);
                    assert_eq!(out[w], expected >> w == 1);
                }
            }
        }
    }

    #[test]
    fn carry_select_matches_arithmetic() {
        for (w, block) in [(8usize, 4usize), (16, 4), (16, 8), (13, 5)] {
            let mut b = Builder::new();
            let a = b.input_bus("a", w);
            let x = b.input_bus("x", w);
            let cin = b.input("cin");
            let out = carry_select(&mut b, &a, &x, cin, block);
            b.output_bus("sum", &out.sum);
            b.output("cout", out.cout);
            let nl = b.finish();
            let mask = (1u64 << w) - 1;
            for (av, xv, c) in [
                (0u64, 0u64, 0u64),
                (mask, 1, 0),
                (mask, mask, 1),
                (0x1234 & mask, 0x0F0F & mask, 1),
                (0x00FF & mask, 0x0101 & mask, 0),
            ] {
                let mut pis = to_bits(av, w);
                pis.extend(to_bits(xv, w));
                pis.push(c == 1);
                let res = nl.eval(&pis);
                let full = (av as u128) + (xv as u128) + (c as u128);
                assert_eq!(
                    from_bits(&res[..w]),
                    (full as u64) & mask,
                    "{av}+{xv}+{c} (w={w} block={block})"
                );
                assert_eq!(res[w], full >> w & 1 == 1);
            }
        }
    }

    #[test]
    fn carry_select_depth_between_ripple_and_kogge() {
        let w = 32;
        let build = |kind: u8| {
            let mut b = Builder::new();
            let a = b.input_bus("a", w);
            let x = b.input_bus("x", w);
            let cin = b.input("cin");
            let out = match kind {
                0 => ripple_carry(&mut b, &a, &x, cin),
                1 => carry_select(&mut b, &a, &x, cin, 4),
                _ => kogge_stone(&mut b, &a, &x, cin),
            };
            b.output_bus("sum", &out.sum);
            b.finish().max_depth()
        };
        let (ripple, select, kogge) = (build(0), build(1), build(2));
        // Both parallel structures are far shallower than the ripple chain;
        // at this width/block the carry-select's mux chain lands in the
        // same depth class as the prefix tree (their gate *mixes* differ:
        // mux-heavy vs and/or-heavy, which is what the choke-susceptibility
        // ablation contrasts).
        assert!(select < ripple / 2, "select {select} vs ripple {ripple}");
        assert!(kogge < ripple / 2, "kogge {kogge} vs ripple {ripple}");
    }

    #[test]
    fn kogge_stone_is_logarithmic_depth() {
        let nl64 = build_adder(64, true);
        let ripple64 = build_adder(64, false);
        assert!(
            nl64.max_depth() < ripple64.max_depth() / 3,
            "kogge-stone depth {} should be far below ripple depth {}",
            nl64.max_depth(),
            ripple64.max_depth()
        );
    }
}
