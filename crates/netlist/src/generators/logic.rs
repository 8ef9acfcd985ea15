//! Bitwise logic unit (AND / OR / XOR / NOR arrays) and small glue blocks
//! (decoders, one-hot result selection, reduction trees).

use crate::cell::CellKind;
use crate::netlist::{Builder, Signal};

/// Bitwise application of a 2-input cell across two buses.
///
/// # Panics
///
/// Panics if the buses differ in width or `kind` is not a 2-input cell.
pub fn bitwise(b: &mut Builder, kind: CellKind, a: &[Signal], x: &[Signal]) -> Vec<Signal> {
    assert_eq!(a.len(), x.len(), "bitwise operand width mismatch");
    a.iter()
        .zip(x.iter())
        .map(|(&ai, &xi)| b.gate2(kind, ai, xi))
        .collect()
}

/// Balanced OR-reduction tree over a bus (returns const-0 for an empty bus).
pub fn or_tree(b: &mut Builder, bits: &[Signal]) -> Signal {
    reduce_tree(b, CellKind::Or2, bits)
}

/// Balanced AND-reduction tree over a bus (returns const-1 for an empty bus).
pub fn and_tree(b: &mut Builder, bits: &[Signal]) -> Signal {
    reduce_tree(b, CellKind::And2, bits)
}

fn reduce_tree(b: &mut Builder, kind: CellKind, bits: &[Signal]) -> Signal {
    if bits.is_empty() {
        return match kind {
            CellKind::And2 => b.const1(),
            _ => b.const0(),
        };
    }
    let mut level: Vec<Signal> = bits.to_vec();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            next.push(if pair.len() == 2 {
                b.gate2(kind, pair[0], pair[1])
            } else {
                pair[0]
            });
        }
        level = next;
    }
    level[0]
}

/// Build a binary-to-one-hot decoder.
///
/// Output `i` is high iff the select bus (LSB first) encodes `i`. Only the
/// first `count` outputs are produced.
///
/// # Panics
///
/// Panics if `count > 2^sel.len()`.
pub fn decoder(b: &mut Builder, sel: &[Signal], count: usize) -> Vec<Signal> {
    assert!(
        count <= 1usize << sel.len(),
        "decoder cannot produce {count} outputs from {} select bits",
        sel.len()
    );
    let inv: Vec<Signal> = sel.iter().map(|&s| b.not(s)).collect();
    (0..count)
        .map(|i| {
            let literals: Vec<Signal> = sel
                .iter()
                .enumerate()
                .map(|(bit, &s)| if (i >> bit) & 1 == 1 { s } else { inv[bit] })
                .collect();
            and_tree(b, &literals)
        })
        .collect()
}

/// One-hot AND–OR result selection: for each bit position, OR together
/// `candidate[k][bit] & onehot[k]`. This is the classic ALU result-mux
/// structure.
///
/// # Panics
///
/// Panics if candidate buses differ in width, or the one-hot bus length
/// differs from the number of candidates.
pub fn onehot_select(
    b: &mut Builder,
    candidates: &[Vec<Signal>],
    onehot: &[Signal],
) -> Vec<Signal> {
    assert_eq!(
        candidates.len(),
        onehot.len(),
        "one candidate bus per one-hot line"
    );
    assert!(!candidates.is_empty(), "need at least one candidate");
    let w = candidates[0].len();
    for c in candidates {
        assert_eq!(c.len(), w, "candidate bus width mismatch");
    }
    (0..w)
        .map(|bit| {
            let gated: Vec<Signal> = candidates
                .iter()
                .zip(onehot.iter())
                .map(|(c, &en)| b.and(c[bit], en))
                .collect();
            or_tree(b, &gated)
        })
        .collect()
}

/// Zero-detect over a bus: high iff every bit is 0.
pub fn is_zero(b: &mut Builder, bits: &[Signal]) -> Signal {
    let any = or_tree(b, bits);
    b.not(any)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;

    fn eval_single(nl: &Netlist, pis: &[bool]) -> Vec<bool> {
        nl.eval(pis)
    }

    #[test]
    fn bitwise_ops_match() {
        let w = 8;
        for kind in [
            CellKind::And2,
            CellKind::Or2,
            CellKind::Xor2,
            CellKind::Nor2,
        ] {
            let mut b = Builder::new();
            let a = b.input_bus("a", w);
            let x = b.input_bus("x", w);
            let y = bitwise(&mut b, kind, &a, &x);
            b.output_bus("y", &y);
            let nl = b.finish();
            let (av, xv) = (0xA5u64, 0x3Cu64);
            let mut pis: Vec<bool> = (0..w).map(|i| (av >> i) & 1 == 1).collect();
            pis.extend((0..w).map(|i| (xv >> i) & 1 == 1));
            let out = eval_single(&nl, &pis);
            let expected = match kind {
                CellKind::And2 => av & xv,
                CellKind::Or2 => av | xv,
                CellKind::Xor2 => av ^ xv,
                CellKind::Nor2 => !(av | xv) & 0xFF,
                _ => unreachable!(),
            };
            let got = out
                .iter()
                .enumerate()
                .fold(0u64, |acc, (i, &bit)| acc | ((bit as u64) << i));
            assert_eq!(got, expected, "{kind}");
        }
    }

    #[test]
    fn decoder_is_onehot() {
        let mut b = Builder::new();
        let sel = b.input_bus("sel", 4);
        let out = decoder(&mut b, &sel, 13);
        b.output_bus("out", &out);
        let nl = b.finish();
        for v in 0..13usize {
            let pis: Vec<bool> = (0..4).map(|i| (v >> i) & 1 == 1).collect();
            let out = eval_single(&nl, &pis);
            for (i, &bit) in out.iter().enumerate() {
                assert_eq!(bit, i == v, "decoder({v}) output {i}");
            }
        }
    }

    #[test]
    fn or_and_trees() {
        let mut b = Builder::new();
        let a = b.input_bus("a", 5);
        let any = or_tree(&mut b, &a);
        let all = and_tree(&mut b, &a);
        let zero = is_zero(&mut b, &a);
        b.output("any", any);
        b.output("all", all);
        b.output("zero", zero);
        let nl = b.finish();
        for v in 0..32u32 {
            let pis: Vec<bool> = (0..5).map(|i| (v >> i) & 1 == 1).collect();
            let out = eval_single(&nl, &pis);
            assert_eq!(out[0], v != 0);
            assert_eq!(out[1], v == 31);
            assert_eq!(out[2], v == 0);
        }
    }

    #[test]
    fn onehot_select_picks_candidate() {
        let mut b = Builder::new();
        let c0 = b.input_bus("c0", 4);
        let c1 = b.input_bus("c1", 4);
        let oh = b.input_bus("oh", 2);
        let y = onehot_select(&mut b, &[c0, c1], &oh);
        b.output_bus("y", &y);
        let nl = b.finish();
        // c0 = 0b1010, c1 = 0b0110, select c1.
        let mut pis = vec![false, true, false, true]; // c0
        pis.extend([false, true, true, false]); // c1
        pis.extend([false, true]); // one-hot selects candidate 1
        let out = eval_single(&nl, &pis);
        assert_eq!(out, vec![false, true, true, false]);
    }

    #[test]
    fn empty_tree_identities() {
        let mut b = Builder::new();
        let _unused = b.input("x");
        let or0 = or_tree(&mut b, &[]);
        let and1 = and_tree(&mut b, &[]);
        b.output("or0", or0);
        b.output("and1", and1);
        let nl = b.finish();
        let out = nl.eval(&[false]);
        assert!(!out[0]);
        assert!(out[1]);
    }
}
