//! Randomized structural tests: every structural generator must agree with
//! plain machine arithmetic for arbitrary operands, and transformation
//! passes must preserve function.
//!
//! Formerly `proptest`-based; rewritten as seeded deterministic sweeps so
//! the workspace builds with zero registry dependencies. Every operand is
//! drawn from a fixed-seed SplitMix64 stream, so a failure reproduces
//! exactly on re-run. (`ntc-netlist` sits below `ntc-varmodel` in the
//! crate graph, so the generator is inlined here rather than imported.)

use ntc_netlist::buffer_insertion::insert_hold_buffers;
use ntc_netlist::generators::alu::{Alu, AluFunc, ALL_ALU_FUNCS};
use ntc_netlist::generators::ex_stage::ExStage;
use ntc_netlist::generators::{adder, multiplier, shifter};
use ntc_netlist::Builder;

/// Inline SplitMix64 (same algorithm as `ntc_varmodel::rng::SplitMix64`).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn to_bits(v: u64, w: usize) -> Vec<bool> {
    (0..w).map(|i| (v >> i) & 1 == 1).collect()
}

fn from_bits(bits: &[bool]) -> u64 {
    bits.iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i))
}

#[test]
fn kogge_stone_adds() {
    let w = 16;
    let mut builder = Builder::new();
    let abus = builder.input_bus("a", w);
    let bbus = builder.input_bus("b", w);
    let cinw = builder.input("cin");
    let out = adder::kogge_stone(&mut builder, &abus, &bbus, cinw);
    builder.output_bus("sum", &out.sum);
    builder.output("cout", out.cout);
    let nl = builder.finish();

    let mut rng = Rng(0xADD5);
    for case in 0..64 {
        let a = rng.next_u64() as u16;
        let b = rng.next_u64() as u16;
        let cin = rng.next_u64() >> 63 == 1;
        let mut pis = to_bits(a as u64, w);
        pis.extend(to_bits(b as u64, w));
        pis.push(cin);
        let res = nl.eval(&pis);
        let full = a as u32 + b as u32 + cin as u32;
        assert_eq!(from_bits(&res[..w]), (full & 0xFFFF) as u64, "case {case}");
        assert_eq!(res[w], full >> 16 == 1, "case {case}");
    }
}

#[test]
fn multiplier_multiplies() {
    let w = 16;
    let mut builder = Builder::new();
    let abus = builder.input_bus("a", w);
    let bbus = builder.input_bus("b", w);
    let p = multiplier::wallace_multiplier_low(&mut builder, &abus, &bbus);
    builder.output_bus("p", &p);
    let nl = builder.finish();

    let mut rng = Rng(0x11A5);
    for case in 0..64 {
        let a = rng.next_u64() as u16;
        let b = rng.next_u64() as u16;
        let mut pis = to_bits(a as u64, w);
        pis.extend(to_bits(b as u64, w));
        let res = nl.eval(&pis);
        assert_eq!(from_bits(&res), (a.wrapping_mul(b)) as u64, "case {case}");
    }
}

#[test]
fn barrel_shifts() {
    let w = 16;
    let mut rng = Rng(0x5417);
    for case in 0..48 {
        let v = rng.next_u64() as u16;
        let amt = rng.next_u64() % 16;
        for (kind, expect) in [
            (
                shifter::ShiftKind::LogicalLeft,
                ((v as u64) << amt) & 0xFFFF,
            ),
            (shifter::ShiftKind::LogicalRight, (v as u64) >> amt),
            (
                shifter::ShiftKind::ArithmeticRight,
                (((v as i16) >> amt) as u16) as u64,
            ),
            (
                shifter::ShiftKind::RotateRight,
                v.rotate_right(amt as u32) as u64,
            ),
        ] {
            let mut builder = Builder::new();
            let vb = builder.input_bus("v", w);
            let ab = builder.input_bus("amt", shifter::amount_bits(w));
            let out = shifter::barrel_shifter(&mut builder, &vb, &ab, kind);
            builder.output_bus("out", &out);
            let nl = builder.finish();
            let mut pis = to_bits(v as u64, w);
            pis.extend(to_bits(amt, shifter::amount_bits(w)));
            assert_eq!(
                from_bits(&nl.eval(&pis)),
                expect,
                "case {case} {kind:?} amt={amt}"
            );
        }
    }
}

#[test]
fn alu_agrees_with_golden() {
    // Small ALU so each case is fast; the structure is width-uniform.
    let alu = Alu::new(8);
    let mut rng = Rng(0xA1);
    for case in 0..64 {
        let func = ALL_ALU_FUNCS[(rng.next_u64() % 13) as usize];
        let a = rng.next_u64() as u8;
        let b = rng.next_u64() as u8;
        assert_eq!(
            alu.execute(func, a as u64, b as u64),
            func.golden(a as u64, b as u64, 8),
            "case {case} {func:?} a={a} b={b}"
        );
    }
}

#[test]
fn buffer_insertion_preserves_function() {
    let alu = Alu::new(8);
    let (padded, _, _) = insert_hold_buffers(alu.netlist(), 170.0, 2000.0);
    let mut rng = Rng(0xB0F);
    for case in 0..64 {
        let func = ALL_ALU_FUNCS[(rng.next_u64() % 13) as usize];
        let a = rng.next_u64() as u8;
        let b = rng.next_u64() as u8;
        let pis = alu.encode(func, a as u64, b as u64);
        assert_eq!(
            alu.netlist().eval(&pis),
            padded.eval(&pis),
            "case {case} {func:?} a={a} b={b}"
        );
    }
}

#[test]
fn ex_stage_agrees_with_golden() {
    let ex = ExStage::new(8);
    let mut rng = Rng(0xE0);
    for case in 0..64 {
        let func = ALL_ALU_FUNCS[(rng.next_u64() % 13) as usize];
        let a = rng.next_u64() as u8;
        let b = rng.next_u64() as u8;
        assert_eq!(
            ex.execute(func, a as u64, b as u64),
            func.golden(a as u64, b as u64, 8),
            "case {case} {func:?} a={a} b={b}"
        );
    }
}

#[test]
fn golden_matches_wrapping_semantics_64() {
    // The golden model itself must match machine arithmetic at full width.
    for (a, b) in [
        (u64::MAX, 1u64),
        (0x8000_0000_0000_0000, 0x8000_0000_0000_0000),
        (0x0123_4567_89AB_CDEF, 0xFEDC_BA98_7654_3210),
    ] {
        assert_eq!(AluFunc::Add.golden(a, b, 64), a.wrapping_add(b));
        assert_eq!(AluFunc::Sub.golden(a, b, 64), a.wrapping_sub(b));
        assert_eq!(AluFunc::Mult.golden(a, b, 64), a.wrapping_mul(b));
        assert_eq!(AluFunc::Nor.golden(a, b, 64), !(a | b));
    }
}
