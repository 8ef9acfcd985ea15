//! The width-parametric ALU: the execute-stage datapath the whole study
//! scrutinizes (the paper synthesizes a 64-bit ALU / EX pipestage and runs
//! its statistical timing analysis against it).
//!
//! Structure: a 4-bit function select feeds a one-hot decoder; the adder
//! (shared by ADD / SUB / LOAD address generation), Wallace-tree multiplier,
//! bitwise logic arrays, a combined right shifter (logical / arithmetic /
//! rotate) and a left shifter all compute in parallel; a one-hot AND–OR
//! stage selects the result. This mirrors a synthesized ALU's path
//! diversity: MULT is deepest, BUFFER shallowest, exactly the relative
//! depths the choke-point analysis depends on.

use crate::cell::CellKind;
use crate::generators::{adder, logic, multiplier, shifter};
use crate::netlist::{Builder, Netlist, Signal};
use std::fmt;

/// Datapath function computed by the [`Alu`].
///
/// These are *datapath* selectors, not ISA opcodes; `ntc-isa` maps each
/// architectural opcode (ADDU, ADDIU, LUI, …) onto one of these plus an
/// operand routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AluFunc {
    /// `a + b`.
    Add,
    /// `a - b` (two's complement).
    Sub,
    /// Low half of `a * b` (the MULT/MFLO datapath).
    Mult,
    /// Bitwise OR.
    Or,
    /// Bitwise AND.
    And,
    /// Bitwise XOR.
    Xor,
    /// Bitwise NOR.
    Nor,
    /// Address generation for loads: `a + b` through the adder plus the
    /// AGU buffering stage (a slightly longer path than plain ADD).
    Load,
    /// Arithmetic shift right by `b`'s low bits (ASR / SRA).
    ShiftRightArith,
    /// Logical shift right by `b`'s low bits (LSR / SRL).
    ShiftRightLogical,
    /// Rotate right by `b`'s low bits (ROR).
    RotateRight,
    /// Logical shift left by `b`'s low bits (SLL).
    ShiftLeft,
    /// Pass `a` through a buffer stage (the BUFFER op of the paper's ALU
    /// study; also models register-move style ops).
    Buffer,
}

/// All ALU functions, in select-code order.
pub const ALL_ALU_FUNCS: [AluFunc; 13] = [
    AluFunc::Add,
    AluFunc::Sub,
    AluFunc::Mult,
    AluFunc::Or,
    AluFunc::And,
    AluFunc::Xor,
    AluFunc::Nor,
    AluFunc::Load,
    AluFunc::ShiftRightArith,
    AluFunc::ShiftRightLogical,
    AluFunc::RotateRight,
    AluFunc::ShiftLeft,
    AluFunc::Buffer,
];

impl AluFunc {
    /// The 4-bit select code driven onto the ALU's `op` input port.
    #[inline]
    pub fn select_code(self) -> u8 {
        ALL_ALU_FUNCS
            .iter()
            .position(|&f| f == self)
            .expect("every AluFunc is in ALL_ALU_FUNCS") as u8
    }

    /// Golden-model (behavioural) semantics used to verify the netlist.
    ///
    /// Operands and result are `width`-bit values stored LSB-aligned in
    /// `u64`. Shift amounts use the low `ceil(log2(width))` bits of `b`.
    pub fn golden(self, a: u64, b: u64, width: usize) -> u64 {
        let mask = if width >= 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let sh_bits = shifter::amount_bits(width) as u32;
        let amt = (b & ((1 << sh_bits) - 1)) as u32;
        let v = match self {
            AluFunc::Add | AluFunc::Load => a.wrapping_add(b),
            AluFunc::Sub => a.wrapping_sub(b),
            AluFunc::Mult => a.wrapping_mul(b),
            AluFunc::Or => a | b,
            AluFunc::And => a & b,
            AluFunc::Xor => a ^ b,
            AluFunc::Nor => !(a | b),
            AluFunc::ShiftRightArith => {
                let sign = (a >> (width - 1)) & 1 == 1;
                let mut r = (a & mask) >> (amt as u64 % width as u64).min(63);
                if sign && amt > 0 {
                    let fill = amt.min(width as u32);
                    for i in 0..fill {
                        r |= 1u64 << (width as u32 - 1 - i).min(63);
                    }
                }
                r
            }
            AluFunc::ShiftRightLogical => {
                if amt as usize >= width {
                    0
                } else {
                    (a & mask) >> amt
                }
            }
            AluFunc::RotateRight => {
                let amt = amt as u64 % width as u64;
                if amt == 0 {
                    a
                } else {
                    ((a & mask) >> amt) | ((a & mask) << (width as u64 - amt))
                }
            }
            AluFunc::ShiftLeft => {
                if amt as usize >= width {
                    0
                } else {
                    a << amt
                }
            }
            AluFunc::Buffer => a,
        };
        v & mask
    }

    /// Display name matching the paper's figures (ADD, SUB, MULT, …).
    pub fn paper_name(self) -> &'static str {
        match self {
            AluFunc::Add => "ADD",
            AluFunc::Sub => "SUB",
            AluFunc::Mult => "MULT",
            AluFunc::Or => "OR",
            AluFunc::And => "AND",
            AluFunc::Xor => "XOR",
            AluFunc::Nor => "NOR",
            AluFunc::Load => "LOAD",
            AluFunc::ShiftRightArith => "ASR",
            AluFunc::ShiftRightLogical => "LSR",
            AluFunc::RotateRight => "ROR",
            AluFunc::ShiftLeft => "SLL",
            AluFunc::Buffer => "BUFFER",
        }
    }
}

impl fmt::Display for AluFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// A generated ALU netlist plus its port metadata.
#[derive(Debug, Clone)]
pub struct Alu {
    netlist: Netlist,
    width: usize,
}

impl Alu {
    /// Generate a `width`-bit ALU (the paper uses 64; tests use 8–16 for
    /// speed).
    ///
    /// Input ports: `op` (4 bits), `a` (`width` bits), `b` (`width` bits).
    /// Output port: `result` (`width` bits) plus a `zero` flag.
    ///
    /// # Panics
    ///
    /// Panics if `width < 2`.
    pub fn new(width: usize) -> Self {
        assert!(width >= 2, "ALU width must be at least 2");
        let mut b = Builder::new();
        let op = b.input_bus("op", 4);
        let a_bus = b.input_bus("a", width);
        let b_bus = b.input_bus("b", width);

        let result = build_alu_body(&mut b, &op, &a_bus, &b_bus);
        let zero = logic::is_zero(&mut b, &result);
        b.output_bus("result", &result);
        b.output("zero", zero);

        Alu {
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

    /// Encode one operation as a primary-input vector (`op`, `a`, `b`);
    /// see [`encode_into`].
    pub fn encode(&self, func: AluFunc, a: u64, b: u64) -> Vec<bool> {
        let mut pis = Vec::with_capacity(4 + 2 * self.width);
        encode_into(self.width, func, a, b, &mut pis);
        pis
    }

    /// Run one operation through the netlist and decode the result bus.
    pub fn execute(&self, func: AluFunc, a: u64, b: u64) -> u64 {
        let out = self.netlist.eval(&self.encode(func, a, b));
        out[..self.width]
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &bit)| acc | ((bit as u64) << i))
    }
}

/// Write one operation as the ALU's primary inputs into `pis`, replacing
/// its contents: the 4 `op` select bits, then the low `width` bits of `a`,
/// then of `b`, each LSB first. This is the order [`Alu::new`] declares
/// those ports in, and the EX stage declares them first. Reusing `pis`
/// keeps a caller that encodes every cycle free of allocation.
pub fn encode_into(width: usize, func: AluFunc, a: u64, b: u64, pis: &mut Vec<bool>) {
    let code = func.select_code();
    pis.clear();
    pis.extend((0..4).map(|i| (code >> i) & 1 == 1));
    pis.extend((0..width).map(|i| (a >> i) & 1 == 1));
    pis.extend((0..width).map(|i| (b >> i) & 1 == 1));
}

/// The full ALU datapath body, shared between [`Alu`] and the EX-stage
/// generator: one-hot function decode, shared adder (ADD/SUB/LOAD), Wallace
/// multiplier, bitwise arrays, combined right shifter (LSR/ASR/ROR share
/// the mux array with per-mode fill), left shifter, pass-through buffers,
/// and the one-hot AND–OR result selection.
pub(crate) fn build_alu_body(
    b: &mut Builder,
    op: &[Signal],
    a_bus: &[Signal],
    b_bus: &[Signal],
) -> Vec<Signal> {
    let width = a_bus.len();
    let onehot = logic::decoder(b, op, ALL_ALU_FUNCS.len());
    let sel_sub = onehot[AluFunc::Sub.select_code() as usize];
    let sel_arith = onehot[AluFunc::ShiftRightArith.select_code() as usize];
    let sel_ror = onehot[AluFunc::RotateRight.select_code() as usize];

    // Shared adder: ADD / SUB / LOAD. SUB inverts b and injects carry-in,
    // the standard shared-adder trick.
    let b_eff: Vec<Signal> = b_bus.iter().map(|&bit| b.xor(bit, sel_sub)).collect();
    let add_out = adder::kogge_stone(b, a_bus, &b_eff, sel_sub);
    // LOAD: address-generation path = adder + AGU buffering.
    let load_out: Vec<Signal> = add_out
        .sum
        .iter()
        .map(|&s| {
            let b1 = b.buf(s);
            b.buf(b1)
        })
        .collect();

    let mult_out = multiplier::wallace_multiplier_low(b, a_bus, b_bus);

    let or_out = logic::bitwise(b, CellKind::Or2, a_bus, b_bus);
    let and_out = logic::bitwise(b, CellKind::And2, a_bus, b_bus);
    let xor_out = logic::bitwise(b, CellKind::Xor2, a_bus, b_bus);
    let nor_out = logic::bitwise(b, CellKind::Nor2, a_bus, b_bus);

    let amt_bits = shifter::amount_bits(width);
    let amount: Vec<Signal> = b_bus[..amt_bits].to_vec();
    let right_out = combined_right_shifter(b, a_bus, &amount, sel_arith, sel_ror);
    let left_out = shifter::barrel_shifter(b, a_bus, &amount, shifter::ShiftKind::LogicalLeft);

    let buffer_out: Vec<Signal> = a_bus.iter().map(|&s| b.buf(s)).collect();

    // Candidates in select-code order.
    let candidates: Vec<Vec<Signal>> = vec![
        add_out.sum.clone(), // Add
        add_out.sum,         // Sub (same adder output; b_eff/cin made it a-b)
        mult_out,            // Mult
        or_out,              // Or
        and_out,             // And
        xor_out,             // Xor
        nor_out,             // Nor
        load_out,            // Load
        right_out.clone(),   // ShiftRightArith
        right_out.clone(),   // ShiftRightLogical
        right_out,           // RotateRight
        left_out,            // ShiftLeft
        buffer_out,          // Buffer
    ];
    let selected = logic::onehot_select(b, &candidates, &onehot);
    // Result-bus drivers: the selected result crosses the bypass network
    // and the writeback wiring through a buffer chain every operation
    // shares (part of the common EX-stage depth a synthesized datapath
    // carries).
    selected
        .iter()
        .map(|&s| {
            let b1 = b.buf(s);
            let b2 = b.buf(b1);
            b.buf(b2)
        })
        .collect()
}

/// Right shifter shared by LSR / ASR / ROR: one mux array whose shifted-in
/// bits are selected per mode (`zero`, `sign`, or the rotated-around data).
fn combined_right_shifter(
    b: &mut Builder,
    value: &[Signal],
    amount: &[Signal],
    sel_arith: Signal,
    sel_ror: Signal,
) -> Vec<Signal> {
    let w = value.len();
    let sign = value[w - 1];
    // fill = sign if arithmetic, else 0 (rotate overrides per-bit below).
    let fill = b.and(sign, sel_arith);
    let mut cur: Vec<Signal> = value.to_vec();
    for (stage, &sel) in amount.iter().enumerate() {
        let dist = 1usize << stage;
        let shifted: Vec<Signal> = (0..w)
            .map(|i| {
                if i + dist < w {
                    cur[i + dist]
                } else {
                    // Out-of-range source: fill for shifts, wrapped for ROR.
                    let wrapped = cur[(i + dist) % w];
                    b.mux(fill, wrapped, sel_ror)
                }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Guard;

    #[test]
    fn select_codes_are_the_roster_positions() {
        for (code, f) in ALL_ALU_FUNCS.into_iter().enumerate() {
            assert_eq!(usize::from(f.select_code()), code);
        }
    }

    #[test]
    fn alu_matches_golden_model_8bit() {
        let alu = Alu::new(8);
        let cases = [
            (0x00u64, 0x00u64),
            (0xFF, 0x01),
            (0xA5, 0x3C),
            (0x80, 0x7F),
            (0x01, 0x08),
            (0x90, 0x03),
            (0x7B, 0xE6),
        ];
        for func in ALL_ALU_FUNCS {
            for (a, b) in cases {
                assert_eq!(
                    alu.execute(func, a, b),
                    func.golden(a, b, 8),
                    "{func} a={a:#x} b={b:#x}"
                );
            }
        }
    }

    #[test]
    fn alu_matches_golden_model_16bit_spot() {
        let alu = Alu::new(16);
        for func in ALL_ALU_FUNCS {
            for (a, b) in [(0xDEADu64, 0xBEEFu64), (0x8000, 0x0001), (0x1234, 0x000F)] {
                assert_eq!(
                    alu.execute(func, a, b),
                    func.golden(a, b, 16),
                    "{func} a={a:#x} b={b:#x}"
                );
            }
        }
    }

    #[test]
    fn zero_flag() {
        let alu = Alu::new(8);
        let pis = alu.encode(AluFunc::Sub, 42, 42);
        let out = alu.netlist().eval(&pis);
        assert!(out[8], "zero flag set for 42-42");
        let pis = alu.encode(AluFunc::Sub, 42, 41);
        let out = alu.netlist().eval(&pis);
        assert!(!out[8], "zero flag clear for 42-41");
    }

    #[test]
    fn mult_is_the_deepest_function() {
        // Depth diversity across functions is the property the choke-point
        // study depends on; check the ordering holds structurally.
        let alu = Alu::new(8);
        assert!(alu.netlist().max_depth() > 20);
    }

    #[test]
    fn golden_shift_semantics() {
        // ASR on a negative value sign-extends.
        assert_eq!(AluFunc::ShiftRightArith.golden(0x80, 1, 8), 0xC0);
        assert_eq!(AluFunc::ShiftRightArith.golden(0x80, 7, 8), 0xFF);
        // ROR wraps.
        assert_eq!(AluFunc::RotateRight.golden(0x01, 1, 8), 0x80);
        // SLL of >= width is 0 when amount bits allow expressing it... with
        // 3 amount bits on w=8 the max amount is 7.
        assert_eq!(AluFunc::ShiftLeft.golden(0x01, 7, 8), 0x80);
    }

    /// A `width`-bit ALU and its one-hot select lines, in select-code order:
    /// `Alu::new` builds its three input buses and then the one-hot decoder
    /// first, so the same steps on a fresh builder give the lines' indices.
    fn alu_and_select_lines(width: usize) -> (Alu, Vec<Signal>) {
        let mut b = Builder::new();
        let op = b.input_bus("op", 4);
        b.input_bus("a", width);
        b.input_bus("b", width);
        let onehot = logic::decoder(&mut b, &op, ALL_ALU_FUNCS.len());
        (Alu::new(width), onehot)
    }

    /// The logic gates above the decoder that the data pins of the
    /// result-mux ANDs of `funcs` depend on: those functions' datapath.
    fn datapath_cone(nl: &Netlist, onehot: &[Signal], funcs: &[AluFunc]) -> Vec<usize> {
        let floor = onehot.iter().max().expect("select lines").index();
        let mut stack: Vec<Signal> = funcs
            .iter()
            .flat_map(|f| nl.fanout_of(onehot[f.select_code() as usize]))
            .flat_map(|&g| nl.gates()[g as usize].inputs().to_vec())
            .filter(|s| !onehot.contains(s))
            .collect();
        let mut cone = vec![false; nl.len()];
        while let Some(s) = stack.pop() {
            if s.index() > floor && !cone[s.index()] && !nl.gate(s).kind().is_pseudo() {
                cone[s.index()] = true;
                stack.extend_from_slice(nl.gate(s).inputs());
            }
        }
        (0..nl.len()).filter(|&i| cone[i]).collect()
    }

    /// Asserts that every gate of `cone` carries exactly the select lines
    /// of `funcs` at 0.
    fn assert_cone_masked(nl: &Netlist, cone: &[usize], onehot: &[Signal], funcs: &[AluFunc]) {
        let mut expect: Vec<(Signal, bool)> = funcs
            .iter()
            .map(|f| (onehot[f.select_code() as usize], false))
            .collect();
        expect.sort();
        for &i in cone {
            let Guard::MaskedBy(mask) = nl.guard_of_index(i) else {
                panic!("gate n{i} is {:?}", nl.guard_of_index(i));
            };
            assert_eq!(mask.pairs().collect::<Vec<_>>(), expect, "gate n{i}");
        }
    }

    #[test]
    fn the_mult_select_line_guards_the_whole_multiplier_cone() {
        let (alu, onehot) = alu_and_select_lines(8);
        let nl = alu.netlist();
        let mult = onehot[AluFunc::Mult.select_code() as usize];
        assert!(nl.eval_all(&alu.encode(AluFunc::Mult, 3, 5))[mult.index()]);
        assert!(!nl.eval_all(&alu.encode(AluFunc::Add, 3, 5))[mult.index()]);
        // The select line gates each multiplier output bit into the result
        // mux; the multiplier cone is everything those bits depend on.
        assert_eq!(
            nl.fanout_of(mult).len(),
            8,
            "one multiplier bit per result bit"
        );
        let cone = datapath_cone(nl, &onehot, &[AluFunc::Mult]);
        assert!(
            cone.len() > 100,
            "an 8-bit multiplier, got {} gates",
            cone.len()
        );
        assert_cone_masked(nl, &cone, &onehot, &[AluFunc::Mult]);
    }

    /// On the 32-bit ALU the shared adder sits behind the ADD, SUB and
    /// LOAD lines, the right shifter behind ASR, LSR and ROR, and the
    /// multiplier behind MULT alone; every mask net lies below its gate.
    #[test]
    fn three_select_lines_guard_the_adder_and_the_right_shifter() {
        let (alu, onehot) = alu_and_select_lines(32);
        let nl = alu.netlist();
        let adder = [AluFunc::Add, AluFunc::Sub, AluFunc::Load];
        let right = [
            AluFunc::ShiftRightArith,
            AluFunc::ShiftRightLogical,
            AluFunc::RotateRight,
        ];
        // LOAD's data pins are the AGU buffers behind the adder; the adder
        // proper is what the ADD and SUB data pins depend on.
        let adder_cone = datapath_cone(nl, &onehot, &adder[..2]);
        let right_cone = datapath_cone(nl, &onehot, &right);
        let mult_cone = datapath_cone(nl, &onehot, &[AluFunc::Mult]);
        assert_eq!(adder_cone.len(), 471);
        assert_eq!(right_cone.len(), 192);
        assert_eq!(mult_cone.len(), 2_337);
        assert_cone_masked(nl, &adder_cone, &onehot, &adder);
        assert_cone_masked(nl, &right_cone, &onehot, &right);
        assert_cone_masked(nl, &mult_cone, &onehot, &[AluFunc::Mult]);
        for i in 0..nl.len() {
            if let Guard::MaskedBy(mask) = nl.guard_of_index(i) {
                assert!(mask.pairs().all(|(net, _)| net.index() < i), "n{i}");
            }
        }
    }

    /// Every bit `encode_into` writes lands on the primary input of the
    /// matching `op`/`a`/`b` port bit: on the bare ALU, on its hold-buffered
    /// copy, and as the prefix of the EX stage's stimulus.
    #[test]
    fn encoder_bits_sit_on_their_port_bits() {
        use crate::buffer_insertion::{insert_hold_buffers, nominal_arrivals};
        use crate::generators::ex_stage::ExStage;

        // SplitMix64, inlined: this crate sits below `ntc-varmodel`.
        let mut state = 0xA1_u64;
        let mut draw = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for width in [8, 32, 64] {
            let alu = Alu::new(width);
            let (_, max_arr) = nominal_arrivals(alu.netlist());
            let crit = alu
                .netlist()
                .outputs()
                .iter()
                .map(|s| max_arr[s.index()])
                .fold(0.0, f64::max);
            let (buffered, bufs, _) = insert_hold_buffers(alu.netlist(), crit * 0.4, crit * 1.001);
            assert!(!bufs.0.is_empty(), "width {width}: the hold fix pads paths");
            let ex = ExStage::new(width);
            for (what, nl) in [
                ("alu", alu.netlist()),
                ("buffered", &buffered),
                ("ex stage", ex.netlist()),
            ] {
                // Each port's bits as positions in `nl.inputs()`.
                let layout: Vec<(&str, Vec<usize>)> = ["op", "a", "b"]
                    .into_iter()
                    .map(|name| {
                        let port = nl.input_port(name).expect("an ALU port");
                        let at = |s| nl.inputs().iter().position(|i| i == s);
                        let positions = port.bits.iter().map(|s| at(s).expect("an input"));
                        (name, positions.collect())
                    })
                    .collect();
                for func in ALL_ALU_FUNCS {
                    for _ in 0..4 {
                        let (a, b) = (draw(), draw());
                        let pis = match what {
                            "ex stage" => ex.encode(func, a, b),
                            _ => alu.encode(func, a, b),
                        };
                        assert_eq!(pis.len(), nl.inputs().len(), "{what} width {width}");
                        let values = [u64::from(func.select_code()), a, b];
                        for ((name, bits), value) in layout.iter().zip(values) {
                            for (k, &pos) in bits.iter().enumerate() {
                                assert_eq!(
                                    pis[pos],
                                    (value >> k) & 1 == 1,
                                    "{what} width {width} {func}: {name}[{k}]"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn width_is_recorded() {
        let alu = Alu::new(8);
        assert_eq!(alu.width(), 8);
        assert_eq!(alu.netlist().input_ports().len(), 3);
    }
}
