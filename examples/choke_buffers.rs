//! Choke buffers: why the classic hold-fixing buffer insertion backfires
//! at near-threshold voltage. The example pads an ALU's short paths at
//! design time (nominal delays), then fabricates NTC dice and shows the
//! padded paths dipping back under the hold constraint whenever the
//! fabrication lottery hands the buffer chains fast transistors.
//!
//! Run with: `cargo run --release --example choke_buffers`

use ntc_choke::isa::{Instruction, Opcode};
use ntc_choke::netlist::buffer_insertion::insert_hold_buffers;
use ntc_choke::netlist::generators::alu::Alu;
use ntc_choke::timing::{CycleTiming, SimWorkspace, StaticTiming};
use ntc_choke::varmodel::{ChipSignature, Corner, VariationParams};

fn main() {
    let alu = Alu::new(32);
    let nominal = ChipSignature::nominal(alu.netlist(), Corner::NTC);
    let crit = StaticTiming::analyze(alu.netlist(), &nominal).critical_delay_ps(alu.netlist());

    // Design-time hold fix: the Razor shadow-latch window demands that no
    // path switch before 22% of the critical delay. The tool sees nominal
    // delays only.
    let f = Corner::NTC.delay_factor();
    let hold_ntc = crit * 0.22;
    let (padded, bufs, report) = insert_hold_buffers(alu.netlist(), hold_ntc / f, crit * 0.72 / f);
    println!(
        "hold target {hold_ntc:.0} ps: inserted {} buffers on {} edges \
         (min path {:.0} -> {:.0} ps in the design frame)",
        report.buffers_inserted,
        report.edges_padded,
        report.min_delay_before_ps * f,
        report.min_delay_after_ps * f
    );
    assert!(!bufs.0.is_empty());

    // Post-silicon: fabricate dice and probe a short-path operation pair.
    // The padded netlist keeps the ALU's inputs, so the ALU encodes for it.
    let encode = |i: Instruction| alu.encode(i.opcode.alu_func(), u64::from(i.a), u64::from(i.b));
    let prev = encode(Instruction::new(Opcode::Move, 0, 0));
    let cur = encode(Instruction::new(Opcode::Move, 0xFFFF_FFFF, 0));
    let mut ws = SimWorkspace::new();
    let mut t = CycleTiming::default();
    println!("\n{:>4} {:>16} {:>10}", "die", "min delay (ps)", "verdict");
    let mut violations = 0;
    let dice = 10;
    for seed in 0..dice {
        let sig = ChipSignature::fabricate(&padded, Corner::NTC, VariationParams::ntc(), seed);
        ws.simulate_pair_into(&padded, &sig, &prev, &cur, &mut t);
        let min = t.delays.min_ps.unwrap_or(f64::INFINITY);
        let violated = min < hold_ntc;
        violations += violated as u32;
        println!(
            "{:>4} {:>16.0} {:>10}",
            seed,
            min,
            if violated { "CHOKED" } else { "ok" }
        );
    }
    println!(
        "\n{violations}/{dice} dice violate the hold constraint the buffers were \
         inserted to guarantee — the buffers themselves became choke points."
    );
}
