//! The chip lottery: the same GDS produces dice with wildly different
//! choke-point signatures at NTC. This example fabricates a batch of
//! identical designs and reports, per die, how many choke gates it drew
//! and where its post-silicon critical delay landed — the paper's core
//! argument for *dynamic, per-chip* error mitigation.
//!
//! Run with: `cargo run --release --example chip_lottery`

use ntc_choke::netlist::generators::alu::Alu;
use ntc_choke::timing::StaticTiming;
use ntc_choke::varmodel::{chip_lottery, ChipSignature, Corner, VariationParams};

fn main() {
    let alu = Alu::new(32);
    let nl = alu.netlist();
    println!(
        "design: 32-bit ALU, {} logic gates, depth {}",
        nl.logic_gate_count(),
        nl.max_depth()
    );

    let nominal = ChipSignature::nominal(nl, Corner::NTC);
    let d_nom = StaticTiming::analyze(nl, &nominal).critical_delay_ps(nl);
    println!("nominal critical delay at NTC: {d_nom:.0} ps\n");

    println!(
        "{:>4} {:>12} {:>12} {:>14} {:>12}",
        "die", "slow chokes", "fast chokes", "critical (ps)", "vs nominal"
    );
    let batch = chip_lottery(nl, Corner::NTC, VariationParams::ntc(), 1000, 12);
    for (i, chip) in batch.iter().enumerate() {
        let d = StaticTiming::analyze(nl, chip).critical_delay_ps(nl);
        println!(
            "{:>4} {:>12} {:>12} {:>14.0} {:>11.2}x",
            i,
            chip.slow_choke_gates().len(),
            chip.fast_choke_gates().len(),
            d,
            d / d_nom
        );
    }

    // The same lottery at STC, for contrast.
    let stc_batch = chip_lottery(nl, Corner::STC, VariationParams::stc(), 1000, 12);
    let stc_chokes: usize = stc_batch.iter().map(|c| c.slow_choke_gates().len()).sum();
    let ntc_chokes: usize = batch.iter().map(|c| c.slow_choke_gates().len()).sum();
    println!(
        "\ntotal slow choke gates across the batch — STC: {stc_chokes}, NTC: {ntc_chokes} \
         ({}x more at near-threshold)",
        if stc_chokes > 0 {
            ntc_chokes / stc_chokes.max(1)
        } else {
            ntc_chokes
        }
    );
}
