//! Two sweep workers that miss the same full-operand key of one chip at
//! the same moment must not both simulate it: the shared delay table
//! simulates each key once, whatever the interleaving, so the thread
//! count never changes the oracle's counters.

use std::collections::HashSet;
use std::sync::{Arc, Barrier};

use ntc_core::tag_delay::{Chip, TagDelayOracle};
use ntc_isa::{ErrorTag, Instruction};
use ntc_netlist::generators::alu::Alu;
use ntc_varmodel::{ChipSignature, Corner, VariationParams};
use ntc_workload::{Benchmark, TraceGenerator};

/// Rounds, each on a fresh chip (so a fresh shared table) and fresh
/// oracles.
const ROUNDS: usize = 20;

/// Pairs both workers resolve per round.
const PAIRS: usize = 24;

#[test]
fn racing_oracles_simulate_each_shared_key_once() {
    let netlist = Arc::new(Alu::new(ntc_isa::ARCH_WIDTH).into_netlist());
    let signature = ChipSignature::fabricate(&netlist, Corner::NTC, VariationParams::ntc(), 3);
    // The nominal critical delay only sets clocks, which this test has none of.
    let chip = || Arc::new(Chip::new(netlist.clone(), signature.clone(), 1.0));

    // The first pair of each distinct tag: every pair misses an oracle's
    // local table and reaches the shared one under a key of its own.
    let trace = TraceGenerator::new(Benchmark::Vortex, 7).trace(2_000);
    let mut tags = HashSet::new();
    let pairs: Vec<(Instruction, Instruction)> = trace
        .windows(2)
        .filter(|w| tags.insert(ErrorTag::of(&w[0], &w[1])))
        .map(|w| (w[0], w[1]))
        .take(PAIRS)
        .collect();
    assert_eq!(pairs.len(), PAIRS);
    let distinct_keys: HashSet<_> = pairs
        .iter()
        .map(|(p, c)| (ErrorTag::of(p, c), p.a, p.b, c.a, c.b))
        .collect();

    let mut unshared = TagDelayOracle::new(chip());
    let expected: Vec<_> = pairs.iter().map(|(p, c)| unshared.delays(p, c)).collect();
    assert_eq!(unshared.gate_sim_count(), distinct_keys.len() as u64);

    for round in 0..ROUNDS {
        let chip = chip();
        let start = Barrier::new(2);
        let sims: u64 = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mut o = TagDelayOracle::new(chip.clone());
                        start.wait();
                        let got: Vec<_> = pairs.iter().map(|(p, c)| o.delays(p, c)).collect();
                        assert_eq!(got, expected, "round {round}: shared delays");
                        o.gate_sim_count()
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("worker panicked"))
                .sum()
        });
        assert_eq!(
            sims,
            distinct_keys.len() as u64,
            "round {round}: each distinct key simulated once between the two workers"
        );
    }
}
