//! Randomized tests for static path enumeration: structural invariants
//! that must hold for any fabrication draw. The dynamic kernel's property
//! tests live beside its reference kernel, in `ntc_timing`'s unit tests.
//!
//! Formerly `proptest`-based; rewritten as seeded deterministic sweeps
//! (fixed-seed [`SplitMix64`] streams) so the workspace builds with zero
//! registry dependencies and every failure reproduces exactly.

use ntc_netlist::generators::alu::Alu;
use ntc_timing::k_critical_paths;
use ntc_varmodel::rng::SplitMix64;
use ntc_varmodel::{ChipSignature, Corner, VariationParams};

/// Every enumerated path's delay equals the sum of its gate delays, and
/// the ranking is non-increasing — for any chip.
#[test]
fn enumerated_paths_are_consistent() {
    let alu = Alu::new(8);
    let mut rng = SplitMix64::seed_from_u64(0x71AE_0003);
    for case in 0..32 {
        let seed = rng.gen_u64() % 32;
        let k = 1 + rng.gen_index(9);
        let sig =
            ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), seed);
        let paths = k_critical_paths(alu.netlist(), &sig, k);
        assert_eq!(paths.len(), k, "case {case}");
        let mut prev = f64::INFINITY;
        for p in &paths {
            let sum: f64 = p.signals.iter().map(|s| sig.delay_ps(s.index())).sum();
            assert!((sum - p.delay_ps).abs() < 1e-6, "case {case}");
            assert!(p.delay_ps <= prev + 1e-9, "case {case}");
            prev = p.delay_ps;
        }
    }
}
