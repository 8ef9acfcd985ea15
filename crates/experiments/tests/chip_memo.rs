//! Regression pin for the chip memo: static timing analysis runs *once per
//! memoized chip blank*, never per oracle or per accessor call. Before the
//! hoist, every `static_critical_delay_ps()` call re-ran a full STA pass;
//! this test pins the budget so it cannot creep back.

use ntc_experiments::{build_oracle, CH3_REGIME};
use ntc_timing::sta::analysis_count;
use ntc_varmodel::Corner;

// Seeds no other test binary uses: the chip memo is process-wide, and a
// blank fabricated by another test in *this* binary would hide analyses.
const BARE_SEED: u64 = 990_001;
const BUFFERED_SEED: u64 = 990_002;

#[test]
fn static_analysis_runs_once_per_chip_blank() {
    // Bare blank, first chip of its topology: one nominal pass (hoisted
    // to the topology memo — it anchors the clocks) + the chip's own
    // analysis. Later chips of the same topology cost one analysis each.
    let before = analysis_count();
    let oracle = build_oracle(Corner::NTC, BARE_SEED, false, CH3_REGIME);
    assert_eq!(
        analysis_count() - before,
        2,
        "bare chip blank: topology anchor + chip analysis, nothing more"
    );

    // The accessors read the memoized values — zero additional passes.
    let before = analysis_count();
    let nominal = oracle.nominal_critical_delay_ps();
    let static_crit = oracle.static_critical_delay_ps();
    assert!(static_crit > nominal * 0.5 && static_crit.is_finite());
    assert_eq!(analysis_count() - before, 0, "accessors must not re-run STA");

    // A second oracle for the same chip replays the blank wholesale.
    let before = analysis_count();
    let _again = build_oracle(Corner::NTC, BARE_SEED, false, CH3_REGIME);
    assert_eq!(analysis_count() - before, 0, "memoized blank rebuilt STA");

    // Buffered blank: bare-nominal anchor + buffered-nominal (both
    // topology-level) + the chip's own analysis.
    let before = analysis_count();
    let _buffered = build_oracle(Corner::NTC, BUFFERED_SEED, true, CH3_REGIME);
    assert_eq!(
        analysis_count() - before,
        3,
        "buffered chip blank: bare anchor + buffered nominal + chip analysis"
    );
}
