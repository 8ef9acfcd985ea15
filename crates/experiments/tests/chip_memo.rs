//! Regression pin for the chip memo: static timing analysis runs *once per
//! memoized chip blank*, never per oracle or per accessor call. Before the
//! hoist, every `static_critical_delay_ps()` call re-ran a full STA pass;
//! this test pins the budget so it cannot creep back.

use ntc_experiments::{build_oracle, CH3_REGIME};
use ntc_varmodel::telemetry::{scoped, Metric};
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
    let (oracle, counts) = scoped(|| build_oracle(Corner::NTC, BARE_SEED, false, CH3_REGIME));
    assert_eq!(
        counts.get(Metric::StaFull),
        2,
        "bare chip blank: topology anchor + chip analysis, nothing more"
    );

    // The accessors read the memoized values — zero additional passes.
    let ((nominal, static_crit), counts) = scoped(|| {
        (oracle.nominal_critical_delay_ps(), oracle.static_critical_delay_ps())
    });
    assert!(static_crit > nominal * 0.5 && static_crit.is_finite());
    assert_eq!(counts.get(Metric::StaFull), 0, "accessors must not re-run STA");

    // A second oracle for the same chip replays the blank wholesale.
    let (_again, counts) = scoped(|| build_oracle(Corner::NTC, BARE_SEED, false, CH3_REGIME));
    assert_eq!(counts.get(Metric::StaFull), 0, "memoized blank rebuilt STA");

    // Buffered blank: bare-nominal anchor + buffered-nominal (both
    // topology-level) + the chip's own analysis.
    let (_buffered, counts) = scoped(|| build_oracle(Corner::NTC, BUFFERED_SEED, true, CH3_REGIME));
    assert_eq!(
        counts.get(Metric::StaFull),
        3,
        "buffered chip blank: bare anchor + buffered nominal + chip analysis"
    );
}
