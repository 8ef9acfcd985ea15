//! Golden-file regression tests: the fast-scale CSV output of 21
//! experiments is pinned byte-for-byte under `tests/golden/` — the
//! circuit-level choke study at both corners (`fig3.2a`, `fig3.2b`: the
//! choke gate level, which depends on the causal-path walk; `fig3.3`:
//! the choke delay level, which does not), every error-profile figure
//! (`fig3.4`, `fig4.3`, `fig4.4`, `fig4.8`), every grid figure of both
//! evaluation chapters (`fig3.8`–`fig3.12`: DCS accuracy sweeps and the
//! one bare-oracle group of four schemes; `fig4.9`–`fig4.12`: the CET
//! sweep and buffered Razor/OCST beside bare Trident), the window
//! ablation (`abl.window`), the voltage and aging extensions (`ext.vdd`,
//! `ext.aging`) and both overhead tables (`tab3.overheads`,
//! `tab4.overheads`). Any change to the device model, timing analysis,
//! trace generation, RNG streams, delay stream, profiler or sweep engine
//! that shifts a single digit shows up here as a readable diff.
//!
//! After an *intentional* model change, regenerate the fixtures with:
//!
//! ```text
//! NTC_UPDATE_GOLDEN=1 cargo test --test golden_csv
//! ```
//!
//! and review the fixture diff like any other code change.

use ntc_choke::experiments::{all_experiments, Scale};
use std::path::PathBuf;

fn golden_path(id: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}.csv", id.replace('.', "_")))
}

fn check_against_golden(id: &str) {
    let (_, run) = all_experiments()
        .into_iter()
        .find(|(eid, _)| *eid == id)
        .unwrap_or_else(|| panic!("experiment {id} not found"));
    let mut buf = Vec::new();
    run(Scale::Fast).write_csv(&mut buf).expect("write csv");
    let actual = String::from_utf8(buf).expect("CSV is UTF-8");
    let path = golden_path(id);

    if std::env::var_os("NTC_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("update golden fixture");
        return;
    }

    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: cannot read golden fixture ({e}); \
             regenerate with NTC_UPDATE_GOLDEN=1 cargo test --test golden_csv",
            path.display()
        )
    });
    assert_eq!(
        golden, actual,
        "{id}: CSV drifted from {}; if the change is intentional, \
         regenerate with NTC_UPDATE_GOLDEN=1 and review the diff",
        path.display()
    );
}

#[test]
fn fig3_2a_matches_golden_csv() {
    check_against_golden("fig3.2a");
}

#[test]
fn fig3_2b_matches_golden_csv() {
    check_against_golden("fig3.2b");
}

#[test]
fn fig3_3_matches_golden_csv() {
    check_against_golden("fig3.3");
}

#[test]
fn fig3_4_matches_golden_csv() {
    check_against_golden("fig3.4");
}

#[test]
fn fig4_3_matches_golden_csv() {
    check_against_golden("fig4.3");
}

#[test]
fn fig3_10_matches_golden_csv() {
    check_against_golden("fig3.10");
}

#[test]
fn fig4_10_matches_golden_csv() {
    check_against_golden("fig4.10");
}

#[test]
fn fig3_8_matches_golden_csv() {
    check_against_golden("fig3.8");
}

#[test]
fn fig3_9_matches_golden_csv() {
    check_against_golden("fig3.9");
}

#[test]
fn fig3_11_matches_golden_csv() {
    check_against_golden("fig3.11");
}

#[test]
fn fig3_12_matches_golden_csv() {
    check_against_golden("fig3.12");
}

#[test]
fn fig4_4_matches_golden_csv() {
    check_against_golden("fig4.4");
}

#[test]
fn fig4_8_matches_golden_csv() {
    check_against_golden("fig4.8");
}

#[test]
fn fig4_9_matches_golden_csv() {
    check_against_golden("fig4.9");
}

#[test]
fn fig4_11_matches_golden_csv() {
    check_against_golden("fig4.11");
}

#[test]
fn fig4_12_matches_golden_csv() {
    check_against_golden("fig4.12");
}

#[test]
fn abl_window_matches_golden_csv() {
    check_against_golden("abl.window");
}

#[test]
fn ext_vdd_matches_golden_csv() {
    check_against_golden("ext.vdd");
}

#[test]
fn ext_aging_matches_golden_csv() {
    check_against_golden("ext.aging");
}

#[test]
fn tab3_overheads_matches_golden_csv() {
    check_against_golden("tab3.overheads");
}

#[test]
fn tab4_overheads_matches_golden_csv() {
    check_against_golden("tab4.overheads");
}
