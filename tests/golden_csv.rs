//! Golden-file regression tests: the fast-scale CSV output of four
//! experiments is pinned byte-for-byte under `tests/golden/` — per
//! evaluation chapter, one error-profile figure (`fig3.4`, `fig4.3`) and
//! one scheme-comparison grid (`fig3.10`: one bare-oracle group of four
//! schemes; `fig4.10`: buffered Razor/OCST beside bare Trident). Any
//! change to the device model, timing analysis, trace generation, RNG
//! streams, delay stream or sweep engine that shifts a single digit
//! shows up here as a readable diff.
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
