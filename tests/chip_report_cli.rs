//! The `chip_report` binary end to end: a die's report is pinned byte for
//! byte at both corners, `--verilog` writes a whole module, and every bad
//! argument is a usage error (exit 2, the flag named on stderr, nothing
//! on stdout).

use std::process::{Command, Output};

fn chip_report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chip_report"))
        .args(args)
        .output()
        .expect("run chip_report")
}

fn assert_prints_golden(args: &[&str], golden: &str) {
    let out = chip_report(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{args:?}; stderr: {stderr}");
    let want = std::fs::read_to_string(format!(
        "{}/tests/golden/bin/{golden}",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("golden report");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        want,
        "{args:?} against {golden}"
    );
}

#[test]
fn ntc_report_matches_golden() {
    assert_prints_golden(&["--seed", "5", "--paths", "3"], "chip_report_ntc.txt");
}

#[test]
fn stc_report_matches_golden() {
    assert_prints_golden(
        &["--seed", "5", "--paths", "3", "--corner", "stc"],
        "chip_report_stc.txt",
    );
}

#[test]
fn verilog_dump_is_a_whole_module() {
    let dir = std::env::temp_dir().join(format!("chip-report-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("test dir");
    let path = dir.join("die.v");
    let out = chip_report(&[
        "--seed",
        "5",
        "--paths",
        "1",
        "--verilog",
        path.to_str().expect("utf-8 path"),
    ]);
    let verilog = std::fs::read_to_string(&path);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let verilog = verilog.expect("the Verilog file");
    assert!(
        verilog
            .lines()
            .any(|l| l == "module ntc_alu (op, a, b, result, zero);"),
        "module line"
    );
    assert_eq!(verilog.lines().last(), Some("endmodule"));
}

#[test]
fn bad_arguments_are_usage_errors() {
    for (args, flag) in [
        (&["--corner", "stcc"][..], "--corner"),
        (&["--seed", "x"][..], "--seed"),
        (&["--width", "0"][..], "--width"),
        (&["--width", "1"][..], "--width"),
        (&["--width", "65"][..], "--width"),
        (&["--paths", "0"][..], "--paths"),
        (&["--paths"][..], "--paths"),
        (&["--bogus"][..], "--bogus"),
    ] {
        let out = chip_report(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}; stderr: {stderr}");
        assert!(
            stderr.contains(flag),
            "{args:?}: the message names {flag}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}
