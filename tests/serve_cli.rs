//! The `ntc-serve` binary's startup checks: a daemon that cannot serve
//! its configuration refuses to start, with a usage exit code and no
//! socket left behind.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How long a refused startup may take before the test calls it a hang.
const DEADLINE: Duration = Duration::from_secs(10);

#[test]
fn serve_rejects_a_bad_ntc_vdd_before_binding() {
    let dir = std::env::temp_dir().join(format!("ntc-serve-cli-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("test dir");
    let sock = dir.join("bad-vdd.sock");
    let mut child = Command::new(env!("CARGO_BIN_EXE_ntc-serve"))
        .args(["serve", "--socket"])
        .arg(&sock)
        .env("NTC_VDD", "garbage")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ntc-serve");
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll ntc-serve") {
            break status;
        }
        if started.elapsed() > DEADLINE {
            child.kill().ok();
            child.wait().ok();
            std::fs::remove_dir_all(&dir).ok();
            panic!("ntc-serve still runs {DEADLINE:?} after start with NTC_VDD=garbage");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let stderr = child.wait_with_output().expect("stderr").stderr;
    let stderr = String::from_utf8_lossy(&stderr);
    let socket_left = sock.exists();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(status.code(), Some(2), "usage exit; stderr: {stderr}");
    assert!(stderr.contains("NTC_VDD"), "the message names the variable: {stderr}");
    assert!(!socket_left, "no socket is created");
}
