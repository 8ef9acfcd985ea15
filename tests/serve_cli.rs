//! The `ntc-serve` binary's startup checks: a daemon that cannot serve
//! its configuration refuses to start, with a usage exit code and no
//! socket left behind.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How long a refused startup may take before the test calls it a hang.
const DEADLINE: Duration = Duration::from_secs(10);

/// `serve` refuses arguments it cannot serve before it binds: a
/// malformed number, and a flag it does not take (`--tcp`: the daemon
/// listens on a Unix socket only).
#[test]
fn serve_rejects_a_bad_ntc_vdd_before_binding() {
    let dir = std::env::temp_dir().join(format!("ntc-serve-cli-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("test dir");
    let sock = dir.join("bad-args.sock");
    let mut outcomes = Vec::new();
    for bad in [["--jobs", "x"], ["--tcp", "127.0.0.1:0"]] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ntc-serve"))
            .args(["serve", "--socket"])
            .arg(&sock)
            .args(bad)
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
                panic!("ntc-serve still runs {DEADLINE:?} after start with {bad:?}");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let stderr = child.wait_with_output().expect("stderr").stderr;
        let stderr = String::from_utf8_lossy(&stderr).into_owned();
        outcomes.push((bad, status.code(), stderr, sock.exists()));
    }
    std::fs::remove_dir_all(&dir).ok();
    for (bad, code, stderr, socket_left) in outcomes {
        assert_eq!(code, Some(2), "{bad:?}: usage exit; stderr: {stderr}");
        assert!(
            stderr.contains("usage: ntc-serve"),
            "{bad:?}: prints the usage: {stderr}"
        );
        assert!(!socket_left, "{bad:?}: no socket is created");
    }
}
