//! The `ntc-workload` binary end to end: `record` writes one decodable
//! `.ntt` file per benchmark, holding exactly the generator's stream, and
//! usage errors exit 2.

use ntc_workload::{trace_bin, TraceGenerator, TraceSource, ALL_BENCHMARKS};
use std::path::PathBuf;
use std::process::Command;

fn ntc_workload() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ntc-workload"))
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ntc-workload-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Each seed-5, 1,500-cycle file's trailing FNV-1a checksum, by
/// benchmark: pins the `.ntt` bytes, which the grid cache's replay keys
/// build on, against any change to the record layout.
const PINNED_CHECKSUMS: [(&str, u64); 6] = [
    ("bzip", 0x3e49_d2f4_e307_9e48),
    ("gap", 0x8074_5afb_79ae_ccab),
    ("gzip", 0x714c_fe65_6d49_a719),
    ("mcf", 0x3169_08db_64de_5a36),
    ("parser", 0x2b65_4415_293f_4ead),
    ("vortex", 0x2521_16e0_80bf_476f),
];

#[test]
fn record_writes_one_generator_trace_per_benchmark() {
    let dir = test_dir("record");
    let (seed, cycles) = (5u64, 1_500usize);
    let out = ntc_workload()
        .args(["record", "--dir", dir.to_str().unwrap()])
        .args(["--seed", &seed.to_string(), "--cycles", &cycles.to_string()])
        .output()
        .expect("spawn ntc-workload");
    assert_eq!(out.status.code(), Some(0));
    let files = std::fs::read_dir(&dir).expect("trace dir").count();
    assert_eq!(
        files,
        ALL_BENCHMARKS.len(),
        "one .ntt per benchmark, nothing else"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines.len(),
        ALL_BENCHMARKS.len(),
        "one report line per trace"
    );
    for (bench, line) in ALL_BENCHMARKS.into_iter().zip(lines) {
        let path = TraceSource::trace_path(&dir, bench, seed, cycles);
        // Header, one 17-byte record per instruction, trailing checksum.
        let len = std::fs::metadata(&path).expect("trace file").len();
        assert_eq!(len, 24 + 17 * cycles as u64 + 8, "{bench}: file length");
        assert_eq!(
            line,
            format!(
                "recorded {} ({cycles} instructions, {len} bytes)",
                path.display()
            ),
            "{bench}: the printed byte count is the file's length"
        );
        let bytes = std::fs::read(&path).expect("trace bytes");
        let trailer: [u8; 8] = bytes[bytes.len() - 8..].try_into().expect("8 bytes");
        let pinned = PINNED_CHECKSUMS
            .iter()
            .find(|(name, _)| *name == bench.name())
            .map(|&(_, sum)| sum);
        assert_eq!(
            Some(u64::from_le_bytes(trailer)),
            pinned,
            "{bench}: the file's checksum is the pinned one"
        );
        let decoded = trace_bin::read_trace_file(&path).expect("decodes");
        assert_eq!(
            decoded,
            TraceGenerator::new(bench, seed).trace(cycles),
            "{bench}: the recorded trace is the generator's stream"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retired_sample_and_missing_dir_exit_2() {
    let dir = test_dir("usage");
    let dir = dir.to_str().unwrap();
    for args in [
        vec!["sample", "--dir", dir],
        vec!["record", "--cycles", "100"],
    ] {
        let out = ntc_workload()
            .args(&args)
            .output()
            .expect("spawn ntc-workload");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
    assert!(
        !std::path::Path::new(dir).exists(),
        "usage errors write nothing"
    );
}
