//! Where a simulation's instruction stream comes from: the statistical
//! generator or a recorded binary trace.
//!
//! [`TraceSource`] is the abstraction the scenario engine threads
//! through its grids. Every variant resolves a `(benchmark, seed,
//! cycles)` cell to one whole trace ([`TraceSource::trace`]):
//!
//! * [`TraceSource::Generator`] — the statistical generator. The legacy
//!   path; bit-identical to every pre-trace release.
//! * [`TraceSource::Replay`] — decode the cell's recorded trace file and
//!   simulate it whole. Byte-identical results to the generator when the
//!   file was recorded from the same seed (pinned by
//!   `trace_sampling.rs`). `ntc-workload record` writes the files.
//!
//! Replayed traces are memoized process-wide per file (an `Arc` per
//! file, in a bounded [`Memo`]), so a grid's many (chip × scheme ×
//! voltage) cells decode each trace once. Replays are counted as
//! [`telemetry`] metrics, which `repro` reads per experiment
//! ([`WorkloadStats`]).

use crate::trace_bin;
use crate::{Benchmark, TraceGenerator};
use ntc_isa::Instruction;
use ntc_varmodel::telemetry::{self, Counts, Metric};
use ntc_varmodel::Memo;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A resolved cell's whole trace with fold weight 1. Kept only because
/// the benchmark's `layer-trace` binary (under `perfbench/`) calls it.
#[derive(Debug, Clone)]
pub struct Segment {
    /// The instructions of this segment.
    pub trace: Arc<Vec<Instruction>>,
    /// Fold weight: always 1.
    pub weight: u64,
}

/// Where the instruction stream of each grid cell comes from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TraceSource {
    /// The statistical generator (the legacy path).
    Generator,
    /// Replay recorded binary traces from the directory, whole.
    Replay(PathBuf),
}

impl TraceSource {
    /// Stable short tag for canonical encodings and display.
    pub fn canon_tag(&self) -> &'static str {
        match self {
            TraceSource::Generator => "generator",
            TraceSource::Replay(_) => "replay",
        }
    }

    /// The canonical trace file of a cell inside a trace directory: one
    /// file per `(benchmark, seed, cycles)`, so every scale and seed
    /// coexists in one directory.
    pub fn trace_path(dir: &Path, bench: Benchmark, seed: u64, cycles: usize) -> PathBuf {
        dir.join(format!("{}-s{seed}-c{cycles}.ntt", bench.name()))
    }

    /// Resolve a cell to its whole trace.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when a trace file is missing,
    /// corrupt, or disagrees with the requested cell length (a recorded
    /// trace of the wrong length must never silently stand in).
    pub fn trace(
        &self,
        bench: Benchmark,
        seed: u64,
        cycles: usize,
    ) -> Result<Arc<Vec<Instruction>>, String> {
        match self {
            TraceSource::Generator => Ok(Arc::new(TraceGenerator::new(bench, seed).trace(cycles))),
            TraceSource::Replay(dir) => {
                let path = Self::trace_path(dir, bench, seed, cycles);
                let trace = TRACES.get_or_try_init(&path, || {
                    trace_bin::read_trace_file(&path)
                        .map(Arc::new)
                        .map_err(|e| format!("{}: {e}", path.display()))
                })?;
                if trace.len() != cycles {
                    return Err(format!(
                        "{}: recorded trace has {} instructions, cell wants {cycles}",
                        path.display(),
                        trace.len()
                    ));
                }
                telemetry::add(Metric::TraceReplays, 1);
                telemetry::add(Metric::ReplayedInstructions, trace.len() as u64);
                Ok(trace)
            }
        }
    }

    /// [`TraceSource::trace`] as one weight-1 [`Segment`]. Kept only
    /// because the benchmark's `layer-trace` binary calls it.
    ///
    /// # Errors
    ///
    /// Every error of [`TraceSource::trace`].
    pub fn segments(
        &self,
        bench: Benchmark,
        seed: u64,
        cycles: usize,
    ) -> Result<Vec<Segment>, String> {
        let trace = self.trace(bench, seed, cycles)?;
        Ok(vec![Segment { trace, weight: 1 }])
    }
}

impl std::fmt::Display for TraceSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceSource::Generator => f.write_str("generator"),
            TraceSource::Replay(d) => write!(f, "replay:{}", d.display()),
        }
    }
}

/// Replayed traces by file: one entry per file a process replays, so a
/// grid's many (chip × scheme × voltage) cells decode each trace once.
/// An instruction is 12 bytes, so a trace of N instructions holds 12·N
/// bytes. Measured: a grid reads at most 6 files (one per benchmark);
/// full fig3.10 replays 6 traces of 12 MB, and the fast suite replays 18
/// of 0.72 MB (60,000 instructions, 3 trace seeds), each decoded once.
static TRACES: Memo<PathBuf, Arc<Vec<Instruction>>> = Memo::new(8);

/// Traces the memo holds now, and its cap.
pub fn trace_memo_occupancy() -> (usize, usize) {
    TRACES.occupancy()
}

// ---------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------

/// Replay counters: a typed view of the workload's [`telemetry`]
/// metrics, from a [`take_stats`] drain or a [`telemetry::scoped`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkloadStats {
    /// Cells resolved by whole-trace replay.
    pub trace_replays: u64,
    /// Instructions fed to simulators from whole-trace replays.
    pub replayed_instructions: u64,
}

impl WorkloadStats {
    /// The counters as stable `(field name, value)` pairs, in
    /// declaration order — the single source of truth for serializers.
    pub fn fields(&self) -> [(&'static str, u64); 2] {
        [
            ("trace_replays", self.trace_replays),
            ("replayed_instructions", self.replayed_instructions),
        ]
    }

    /// Whether any replay happened at all (the status line prints the
    /// counters only when it did).
    pub fn any(&self) -> bool {
        *self != WorkloadStats::default()
    }
}

impl From<&Counts> for WorkloadStats {
    fn from(c: &Counts) -> Self {
        WorkloadStats {
            trace_replays: c.get(Metric::TraceReplays),
            replayed_instructions: c.get(Metric::ReplayedInstructions),
        }
    }
}

/// Drain and reset the process-wide replay counters.
pub fn take_stats() -> WorkloadStats {
    WorkloadStats::from(&telemetry::take(&[
        Metric::TraceReplays,
        Metric::ReplayedInstructions,
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ntc-source-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("test dir");
        dir
    }

    /// Record a generator trace into `dir` the way `ntc-workload record`
    /// does.
    fn record(dir: &Path, bench: Benchmark, seed: u64, cycles: usize) {
        let trace = TraceGenerator::new(bench, seed).trace(cycles);
        trace_bin::write_trace_file(&TraceSource::trace_path(dir, bench, seed, cycles), &trace)
            .expect("record");
    }

    #[test]
    fn replay_reproduces_the_generator_stream() {
        let dir = test_dir("roundtrip");
        record(&dir, Benchmark::Mcf, 21, 600);
        let replayed = TraceSource::Replay(dir.clone())
            .trace(Benchmark::Mcf, 21, 600)
            .expect("replay");
        assert_eq!(
            *replayed,
            TraceGenerator::new(Benchmark::Mcf, 21).trace(600),
            "replay decodes the generated stream"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_refuses_missing_and_wrong_length_traces() {
        let dir = test_dir("refuse");
        let missing = TraceSource::Replay(dir.clone()).trace(Benchmark::Gap, 1, 500);
        let msg = missing.expect_err("missing file is an error");
        assert!(msg.contains("gap-s1-c500.ntt"), "names the file: {msg}");
        // A file whose recorded length disagrees with the cell (here: a
        // 500-instruction trace renamed to the 400-cycle cell's path) is
        // refused, not padded or truncated.
        record(&dir, Benchmark::Gap, 1, 500);
        std::fs::rename(
            TraceSource::trace_path(&dir, Benchmark::Gap, 1, 500),
            TraceSource::trace_path(&dir, Benchmark::Gap, 1, 400),
        )
        .expect("rename to mismatched cell");
        let wrong = TraceSource::Replay(dir.clone()).trace(Benchmark::Gap, 1, 400);
        let msg = wrong.expect_err("length mismatch is an error");
        assert!(msg.contains("500") && msg.contains("400"), "{msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn canon_tags_are_stable() {
        // The tags are part of every grid-cache key: changing one
        // orphans every artifact written under it.
        assert_eq!(TraceSource::Generator.canon_tag(), "generator");
        assert_eq!(
            TraceSource::Replay(PathBuf::from("/tmp/x")).canon_tag(),
            "replay"
        );
    }
}
