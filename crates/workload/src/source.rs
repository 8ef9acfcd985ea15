//! Where a simulation's instruction stream comes from: the statistical
//! generator or a recorded binary trace.
//!
//! [`TraceSource`] is the abstraction the scenario engine threads
//! through its grids. Every variant resolves a `(benchmark, seed,
//! cycles)` cell to one whole trace ([`TraceSource::trace`]):
//!
//! * [`TraceSource::Generator`] — the statistical generator. The legacy
//!   path; bit-identical to every pre-trace release.
//! * [`TraceSource::Record`] — generate like `Generator` *and* write the
//!   binary trace file into the directory (atomically, if not already
//!   present). Results are identical to `Generator` by construction —
//!   the generated stream itself is simulated — so recording is free to
//!   share cache identity with generator runs.
//! * [`TraceSource::Replay`] — decode the cell's recorded trace file and
//!   simulate it whole. Byte-identical results to the generator when the
//!   file was recorded from the same seed (pinned by
//!   `trace_sampling.rs`).
//!
//! Recorded and replayed traces are memoized process-wide per file (an
//! `Arc` per file, in a bounded [`Memo`]), so a grid's many (chip ×
//! scheme × voltage) cells generate or decode each trace once. Record
//! and replay are counted as [`telemetry`] metrics, which `repro` reads
//! per experiment ([`WorkloadStats`]).

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
    /// Generate *and* record: write each cell's binary trace under the
    /// directory (if absent), then simulate the generated stream.
    Record(PathBuf),
    /// Replay recorded binary traces from the directory, whole.
    Replay(PathBuf),
}

impl TraceSource {
    /// Stable short tag for canonical encodings and display. `Record`
    /// deliberately shares the generator's tag: its results are the
    /// generated stream's, so the two must share cache identity.
    pub fn canon_tag(&self) -> &'static str {
        match self {
            TraceSource::Generator | TraceSource::Record(_) => "generator",
            TraceSource::Replay(_) => "replay",
        }
    }

    /// The trace directory, for the variants that have one.
    pub fn dir(&self) -> Option<&Path> {
        match self {
            TraceSource::Generator => None,
            TraceSource::Record(d) | TraceSource::Replay(d) => Some(d),
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
            TraceSource::Record(dir) => {
                let path = Self::trace_path(dir, bench, seed, cycles);
                TRACES.get_or_try_init(&(path.clone(), false), || {
                    let trace = TraceGenerator::new(bench, seed).trace(cycles);
                    if !path.is_file() {
                        trace_bin::write_trace_file(&path, &trace)
                            .map_err(|e| format!("recording {}: {e}", path.display()))?;
                        telemetry::add(Metric::TracesRecorded, 1);
                    }
                    Ok(Arc::new(trace))
                })
            }
            TraceSource::Replay(dir) => {
                let path = Self::trace_path(dir, bench, seed, cycles);
                let trace = TRACES.get_or_try_init(&(path.clone(), true), || {
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
            TraceSource::Record(d) => write!(f, "record:{}", d.display()),
            TraceSource::Replay(d) => write!(f, "replay:{}", d.display()),
        }
    }
}

/// Recorded and replayed traces by (file, replayed): one entry per file
/// a process records or replays, so a grid's many (chip × scheme ×
/// voltage) cells generate or decode each trace once, and a recording
/// writes each file once. An instruction is 12 bytes, so a trace of N
/// instructions holds 12·N bytes. Measured: a grid reads at most 6 files
/// (one per benchmark); full fig3.10 replays 6 traces of 12 MB, and the
/// fast suite records or replays 18 of 0.72 MB (60,000 instructions, 3
/// trace seeds), each decoded once.
static TRACES: Memo<(PathBuf, bool), Arc<Vec<Instruction>>> = Memo::new(8);

/// Traces the memo holds now, and its cap.
pub fn trace_memo_occupancy() -> (usize, usize) {
    TRACES.occupancy()
}

// ---------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------

/// Record/replay counters: a typed view of the workload's
/// [`telemetry`] metrics, from a [`take_stats`] drain or a
/// [`telemetry::scoped`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkloadStats {
    /// Binary trace files newly written by [`TraceSource::Record`].
    pub traces_recorded: u64,
    /// Cells resolved by whole-trace replay.
    pub trace_replays: u64,
    /// Instructions fed to simulators from whole-trace replays.
    pub replayed_instructions: u64,
}

impl WorkloadStats {
    /// The counters as stable `(field name, value)` pairs, in
    /// declaration order — the single source of truth for serializers.
    pub fn fields(&self) -> [(&'static str, u64); 3] {
        [
            ("traces_recorded", self.traces_recorded),
            ("trace_replays", self.trace_replays),
            ("replayed_instructions", self.replayed_instructions),
        ]
    }

    /// Whether any record/replay activity happened at all (the manifest
    /// summary prints the counters only when it did).
    pub fn any(&self) -> bool {
        *self != WorkloadStats::default()
    }
}

impl From<&Counts> for WorkloadStats {
    fn from(c: &Counts) -> Self {
        WorkloadStats {
            traces_recorded: c.get(Metric::TracesRecorded),
            trace_replays: c.get(Metric::TraceReplays),
            replayed_instructions: c.get(Metric::ReplayedInstructions),
        }
    }
}

/// Drain and reset the process-wide record/replay counters.
pub fn take_stats() -> WorkloadStats {
    WorkloadStats::from(&telemetry::take(&[
        Metric::TracesRecorded,
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

    #[test]
    fn record_then_replay_reproduces_the_generator_stream() {
        let dir = test_dir("roundtrip");
        let source = TraceSource::Record(dir.clone());
        let recorded = source.trace(Benchmark::Mcf, 21, 600).expect("record");
        let generated = TraceGenerator::new(Benchmark::Mcf, 21).trace(600);
        assert_eq!(
            *recorded, generated,
            "record simulates the generated stream"
        );

        let replayed = TraceSource::Replay(dir.clone())
            .trace(Benchmark::Mcf, 21, 600)
            .expect("replay");
        assert_eq!(*replayed, generated, "replay decodes the same stream");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_refuses_missing_and_wrong_length_traces() {
        let dir = test_dir("refuse");
        let missing = TraceSource::Replay(dir.clone()).trace(Benchmark::Gap, 1, 500);
        assert!(missing.is_err(), "missing file is an error");
        // A file whose recorded length disagrees with the cell (here: a
        // 500-instruction trace renamed to the 400-cycle cell's path) is
        // refused, not padded or truncated.
        TraceSource::Record(dir.clone())
            .trace(Benchmark::Gap, 1, 500)
            .expect("record");
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
    fn canon_tags_alias_record_to_generator() {
        let d = PathBuf::from("/tmp/x");
        assert_eq!(TraceSource::Generator.canon_tag(), "generator");
        assert_eq!(TraceSource::Record(d.clone()).canon_tag(), "generator");
        assert_eq!(TraceSource::Replay(d).canon_tag(), "replay");
    }
}
