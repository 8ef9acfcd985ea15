//! Persistent, content-addressed on-disk cache for [`GridResult`]s.
//!
//! The scenario engine memoizes grids in-process (see
//! [`crate::scenario::run_grid`]), but every `repro` invocation used to
//! re-pay the full sweep cost from scratch. This module makes the
//! expensive part — the folded accumulators of a (benchmarks × chips ×
//! schemes × voltages) grid — survive the process:
//!
//! * **Content-addressed keys.** [`cache_key`] hashes a *canonical byte
//!   encoding* of the [`GridSpec`] (not Rust's `Hash`, whose output is
//!   explicitly unstable across compiler versions) together with the
//!   cache schema tag ([`GRID_CACHE_SCHEMA`]) and the crate version.
//!   Either bump changes every key, so stale artifacts self-invalidate by
//!   simply never being addressed again. Two independent FNV-1a lanes,
//!   each finished with the SplitMix64 avalanche, yield a 128-bit key.
//! * **Atomic, checksummed artifacts.** [`store`] writes to a
//!   process-unique temp file and `rename`s it into place, so a crashed
//!   or concurrent writer can never leave a half-written artifact under
//!   the final name. Every artifact carries its full key preimage (hash
//!   collisions load as misses, not as wrong data) and a trailing FNV-1a
//!   checksum over the body.
//! * **Corruption is a miss, never a panic.** [`load`] verifies the
//!   checksum and every structural invariant; anything that fails is
//!   quarantined (renamed to `<artifact>.corrupt`) and reported as a miss
//!   so the grid is recomputed and rewritten. A flipped byte or truncated
//!   file costs one recompute, not the run.
//! * **Telemetry.** Disk hits/misses, corrupt evictions, and bytes
//!   written are [`telemetry`] metrics: `repro` reads them per
//!   experiment from its run's scope into `manifest.json`, and
//!   [`take_stats`] drains the process totals.
//!
//! The bit-identity contract of the scenario engine extends through the
//! cache: an artifact stores the exact bit patterns of every counter and
//! float sum, so a disk hit produces byte-identical CSVs to a cold run at
//! any `--jobs` count (pinned by `tests/grid_cache.rs`).

use crate::scenario::{GridResult, GridSpec};
use ntc_core::scenario::{SchemeSpec, SimAccumulator};
use ntc_pipeline::RunCost;
use ntc_varmodel::rng::SplitMix64;
use ntc_varmodel::telemetry::{self, Counts, Metric};
use ntc_varmodel::OperatingPoint;
use ntc_workload::trace_bin::{fnv1a64, fnv1a64_seeded, FNV_OFFSET};
use ntc_workload::{Benchmark, ALL_BENCHMARKS};
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Cache format identifier, folded into every [`cache_key`]; bump on any
/// breaking change to the artifact encoding or to the meaning of a spec
/// field, and every existing artifact silently stops being addressed —
/// old files are ignored (never touched, never quarantined), because the
/// new schema simply hashes to different artifact names. (`/2` added the
/// operating-point axis: the spec's voltage list and a per-row point
/// name; `/3` added the trace source to the spec's canonical bytes.)
pub const GRID_CACHE_SCHEMA: &str = "ntc-grid-cache/3";

/// Leading magic of every artifact file.
const MAGIC: &[u8; 8] = b"NTCGRID1";

/// The SplitMix64 golden-ratio increment: XORed into the FNV basis, it
/// seeds the second key lane.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

// ---------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------

/// The full key preimage of a spec: schema tag, crate version, then the
/// spec's canonical bytes. This exact byte string is hashed into the
/// artifact file name *and* embedded in the artifact, so a key collision
/// is detected on load instead of returning another spec's grid.
pub fn key_preimage(spec: &GridSpec) -> Vec<u8> {
    let mut out = Vec::new();
    push_str(&mut out, GRID_CACHE_SCHEMA);
    push_str(&mut out, env!("CARGO_PKG_VERSION"));
    out.extend_from_slice(&spec.canonical_bytes());
    out
}

/// The content-addressed key of a spec: 32 lowercase hex digits. Each of
/// two FNV-1a lanes (differently seeded, so independent) seeds a
/// SplitMix64 step, whose avalanche spreads nearby specs (the common
/// case — seed bases differing by one) over the key space.
pub fn cache_key(spec: &GridSpec) -> String {
    let pre = key_preimage(spec);
    let [lane1, lane2] = [FNV_OFFSET, FNV_OFFSET ^ GAMMA]
        .map(|seed| SplitMix64::seed_from_u64(fnv1a64_seeded(&pre, seed)).next_u64());
    format!("{lane1:016x}{lane2:016x}")
}

/// Where a spec's artifact lives inside a cache directory.
pub fn artifact_path(dir: &Path, spec: &GridSpec) -> PathBuf {
    dir.join(format!("{}.grid", cache_key(spec)))
}

// ---------------------------------------------------------------------
// Global configuration + telemetry
// ---------------------------------------------------------------------

/// Disk-cache directory; `None` = disk tier off (in-memory memo only).
static DISK_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);
/// `--no-cache`: bypass both cache tiers and always recompute.
static DISABLED: AtomicBool = AtomicBool::new(false);

/// Point the disk tier at `dir` (created lazily on first store), or turn
/// it off with `None`. The `repro` binary wires `--cache-dir` here.
pub fn set_disk_dir(dir: Option<PathBuf>) {
    *DISK_DIR.lock().expect("cache config poisoned") = dir;
}

/// The configured disk-cache directory, if any.
pub fn disk_dir() -> Option<PathBuf> {
    DISK_DIR.lock().expect("cache config poisoned").clone()
}

/// Disable (`true`) or re-enable (`false`) caching entirely — both the
/// in-memory memo and the disk tier. The `repro` binary wires
/// `--no-cache` here; every [`crate::scenario::run_grid`] call then
/// recomputes from scratch.
pub fn set_disabled(v: bool) {
    DISABLED.store(v, Ordering::SeqCst);
}

/// Whether caching is disabled (`--no-cache`).
pub fn disabled() -> bool {
    DISABLED.load(Ordering::SeqCst)
}

/// Disk-cache counters: a typed view of the cache's [`telemetry`]
/// metrics, from a [`take_stats`] drain or a [`telemetry::scoped`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Artifacts loaded and verified from disk.
    pub disk_hits: u64,
    /// Disk lookups that found no (valid) artifact.
    pub disk_misses: u64,
    /// Corrupt/truncated artifacts quarantined (each also counts as one
    /// miss — the grid is recomputed).
    pub corrupt_evictions: u64,
    /// Artifact bytes written to disk.
    pub bytes_written: u64,
}

impl CacheStats {
    /// The counters as stable `(field name, value)` pairs, in declaration
    /// order — the single source of truth for serializers.
    pub fn fields(&self) -> [(&'static str, u64); 4] {
        [
            ("disk_hits", self.disk_hits),
            ("disk_misses", self.disk_misses),
            ("corrupt_evictions", self.corrupt_evictions),
            ("bytes_written", self.bytes_written),
        ]
    }

    /// Total disk-tier lookups (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.disk_hits + self.disk_misses
    }
}

impl From<&Counts> for CacheStats {
    fn from(c: &Counts) -> Self {
        CacheStats {
            disk_hits: c.get(Metric::DiskHits),
            disk_misses: c.get(Metric::DiskMisses),
            corrupt_evictions: c.get(Metric::CorruptEvictions),
            bytes_written: c.get(Metric::BytesWritten),
        }
    }
}

/// Drain and reset the process-wide disk-cache counters.
pub fn take_stats() -> CacheStats {
    CacheStats::from(&telemetry::take(&[
        Metric::DiskHits,
        Metric::DiskMisses,
        Metric::CorruptEvictions,
        Metric::BytesWritten,
    ]))
}

// ---------------------------------------------------------------------
// Artifact encoding
// ---------------------------------------------------------------------

/// Append `v` as eight little-endian bytes.
pub(crate) fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `s` as its byte length ([`push_u64`]) followed by its bytes.
pub(crate) fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Encode a grid result as one self-verifying artifact: magic, key
/// preimage echo, schemes, per-(benchmark, operating point) row
/// accumulators (floats as raw bit patterns), and a trailing FNV-1a
/// checksum over everything before it.
pub fn encode(spec: &GridSpec, result: &GridResult) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    let pre = key_preimage(spec);
    push_u64(&mut out, pre.len() as u64);
    out.extend_from_slice(&pre);
    push_u64(&mut out, result.schemes().len() as u64);
    for s in result.schemes() {
        push_str(&mut out, &s.name());
    }
    push_u64(&mut out, result.rows().len() as u64);
    for (bench, point, accs) in result.rows() {
        push_str(&mut out, bench.name());
        push_str(&mut out, point.name());
        push_u64(&mut out, accs.len() as u64);
        for acc in accs {
            match acc.scheme {
                Some(name) => {
                    out.push(1);
                    push_str(&mut out, name);
                }
                None => out.push(0),
            }
            push_u64(&mut out, acc.runs);
            push_u64(&mut out, acc.cost.instructions);
            push_u64(&mut out, acc.cost.stall_cycles);
            push_u64(&mut out, acc.cost.flush_cycles);
            push_u64(&mut out, acc.cost.flush_events);
            push_u64(&mut out, acc.avoided);
            push_u64(&mut out, acc.false_positives);
            push_u64(&mut out, acc.recovered);
            push_u64(&mut out, acc.corruptions);
            push_u64(&mut out, acc.recovered_by_class.len() as u64);
            for &c in &acc.recovered_by_class {
                push_u64(&mut out, c);
            }
            push_u64(&mut out, acc.stretch_sum.to_bits());
            push_u64(&mut out, acc.accuracy_sum.to_bits());
            push_u64(&mut out, acc.power_overhead.to_bits());
        }
    }
    let sum = fnv1a64(&out);
    push_u64(&mut out, sum);
    out
}

/// What [`decode`] concluded about an artifact's bytes.
#[derive(Debug)]
enum Decoded {
    /// Checksum and structure verified; the spec matches.
    Hit(Box<GridResult>),
    /// A *valid* artifact for a different spec (128-bit key collision):
    /// a miss, not corruption — the file is left alone.
    OtherSpec,
    /// Bad checksum, truncation, or a structural violation.
    Corrupt(&'static str),
}

/// Little-endian reader over an artifact body.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn str(&mut self) -> Option<&'a str> {
        let len = usize::try_from(self.u64()?).ok()?;
        std::str::from_utf8(self.take(len)?).ok()
    }
}

/// Intern a scheme display name: `SimResult::scheme` is `&'static str`,
/// so decoded names are leaked exactly once per distinct string (a
/// handful of short names per process, by construction of the roster).
fn intern(s: &str) -> &'static str {
    static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut set = INTERNED.lock().expect("intern table poisoned");
    if let Some(&hit) = set.get(s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    set.insert(leaked);
    leaked
}

/// Resolve a stored benchmark name against the workload registry.
fn benchmark_by_name(name: &str) -> Option<Benchmark> {
    ALL_BENCHMARKS.into_iter().find(|b| b.name() == name)
}

fn decode(bytes: &[u8], spec: &GridSpec) -> Decoded {
    // Trailer first: everything else is only meaningful under a valid
    // checksum.
    if bytes.len() < MAGIC.len() + 8 {
        return Decoded::Corrupt("short file");
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8 trailer bytes"));
    if fnv1a64(body) != stored {
        return Decoded::Corrupt("checksum mismatch");
    }
    let mut r = Reader {
        bytes: body,
        pos: 0,
    };
    match r.take(MAGIC.len()) {
        Some(m) if m == MAGIC => {}
        _ => return Decoded::Corrupt("bad magic"),
    }
    let pre = match r.u64().and_then(|n| r.take(usize::try_from(n).ok()?)) {
        Some(p) => p,
        None => return Decoded::Corrupt("truncated key preimage"),
    };
    if pre != key_preimage(spec) {
        return Decoded::OtherSpec;
    }
    macro_rules! want {
        ($e:expr, $what:literal) => {
            match $e {
                Some(v) => v,
                None => return Decoded::Corrupt($what),
            }
        };
    }
    let n_schemes = want!(r.u64(), "scheme count");
    let mut schemes = Vec::new();
    for _ in 0..n_schemes {
        let name = want!(r.str(), "scheme name");
        let parsed = want!(SchemeSpec::parse(name).ok(), "unregistered scheme name");
        schemes.push(parsed);
    }
    if schemes != spec.schemes {
        return Decoded::Corrupt("scheme roster does not match the spec");
    }
    let groups = spec.row_groups();
    let n_rows = want!(r.u64(), "row count");
    if n_rows != groups.len() as u64 {
        return Decoded::Corrupt("row count does not match the spec");
    }
    let mut rows = Vec::new();
    for (expected_bench, expected_point) in groups {
        let name = want!(r.str(), "benchmark name");
        let bench = want!(benchmark_by_name(name), "unknown benchmark name");
        if bench != expected_bench {
            return Decoded::Corrupt("row order does not match the spec");
        }
        let point_name = want!(r.str(), "operating-point name");
        let point = want!(
            OperatingPoint::parse(point_name).ok(),
            "unknown operating point"
        );
        if point != expected_point {
            return Decoded::Corrupt("row order does not match the spec");
        }
        let n_accs = want!(r.u64(), "accumulator count");
        if n_accs != schemes.len() as u64 {
            return Decoded::Corrupt("one accumulator per scheme");
        }
        let mut accs = Vec::new();
        for _ in 0..n_accs {
            let scheme = match want!(r.u8(), "scheme-name tag") {
                0 => None,
                1 => Some(intern(want!(r.str(), "scheme display name"))),
                _ => return Decoded::Corrupt("bad scheme-name tag"),
            };
            let runs = want!(r.u64(), "runs");
            let cost = RunCost {
                instructions: want!(r.u64(), "instructions"),
                stall_cycles: want!(r.u64(), "stall_cycles"),
                flush_cycles: want!(r.u64(), "flush_cycles"),
                flush_events: want!(r.u64(), "flush_events"),
            };
            let avoided = want!(r.u64(), "avoided");
            let false_positives = want!(r.u64(), "false_positives");
            let recovered = want!(r.u64(), "recovered");
            let corruptions = want!(r.u64(), "corruptions");
            let mut acc = SimAccumulator {
                scheme,
                runs,
                cost,
                avoided,
                false_positives,
                recovered,
                corruptions,
                recovered_by_class: Default::default(),
                stretch_sum: 0.0,
                accuracy_sum: 0.0,
                power_overhead: 0.0,
            };
            let n_classes = want!(r.u64(), "class count");
            if n_classes != acc.recovered_by_class.len() as u64 {
                return Decoded::Corrupt("error-class count drifted");
            }
            for slot in acc.recovered_by_class.iter_mut() {
                *slot = want!(r.u64(), "class counter");
            }
            acc.stretch_sum = f64::from_bits(want!(r.u64(), "stretch_sum"));
            acc.accuracy_sum = f64::from_bits(want!(r.u64(), "accuracy_sum"));
            acc.power_overhead = f64::from_bits(want!(r.u64(), "power_overhead"));
            accs.push(acc);
        }
        rows.push((bench, point, accs));
    }
    if r.pos != body.len() {
        return Decoded::Corrupt("trailing bytes after the last accumulator");
    }
    Decoded::Hit(Box::new(GridResult::from_parts(schemes, rows)))
}

// ---------------------------------------------------------------------
// Disk tier
// ---------------------------------------------------------------------

/// Move a failed artifact out of the addressable namespace so the next
/// lookup recomputes instead of re-tripping on it. Best-effort: a
/// quarantine failure falls back to deletion, and neither may panic.
fn quarantine(path: &Path) {
    let mut to = path.as_os_str().to_owned();
    to.push(".corrupt");
    if std::fs::rename(path, PathBuf::from(&to)).is_err() {
        std::fs::remove_file(path).ok();
    }
}

/// Look `spec` up in the disk cache at `dir`. Returns the decoded grid on
/// a verified hit; counts a miss (and quarantines the artifact when it
/// was present but corrupt) otherwise. Never panics on file contents.
pub fn load(dir: &Path, spec: &GridSpec) -> Option<GridResult> {
    let path = artifact_path(dir, spec);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(_) => {
            telemetry::add(Metric::DiskMisses, 1);
            return None;
        }
    };
    match decode(&bytes, spec) {
        Decoded::Hit(grid) => {
            telemetry::add(Metric::DiskHits, 1);
            Some(*grid)
        }
        Decoded::OtherSpec => {
            telemetry::add(Metric::DiskMisses, 1);
            None
        }
        Decoded::Corrupt(why) => {
            eprintln!(
                "warning: quarantining corrupt grid-cache artifact {} ({why}); recomputing",
                path.display()
            );
            quarantine(&path);
            telemetry::add(Metric::CorruptEvictions, 1);
            telemetry::add(Metric::DiskMisses, 1);
            None
        }
    }
}

/// Persist `result` for `spec` under `dir`, atomically: the artifact is
/// written to a process-unique temp file and renamed into place, so
/// readers only ever observe complete artifacts.
///
/// # Errors
///
/// Propagates I/O errors (directory creation, write, rename); the temp
/// file is cleaned up on failure.
pub fn store(dir: &Path, spec: &GridSpec, result: &GridResult) -> io::Result<()> {
    let bytes = encode(spec, result);
    ntc_workload::write_atomic(&artifact_path(dir, spec), &bytes)?;
    telemetry::add(Metric::BytesWritten, bytes.len() as u64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Regime;

    fn spec(trace_seed: u64) -> GridSpec {
        GridSpec {
            benchmarks: vec![Benchmark::Gzip, Benchmark::Mcf],
            chips: 2,
            schemes: vec![SchemeSpec::RazorCh3, SchemeSpec::DcsIcslt { entries: 32 }],
            voltages: vec![OperatingPoint::NTC],
            regime: Regime::Ch3,
            chip_seed_base: 220,
            trace_seed,
            cycles: 4_000,
            source: ntc_workload::TraceSource::Generator,
        }
    }

    #[test]
    fn keys_are_stable_and_spec_sensitive() {
        let a = cache_key(&spec(7));
        // Pinned: existing cache directories keep hitting. The preimage
        // embeds the crate version, so a version bump moves this value.
        assert_eq!(a, "9344859dede819036bec8be213576a3f");
        assert_eq!(a, cache_key(&spec(7)), "same spec, same key");
        assert_ne!(a, cache_key(&spec(8)), "any field change moves the key");
        let mut other = spec(7);
        other.chips = 3;
        assert_ne!(a, cache_key(&other));
        // The voltage axis is part of the key too.
        let mut volts = spec(7);
        volts.voltages = vec![OperatingPoint::NTC, OperatingPoint::STC];
        assert_ne!(a, cache_key(&volts));
    }

    #[test]
    fn decode_flags_corruption_without_panicking() {
        // A structurally empty but checksummed artifact body must decode
        // as corrupt (truncated preimage), not panic.
        let mut bytes = MAGIC.to_vec();
        let sum = fnv1a64(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(decode(&bytes, &spec(7)), Decoded::Corrupt(_)));
        // Garbage of every length up to a full header must never panic.
        for len in 0..64 {
            let garbage = vec![0xA5u8; len];
            assert!(!matches!(decode(&garbage, &spec(7)), Decoded::Hit(_)));
        }
    }

    #[test]
    fn interning_returns_one_pointer_per_content() {
        // Two calls with equal content from distinct allocations must
        // yield the same leaked pointer.
        let heap_copy = String::from("DCS-ICSLT (32)");
        let a = intern("DCS-ICSLT (32)");
        let b = intern(heap_copy.as_str());
        assert!(std::ptr::eq(a, b));
        assert_eq!(a, "DCS-ICSLT (32)");
    }
}
