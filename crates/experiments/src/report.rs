//! Structured run telemetry for the reproduction harness.
//!
//! Every `repro` invocation records, per experiment, a [`RunRecord`] —
//! what ran, at which scale and thread count, how long the sweeps were
//! busy, how effective the delay-oracle caches were, how many table rows
//! came out, where the CSV landed, and whether anything failed — and
//! folds the records into a [`Manifest`] written as `manifest.json` next
//! to the CSVs. A "green" run is thereby auditable after the fact: the
//! manifest either accounts for every requested experiment with
//! `"status": "pass"`, or it names the failure (experiment panic, caught
//! per-index sweep panic, CSV write error) that made the exit code
//! nonzero.
//!
//! The JSON encoder **and** the matching validator/parser are hand-rolled
//! here: the build stays offline and dependency-free, and the harness can
//! re-read its own manifest (`tests/figure_shapes.rs` golden-shape check,
//! `ci.sh` smoke step) without trusting external tooling to be present.

use crate::cache::CacheStats;
use crate::runner::{IndexFailure, SweepStats};
use crate::table::ResultTable;
use ntc_core::tag_delay::OracleStats;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Manifest format identifier; bump on breaking shape changes.
/// (`/2` added the per-record `cache` counters and `resumed` marker;
/// `/3` added the oracle screen counters; `/4` the incremental-STA
/// counters `sta_full` / `sta_incremental` / `incr_gates_touched`;
/// `/5` the per-operating-point `voltages` cell counters; `/6` the
/// requested voltage roster, the workload trace `source`, and the
/// `workload` record/replay counters; `/7` dropped the screen and
/// incremental-STA counters, leaving the oracle object `gate_sims` /
/// `local_hits` / `shared_hits` / `sta_full`; `/8` dropped the phase
/// counters, leaving the workload object `traces_recorded` /
/// `trace_replays` / `replayed_instructions`.)
pub const MANIFEST_SCHEMA: &str = "ntc-repro-manifest/8";

/// Telemetry of one experiment run inside a `repro` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Experiment id, e.g. `"fig3.4"`.
    pub id: String,
    /// Table title, empty when the experiment died before producing one.
    pub title: String,
    /// Scale label (`"fast"` / `"full"`).
    pub scale: String,
    /// Worker threads the sweep engine was configured with.
    pub jobs: usize,
    /// End-to-end wall time of this experiment, seconds.
    pub wall_s: f64,
    /// Sweep-engine busy/wall counters of this experiment.
    pub sweep: SweepStats,
    /// Delay-oracle cache counters of this experiment.
    pub oracle: OracleStats,
    /// Grid disk-cache counters of this experiment.
    pub cache: CacheStats,
    /// Grid cells *computed* per operating point during this experiment
    /// (`(point name, count)`, roster order, zero counts omitted) —
    /// memo and disk hits do not count, mirroring the oracle/cache
    /// counter semantics. Empty for non-grid experiments.
    pub voltages: Vec<(String, u64)>,
    /// Operating-point names the run was *asked* to sweep, roster
    /// order. Unlike [`RunRecord::voltages`] this is the request, not
    /// the computed counts — `--resume` compares it against the current
    /// roster and recomputes on mismatch rather than carrying forward
    /// results for the wrong voltage set.
    pub requested_vdd: Vec<String>,
    /// Workload trace source the run used (`"generator"`,
    /// `"record:<dir>"` or `"replay:<dir>"`) — `--resume` recomputes
    /// when it differs, same as the voltage roster.
    pub source: String,
    /// Trace record/replay counters of this experiment.
    pub workload: ntc_workload::WorkloadStats,
    /// Per-index panics caught by `runner::sweep_catching` during this
    /// experiment (empty for strict sweeps, which fail the whole record).
    pub sweep_failures: Vec<IndexFailure>,
    /// Rows in the produced table (0 when the run failed).
    pub rows: usize,
    /// Where the CSV landed, when it was written.
    pub csv: Option<PathBuf>,
    /// Whether `--resume` carried this record forward from a previous
    /// suite's manifest instead of re-running the experiment.
    pub resumed: bool,
    /// Fatal error: experiment panic or CSV write failure.
    pub error: Option<String>,
}

impl RunRecord {
    /// A record passes iff nothing failed: no fatal error and no caught
    /// per-index sweep failures.
    pub fn passed(&self) -> bool {
        self.error.is_none() && self.sweep_failures.is_empty()
    }

    /// Encode this record as one JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push('{');
        push_key_str(&mut s, "id", &self.id);
        s.push(',');
        push_key_str(&mut s, "title", &self.title);
        s.push(',');
        push_key_str(&mut s, "scale", &self.scale);
        s.push(',');
        let _ = write!(s, "\"jobs\":{}", self.jobs);
        s.push(',');
        let _ = write!(s, "\"wall_s\":{}", json_f64(self.wall_s));
        s.push(',');
        let _ = write!(s, "\"sweep_busy_ns\":{}", self.sweep.busy.as_nanos());
        s.push(',');
        let _ = write!(s, "\"sweep_wall_ns\":{}", self.sweep.wall.as_nanos());
        s.push(',');
        s.push_str("\"oracle\":{");
        for (i, (name, value)) in self.oracle.fields().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{name}\":{value}");
        }
        s.push('}');
        s.push(',');
        s.push_str("\"cache\":{");
        for (i, (name, value)) in self.cache.fields().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{name}\":{value}");
        }
        s.push('}');
        s.push(',');
        s.push_str("\"voltages\":{");
        for (i, (name, count)) in self.voltages.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{name}\":{count}");
        }
        s.push('}');
        s.push(',');
        s.push_str("\"requested_vdd\":[");
        for (i, name) in self.requested_vdd.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_json_str(&mut s, name);
        }
        s.push(']');
        s.push(',');
        push_key_str(&mut s, "source", &self.source);
        s.push(',');
        s.push_str("\"workload\":{");
        for (i, (name, value)) in self.workload.fields().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{name}\":{value}");
        }
        s.push('}');
        s.push(',');
        s.push_str("\"sweep_failures\":[");
        for (i, f) in self.sweep_failures.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"index\":{},", f.index);
            push_key_str(&mut s, "message", &f.message);
            s.push('}');
        }
        s.push(']');
        s.push(',');
        let _ = write!(s, "\"rows\":{}", self.rows);
        s.push(',');
        match &self.csv {
            Some(p) => push_key_str(&mut s, "csv", &p.display().to_string()),
            None => s.push_str("\"csv\":null"),
        }
        s.push(',');
        push_key_str(
            &mut s,
            "status",
            if self.passed() { "pass" } else { "fail" },
        );
        s.push(',');
        let _ = write!(s, "\"resumed\":{}", self.resumed);
        s.push(',');
        match &self.error {
            Some(e) => push_key_str(&mut s, "error", e),
            None => s.push_str("\"error\":null"),
        }
        s.push('}');
        s
    }

    /// Decode a record from a parsed manifest object — the read half of
    /// [`RunRecord::to_json`], used by `repro --resume` to carry passing
    /// records of a previous run forward.
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped member, and rejects a record
    /// whose stored `status` contradicts its own failure fields (a
    /// tampered or hand-edited manifest must not resume as a pass).
    pub fn from_json(v: &Json) -> Result<RunRecord, String> {
        fn str_of(v: &Json, key: &str) -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("record member {key:?} missing or not a string"))
        }
        fn u64_of(v: &Json, key: &str) -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("record member {key:?} missing or not an exact integer"))
        }
        let oracle_obj = v
            .get("oracle")
            .ok_or_else(|| "record member \"oracle\" missing".to_owned())?;
        let oracle = OracleStats {
            gate_sims: u64_of(oracle_obj, "gate_sims")?,
            local_hits: u64_of(oracle_obj, "local_hits")?,
            shared_hits: u64_of(oracle_obj, "shared_hits")?,
            sta_full: u64_of(oracle_obj, "sta_full")?,
        };
        let cache_obj = v
            .get("cache")
            .ok_or_else(|| "record member \"cache\" missing".to_owned())?;
        let cache = CacheStats {
            disk_hits: u64_of(cache_obj, "disk_hits")?,
            disk_misses: u64_of(cache_obj, "disk_misses")?,
            corrupt_evictions: u64_of(cache_obj, "corrupt_evictions")?,
            bytes_written: u64_of(cache_obj, "bytes_written")?,
        };
        let voltages = match v.get("voltages") {
            Some(obj @ Json::Obj(members)) => members
                .iter()
                .map(|(name, _)| {
                    Ok::<(String, u64), String>((name.clone(), u64_of(obj, name)?))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("record member \"voltages\" missing or not an object".to_owned()),
        };
        let requested_vdd = v
            .get("requested_vdd")
            .and_then(Json::as_arr)
            .ok_or_else(|| "record member \"requested_vdd\" missing or not an array".to_owned())?
            .iter()
            .map(|name| {
                name.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| "requested_vdd entry not a string".to_owned())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let workload_obj = v
            .get("workload")
            .ok_or_else(|| "record member \"workload\" missing".to_owned())?;
        let workload = ntc_workload::WorkloadStats {
            traces_recorded: u64_of(workload_obj, "traces_recorded")?,
            trace_replays: u64_of(workload_obj, "trace_replays")?,
            replayed_instructions: u64_of(workload_obj, "replayed_instructions")?,
        };
        let mut sweep_failures = Vec::new();
        for f in v
            .get("sweep_failures")
            .and_then(Json::as_arr)
            .ok_or_else(|| "record member \"sweep_failures\" missing or not an array".to_owned())?
        {
            sweep_failures.push(IndexFailure {
                index: usize::try_from(u64_of(f, "index")?)
                    .map_err(|_| "sweep-failure index out of range".to_owned())?,
                message: str_of(f, "message")?,
            });
        }
        let csv = match v.get("csv") {
            Some(Json::Null) => None,
            Some(Json::Str(p)) => Some(PathBuf::from(p)),
            _ => return Err("record member \"csv\" missing or not a string/null".to_owned()),
        };
        let error = match v.get("error") {
            Some(Json::Null) => None,
            Some(Json::Str(e)) => Some(e.clone()),
            _ => return Err("record member \"error\" missing or not a string/null".to_owned()),
        };
        let resumed = match v.get("resumed") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("record member \"resumed\" missing or not a bool".to_owned()),
        };
        let record = RunRecord {
            id: str_of(v, "id")?,
            title: str_of(v, "title")?,
            scale: str_of(v, "scale")?,
            jobs: usize::try_from(u64_of(v, "jobs")?)
                .map_err(|_| "record member \"jobs\" out of range".to_owned())?,
            wall_s: v
                .get("wall_s")
                .and_then(Json::as_f64)
                .ok_or_else(|| "record member \"wall_s\" missing or not a number".to_owned())?,
            sweep: SweepStats {
                busy: Duration::from_nanos(u64_of(v, "sweep_busy_ns")?),
                wall: Duration::from_nanos(u64_of(v, "sweep_wall_ns")?),
            },
            oracle,
            cache,
            voltages,
            requested_vdd,
            source: str_of(v, "source")?,
            workload,
            sweep_failures,
            rows: usize::try_from(u64_of(v, "rows")?)
                .map_err(|_| "record member \"rows\" out of range".to_owned())?,
            csv,
            resumed,
            error,
        };
        let status = str_of(v, "status")?;
        let expected = if record.passed() { "pass" } else { "fail" };
        if status != expected {
            return Err(format!(
                "record {:?} says status {status:?} but its failure fields imply {expected:?}",
                record.id
            ));
        }
        Ok(record)
    }
}

/// The whole-suite run summary `repro` writes as `manifest.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Scale label the suite ran at.
    pub scale: String,
    /// Worker-thread count the suite ran with.
    pub jobs: usize,
    /// One record per executed experiment, in execution order.
    pub records: Vec<RunRecord>,
}

impl Manifest {
    /// Assemble a manifest from per-experiment records.
    pub fn new(scale: impl Into<String>, jobs: usize, records: Vec<RunRecord>) -> Self {
        Manifest {
            scale: scale.into(),
            jobs,
            records,
        }
    }

    /// Number of passing records.
    pub fn passed(&self) -> usize {
        self.records.iter().filter(|r| r.passed()).count()
    }

    /// Number of failing records.
    pub fn failed(&self) -> usize {
        self.records.len() - self.passed()
    }

    /// Total wall time over all records, seconds.
    pub fn wall_s(&self) -> f64 {
        self.records.iter().map(|r| r.wall_s).sum()
    }

    /// The one-line suite summary `repro` prints last — same numbers the
    /// manifest carries, so stdout and `manifest.json` can be checked
    /// against each other.
    pub fn summary_line(&self) -> String {
        format!(
            "# suite: {} passed, {} failed of {} experiment(s) in {:.1}s ({} scale, {} job(s))",
            self.passed(),
            self.failed(),
            self.records.len(),
            self.wall_s(),
            self.scale,
            self.jobs
        )
    }

    /// Encode the manifest as a pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  ");
        push_key_str(&mut s, "schema", MANIFEST_SCHEMA);
        s.push_str(",\n  ");
        push_key_str(&mut s, "scale", &self.scale);
        s.push_str(",\n  ");
        let _ = write!(s, "\"jobs\":{}", self.jobs);
        s.push_str(",\n  ");
        let _ = write!(s, "\"passed\":{}", self.passed());
        s.push_str(",\n  ");
        let _ = write!(s, "\"failed\":{}", self.failed());
        s.push_str(",\n  ");
        let _ = write!(s, "\"wall_s\":{}", json_f64(self.wall_s()));
        s.push_str(",\n  \"records\":[");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    ");
            s.push_str(&r.to_json());
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Write the manifest as `<dir>/manifest.json`, validating that the
    /// emitted bytes parse back before they are persisted — the file that
    /// certifies a run must never itself be malformed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; an encoder bug surfaces as
    /// [`io::ErrorKind::InvalidData`].
    pub fn save(&self, dir: &Path) -> io::Result<PathBuf> {
        let json = self.to_json();
        parse_json(&json).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("manifest encoder produced invalid JSON: {e}"),
            )
        })?;
        std::fs::create_dir_all(dir)?;
        let path = dir.join("manifest.json");
        std::fs::write(&path, json)?;
        Ok(path)
    }

    /// Parse a manifest document back into a [`Manifest`] — the read half
    /// of [`Manifest::to_json`], used by `repro --resume`.
    ///
    /// # Errors
    ///
    /// Rejects documents with the wrong `schema` tag (older manifests
    /// must not silently resume under new semantics) and any record
    /// [`RunRecord::from_json`] rejects.
    pub fn from_json_str(src: &str) -> Result<Manifest, String> {
        let doc = parse_json(src)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| "manifest member \"schema\" missing or not a string".to_owned())?;
        if schema != MANIFEST_SCHEMA {
            return Err(format!(
                "manifest schema {schema:?} is not the supported {MANIFEST_SCHEMA:?}"
            ));
        }
        let scale = doc
            .get("scale")
            .and_then(Json::as_str)
            .ok_or_else(|| "manifest member \"scale\" missing or not a string".to_owned())?
            .to_owned();
        let jobs = doc
            .get("jobs")
            .and_then(Json::as_u64)
            .and_then(|j| usize::try_from(j).ok())
            .ok_or_else(|| "manifest member \"jobs\" missing or not an exact integer".to_owned())?;
        let records = doc
            .get("records")
            .and_then(Json::as_arr)
            .ok_or_else(|| "manifest member \"records\" missing or not an array".to_owned())?
            .iter()
            .map(RunRecord::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Manifest {
            scale,
            jobs,
            records,
        })
    }
}

/// Encode a [`ResultTable`] as one JSON object (`--format json` output):
/// id, title, column names, and rows as `{"label", "values"}` pairs with
/// non-finite cells as `null`.
pub fn table_to_json(t: &ResultTable) -> String {
    let mut s = String::new();
    s.push('{');
    push_key_str(&mut s, "id", &t.id);
    s.push(',');
    push_key_str(&mut s, "title", &t.title);
    s.push(',');
    s.push_str("\"columns\":[");
    for (i, c) in t.columns.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_json_str(&mut s, c);
    }
    s.push_str("],\"rows\":[");
    for (i, (label, values)) in t.rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('{');
        push_key_str(&mut s, "label", label);
        s.push_str(",\"values\":[");
        for (j, v) in values.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push_str(&json_f64(*v));
        }
        s.push_str("]}");
    }
    s.push_str("]}");
    s
}

/// Render an `f64` as a JSON number (`null` for NaN/±∞, which JSON cannot
/// represent). Rust's `Display` for finite `f64` is shortest-round-trip
/// decimal without exponents — always a valid JSON number.
///
/// Public: the serve protocol emits its receipts with the same encoder
/// the manifests use, so the two stay byte-compatible.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Append `"key":"escaped value"`.
pub fn push_key_str(out: &mut String, key: &str, value: &str) {
    push_json_str(out, key);
    out.push(':');
    push_json_str(out, value);
}

/// Append a JSON string literal with RFC 8259 escaping.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parsed JSON value — the minimal document model the harness needs to
/// validate and inspect its own manifests.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer number literal (no fraction or exponent), kept exact.
    /// The manifest's u64 counters — sweep nanoseconds, oracle hit
    /// counts, rows — round-trip through this variant losslessly even
    /// above 2^53, where an `f64` would silently drop low bits.
    Int(i128),
    /// Any other JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order (duplicate keys kept as written).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one. Lossy above 2^53 for integer
    /// literals — counters that must stay exact go through [`Json::as_u64`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer: only integer literals that
    /// fit in a `u64` qualify — a fractional or out-of-range number is
    /// `None`, never a rounded result.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object keys in source order, if the value is an object.
    pub fn keys(&self) -> Option<Vec<&str>> {
        match self {
            Json::Obj(members) => Some(members.iter().map(|(k, _)| k.as_str()).collect()),
            _ => None,
        }
    }
}

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// Returns a byte offset + message for the first syntax error.
pub fn parse_json(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(value)
}

/// Recursive-descent JSON reader over raw bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            ))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!(
                "unexpected {:?} at byte {}",
                c as char, self.pos
            )),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E') | Some(b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        // Integer literals parse exactly: u64 counters above 2^53 must
        // not be rounded through an f64. Anything with a fraction or
        // exponent — or an integer too wide even for i128 — stays f64.
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(v) = text.parse::<i128>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    /// Read the four hex digits of a `\u` escape body at `pos`, advancing
    /// past them.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        let code = u32::from_str_radix(hex, 16).expect("4 hex digits");
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let escape_at = self.pos - 1;
                            self.pos += 1;
                            let code = self.hex4()?;
                            match code {
                                // High surrogate: RFC 8259 §7 requires a
                                // paired `\uDC00`–`\uDFFF` escape next;
                                // the two combine into one supplementary
                                // scalar (how 😀 is escaped).
                                0xD800..=0xDBFF => {
                                    if !(self.peek() == Some(b'\\')
                                        && self.bytes.get(self.pos + 1) == Some(&b'u'))
                                    {
                                        return Err(format!(
                                            "lone high surrogate \\u{code:04x} at byte {escape_at}"
                                        ));
                                    }
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return Err(format!(
                                            "high surrogate \\u{code:04x} at byte {escape_at} \
                                             followed by \\u{low:04x}, not a low surrogate"
                                        ));
                                    }
                                    let scalar =
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    out.push(
                                        char::from_u32(scalar).expect("paired surrogates decode"),
                                    );
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(format!(
                                        "lone low surrogate \\u{code:04x} at byte {escape_at}"
                                    ));
                                }
                                _ => out.push(char::from_u32(code).expect("BMP non-surrogate")),
                            }
                            // hex4 leaves pos just past the last digit;
                            // step back one so the shared advance below
                            // (which assumes a one-byte escape body) lands
                            // exactly there.
                            self.pos -= 1;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the source is a &str, so
                    // char boundaries are sound).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8".to_owned())?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: &str, error: Option<&str>) -> RunRecord {
        RunRecord {
            id: id.to_owned(),
            title: format!("Title of {id}"),
            scale: "fast".to_owned(),
            jobs: 2,
            wall_s: 1.25,
            sweep: SweepStats {
                busy: Duration::from_nanos(300),
                wall: Duration::from_nanos(200),
            },
            oracle: OracleStats {
                gate_sims: 7,
                local_hits: 40,
                shared_hits: 3,
                sta_full: 3,
            },
            cache: CacheStats {
                disk_hits: 1,
                disk_misses: 2,
                corrupt_evictions: 0,
                bytes_written: 4096,
            },
            voltages: vec![("v0.45".to_owned(), 30), ("v0.60".to_owned(), 30)],
            requested_vdd: vec!["v0.45".to_owned(), "v0.60".to_owned()],
            source: "generator".to_owned(),
            workload: ntc_workload::WorkloadStats {
                traces_recorded: 2,
                trace_replays: 4,
                replayed_instructions: 120_000,
            },
            sweep_failures: Vec::new(),
            rows: 6,
            csv: Some(PathBuf::from("target/repro/x.csv")),
            resumed: false,
            error: error.map(str::to_owned),
        }
    }

    #[test]
    fn record_json_roundtrips_through_own_parser() {
        let r = record("fig3.4", None);
        let parsed = parse_json(&r.to_json()).expect("valid JSON");
        assert_eq!(parsed.get("id").unwrap().as_str(), Some("fig3.4"));
        assert_eq!(parsed.get("status").unwrap().as_str(), Some("pass"));
        assert_eq!(parsed.get("rows").unwrap().as_f64(), Some(6.0));
        assert_eq!(parsed.get("sweep_busy_ns").unwrap().as_f64(), Some(300.0));
        assert_eq!(
            parsed.get("oracle").unwrap().get("local_hits").unwrap().as_f64(),
            Some(40.0)
        );
        let volts = parsed.get("voltages").unwrap();
        assert_eq!(volts.keys(), Some(vec!["v0.45", "v0.60"]));
        assert_eq!(volts.get("v0.60").unwrap().as_u64(), Some(30));
        let roster = parsed.get("requested_vdd").unwrap().as_arr().unwrap();
        assert_eq!(roster[0].as_str(), Some("v0.45"));
        assert_eq!(roster[1].as_str(), Some("v0.60"));
        assert_eq!(parsed.get("source").unwrap().as_str(), Some("generator"));
        let wl = parsed.get("workload").unwrap();
        assert_eq!(wl.get("trace_replays").unwrap().as_u64(), Some(4));
        assert_eq!(
            wl.get("replayed_instructions").unwrap().as_u64(),
            Some(120_000)
        );
        assert_eq!(parsed.get("error"), Some(&Json::Null));
    }

    #[test]
    fn failures_flip_status_and_counts() {
        let mut fail = record("fig4.2", Some("disk full"));
        fail.csv = None;
        let mut isolated = record("fig3.9", None);
        isolated.sweep_failures.push(IndexFailure {
            index: 3,
            message: "chip 3 exploded".to_owned(),
        });
        let m = Manifest::new("fast", 2, vec![record("fig3.4", None), fail, isolated]);
        assert_eq!(m.passed(), 1);
        assert_eq!(m.failed(), 2);
        let parsed = parse_json(&m.to_json()).expect("valid JSON");
        assert_eq!(parsed.get("failed").unwrap().as_f64(), Some(2.0));
        let records = parsed.get("records").unwrap().as_arr().unwrap();
        assert_eq!(records[1].get("status").unwrap().as_str(), Some("fail"));
        assert_eq!(records[1].get("error").unwrap().as_str(), Some("disk full"));
        assert_eq!(records[2].get("status").unwrap().as_str(), Some("fail"));
        let sf = records[2].get("sweep_failures").unwrap().as_arr().unwrap();
        assert_eq!(sf[0].get("index").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn summary_line_matches_manifest_numbers() {
        let m = Manifest::new("fast", 4, vec![record("a", None), record("b", Some("x"))]);
        let line = m.summary_line();
        assert!(line.contains("1 passed"), "{line}");
        assert!(line.contains("1 failed"), "{line}");
        assert!(line.contains("2 experiment(s)"), "{line}");
        assert!(line.contains("4 job(s)"), "{line}");
    }

    #[test]
    fn string_escaping_roundtrips() {
        let nasty = "he said \"hi\",\n\tback\\slash \u{1} é";
        let mut s = String::new();
        push_json_str(&mut s, nasty);
        let parsed = parse_json(&s).expect("valid JSON string literal");
        assert_eq!(parsed.as_str(), Some(nasty));
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        // 😀 is U+1F600, escaped as the pair 😀. The old parser
        // collapsed each half to U+FFFD; a non-BMP label must round-trip.
        let parsed = parse_json(r#""😀""#).expect("paired surrogates are valid");
        assert_eq!(parsed.as_str(), Some("😀"));
        // Mixed-case hex and surrounding text survive too.
        let parsed = parse_json(r#""a😀bé""#).expect("valid");
        assert_eq!(parsed.as_str(), Some("a😀bé"));
    }

    #[test]
    fn lone_surrogates_are_rejected_with_a_byte_offset() {
        // Byte 1 is where each string's first escape starts.
        for doc in [
            r#""\ud83d""#,       // lone high at end of string
            r#""\ud83dx""#,      // lone high before a plain char
            r#""\ud83d\n""#,     // lone high before a non-\u escape
            r#""\ude00""#,       // lone low
            r#""\ud83d\ud83d""#, // high followed by another high
        ] {
            let err = parse_json(doc).expect_err(doc);
            assert!(err.contains("surrogate"), "{doc}: {err}");
            assert!(err.contains("byte 1"), "{doc} must name the offset: {err}");
        }
    }

    #[test]
    fn integer_literals_parse_exactly_above_2_pow_53() {
        // 2^53 + 1 is the first u64 an f64 cannot represent.
        let big = (1u64 << 53) + 1;
        let parsed = parse_json(&big.to_string()).expect("valid integer");
        assert_eq!(parsed.as_u64(), Some(big), "no f64 rounding");
        assert_eq!(parsed, Json::Int(big as i128));
        assert_eq!(parse_json("18446744073709551615").unwrap().as_u64(), Some(u64::MAX));
        // as_u64 is exact-or-nothing: fractions and negatives don't coerce.
        assert_eq!(parse_json("1.5").unwrap().as_u64(), None);
        assert_eq!(parse_json("-3").unwrap().as_u64(), None);
        assert_eq!(parse_json("1e3").unwrap().as_u64(), None);
        // as_f64 still works on integer literals for chart-value readers.
        assert_eq!(parse_json("42").unwrap().as_f64(), Some(42.0));
    }

    #[test]
    fn huge_counters_round_trip_through_the_manifest() {
        let mut r = record("fig3.4", None);
        r.oracle.local_hits = (1u64 << 53) + 1;
        r.sweep.busy = Duration::from_nanos(u64::MAX);
        let m = Manifest::new("fast", 2, vec![r.clone()]);
        let back = Manifest::from_json_str(&m.to_json()).expect("manifest re-reads");
        assert_eq!(back.records[0], r, "exact counters, no f64 laundering");
        assert_eq!(back, m);
    }

    #[test]
    fn from_json_rejects_status_contradicting_failure_fields() {
        let r = record("fig3.4", None);
        let doctored = r.to_json().replace("\"status\":\"pass\"", "\"status\":\"fail\"");
        let parsed = parse_json(&doctored).expect("still valid JSON");
        let err = RunRecord::from_json(&parsed).expect_err("contradiction must be rejected");
        assert!(err.contains("status"), "{err}");
    }

    #[test]
    fn from_json_str_rejects_foreign_schemas() {
        let m = Manifest::new("fast", 1, vec![record("fig3.4", None)]);
        let old = m.to_json().replace(MANIFEST_SCHEMA, "ntc-repro-manifest/1");
        let err = Manifest::from_json_str(&old).expect_err("old schema must not resume");
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn table_json_maps_nan_to_null() {
        let mut t = ResultTable::new("fig0.0", "Json", ["a,b", "c"]);
        t.push_row("row \"1\"", vec![1.5, f64::NAN]);
        let parsed = parse_json(&table_to_json(&t)).expect("valid JSON");
        let rows = parsed.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows[0].get("label").unwrap().as_str(), Some("row \"1\""));
        let values = rows[0].get("values").unwrap().as_arr().unwrap();
        assert_eq!(values[0].as_f64(), Some(1.5));
        assert_eq!(values[1], Json::Null);
        let cols = parsed.get("columns").unwrap().as_arr().unwrap();
        assert_eq!(cols[0].as_str(), Some("a,b"));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,2",
            "\"unterminated",
            "{\"a\":1} trailing",
            "nul",
            "1.2.3",
        ] {
            assert!(parse_json(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn save_writes_a_parseable_manifest_file() {
        let dir = std::env::temp_dir().join(format!("ntc-report-test-{}", std::process::id()));
        let m = Manifest::new("fast", 1, vec![record("fig3.4", None)]);
        let path = m.save(&dir).expect("manifest written");
        assert_eq!(path.file_name().unwrap(), "manifest.json");
        let body = std::fs::read_to_string(&path).expect("readable");
        let parsed = parse_json(&body).expect("valid JSON on disk");
        assert_eq!(
            parsed.get("schema").unwrap().as_str(),
            Some(MANIFEST_SCHEMA)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
