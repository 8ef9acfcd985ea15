//! The serve wire protocol: JSON lines (one request object per line in,
//! one response object per line out) plus the schema-versioned receipt
//! every successful response carries.
//!
//! # Framing
//!
//! Newline-delimited JSON in both directions. A request is a single
//! JSON object on one line; the response to it is a single JSON object
//! on one line (string values are RFC 8259-escaped, so embedded CSV
//! newlines never break the framing). A connection may carry any number
//! of request/response pairs sequentially.
//!
//! # Requests
//!
//! ```json
//! {"op":"ping"}
//! {"op":"list"}
//! {"op":"experiment","id":"fig3.8","scale":"fast"}
//! {"op":"grid","spec":{"benchmarks":["mcf"],"chips":1,
//!   "schemes":["razor","dcs-icslt:32"],"regime":"ch3",
//!   "vdd":["ntc","v0.60"],
//!   "chip_seed_base":220,"trace_seed":7,"cycles":2000}}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! A grid spec may also carry `"trace_dir":"<server-local dir>"` to
//! replay recorded binary traces, whole, instead of the statistical
//! generator; absent means the generator. A spec key outside these nine
//! (`benchmarks`, `chips`, `schemes`, `regime`, `vdd`, `chip_seed_base`,
//! `trace_seed`, `cycles`, `trace_dir`) is a `bad-request` that names
//! it, so a misspelled or retired field is never silently ignored. So is
//! a size outside the paper-scale run's: `chips` must be 1 to 24,
//! `cycles` 2 to 1,000,000, and the last chip seed,
//! `chip_seed_base + chips - 1`, must fit a `u64`. `benchmarks`, `vdd`
//! and `schemes` must not repeat an entry (`ntc` and `v0.45` are one
//! point), `schemes` holds at most 16, and a scheme's capacity is 1 to
//! 4,096 (ACSLT: entries × ways).
//!
//! # Responses
//!
//! Success: `{"ok":true,"op":...,...}`; compute responses add `"csv"`
//! (the payload bytes, identical to what batch `repro` writes) and
//! `"receipt"` (see [`Receipt`]). Failure:
//! `{"ok":false,"error":{"code":...,"message":...}}` with one of the
//! [`ErrorCode`]s.

use ntc_core::scenario::SchemeSpec;
use ntc_core::tag_delay::OracleStats;
use ntc_experiments::cache::CacheStats;
use ntc_experiments::report::{parse_json, Json};
use ntc_experiments::runner::SweepStats;
use ntc_experiments::scenario::{row_label, GridResult, GridSpec, Regime};
use ntc_experiments::table::ResultTable;
use ntc_experiments::Scale;
use ntc_varmodel::OperatingPoint;
use ntc_workload::Benchmark;

/// Schema tag of the per-request receipt, bumped on any
/// field/semantics change (mirrors the manifest's
/// `ntc-repro-manifest/N` convention). `/2` dropped the screen and
/// incremental-STA oracle counters. In `/3` a request that waits on
/// another request's build reads tier `memo` with zero counters; `/2`
/// gave it a tier and a joiner count of its own, and the builder's
/// counters.
pub const RECEIPT_SCHEMA: &str = "ntc-serve-receipt/3";

/// Machine-readable failure classes of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Unparseable or malformed request line.
    BadRequest,
    /// `experiment` with an id the suite does not contain.
    UnknownId,
    /// Admission queue full — retry later (the backpressure signal).
    Busy,
    /// The daemon is draining; no new work is accepted.
    ShuttingDown,
    /// The compute failed server-side (a panic was contained).
    Internal,
}

impl ErrorCode {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownId => "unknown-id",
            ErrorCode::Busy => "busy",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Enumerate servable experiment ids, benchmarks, and schemes.
    List,
    /// Run one figure/table of the suite at a scale.
    Experiment {
        /// Experiment id, e.g. `"fig3.8"`.
        id: String,
        /// `fast` or `full`.
        scale: Scale,
    },
    /// Run (or fetch) one comparison grid.
    Grid {
        /// The complete grid description — also the cache key.
        spec: GridSpec,
    },
    /// Server counters since startup.
    Stats,
    /// Drain and exit cleanly.
    Shutdown,
}

/// Parse one request line.
///
/// # Errors
///
/// Returns a human-readable message (the server wraps it in a
/// [`ErrorCode::BadRequest`] response).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = parse_json(line)?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing string field \"op\"")?;
    match op {
        "ping" => Ok(Request::Ping),
        "list" => Ok(Request::List),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "experiment" => {
            let id = v
                .get("id")
                .and_then(Json::as_str)
                .ok_or("experiment: missing string field \"id\"")?
                .to_string();
            let scale = match v.get("scale").and_then(Json::as_str) {
                Some("fast") | None => Scale::Fast,
                Some("full") => Scale::Full,
                Some(other) => return Err(format!("unknown scale {other:?}")),
            };
            Ok(Request::Experiment { id, scale })
        }
        "grid" => {
            let spec = v.get("spec").ok_or("grid: missing object field \"spec\"")?;
            Ok(Request::Grid {
                spec: spec_from_json(spec)?,
            })
        }
        other => Err(format!("unknown op {other:?}")),
    }
}

/// The keys a grid spec object may carry.
const SPEC_KEYS: [&str; 9] = [
    "benchmarks",
    "chips",
    "schemes",
    "regime",
    "vdd",
    "chip_seed_base",
    "trace_seed",
    "cycles",
    "trace_dir",
];

/// The most schemes one grid may compare. Each scheme sizes its tables
/// per cell (a DCS lane's per-tag slot table alone is 31 KB), so one
/// request line must not ask for an unbounded number of them.
const MAX_SCHEMES: usize = 16;

/// Refuse a list that repeats an entry, naming the field and the entry.
/// A repeat would return duplicate rows and write an artifact that fails
/// its own row-count check on its next load.
fn distinct<T: PartialEq>(
    key: &str,
    items: &[T],
    name: impl Fn(&T) -> String,
) -> Result<(), String> {
    match items
        .iter()
        .enumerate()
        .find(|(i, x)| items[..*i].contains(x))
    {
        Some((_, x)) => Err(format!("spec: {key:?} repeats {:?}", name(x))),
        None => Ok(()),
    }
}

/// Decode a [`GridSpec`] from its wire object.
fn spec_from_json(v: &Json) -> Result<GridSpec, String> {
    let keys = v.keys().ok_or("grid: \"spec\" must be an object")?;
    if let Some(unknown) = keys.into_iter().find(|k| !SPEC_KEYS.contains(k)) {
        return Err(format!("spec: unknown field {unknown:?}"));
    }
    fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("spec: missing integer field {key:?}"))
    }
    let benchmarks = v
        .get("benchmarks")
        .and_then(Json::as_arr)
        .ok_or("spec: missing array field \"benchmarks\"")?
        .iter()
        .map(|b| {
            let name = b.as_str().ok_or("spec: benchmark names must be strings")?;
            Benchmark::parse(name).ok_or_else(|| format!("unknown benchmark {name:?}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let schemes = v
        .get("schemes")
        .and_then(Json::as_arr)
        .ok_or("spec: missing array field \"schemes\"")?
        .iter()
        .map(|s| {
            let name = s.as_str().ok_or("spec: scheme names must be strings")?;
            SchemeSpec::parse(name).map_err(|e| format!("bad scheme {name:?}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let regime = v
        .get("regime")
        .and_then(Json::as_str)
        .ok_or("spec: missing string field \"regime\"")?;
    let regime = Regime::parse(regime).ok_or_else(|| format!("unknown regime {regime:?}"))?;
    // The trace source is optional on the wire: an absent "trace_dir"
    // keeps the statistical generator (every pre-trace client is
    // byte-compatible); present, the server replays recorded traces
    // from that server-local directory, whole. Recording is deliberately
    // not servable: clients must not make the daemon write trace files.
    let source = match v.get("trace_dir") {
        None => ntc_workload::TraceSource::Generator,
        Some(Json::Str(dir)) => ntc_workload::TraceSource::Replay(std::path::PathBuf::from(dir)),
        Some(_) => return Err("spec: \"trace_dir\" must be a string".into()),
    };
    // The voltage axis is optional on the wire: an absent "vdd" pins the
    // grid to the single NTC point, which keeps every pre-axis client
    // byte-compatible.
    let voltages = match v.get("vdd") {
        None => vec![OperatingPoint::NTC],
        Some(list) => list
            .as_arr()
            .ok_or("spec: \"vdd\" must be an array of operating-point names")?
            .iter()
            .map(|p| {
                let name = p.as_str().ok_or("spec: operating points must be strings")?;
                OperatingPoint::parse(name).map_err(|e| format!("bad operating point: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    if benchmarks.is_empty() || schemes.is_empty() || voltages.is_empty() {
        return Err("spec: benchmarks, schemes and vdd must be non-empty".into());
    }
    if schemes.len() > MAX_SCHEMES {
        return Err(format!(
            "spec: \"schemes\" lists {} entries, at most {MAX_SCHEMES}",
            schemes.len()
        ));
    }
    distinct("benchmarks", &benchmarks, |b| b.name().to_owned())?;
    distinct("vdd", &voltages, |p| p.name().to_owned())?;
    distinct("schemes", &schemes, SchemeSpec::name)?;
    // Sizes are bounded by the paper-scale run, so one request cannot
    // make the daemon allocate without limit; a trace needs a pair.
    let bounded = |key: &str, lo: u64, hi: usize| match u64_field(v, key)? {
        n if (lo..=hi as u64).contains(&n) => Ok(n),
        n => Err(format!("spec: {key:?} must be {lo} to {hi}, got {n}")),
    };
    let chips = bounded("chips", 1, Scale::Full.circuit_chips())?;
    let cycles = bounded("cycles", 2, Scale::Full.cycles())?;
    let chip_seed_base = u64_field(v, "chip_seed_base")?;
    if chip_seed_base.checked_add(chips - 1).is_none() {
        return Err(format!(
            "spec: \"chip_seed_base\" {chip_seed_base} puts chip seeds past 2^64 - 1"
        ));
    }
    Ok(GridSpec {
        benchmarks,
        chips: chips as usize,
        schemes,
        voltages,
        regime,
        chip_seed_base,
        trace_seed: u64_field(v, "trace_seed")?,
        cycles: cycles as usize,
        source,
    })
}

/// Telemetry of one compute, attributed to the request in its receipt.
/// Exact at any compute budget: the server runs each compute inside its
/// own `ntc_varmodel::telemetry::scoped` call, as `repro` runs each
/// experiment, and the sweep engine hands that scope to its workers, so
/// concurrent computes never bill each other's work.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobCounters {
    /// Sweep busy/wall time of the compute.
    pub sweep: SweepStats,
    /// Delay-oracle counters (gate sims, cache tiers, STA analyses).
    pub oracle: OracleStats,
    /// Disk-cache counters.
    pub cache: CacheStats,
}

/// The per-request receipt: schema-versioned provenance mirroring
/// `RunRecord`'s telemetry, but scoped to one request. The receipts of
/// concurrent requests sum to the work the daemon did: each counts only
/// its own.
#[derive(Debug, Clone)]
pub struct Receipt {
    /// Which tier answered: `memo` (a memo hit, or a wait on another
    /// request's build of the same grid or experiment), `disk` or
    /// `computed`.
    pub tier: String,
    /// Time spent queued behind the admission gate, microseconds.
    pub queue_wait_us: u64,
    /// This request's own telemetry (zero for a `memo` answer).
    pub counters: JobCounters,
}

impl Receipt {
    /// This receipt as one schema-tagged JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", RECEIPT_SCHEMA.into()),
            ("tier", self.tier.as_str().into()),
            ("queue_wait_us", self.queue_wait_us.into()),
            ("sweep_busy_us", self.counters.sweep.busy.as_micros().into()),
            ("sweep_wall_us", self.counters.sweep.wall.as_micros().into()),
            ("oracle", Json::obj(self.counters.oracle.fields())),
            ("cache", Json::obj(self.counters.cache.fields())),
        ])
    }
}

/// A success response line: `"ok":true`, the `op`, then `members`.
fn ok_line<'a>(op: &str, members: impl IntoIterator<Item = (&'a str, Json)>) -> String {
    let head = [("ok", true.into()), ("op", op.into())];
    Json::obj(head.into_iter().chain(members)).to_string()
}

/// Render a success response carrying a CSV payload and its receipt.
pub fn render_ok_csv(op: &str, id: &str, csv: &str, receipt: &Receipt) -> String {
    ok_line(
        op,
        [
            ("id", id.into()),
            ("csv", csv.into()),
            ("receipt", receipt.to_json()),
        ],
    )
}

/// Render a plain success response (`ping`, `shutdown`).
pub fn render_ok(op: &str) -> String {
    ok_line(op, [])
}

/// Render the `list` response: servable experiment ids and the
/// benchmark/scheme/operating-point registries a grid spec may
/// reference.
pub fn render_list(
    experiments: &[&str],
    benchmarks: &[&str],
    schemes: &[String],
    vdd: &[&str],
) -> String {
    ok_line(
        "list",
        [
            ("experiments", Json::arr(experiments.iter().copied())),
            ("benchmarks", Json::arr(benchmarks.iter().copied())),
            ("schemes", Json::arr(schemes.iter().map(String::as_str))),
            ("vdd", Json::arr(vdd.iter().copied())),
        ],
    )
}

/// Render the `stats` response from `(name, value)` counter pairs.
pub fn render_stats<'a>(counters: impl IntoIterator<Item = (&'a str, u64)>) -> String {
    ok_line("stats", counters.into_iter().map(|(k, v)| (k, v.into())))
}

/// Render an error response.
pub fn render_error(code: ErrorCode, message: &str) -> String {
    let error = Json::obj([("code", code.name()), ("message", message)]);
    Json::obj([("ok", false.into()), ("error", error)]).to_string()
}

/// The canonical table of a grid result: one row per (benchmark,
/// operating point, scheme) in spec order, the accumulator's aggregate
/// columns. Row labels go through the same [`row_label`] helper the
/// batch CSV writers use — bare benchmark names on single-voltage
/// grids, `bench @ vX.XX` once the axis is real. This — rendered
/// through the same `ResultTable::write_csv` the batch binaries use —
/// is the byte-exact payload of a `grid` response, whichever tier or
/// process produced the result.
pub fn grid_table(spec: &GridSpec, result: &GridResult) -> ResultTable {
    let mut t = ResultTable::new(
        "grid",
        "grid result",
        [
            "runs",
            "accuracy",
            "period_stretch",
            "corruptions",
            "recovered",
            "avoided",
            "false_positives",
            "power_overhead",
        ],
    );
    let multi = spec.multi_voltage();
    for (bench, point, accs) in result.rows() {
        for (scheme, acc) in spec.schemes.iter().zip(accs) {
            let r = acc.result();
            t.push_row(
                format!("{}/{}", row_label(*bench, *point, multi), scheme.name()),
                vec![
                    acc.runs() as f64,
                    acc.mean_prediction_accuracy(),
                    acc.mean_period_stretch(),
                    r.corruptions as f64,
                    r.recovered as f64,
                    r.avoided as f64,
                    r.false_positives as f64,
                    r.power_overhead,
                ],
            );
        }
    }
    t
}

/// Render a table to its CSV bytes — the exact bytes
/// `ResultTable::save_csv` would put on disk.
///
/// # Panics
///
/// Never: writes to an in-memory buffer cannot fail.
pub fn table_csv(t: &ResultTable) -> String {
    let mut buf = Vec::new();
    t.write_csv(&mut buf)
        .expect("Vec<u8> writes are infallible");
    String::from_utf8(buf).expect("CSV output is UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_parse() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#), Ok(Request::Ping));
        assert_eq!(parse_request(r#"{"op":"list"}"#), Ok(Request::List));
        assert_eq!(
            parse_request(r#"{"op":"experiment","id":"fig3.8","scale":"fast"}"#),
            Ok(Request::Experiment {
                id: "fig3.8".into(),
                scale: Scale::Fast,
            })
        );
        let g = parse_request(
            r#"{"op":"grid","spec":{"benchmarks":["mcf"],"chips":2,
                "schemes":["razor","dcs-icslt:32"],"regime":"ch3",
                "chip_seed_base":220,"trace_seed":7,"cycles":2000}}"#,
        )
        .expect("grid request parses");
        match g {
            Request::Grid { spec } => {
                assert_eq!(spec.benchmarks, vec![Benchmark::Mcf]);
                assert_eq!(spec.chips, 2);
                assert_eq!(spec.schemes.len(), 2);
                assert_eq!(spec.regime, Regime::Ch3);
                assert_eq!(spec.cycles, 2000);
                // No "vdd" on the wire → the single NTC point, so every
                // pre-axis client addresses the exact same grid.
                assert_eq!(spec.voltages, vec![OperatingPoint::NTC]);
            }
            other => panic!("expected grid, got {other:?}"),
        }
    }

    #[test]
    fn vdd_field_round_trips_through_the_spec() {
        let g = parse_request(
            r#"{"op":"grid","spec":{"benchmarks":["mcf"],"chips":1,
                "schemes":["razor"],"regime":"ch3","vdd":["ntc","0.60","v0.80"],
                "chip_seed_base":0,"trace_seed":0,"cycles":100}}"#,
        )
        .expect("grid request with a vdd list parses");
        match g {
            Request::Grid { spec } => {
                let names: Vec<&str> = spec.voltages.iter().map(|p| p.name()).collect();
                // All three spellings (alias, bare voltage, stable name)
                // resolve to roster points.
                assert_eq!(names, vec!["v0.45", "v0.60", "v0.80"]);
                assert!(spec.multi_voltage());
            }
            other => panic!("expected grid, got {other:?}"),
        }
    }

    #[test]
    fn unknown_or_malformed_vdd_is_a_parse_error() {
        // An off-roster voltage names the roster in its message (the
        // server wraps this in a `bad-request` response and keeps the
        // connection alive — see the integration tests).
        let err = parse_request(
            r#"{"op":"grid","spec":{"benchmarks":["mcf"],"chips":1,
                "schemes":["razor"],"regime":"ch3","vdd":["0.99"],
                "chip_seed_base":0,"trace_seed":0,"cycles":100}}"#,
        )
        .expect_err("off-roster voltage must not parse");
        assert!(err.contains("bad operating point"), "{err}");
        // Empty and mistyped lists are rejected too.
        for vdd in [r#""vdd":[]"#, r#""vdd":"ntc""#, r#""vdd":[450]"#] {
            let line = format!(
                r#"{{"op":"grid","spec":{{"benchmarks":["mcf"],"chips":1,
                    "schemes":["razor"],"regime":"ch3",{vdd},
                    "chip_seed_base":0,"trace_seed":0,"cycles":100}}}}"#
            );
            assert!(parse_request(&line).is_err(), "{vdd} must be rejected");
        }
    }

    #[test]
    fn trace_fields_select_the_spec_source() {
        let spec_of = |extra: &str| {
            let line = format!(
                r#"{{"op":"grid","spec":{{"benchmarks":["mcf"],"chips":1,
                    "schemes":["razor"],"regime":"ch3"{extra},
                    "chip_seed_base":0,"trace_seed":0,"cycles":100}}}}"#
            );
            match parse_request(&line) {
                Ok(Request::Grid { spec }) => Ok(spec),
                Ok(other) => panic!("expected grid, got {other:?}"),
                Err(e) => Err(e),
            }
        };
        // Absent → generator, the pre-trace wire shape.
        assert_eq!(
            spec_of("").unwrap().source,
            ntc_workload::TraceSource::Generator
        );
        assert_eq!(
            spec_of(r#","trace_dir":"/tmp/t""#).unwrap().source,
            ntc_workload::TraceSource::Replay("/tmp/t".into())
        );
        // Mistyped fields and keys outside the spec are bad requests that
        // name the key: the retired `phases` flag and a typo'd
        // `trace-dir` must not be silently ignored.
        assert!(spec_of(r#","trace_dir":7"#).is_err());
        for (extra, key) in [
            (r#","trace_dir":"/tmp/t","phases":true"#, "phases"),
            (r#","phases":true"#, "phases"),
            (r#","trace-dir":"/tmp/t""#, "trace-dir"),
        ] {
            let err = spec_of(extra).expect_err("unknown spec key");
            assert!(err.contains(&format!("unknown field \"{key}\"")), "{err}");
        }
    }

    #[test]
    fn out_of_range_sizes_are_rejected_by_field() {
        let spec_of = |chips: &str, seed: &str, cycles: &str| {
            parse_request(&format!(
                r#"{{"op":"grid","spec":{{"benchmarks":["mcf"],"chips":{chips},
                    "schemes":["razor"],"regime":"ch3","chip_seed_base":{seed},
                    "trace_seed":0,"cycles":{cycles}}}}}"#
            ))
        };
        for (chips, seed, cycles, field) in [
            ("1", "0", "1", "cycles"),
            ("1", "0", "0", "cycles"),
            ("1", "0", "1000001", "cycles"),
            ("0", "0", "100", "chips"),
            ("25", "0", "100", "chips"),
            ("2", "18446744073709551615", "100", "chip_seed_base"),
        ] {
            let err = spec_of(chips, seed, cycles).expect_err("out of range");
            assert!(err.contains(&format!("\"{field}\"")), "{field}: {err}");
        }
        // The edges themselves are servable.
        for (chips, seed, cycles) in [
            ("1", "0", "2"),
            ("24", "0", "1000000"),
            ("1", "18446744073709551615", "100"),
            ("2", "18446744073709551614", "100"),
        ] {
            assert!(
                spec_of(chips, seed, cycles).is_ok(),
                "{chips} {seed} {cycles}"
            );
        }
    }

    #[test]
    fn repeated_entries_and_unbounded_schemes_are_refused_by_field() {
        let spec_of = |benchmarks: &str, schemes: &str, vdd: &str| {
            parse_request(&format!(
                r#"{{"op":"grid","spec":{{"benchmarks":{benchmarks},"chips":1,
                    "schemes":{schemes},"regime":"ch3","vdd":{vdd},
                    "chip_seed_base":0,"trace_seed":0,"cycles":50}}}}"#
            ))
        };
        let seventeen = format!(
            "[{}]",
            (1..=17)
                .map(|n| format!("\"dcs-icslt:{n}\""))
                .collect::<Vec<_>>()
                .join(",")
        );
        for (benchmarks, schemes, vdd, field) in [
            (
                r#"["mcf","mcf"]"#,
                r#"["razor"]"#,
                r#"["ntc"]"#,
                "benchmarks",
            ),
            (r#"["mcf"]"#, r#"["razor"]"#, r#"["ntc","v0.45"]"#, "vdd"),
            (
                r#"["mcf"]"#,
                r#"["razor","razor"]"#,
                r#"["ntc"]"#,
                "schemes",
            ),
            (
                r#"["mcf"]"#,
                r#"["dcs-icslt","dcs-icslt:128"]"#,
                r#"["ntc"]"#,
                "schemes",
            ),
            (r#"["mcf"]"#, seventeen.as_str(), r#"["ntc"]"#, "schemes"),
        ] {
            let err = spec_of(benchmarks, schemes, vdd).expect_err(field);
            assert!(err.contains(&format!("\"{field}\"")), "{field}: {err}");
        }
        // A table past 4,096 entries is a bad scheme, named as such.
        for scheme in ["dcs-icslt:1000000000", "dcs-acslt:128/64", "trident:4097"] {
            let err =
                spec_of(r#"["mcf"]"#, &format!("[\"{scheme}\"]"), r#"["ntc"]"#).expect_err(scheme);
            assert!(err.contains(&format!("bad scheme \"{scheme}\"")), "{err}");
            assert!(err.contains("outside 1 to 4096"), "{err}");
            assert!(!err.contains("unknown"), "a known scheme: {err}");
        }
        // Sixteen distinct schemes are servable.
        let sixteen = seventeen.replace(",\"dcs-icslt:17\"", "");
        assert!(spec_of(r#"["mcf"]"#, &sixteen, r#"["ntc"]"#).is_ok());
    }

    #[test]
    fn the_benchmark_specs_still_parse() {
        // `full_grid`'s grid and a `serve_mix` cold spec, as the
        // benchmark sends them.
        for line in [
            r#"{"op":"grid","spec":{"benchmarks":["bzip","gap","gzip","mcf","parser","vortex"],"chips":5,"schemes":["razor","hfg","dcs-icslt","dcs-acslt"],"regime":"ch3","chip_seed_base":220,"trace_seed":7,"cycles":1000000,"trace_dir":"/tmp/traces2"}}"#,
            r#"{"op":"grid","spec":{"benchmarks":["gap"],"chips":1,"schemes":["razor-ch4","trident","dcs-icslt","dvs","harden-choke"],"regime":"ch4","vdd":["v0.45","v0.60"],"chip_seed_base":10001,"trace_seed":13,"cycles":4000}}"#,
        ] {
            assert!(
                matches!(parse_request(line), Ok(Request::Grid { .. })),
                "{line}"
            );
        }
    }

    #[test]
    fn bad_requests_are_rejected_with_messages() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"op":"warp"}"#).is_err());
        assert!(parse_request(r#"{"op":"experiment"}"#).is_err());
        assert!(parse_request(r#"{"op":"grid","spec":{}}"#).is_err());
        assert!(parse_request(
            r#"{"op":"grid","spec":{"benchmarks":["nope"],"chips":1,"schemes":["razor"],
                "regime":"ch3","chip_seed_base":0,"trace_seed":0,"cycles":1}}"#
        )
        .is_err());
    }

    #[test]
    fn receipt_renders_one_schema_tagged_line() {
        let r = Receipt {
            tier: "computed".into(),
            queue_wait_us: 15,
            counters: JobCounters::default(),
        };
        let line = r.to_json().to_string();
        assert!(!line.contains('\n'), "single-line framing");
        let v = parse_json(&line).expect("receipt is valid JSON");
        assert_eq!(v.get("schema").and_then(Json::as_str), Some(RECEIPT_SCHEMA));
        assert_eq!(v.get("tier").and_then(Json::as_str), Some("computed"));
        assert_eq!(v.get("queue_wait_us").and_then(Json::as_u64), Some(15));
        let oracle = v.get("oracle").expect("oracle object");
        assert_eq!(oracle.get("gate_sims").and_then(Json::as_u64), Some(0));
        let cache = v.get("cache").expect("cache object");
        assert_eq!(cache.get("disk_hits").and_then(Json::as_u64), Some(0));
    }

    /// The exact bytes of a receipt and of every response kind.
    #[test]
    fn response_bytes_are_pinned() {
        let receipt = Receipt {
            tier: "computed".into(),
            queue_wait_us: 15,
            counters: JobCounters {
                sweep: SweepStats {
                    busy: std::time::Duration::from_nanos(2_500_999),
                    wall: std::time::Duration::from_micros(1_250),
                },
                oracle: OracleStats {
                    gate_sims: 7,
                    local_hits: 40,
                    shared_hits: 3,
                    sta_full: 1,
                },
                cache: CacheStats {
                    disk_hits: 0,
                    disk_misses: 1,
                    corrupt_evictions: 0,
                    bytes_written: 4096,
                },
            },
        };
        let receipt_bytes = r#"{"schema":"ntc-serve-receipt/3","tier":"computed","queue_wait_us":15,"sweep_busy_us":2500,"sweep_wall_us":1250,"oracle":{"gate_sims":7,"local_hits":40,"shared_hits":3,"sta_full":1},"cache":{"disk_hits":0,"disk_misses":1,"corrupt_evictions":0,"bytes_written":4096}}"#;
        assert_eq!(receipt.to_json().to_string(), receipt_bytes);
        let response = render_ok_csv("experiment", "fig3.8", "bench,\"a\"\nmcf,1.5\n", &receipt);
        assert_eq!(
            response,
            format!(
                r#"{{"ok":true,"op":"experiment","id":"fig3.8","csv":"bench,\"a\"\nmcf,1.5\n","receipt":{receipt_bytes}}}"#
            )
        );
        // `ntc-serve request` prints the parsed `receipt` member: the
        // receipt's own bytes.
        let parsed = parse_json(&response).expect("response is JSON");
        assert_eq!(parsed.get("receipt").unwrap().to_string(), receipt_bytes);
        assert_eq!(render_ok("ping"), r#"{"ok":true,"op":"ping"}"#);
        assert_eq!(
            render_list(
                &["fig3.4", "fig3.8"],
                &["mcf", "gzip"],
                &["razor".to_owned(), "dcs-icslt:32".to_owned()],
                &["v0.45", "v0.60"],
            ),
            r#"{"ok":true,"op":"list","experiments":["fig3.4","fig3.8"],"benchmarks":["mcf","gzip"],"schemes":["razor","dcs-icslt:32"],"vdd":["v0.45","v0.60"]}"#
        );
        assert_eq!(
            render_list(&[], &[], &[], &[]),
            r#"{"ok":true,"op":"list","experiments":[],"benchmarks":[],"schemes":[],"vdd":[]}"#
        );
        assert_eq!(
            render_stats([("requests", 3), ("memo_grids", 1)]),
            r#"{"ok":true,"op":"stats","requests":3,"memo_grids":1}"#
        );
        assert_eq!(render_stats([]), r#"{"ok":true,"op":"stats"}"#);
        assert_eq!(
            render_error(
                ErrorCode::BadRequest,
                "spec: unknown field \"phases\"\t\u{1b}"
            ),
            r#"{"ok":false,"error":{"code":"bad-request","message":"spec: unknown field \"phases\"\t\u001b"}}"#
        );
    }

    #[test]
    fn csv_payload_round_trips_through_the_response_json() {
        let mut t = ResultTable::new("grid", "t", ["a"]);
        t.push_row("r,1", vec![1.5]);
        let csv = table_csv(&t);
        assert!(csv.contains('\n'));
        let receipt = Receipt {
            tier: "memo".into(),
            queue_wait_us: 0,
            counters: JobCounters::default(),
        };
        let line = render_ok_csv("grid", "grid", &csv, &receipt);
        assert!(!line.contains('\n'), "framing survives embedded newlines");
        let v = parse_json(&line).expect("response is valid JSON");
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("csv").and_then(Json::as_str), Some(csv.as_str()));
    }

    #[test]
    fn error_rendering_is_machine_readable() {
        let line = render_error(ErrorCode::Busy, "queue full (3 waiting)");
        let v = parse_json(&line).expect("valid JSON");
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
        let e = v.get("error").expect("error object");
        assert_eq!(e.get("code").and_then(Json::as_str), Some("busy"));
    }
}
