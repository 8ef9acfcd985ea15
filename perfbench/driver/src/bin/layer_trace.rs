//! The traced op of the benchmark: the same work as an untraced op, split
//! across the program's module layers by timing calls into their public
//! functions.
//!
//! ```text
//! layer-trace grid  --spec JSON --jobs N --out FILE --spans FILE
//!                   [--load-from DIR --store-to DIR]
//! layer-trace suite --cache-dir DIR --jobs N --out DIR --spans FILE
//! layer-trace probe --seed S --spans FILE
//! ```
//!
//! * `grid` runs one comparison grid cell by cell the way `run_grid` does —
//!   trace segments, `build_oracle`, `run_scheme` per scheme — but first
//!   makes one `TagDelayOracle::delays` pass over each cell's pairs, so the
//!   lookups and the exact kernel (every call that advances
//!   `gate_sim_count`) get spans of their own. It folds the cells in index
//!   order and writes the same CSV bytes the untraced op writes. With
//!   `--load-from`, it also times `cache::load` of the untraced op's
//!   artifact and `cache::store` of it into a fresh directory.
//! * `suite` runs every `all_experiments()` runner at fast scale against a
//!   warm cache directory, writing the CSVs and manifest `repro` writes.
//! * `probe` measures per-unit costs on chips no workload uses: one chip
//!   blank build, one exact-kernel simulation, one local-table lookup.
//!   Workloads whose kernel and lookups run out of reach (inside a runner
//!   or the daemon) scale their counts by these.
//!
//! Spans (id, parent, op, name, start, end) are kept in memory and written
//! as JSON lines to `--spans` when the op ends; counters drained from the
//! program go to stdout as one JSON line.

use ntc_core::scenario::{ChipContext, SchemeSpec, SimAccumulator};
use ntc_core::sim::{run_scheme, SimResult};
use ntc_core::tag_delay::{take_oracle_stats, OracleStats, TagDelayOracle};
use ntc_experiments::config::{build_oracle, voltages, workload_source};
use ntc_experiments::scenario::{
    expand, fold_cells, row_label, screen_run_order, GridSpec, Regime,
};
use ntc_experiments::{all_experiments, cache, runner, Manifest, ResultTable, RunRecord, Scale};
use ntc_isa::Instruction;
use ntc_pipeline::Pipeline;
use ntc_serve::protocol::{grid_table, parse_request, table_csv, Request};
use ntc_varmodel::OperatingPoint;
use ntc_workload::{Benchmark, TraceGenerator};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The experiments whose runners are the circuit-level studies
/// (`DynamicSim` over operand pairs plus `timing::choke`), not grids.
const CHOKE_STUDY_IDS: [&str; 4] = ["fig3.2a", "fig3.2b", "fig3.3", "fig4.2"];
/// Chips and cycles of the unit-cost probe.
const PROBE_CHIPS: u64 = 3;
const PROBE_CYCLES: usize = 20_000;
/// Probe chip seeds start here, far from every workload's chip seeds, so no
/// memoized blank or shared delay table is warm for them.
const PROBE_SEED_BASE: u64 = 1 << 40;

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    start: u64,
    end: u64,
}

/// Spans recorded by one thread; merged into the op's list when the thread
/// hands its work back.
#[derive(Debug, Default)]
struct Spans(Vec<Span>);

impl Spans {
    /// Run `f` inside a span named `name`; `f` gets the span's id so it can
    /// parent spans of its own.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        f: impl FnOnce(&mut Spans, u64) -> T,
    ) -> T {
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let start = now_ns();
        let out = f(self, id);
        self.0.push(Span {
            id,
            parent,
            name,
            start,
            end: now_ns(),
        });
        out
    }

    /// Record an already-measured interval.
    fn push(&mut self, name: &'static str, parent: u64, start: u64, end: u64) {
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        self.0.push(Span {
            id,
            parent,
            name,
            start,
            end,
        });
    }

    /// Write the spans as JSON lines. A process runs one op, so every span
    /// carries op id 0.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.0 {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"op\":0,\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start, s.end
            )?;
        }
        w.flush()
    }
}

/// One `delays()` pass over the consecutive pairs of `trace`, in the order
/// `run_scheme` visits them. A call that advances the oracle's
/// `gate_sim_count` ran the exact kernel and becomes a `dynamic.kernel`
/// child span; the rest of the pass is lookup time.
fn lookup_pass(oracle: &mut TagDelayOracle, trace: &[Instruction], spans: &mut Spans, parent: u64) {
    spans.span("tag_delay.lookup", parent, |spans, pass| {
        let mut sims = oracle.gate_sim_count();
        let mut before = now_ns();
        for pair in trace.windows(2) {
            black_box(oracle.delays(&pair[0], &pair[1]));
            let after = now_ns();
            if oracle.gate_sim_count() != sims {
                sims = oracle.gate_sim_count();
                spans.push("dynamic.kernel", pass, before, after);
            }
            before = after;
        }
    });
}

/// One (benchmark, operating point, chip) cell, as `run_grid` computes it.
/// Returns per scheme (spec order) the per-segment results with their fold
/// weights, and the scheme-cycles simulated.
fn run_cell(
    spec: &GridSpec,
    bench: Benchmark,
    point: OperatingPoint,
    chip: usize,
    spans: &mut Spans,
    cell: u64,
) -> (Vec<Vec<(SimResult, u64)>>, u64) {
    let regime = spec.regime.params();
    let seed = spec.chip_seed_base + chip as u64;
    let corner = point.corner();
    let segments = spans
        .span("workload.replay", cell, |_, _| {
            spec.source.segments(bench, spec.trace_seed, spec.cycles)
        })
        .unwrap_or_else(|e| panic!("trace source {}: {e}", spec.source));
    let need_buffered = spec.schemes.iter().any(SchemeSpec::wants_buffered_netlist);
    let mut bare = spans.span("config.build", cell, |_, _| {
        build_oracle(corner, seed, false, regime)
    });
    let mut buffered = need_buffered.then(|| {
        spans.span("config.build", cell, |_, _| {
            build_oracle(corner, seed, true, regime)
        })
    });
    for segment in &segments {
        lookup_pass(&mut bare, &segment.trace, spans, cell);
        if let Some(o) = buffered.as_mut() {
            lookup_pass(o, &segment.trace, spans, cell);
        }
    }
    let nominal = bare.nominal_critical_delay_ps();
    let clock = regime.clock(nominal);
    let tdc_clock = regime.tdc_clock(nominal);
    let bare_static = bare.static_critical_delay_ps();
    let buffered_static = buffered
        .as_ref()
        .map(TagDelayOracle::static_critical_delay_ps);
    let mut results: Vec<Vec<(SimResult, u64)>> = vec![Vec::new(); spec.schemes.len()];
    let mut cycles = 0u64;
    for segment in &segments {
        for i in screen_run_order(&spec.schemes) {
            let s = &spec.schemes[i];
            let (oracle, static_critical) = if s.wants_buffered_netlist() {
                (
                    buffered
                        .as_mut()
                        .expect("buffered oracle built for this spec"),
                    buffered_static.expect("buffered oracle built for this spec"),
                )
            } else {
                (&mut bare, bare_static)
            };
            let scheme_clock = if s.uses_tdc_clock() { tdc_clock } else { clock };
            let ctx = ChipContext {
                static_critical_delay_ps: static_critical,
                clock: scheme_clock,
                trace_len: segment.trace.len(),
                point,
            };
            let mut scheme = s.build(&ctx);
            let r = spans.span("sim.run_scheme", cell, |_, _| {
                run_scheme(
                    scheme.as_mut(),
                    oracle,
                    &segment.trace,
                    scheme_clock,
                    Pipeline::core1(),
                )
            });
            cycles += segment.trace.len() as u64 - 1;
            results[i].push((r, segment.weight));
        }
    }
    (results, cycles)
}

/// The daemon's grid table (`grid_table`) rendered from folded rows, for a
/// grid computed outside `run_grid`.
fn grid_csv(
    spec: &GridSpec,
    rows: &[((Benchmark, OperatingPoint), Vec<SimAccumulator>)],
) -> String {
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
    for ((bench, point), accs) in rows {
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
    table_csv(&t)
}

/// Counters drained from the program, as one JSON object.
#[derive(Debug, Default)]
struct Counters(BTreeMap<String, f64>);

impl Counters {
    fn set(&mut self, key: impl Into<String>, v: f64) {
        self.0.insert(key.into(), v);
    }

    fn add(&mut self, key: &str, v: f64) {
        *self.0.entry(key.to_owned()).or_default() += v;
    }

    fn add_oracle(&mut self, o: &OracleStats) {
        for (k, v) in o.fields() {
            self.add(&format!("oracle.{k}"), v as f64);
        }
    }

    fn add_cache(&mut self, c: &cache::CacheStats) {
        for (k, v) in c.fields() {
            self.add(&format!("cache.{k}"), v as f64);
        }
    }

    fn add_drains(&mut self) {
        self.add_oracle(&take_oracle_stats());
        self.add_cache(&cache::take_stats());
        let sweep = runner::take_stats();
        self.add("sweep.busy_s", sweep.busy.as_secs_f64());
        self.add("sweep.wall_s", sweep.wall.as_secs_f64());
        for (k, v) in ntc_workload::take_stats().fields() {
            self.add(&format!("workload.{k}"), v as f64);
        }
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", body.join(","))
    }
}

fn drain_all() {
    let _ = take_oracle_stats();
    let _ = cache::take_stats();
    let _ = runner::take_stats();
    let _ = ntc_workload::take_stats();
    let _ = ntc_experiments::take_voltage_cells();
    let _ = runner::take_sweep_failures();
}

fn grid_mode(args: &Args, spans: &mut Spans, counters: &mut Counters) -> Result<(), String> {
    let line = format!("{{\"op\":\"grid\",\"spec\":{}}}", args.need("--spec")?);
    let spec = match parse_request(&line) {
        Ok(Request::Grid { spec }) => spec,
        Ok(_) => unreachable!("a grid line parses as a grid request"),
        Err(e) => return Err(format!("bad spec: {e}")),
    };
    if spec.schemes.iter().any(|s| s.hardened_top_k().is_some()) {
        return Err("hardened-chip schemes are not traced".into());
    }
    let out = PathBuf::from(args.need("--out")?);
    drain_all();
    spans.span("op", 0, |spans, root| -> Result<(), String> {
        spans.span("workload.generate", root, |_, _| {
            for &b in &spec.benchmarks {
                black_box(TraceGenerator::new(b, spec.trace_seed).trace(spec.cycles));
            }
        });
        let groups = spec.row_groups();
        let grid = expand(&groups, spec.chips);
        let cells = spans.span("runner.sweep", root, |_, sweep| {
            runner::sweep_over(&grid, |_, &((bench, point), chip)| {
                let mut local = Spans::default();
                let cell = local.span("runner.cell", sweep, |local, cell| {
                    run_cell(&spec, bench, point, chip, local, cell)
                });
                (cell, local)
            })
        });
        let mut results = Vec::with_capacity(cells.len());
        for ((r, cycles), local) in cells {
            spans.0.extend(local.0);
            counters.add("sim.cycles", cycles as f64);
            results.push(r);
        }
        let csv = spans.span("report.csv", root, |_, _| -> Result<String, String> {
            let rows = fold_cells(
                grid.iter().map(|&(g, _)| g),
                results,
                || vec![SimAccumulator::default(); spec.schemes.len()],
                |accs, cell| {
                    for (acc, segments) in accs.iter_mut().zip(&cell) {
                        for (r, w) in segments {
                            if *w == 1 {
                                acc.push(r);
                            } else {
                                acc.push_weighted(r, *w);
                            }
                        }
                    }
                },
            );
            let csv = grid_csv(&spec, &rows);
            std::fs::write(&out, &csv).map_err(|e| format!("writing {}: {e}", out.display()))?;
            Ok(csv)
        })?;
        counters.add_drains();
        if let (Some(from), Some(to)) = (args.get("--load-from"), args.get("--store-to")) {
            let loaded = spans
                .span("cache.load", root, |_, _| {
                    cache::load(Path::new(from), &spec)
                })
                .ok_or("no disk-tier artifact to load")?;
            if table_csv(&grid_table(&spec, &loaded)) != csv {
                return Err("traced grid differs from the untraced op's artifact".into());
            }
            spans
                .span("cache.store", root, |_, _| {
                    cache::store(Path::new(to), &spec, &loaded)
                })
                .map_err(|e| format!("cache store: {e}"))?;
            counters.add_cache(&cache::take_stats());
        }
        Ok(())
    })
}

/// Per-unit costs on fresh chips: chip blank build, exact-kernel sim,
/// local-table lookup.
fn probe(seed: u64, spans: &mut Spans, parent: u64, counters: &mut Counters) {
    let regime = Regime::Ch3.params();
    let corner = OperatingPoint::NTC.corner();
    let trace = TraceGenerator::new(Benchmark::Gzip, seed).trace(PROBE_CYCLES);
    let (mut build_ns, mut kernel_ns, mut lookup_ns) = (0u64, 0u64, 0u64);
    let mut sims = 0u64;
    let begin = spans.0.len();
    for k in 0..PROBE_CHIPS {
        let chip_seed = PROBE_SEED_BASE + seed.wrapping_mul(PROBE_CHIPS) + k;
        let start = now_ns();
        let mut oracle = build_oracle(corner, chip_seed, false, regime);
        build_ns += now_ns() - start;
        spans.push("probe.build", parent, start, now_ns());
        let first = spans.0.len();
        lookup_pass(&mut oracle, &trace, spans, parent);
        kernel_ns += spans.0[first..]
            .iter()
            .filter(|s| s.name == "dynamic.kernel")
            .map(|s| s.end - s.start)
            .sum::<u64>();
        sims += oracle.gate_sim_count();
        // Every bucket is resolved now: a second pass is pure table hits.
        let start = now_ns();
        for pair in trace.windows(2) {
            black_box(oracle.delays(&pair[0], &pair[1]));
        }
        lookup_ns += now_ns() - start;
        spans.push("probe.lookup", parent, start, now_ns());
    }
    // Probe work is not the workload's: keep it out of the layer spans.
    for s in &mut spans.0[begin..] {
        s.name = match s.name {
            "dynamic.kernel" => "probe.kernel",
            "tag_delay.lookup" => "probe.pass",
            other => other,
        };
    }
    counters.set(
        "probe.build_s_per_chip",
        build_ns as f64 / 1e9 / PROBE_CHIPS as f64,
    );
    counters.set(
        "probe.us_per_sim",
        kernel_ns as f64 / 1e3 / sims.max(1) as f64,
    );
    counters.set(
        "probe.ns_per_lookup",
        lookup_ns as f64 / (PROBE_CHIPS as f64 * (PROBE_CYCLES - 1) as f64),
    );
    drain_all();
}

fn suite_mode(args: &Args, spans: &mut Spans, counters: &mut Counters) -> Result<(), String> {
    let cache_dir = PathBuf::from(args.need("--cache-dir")?);
    let out = PathBuf::from(args.need("--out")?);
    let jobs = runner::jobs();
    cache::set_disk_dir(Some(cache_dir));
    let requested_vdd: Vec<String> = voltages().iter().map(|p| p.name().to_owned()).collect();
    let source = workload_source().to_string();
    spans.span("op", 0, |spans, root| -> Result<(), String> {
        probe(0, spans, root, counters);
        let mut records = Vec::new();
        for (id, run) in all_experiments() {
            drain_all();
            let start = now_ns();
            let table = run(Scale::Fast);
            let end = now_ns();
            let oracle = take_oracle_stats();
            let cache_stats = cache::take_stats();
            let sweep = runner::take_stats();
            // A runner whose only work was disk-tier loads is a cache answer.
            let name = if CHOKE_STUDY_IDS.contains(&id) {
                "choke_study"
            } else if cache_stats.disk_hits > 0 && oracle.gate_sims == 0 && sweep.wall.is_zero() {
                "cache.load"
            } else {
                "experiment"
            };
            spans.push(name, root, start, end);
            counters.add_oracle(&oracle);
            counters.add_cache(&cache_stats);
            counters.add("sweep.busy_s", sweep.busy.as_secs_f64());
            counters.add("sweep.wall_s", sweep.wall.as_secs_f64());
            let workload = ntc_workload::take_stats();
            for (k, v) in workload.fields() {
                counters.add(&format!("workload.{k}"), v as f64);
            }
            let csv = spans
                .span("report.csv", root, |_, _| table.save_csv(&out))
                .map_err(|e| format!("{id}: writing CSV: {e}"))?;
            records.push(RunRecord {
                id: id.to_owned(),
                title: table.title.clone(),
                scale: "fast".into(),
                jobs,
                wall_s: (end - start) as f64 / 1e9,
                sweep,
                oracle,
                cache: cache_stats,
                voltages: ntc_experiments::take_voltage_cells()
                    .into_iter()
                    .map(|(p, n)| (p.name().to_owned(), n))
                    .collect(),
                requested_vdd: requested_vdd.clone(),
                source: source.clone(),
                workload,
                sweep_failures: runner::take_sweep_failures(),
                rows: table.rows.len(),
                csv: Some(csv),
                resumed: false,
                error: None,
            });
        }
        let manifest = Manifest::new("fast", jobs, records);
        spans
            .span("report.manifest", root, |_, _| manifest.save(&out))
            .map_err(|e| format!("writing manifest: {e}"))?;
        if manifest.failed() > 0 {
            return Err(format!("{} experiment(s) failed", manifest.failed()));
        }
        Ok(())
    })
}

/// `--flag value` pairs after the mode word.
struct Args(BTreeMap<String, String>);

impl Args {
    fn get(&self, flag: &str) -> Option<&str> {
        self.0.get(flag).map(String::as_str)
    }

    fn need(&self, flag: &str) -> Result<&str, String> {
        self.get(flag).ok_or_else(|| format!("missing {flag}"))
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((mode, rest)) = argv.split_first() else {
        eprintln!("usage: layer-trace <grid|suite|probe> --flag value ...");
        std::process::exit(2);
    };
    if rest.len() % 2 != 0 {
        eprintln!("layer-trace: flags come in --flag value pairs");
        std::process::exit(2);
    }
    let args = Args(
        rest.chunks(2)
            .map(|p| (p[0].clone(), p[1].clone()))
            .collect(),
    );
    if let Some(jobs) = args.get("--jobs") {
        match jobs.parse() {
            Ok(n) => runner::set_jobs(n),
            Err(_) => {
                eprintln!("layer-trace: --jobs: not a number: {jobs}");
                std::process::exit(2);
            }
        }
    }
    let mut spans = Spans::default();
    let mut counters = Counters::default();
    let outcome = match mode.as_str() {
        "grid" => grid_mode(&args, &mut spans, &mut counters),
        "suite" => suite_mode(&args, &mut spans, &mut counters),
        "probe" => match args.get("--seed").unwrap_or("0").parse() {
            Ok(seed) => {
                spans.span("op", 0, |spans, root| {
                    probe(seed, spans, root, &mut counters)
                });
                Ok(())
            }
            Err(_) => Err("--seed: not a number".into()),
        },
        other => {
            eprintln!("layer-trace: unknown mode {other}");
            std::process::exit(2);
        }
    };
    if let Err(e) = outcome {
        eprintln!("layer-trace {mode}: {e}");
        std::process::exit(1);
    }
    if let Some(path) = args.get("--spans") {
        if let Err(e) = spans.write(Path::new(path)) {
            eprintln!("layer-trace: writing spans: {e}");
            std::process::exit(1);
        }
    }
    counters.set("spans", spans.0.len() as f64);
    println!("{}", counters.to_json());
}
