//! The grid driver of the scenario engine: expand (benchmarks × chips ×
//! schemes × operating points) into cells, run them through the
//! deterministic parallel sweep, and fold per (benchmark, operating
//! point) with [`SimAccumulator`].
//!
//! A [`GridSpec`] is the complete, hashable description of one comparison
//! experiment — which benchmarks, how many chips, which registered schemes
//! ([`SchemeSpec`]), which supply voltages ([`OperatingPoint`]), which
//! clocking [`Regime`], and the seed policy. All figure runners that
//! compare schemes over a (benchmark × chip) grid go through [`run_grid`],
//! which replaces the per-chapter memo caches with one cache keyed by the
//! spec itself: two figures charting different columns of the same grid
//! share one sweep automatically.
//!
//! # Canonical seed policy
//!
//! * chip `c` of a grid is fabricated with seed `chip_seed_base + c` — the
//!   same dice across every benchmark, scheme, *and voltage* of the grid
//!   (the voltage axis re-runs the same silicon at a different supply);
//! * every benchmark trace is generated with the grid's single
//!   `trace_seed` — schemes within a grid see identical instruction
//!   streams.
//!
//! # Fold semantics
//!
//! Cells run in parallel but fold in grid index order (chips ascending
//! within each (benchmark, voltage) group, voltages within each
//! benchmark), so every per-row aggregate — including the floating-point
//! accuracy and stretch sums — is bit-identical to the sequential fold at
//! any `--jobs` count (pinned by the determinism test in
//! `tests/scenario_grid.rs`).

use crate::cache::{self, push_str, push_u64};
use crate::config::{
    build_hardened_oracle, build_oracle, normalize_to_first, ClockRegime, Scale, CH3_REGIME,
    CH4_REGIME,
};
use crate::runner::sweep_over;
use crate::table::ResultTable;
use ntc_core::scenario::{ChipContext, SchemeSpec, SimAccumulator};
use ntc_core::sim::{run_schemes, SimResult};
use ntc_pipeline::Pipeline;
use ntc_varmodel::telemetry::{self, Counts, Metric};
use ntc_varmodel::{Memo, OperatingPoint};
use ntc_workload::{Benchmark, TraceSource, ALL_BENCHMARKS};
use std::sync::Arc;

/// The two evaluation regimes of the study, as grid-spec data (the
/// hashable face of [`CH3_REGIME`] / [`CH4_REGIME`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Regime {
    /// The Chapter-3 regime: timing-speculative clock, max side only.
    Ch3,
    /// The Chapter-4 regime: aggressive clock plus the Razor hold window.
    Ch4,
}

impl Regime {
    /// The regime's clock fractions.
    pub fn params(self) -> ClockRegime {
        match self {
            Regime::Ch3 => CH3_REGIME,
            Regime::Ch4 => CH4_REGIME,
        }
    }

    /// Stable short name, part of the spec's canonical byte encoding.
    pub fn name(self) -> &'static str {
        match self {
            Regime::Ch3 => "ch3",
            Regime::Ch4 => "ch4",
        }
    }

    /// Inverse of [`name`](Self::name) — how wire formats (the serve
    /// protocol) name a regime.
    pub fn parse(s: &str) -> Option<Regime> {
        match s {
            "ch3" => Some(Regime::Ch3),
            "ch4" => Some(Regime::Ch4),
            _ => None,
        }
    }
}

/// Complete description of one (benchmarks × chips × schemes × voltages)
/// comparison grid. Hashable: the spec itself keys the global grid cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GridSpec {
    /// Benchmarks to run, in output row order.
    pub benchmarks: Vec<Benchmark>,
    /// Fabricated chips averaged per (benchmark, voltage) row.
    pub chips: usize,
    /// Registered schemes to compare, in output column order.
    pub schemes: Vec<SchemeSpec>,
    /// Operating points swept per benchmark — the voltage axis. Legacy
    /// single-corner grids pass `vec![OperatingPoint::NTC]`.
    pub voltages: Vec<OperatingPoint>,
    /// Which evaluation regime clocks the grid.
    pub regime: Regime,
    /// Chip `c` is fabricated with seed `chip_seed_base + c`.
    pub chip_seed_base: u64,
    /// Seed of every benchmark's trace generator.
    pub trace_seed: u64,
    /// Trace length per cell, instructions.
    pub cycles: usize,
    /// Where each cell's instruction stream comes from: the statistical
    /// generator (the legacy path), record-while-generating, or
    /// whole-trace replay.
    pub source: TraceSource,
}

impl GridSpec {
    /// A stable canonical byte encoding of the spec: every field as
    /// length-prefixed registry names or little-endian integers. This —
    /// not Rust's `Hash`, whose output is free to change between compiler
    /// releases — is what the on-disk cache key hashes, so artifacts stay
    /// addressable across toolchains. The voltage axis is appended after
    /// the legacy fields; the cache schema tag was bumped alongside it,
    /// so pre-axis artifacts self-invalidate as plain misses.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        push_u64(&mut out, self.benchmarks.len() as u64);
        for b in &self.benchmarks {
            push_str(&mut out, b.name());
        }
        push_u64(&mut out, self.chips as u64);
        push_u64(&mut out, self.schemes.len() as u64);
        for s in &self.schemes {
            push_str(&mut out, &s.name());
        }
        push_str(&mut out, self.regime.name());
        push_u64(&mut out, self.chip_seed_base);
        push_u64(&mut out, self.trace_seed);
        push_u64(&mut out, self.cycles as u64);
        push_u64(&mut out, self.voltages.len() as u64);
        for v in &self.voltages {
            push_str(&mut out, v.name());
        }
        // The trace source, appended after the voltage axis (schema /3).
        // `Record` deliberately encodes exactly like `Generator` (the
        // canonical tag aliases them): a recording run simulates the
        // generated stream, so the two must share cache identity. Replay
        // appends its directory too — note the key covers the *path*, not
        // the files' contents, so replacing trace files in place under
        // the same directory requires `--no-cache` (or a fresh directory)
        // to avoid stale artifact hits.
        push_str(&mut out, self.source.canon_tag());
        if let TraceSource::Replay(dir) = &self.source {
            push_str(&mut out, &dir.display().to_string());
        }
        out
    }

    /// The (benchmark × operating point) row groups of this grid,
    /// bench-major (every voltage of one benchmark before the next
    /// benchmark) — the canonical row order of the folded result.
    pub fn row_groups(&self) -> Vec<(Benchmark, OperatingPoint)> {
        self.benchmarks
            .iter()
            .flat_map(|&b| self.voltages.iter().map(move |&v| (b, v)))
            .collect()
    }

    /// Whether this grid sweeps more than one operating point — the
    /// condition under which row labels carry a voltage suffix (see
    /// [`row_label`]). Single-voltage grids keep their legacy labels, so
    /// existing CSV goldens stay byte-identical.
    pub fn multi_voltage(&self) -> bool {
        self.voltages.len() > 1
    }
}

/// Canonical label of one (benchmark, operating point) grid row: the bare
/// benchmark name on single-voltage grids, `bench @ vX.XX` once the
/// voltage axis is real. Both the batch CSV writers and the serve
/// daemon's table encoder go through here, which is what keeps their
/// bytes identical.
pub fn row_label(bench: Benchmark, point: OperatingPoint, multi_voltage: bool) -> String {
    if multi_voltage {
        format!("{} @ {}", bench.name(), point.name())
    } else {
        bench.name().to_owned()
    }
}

/// The grid of a benchmark-comparison study: every benchmark, `scale`'s
/// chips and cycles, the process's voltage roster
/// ([`config::voltages`](crate::config::voltages)) and workload source
/// ([`config::workload_source`](crate::config::workload_source)), run
/// through [`run_grid`].
pub(crate) fn study_grid(
    scale: Scale,
    schemes: Vec<SchemeSpec>,
    regime: Regime,
    chip_seed_base: u64,
    trace_seed: u64,
) -> Arc<GridResult> {
    run_grid(&GridSpec {
        benchmarks: ALL_BENCHMARKS.to_vec(),
        chips: scale.chips(),
        schemes,
        voltages: crate::config::voltages(),
        regime,
        chip_seed_base,
        trace_seed,
        cycles: scale.cycles(),
        source: crate::config::workload_source(),
    })
}

/// A figure of `grid`: one row per (benchmark, operating point) row,
/// labelled by [`row_label`], whose values are `row` of that row's
/// accumulators (in scheme order).
pub(crate) fn grid_figure(
    id: &str,
    title: &str,
    columns: impl IntoIterator<Item = impl Into<String>>,
    grid: &GridResult,
    row: impl Fn(&[SimAccumulator]) -> Vec<f64>,
) -> ResultTable {
    let mut t = ResultTable::new(id, title, columns);
    let multi = grid.voltages().len() > 1;
    for (bench, point, accs) in grid.rows() {
        t.push_row(row_label(*bench, *point, multi), row(accs));
    }
    t
}

/// Per scheme, `metric` of the accumulator's [`SimAccumulator::result`],
/// normalized to the first scheme's (Razor's, in every comparison grid).
pub(crate) fn normalized(accs: &[SimAccumulator], metric: impl Fn(&SimResult) -> f64) -> Vec<f64> {
    let values: Vec<f64> = accs.iter().map(|a| metric(&a.result())).collect();
    normalize_to_first(&values)
}

/// The folded output of [`run_grid`]: per (benchmark, operating point)
/// row, one [`SimAccumulator`] per scheme (in the spec's scheme order).
#[derive(Debug, PartialEq)]
pub struct GridResult {
    schemes: Vec<SchemeSpec>,
    rows: Vec<(Benchmark, OperatingPoint, Vec<SimAccumulator>)>,
}

impl GridResult {
    /// Reassemble a grid from its stored pieces — the decode half of the
    /// disk cache. Crate-internal: the only producers of a `GridResult`
    /// are [`run_grid_uncached`] and a verified cache artifact.
    pub(crate) fn from_parts(
        schemes: Vec<SchemeSpec>,
        rows: Vec<(Benchmark, OperatingPoint, Vec<SimAccumulator>)>,
    ) -> GridResult {
        GridResult { schemes, rows }
    }

    /// The grid's schemes, in column order.
    pub fn schemes(&self) -> &[SchemeSpec] {
        &self.schemes
    }

    /// Accumulator rows in canonical order: the spec's benchmark order,
    /// voltages ascending-as-specified within each benchmark.
    pub fn rows(&self) -> &[(Benchmark, OperatingPoint, Vec<SimAccumulator>)] {
        &self.rows
    }

    /// The distinct operating points of the grid, in first-occurrence
    /// row order.
    pub fn voltages(&self) -> Vec<OperatingPoint> {
        let mut out = Vec::new();
        for &(_, v, _) in &self.rows {
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }

    /// One (benchmark, operating point) row's accumulators, in scheme
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the row was not part of the grid.
    pub fn cell(&self, bench: Benchmark, point: OperatingPoint) -> &[SimAccumulator] {
        self.rows
            .iter()
            .find(|(b, v, _)| *b == bench && *v == point)
            .map(|(_, _, accs)| accs.as_slice())
            .unwrap_or_else(|| {
                panic!("row ({}, {}) not in this grid", bench.name(), point.name())
            })
    }
}

/// Expand per-group work into a (group × chip) grid, chips ascending
/// within each group — the canonical cell order every grid fold assumes.
pub fn expand<G: Copy>(groups: &[G], chips: usize) -> Vec<(G, usize)> {
    groups
        .iter()
        .flat_map(|&g| (0..chips).map(move |c| (g, c)))
        .collect()
}

/// Fold sweep cells per key, visiting cells in index order (the order
/// [`sweep_over`] returns, i.e. the sequential order) so floating-point
/// folds are bit-identical at any thread count. Output keys appear in
/// first-occurrence order.
///
/// # Panics
///
/// Panics if `keys` yields fewer items than `cells`.
pub fn fold_cells<K, T, A>(
    keys: impl IntoIterator<Item = K>,
    cells: Vec<T>,
    mut init: impl FnMut() -> A,
    mut fold: impl FnMut(&mut A, T),
) -> Vec<(K, A)>
where
    K: PartialEq + Copy,
{
    let mut out: Vec<(K, A)> = Vec::new();
    let mut keys = keys.into_iter();
    for cell in cells {
        let key = keys.next().expect("a key per cell");
        let idx = match out.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                out.push((key, init()));
                out.len() - 1
            }
        };
        fold(&mut out[idx].1, cell);
    }
    out
}

/// Spec order, `0..schemes.len()`. Kept only because the benchmark's
/// `layer-trace` binary (under `perfbench/`) imports it. [`run_grid`]
/// itself runs a cell's schemes grouped by the oracle they read (bare,
/// buffered, or one per hardened top-k), each group over one shared delay
/// stream, and results do not depend on that order (pinned in
/// `tests/scenario_grid.rs`).
pub fn screen_run_order(schemes: &[SchemeSpec]) -> Vec<usize> {
    (0..schemes.len()).collect()
}

/// One (benchmark, operating point, chip) cell: build the chip's
/// oracle(s) at the cell's supply, derive the regime clocks from the
/// *bare* die's nominal critical delay at that supply (the canonical
/// clock policy — buffer padding must not slow the target clock), and run
/// every scheme of the spec over the cell's whole trace. Returns one
/// result per scheme, in spec order.
///
/// Schemes are grouped by the oracle they read — bare, hold-buffered, or
/// one per hardened top-k, each built on first use — and each group runs
/// through one [`run_schemes`] call, so the trace's delays are resolved
/// once per oracle rather than once per scheme.
fn run_cell(
    spec: &GridSpec,
    bench: Benchmark,
    point: OperatingPoint,
    chip: usize,
) -> Vec<SimResult> {
    let regime = spec.regime.params();
    let seed = spec.chip_seed_base + chip as u64;
    let corner = point.corner();
    // A scheme's oracle is keyed by (hardened top-k, hold-buffered netlist).
    let oracle_key = |s: &SchemeSpec| (s.hardened_top_k(), s.wants_buffered_netlist());
    let build = |(top_k, buffered): (Option<usize>, bool)| match top_k {
        Some(top_k) => build_hardened_oracle(corner, seed, buffered, regime, top_k),
        None => build_oracle(corner, seed, buffered, regime),
    };
    let bare = build((None, false));
    let nominal = bare.nominal_critical_delay_ps();
    let clock = regime.clock(nominal);
    let tdc_clock = regime.tdc_clock(nominal);
    // Each oracle of the cell with the spec indices of the schemes reading
    // it; the bare die is built regardless, since it sets the clocks.
    let mut groups = vec![((None, false), bare, Vec::new())];
    for (i, s) in spec.schemes.iter().enumerate() {
        let key = oracle_key(s);
        let g = match groups.iter().position(|(k, ..)| *k == key) {
            Some(g) => g,
            None => {
                groups.push((key, build(key), Vec::new()));
                groups.len() - 1
            }
        };
        groups[g].2.push(i);
    }
    let trace = spec
        .source
        .trace(bench, spec.trace_seed, spec.cycles)
        .unwrap_or_else(|e| {
            panic!(
                "trace source {} cannot resolve cell ({}, seed {}, {} cycles): {e}",
                spec.source,
                bench.name(),
                spec.trace_seed,
                spec.cycles
            )
        });
    let mut results: Vec<Option<SimResult>> = vec![None; spec.schemes.len()];
    for (_, oracle, members) in groups.iter_mut().filter(|(.., m)| !m.is_empty()) {
        let static_critical = oracle.static_critical_delay_ps();
        let mut schemes: Vec<_> = members
            .iter()
            .map(|&i| {
                let s = &spec.schemes[i];
                let scheme_clock = if s.uses_tdc_clock() { tdc_clock } else { clock };
                let ctx = ChipContext {
                    static_critical_delay_ps: static_critical,
                    clock: scheme_clock,
                    trace_len: trace.len(),
                    point,
                };
                (s.build(&ctx), scheme_clock)
            })
            .collect();
        let runs = run_schemes(&mut schemes, oracle, &trace, Pipeline::core1());
        for (&i, r) in members.iter().zip(runs) {
            results[i] = Some(r);
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every scheme belongs to one oracle group"))
        .collect()
}

/// Grid cells *computed* (not answered from a cache tier) per roster
/// point in `counts`: the nonzero points, ascending, with their counts.
/// The repro harness folds them into each experiment's manifest record.
pub fn voltage_cells(counts: &Counts) -> Vec<(OperatingPoint, u64)> {
    OperatingPoint::roster()
        .into_iter()
        .map(|p| (p, counts.get(Metric::CellsAt(p))))
        .filter(|&(_, n)| n > 0)
        .collect()
}

/// Drain the process-wide per-voltage computed-cell counters (see
/// [`voltage_cells`]), resetting them to zero.
pub fn take_voltage_cells() -> Vec<(OperatingPoint, u64)> {
    voltage_cells(&telemetry::take(&OperatingPoint::roster().map(Metric::CellsAt)))
}

/// Run a grid without consulting or filling the cache: cells through
/// [`sweep_over`], fold per (benchmark, operating point) row in index
/// order. This is the function the thread-count determinism test
/// exercises.
pub fn run_grid_uncached(spec: &GridSpec) -> GridResult {
    let groups = spec.row_groups();
    let grid = expand(&groups, spec.chips);
    let cells = sweep_over(&grid, |_, &((bench, point), chip)| {
        run_cell(spec, bench, point, chip)
    });
    for &((_, point), _) in &grid {
        telemetry::add(Metric::CellsAt(point), 1);
    }
    let rows = fold_cells(
        grid.iter().map(|&(g, _)| g),
        cells,
        || vec![SimAccumulator::default(); spec.schemes.len()],
        |accs, results| {
            for (acc, r) in accs.iter_mut().zip(&results) {
                acc.push(r);
            }
        },
    );
    GridResult {
        schemes: spec.schemes.clone(),
        rows: rows
            .into_iter()
            .map(|((b, v), accs)| (b, v, accs))
            .collect(),
    }
}

/// Capacity of the in-memory grid memo: above the 5 grids the fast suite
/// touches (the ch3 and ch4 comparison grids plus the accuracy-sweep
/// variants) and the 1 of full fig3.10.
pub const GRID_MEMO_CAP: usize = 8;

/// Folded grids by spec.
static GRIDS: Memo<GridSpec, Arc<GridResult>> = Memo::new(GRID_MEMO_CAP);

/// Grids the in-memory memo holds now, and its cap.
pub(crate) fn grid_memo_occupancy() -> (usize, usize) {
    GRIDS.occupancy()
}

/// Run a grid through the cache tiers: the bounded in-memory memo first
/// (same process — figures charting different columns of one grid share
/// one sweep and one `Arc`, and concurrent callers of one spec share one
/// compute), then the on-disk artifact cache when a `--cache-dir` is
/// configured (previous processes), then [`run_grid_uncached`]. Fresh
/// results are written through to both tiers; `--no-cache`
/// ([`cache::set_disabled`]) bypasses everything.
///
/// Disk artifacts store exact bit patterns, so a hit from either tier is
/// bit-identical to a cold run at any `--jobs` count.
pub fn run_grid(spec: &GridSpec) -> Arc<GridResult> {
    cached_grid(spec).unwrap_or_else(|| compute_grid(spec))
}

/// The grid if a cache tier holds it, without computing: the memo's
/// value, waiting for a build another caller has in progress, else the
/// disk artifact, which is memoized on the way. `None` when caching is
/// disabled.
pub fn cached_grid(spec: &GridSpec) -> Option<Arc<GridResult>> {
    if cache::disabled() {
        return None;
    }
    if let Some(result) = GRIDS.wait_built(spec) {
        return Some(result);
    }
    let loaded = Arc::new(cache::load(&cache::disk_dir()?, spec)?);
    Some(GRIDS.get_or_init(spec, || loaded))
}

/// The second half of [`run_grid`], for a spec [`cached_grid`] missed:
/// sweep the grid through the memo, so concurrent callers of one spec
/// share one compute, and write it through to the disk tier.
pub fn compute_grid(spec: &GridSpec) -> Arc<GridResult> {
    if cache::disabled() {
        return Arc::new(run_grid_uncached(spec));
    }
    GRIDS.get_or_init(spec, || {
        let result = Arc::new(run_grid_uncached(spec));
        if let Some(dir) = cache::disk_dir() {
            if let Err(e) = cache::store(&dir, spec, &result) {
                eprintln!(
                    "warning: could not persist grid-cache artifact under {}: {e}",
                    dir.display()
                );
            }
        }
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expand_orders_chips_within_groups() {
        let grid = expand(&['a', 'b'], 3);
        assert_eq!(
            grid,
            vec![('a', 0), ('a', 1), ('a', 2), ('b', 0), ('b', 1), ('b', 2)]
        );
    }

    #[test]
    fn fold_cells_folds_in_index_order_and_keys_in_first_occurrence_order() {
        let keys = ["b", "b", "a", "a"];
        let cells = vec![1u64, 2, 10, 20];
        let folded = fold_cells(keys, cells, Vec::new, |acc, c| acc.push(c));
        assert_eq!(folded, vec![("b", vec![1, 2]), ("a", vec![10, 20])]);
    }

    #[test]
    fn cached_and_uncached_grids_agree() {
        let spec = GridSpec {
            benchmarks: vec![Benchmark::Mcf],
            chips: 1,
            schemes: vec![SchemeSpec::RazorCh3, SchemeSpec::DcsIcslt { entries: 32 }],
            voltages: vec![OperatingPoint::NTC],
            regime: Regime::Ch3,
            chip_seed_base: 220,
            trace_seed: 7,
            cycles: 2_000,
            source: TraceSource::Generator,
        };
        let cached = run_grid(&spec);
        let fresh = run_grid_uncached(&spec);
        assert_eq!(cached.schemes(), fresh.schemes());
        for ((b1, v1, a1), (b2, v2, a2)) in cached.rows().iter().zip(fresh.rows()) {
            assert_eq!(b1, b2);
            assert_eq!(v1, v2);
            assert_eq!(a1, a2);
        }
        // A second cached call returns the same Arc.
        assert!(Arc::ptr_eq(&cached, &run_grid(&spec)));
    }

    #[test]
    fn row_groups_are_bench_major_and_canonical_bytes_see_the_axis() {
        let mid = OperatingPoint::parse("v0.60").unwrap();
        let spec = GridSpec {
            benchmarks: vec![Benchmark::Mcf, Benchmark::Gzip],
            chips: 2,
            schemes: vec![SchemeSpec::RazorCh3],
            voltages: vec![OperatingPoint::NTC, mid],
            regime: Regime::Ch3,
            chip_seed_base: 1,
            trace_seed: 2,
            cycles: 100,
            source: TraceSource::Generator,
        };
        assert_eq!(
            spec.row_groups(),
            vec![
                (Benchmark::Mcf, OperatingPoint::NTC),
                (Benchmark::Mcf, mid),
                (Benchmark::Gzip, OperatingPoint::NTC),
                (Benchmark::Gzip, mid),
            ]
        );
        assert!(spec.multi_voltage());
        // The voltage list is part of the cache identity.
        let mut other = spec.clone();
        other.voltages = vec![OperatingPoint::NTC];
        assert!(!other.multi_voltage());
        assert_ne!(spec.canonical_bytes(), other.canonical_bytes());
    }

    #[test]
    fn row_labels_suffix_only_multi_voltage_grids() {
        let mid = OperatingPoint::parse("v0.60").unwrap();
        assert_eq!(row_label(Benchmark::Mcf, OperatingPoint::NTC, false), "mcf");
        assert_eq!(row_label(Benchmark::Mcf, mid, true), "mcf @ v0.60");
    }
}
