//! Deterministic work-stealing parallel sweep engine.
//!
//! Every experiment in the suite is a Monte-Carlo sweep over independent,
//! seeded units of work — fabricated chips, (benchmark × chip) cells,
//! supply-voltage points. This module runs such sweeps across threads with
//! a hard determinism contract:
//!
//! > **The output of [`sweep`] is bit-identical to the sequential loop,
//! > regardless of thread count.**
//!
//! The contract holds by construction: task `i` computes `f(i)` from its
//! index alone (all experiment randomness is seeded per index), workers
//! claim indices from a shared atomic counter (work stealing without
//! queues), and results are written back into slot `i` before the sweep
//! returns a plain index-ordered `Vec`. Scheduling order can never leak
//! into the result — only into the wall clock. Reductions that are
//! order-sensitive (floating-point sums, running averages) therefore stay
//! exactly as reproducible as the old `for` loops: they fold the returned
//! `Vec` in index order on the calling thread.
//!
//! The thread count is the [`set_jobs`] override (the binaries' `--jobs`
//! flag), else the machine's available parallelism. One job means the
//! sweep runs inline on the calling thread with zero overhead.
//!
//! The engine counts busy and wall time as [`telemetry`] metrics so
//! callers (the `repro` binary) can report the effective speedup of each
//! experiment ([`SweepStats`]). Workers run inside the caller's
//! telemetry scope, so every counter they bump is attributed to the
//! caller's run. The time is recorded on **every** exit path, including
//! unwinding — a panicking sweep still accounts its wall and busy time,
//! so per-experiment telemetry stays honest even for failing runs.
//!
//! Two failure disciplines are offered:
//!
//! * [`sweep`] — fail fast: a panic in any task propagates to the caller
//!   after stats are recorded. Experiments use this; a panicking chip
//!   means the table is untrustworthy and must not be emitted.
//! * [`sweep_catching`] — fault isolation: each index runs under
//!   [`std::panic::catch_unwind`], a panicking index yields
//!   `Err(IndexFailure)` in its slot while every other index completes
//!   bit-identically, and the failures are additionally pushed to a
//!   process-global registry ([`take_sweep_failures`]) so the `repro`
//!   manifest can report them per experiment.

use ntc_varmodel::telemetry::{self, Counts, Metric};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Explicit thread-count override; 0 = unset.
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);
/// Per-index panics caught by [`sweep_catching`] since the last
/// [`take_sweep_failures`] drain, in sweep-submission order.
static SWEEP_FAILURES: Mutex<Vec<IndexFailure>> = Mutex::new(Vec::new());

/// Force the number of worker threads for all subsequent sweeps
/// (`--jobs N`). Pass 0 to clear the override and fall back to the
/// machine's parallelism.
pub fn set_jobs(n: usize) {
    JOBS_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The number of worker threads a sweep will use: the [`set_jobs`]
/// override, else the machine's available parallelism.
pub fn jobs() -> usize {
    match JOBS_OVERRIDE.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Busy/wall accounting for sweeps: a typed view of the runner's
/// [`telemetry`] metrics, from a [`take_stats`] drain or a
/// [`telemetry::scoped`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Total worker-busy time summed over all threads.
    pub busy: Duration,
    /// Total sweep wall-clock time.
    pub wall: Duration,
}

impl SweepStats {
    /// Effective speedup (busy / wall): ≈1 sequentially, →jobs when the
    /// sweep scales. `None` when no sweep ran.
    pub fn speedup(&self) -> Option<f64> {
        (self.wall > Duration::ZERO).then(|| self.busy.as_secs_f64() / self.wall.as_secs_f64())
    }
}

impl From<&Counts> for SweepStats {
    fn from(c: &Counts) -> Self {
        SweepStats {
            busy: Duration::from_nanos(c.get(Metric::SweepBusyNanos)),
            wall: Duration::from_nanos(c.get(Metric::SweepWallNanos)),
        }
    }
}

/// Drain and reset the process-wide sweep counters.
pub fn take_stats() -> SweepStats {
    SweepStats::from(&telemetry::take(&[Metric::SweepBusyNanos, Metric::SweepWallNanos]))
}

/// Run `f(0), f(1), …, f(n-1)` across worker threads and return the
/// results in index order — bit-identical to the sequential loop for any
/// thread count (see the module docs for why).
///
/// A panic in any task propagates to the caller after the scope joins;
/// the busy/wall counters are recorded before the unwind resumes, so
/// [`SweepStats`] stay accurate across failed sweeps. For per-index
/// fault isolation instead of fail-fast, see [`sweep_catching`].
pub fn sweep<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    match sweep_impl(n, &f) {
        Ok(out) => out,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Panic payload carried off a worker thread.
type Payload = Box<dyn Any + Send + 'static>;

/// The engine proper: returns `Err(first panic payload)` instead of
/// unwinding so both exits flow through the same stats accounting.
fn sweep_impl<T, F>(n: usize, f: &F) -> Result<Vec<T>, Payload>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let wall_start = Instant::now();
    let workers = jobs().min(n);
    let result = if workers <= 1 {
        // Inline fast path: identical semantics, zero thread overhead.
        let busy_start = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| (0..n).map(f).collect::<Vec<T>>()));
        telemetry::add(Metric::SweepBusyNanos, busy_start.elapsed().as_nanos() as u64);
        out
    } else {
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut first_panic: Option<Payload> = None;
        // The telemetry scope is thread-local and does not cross thread
        // boundaries on its own; hand the caller's scope to each worker
        // so a run's counters include the work its sweep fanned out.
        let scope = telemetry::current_scope();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    let scope = scope.clone();
                    s.spawn(move || {
                        telemetry::set_scope(scope);
                        let busy_start = Instant::now();
                        let mut local: Vec<(usize, T)> = Vec::new();
                        // Catch inside the worker so a panicking task still
                        // reports the thread's busy time (and its completed
                        // results) to the join loop below.
                        let panic = catch_unwind(AssertUnwindSafe(|| loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, f(i)));
                        }))
                        .err();
                        (local, busy_start.elapsed(), panic)
                    })
                })
                .collect();
            for h in handles {
                let (local, busy, panic) = h.join().expect("worker catches its own panics");
                telemetry::add(Metric::SweepBusyNanos, busy.as_nanos() as u64);
                for (i, t) in local {
                    slots[i] = Some(t);
                }
                if let Some(p) = panic {
                    first_panic.get_or_insert(p);
                }
            }
        });
        match first_panic {
            Some(p) => Err(p),
            None => Ok(slots
                .into_iter()
                .map(|s| s.expect("every index claimed exactly once"))
                .collect()),
        }
    };
    telemetry::add(Metric::SweepWallNanos, wall_start.elapsed().as_nanos() as u64);
    result
}

/// One caught per-index panic from a [`sweep_catching`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexFailure {
    /// The sweep index whose task panicked.
    pub index: usize,
    /// The panic message (`&str`/`String` payloads; a placeholder
    /// otherwise).
    pub message: String,
}

impl std::fmt::Display for IndexFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "index {}: {}", self.index, self.message)
    }
}

/// The message a panic payload carries: the `&str` or `String` of a
/// `panic!`, else a placeholder. Pass the payload itself (`&*boxed`), not
/// the `Box` holding it.
pub fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Fault-isolating variant of [`sweep`]: each index runs under
/// [`catch_unwind`], so one panicking task yields `Err(IndexFailure)` in
/// its own slot while **every other index completes and stays
/// bit-identical to a fully sequential run** — scheduling still cannot
/// leak into results, and neither can a neighbour's failure.
///
/// Caught failures are also appended (in index order) to a process-global
/// registry; drain it with [`take_sweep_failures`] to report them, as the
/// `repro` binary does per experiment in its `manifest.json`. The default
/// panic hook still prints each panic to stderr — isolation changes who
/// survives, not who gets logged.
pub fn sweep_catching<T, F>(n: usize, f: F) -> Vec<Result<T, IndexFailure>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let results = sweep(n, |i| {
        catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|p| IndexFailure {
            index: i,
            message: panic_message(&*p).to_owned(),
        })
    });
    let failures: Vec<IndexFailure> = results
        .iter()
        .filter_map(|r| r.as_ref().err().cloned())
        .collect();
    if !failures.is_empty() {
        SWEEP_FAILURES
            .lock()
            .expect("sweep-failure registry poisoned")
            .extend(failures);
    }
    results
}

/// Drain the process-global registry of panics caught by
/// [`sweep_catching`] since the last drain, in sweep-submission order.
pub fn take_sweep_failures() -> Vec<IndexFailure> {
    std::mem::take(
        &mut *SWEEP_FAILURES
            .lock()
            .expect("sweep-failure registry poisoned"),
    )
}

/// Keyed sweep over an explicit work list — the (chip × benchmark ×
/// scheme) grid variant. `f` receives the index and the key; results come
/// back in key order.
pub fn sweep_over<K, T, F>(keys: &[K], f: F) -> Vec<T>
where
    K: Sync,
    T: Send,
    F: Fn(usize, &K) -> T + Sync,
{
    sweep(keys.len(), |i| f(i, &keys[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize tests that toggle the global jobs override.
    static JOBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn results_are_in_index_order_for_any_thread_count() {
        let _guard = JOBS_LOCK.lock().unwrap();
        let expect: Vec<usize> = (0..97).map(|i| i * i).collect();
        for jobs in [1, 2, 8] {
            set_jobs(jobs);
            assert_eq!(sweep(97, |i| i * i), expect, "jobs={jobs}");
        }
        set_jobs(0);
    }

    #[test]
    fn parallel_output_is_bit_identical_to_sequential() {
        let _guard = JOBS_LOCK.lock().unwrap();
        // Per-index seeded RNG streams — the shape every experiment uses.
        let run = || {
            sweep(24, |i| {
                let mut rng = ntc_varmodel::SplitMix64::seed_from_u64(100 + i as u64);
                (0..256).map(|_| rng.gen_f64()).sum::<f64>()
            })
        };
        set_jobs(1);
        let sequential = run();
        set_jobs(8);
        let parallel = run();
        set_jobs(0);
        assert!(
            sequential
                .iter()
                .zip(&parallel)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "bit-identical across thread counts"
        );
    }

    #[test]
    fn keyed_sweep_preserves_key_order() {
        let _guard = JOBS_LOCK.lock().unwrap();
        set_jobs(4);
        let keys = ["a", "bb", "ccc", "dddd", "eeeee"];
        let lens = sweep_over(&keys, |i, k| (i, k.len()));
        set_jobs(0);
        assert_eq!(lens, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
    }

    #[test]
    fn empty_and_singleton_sweeps() {
        let empty: Vec<u8> = sweep(0, |_| unreachable!());
        assert!(empty.is_empty());
        assert_eq!(sweep(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn stats_accumulate_and_drain() {
        let _ = take_stats();
        let _ = sweep(4, |i| std::hint::black_box(i * 2));
        let stats = take_stats();
        assert!(stats.wall > Duration::ZERO);
        assert!(stats.busy > Duration::ZERO);
        let drained = take_stats();
        assert_eq!(drained.wall, Duration::ZERO);
    }

    #[test]
    fn jobs_resolution_priority() {
        let _guard = JOBS_LOCK.lock().unwrap();
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(0);
        assert!(jobs() >= 1);
    }

    #[test]
    fn stats_are_recorded_when_a_sweep_panics() {
        let _guard = JOBS_LOCK.lock().unwrap();
        for jobs in [1, 4] {
            set_jobs(jobs);
            let _ = take_stats();
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                sweep(16, |i| {
                    if i == 7 {
                        panic!("injected failure at {i}");
                    }
                    std::hint::black_box(i * 3)
                })
            }));
            assert!(unwound.is_err(), "jobs={jobs}: the panic must propagate");
            let stats = take_stats();
            assert!(
                stats.wall > Duration::ZERO,
                "jobs={jobs}: wall time recorded on the unwind path"
            );
            assert!(
                stats.busy > Duration::ZERO,
                "jobs={jobs}: busy time recorded on the unwind path"
            );
        }
        set_jobs(0);
    }

    #[test]
    fn workers_count_into_the_callers_scope() {
        let _guard = JOBS_LOCK.lock().unwrap();
        for jobs in [1, 4] {
            set_jobs(jobs);
            let (out, counts) = telemetry::scoped(|| {
                sweep(16, |i| {
                    telemetry::add(Metric::TraceReplays, 1);
                    i * 2
                })
            });
            assert_eq!(out, (0..16).map(|i| i * 2).collect::<Vec<_>>());
            assert_eq!(counts.get(Metric::TraceReplays), 16, "jobs={jobs}");
            // Wall time is measured with Instant, so even a trivial sweep
            // records a nonzero duration.
            assert!(SweepStats::from(&counts).wall > Duration::ZERO, "jobs={jobs}");
        }
        set_jobs(0);
    }

    #[test]
    fn sweep_catching_isolates_panics_and_stays_deterministic() {
        let _guard = JOBS_LOCK.lock().unwrap();
        let _ = take_sweep_failures();
        let run = || {
            sweep_catching(24, |i| {
                if i == 5 || i == 17 {
                    panic!("chip {i} exploded");
                }
                let mut rng = ntc_varmodel::SplitMix64::seed_from_u64(900 + i as u64);
                (0..64).map(|_| rng.gen_f64()).sum::<f64>()
            })
        };
        set_jobs(1);
        let sequential = run();
        let seq_failures = take_sweep_failures();
        set_jobs(8);
        let parallel = run();
        let par_failures = take_sweep_failures();
        set_jobs(0);

        assert_eq!(seq_failures, par_failures, "same failures at any thread count");
        assert_eq!(
            seq_failures.iter().map(|f| f.index).collect::<Vec<_>>(),
            vec![5, 17]
        );
        assert_eq!(seq_failures[0].message, "chip 5 exploded");
        for (i, (a, b)) in sequential.iter().zip(&parallel).enumerate() {
            match (a, b) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x.to_bits(), y.to_bits(), "index {i} bit-identical")
                }
                (Err(x), Err(y)) => assert_eq!(x, y),
                _ => panic!("index {i}: pass/fail status differs across thread counts"),
            }
        }
    }

    #[test]
    fn sweep_failure_registry_drains() {
        let _guard = JOBS_LOCK.lock().unwrap();
        let _ = take_sweep_failures();
        set_jobs(1);
        let out = sweep_catching(3, |i| {
            if i == 1 {
                panic!("boom");
            }
            i
        });
        set_jobs(0);
        assert_eq!(out[0], Ok(0));
        assert_eq!(out[2], Ok(2));
        let failures = take_sweep_failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].index, 1);
        assert!(take_sweep_failures().is_empty(), "drain resets the registry");
    }
}
