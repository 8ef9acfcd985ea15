//! Run telemetry: one process-wide counter array and one attribution
//! scope for every layer of the stack.
//!
//! Each counter is a [`Metric`]. [`add`] bumps the metric's process
//! total and, when the calling thread has one installed, its [`Scope`]:
//!
//! * [`take`] drains process totals. The typed views (`OracleStats`,
//!   `CacheStats`, `SweepStats`, `WorkloadStats`, each built from
//!   [`Counts`] by the crate that owns its field names) drain this way.
//! * [`scoped`] runs a closure inside a fresh scope and returns what it
//!   counted. `repro` runs each experiment and `ntc-serve` each compute
//!   that way, so concurrent runs never bill each other's work. The
//!   sweep runner hands the caller's [`current_scope`] to its workers
//!   ([`set_scope`]), so fanned-out work lands in the same scope.
//!
//! Every counter fires at most once per analysis, cache operation,
//! trace or sweep, except the delay oracle's lookups, which buffer per
//! resolved chunk and reach [`add`] once per chunk.

use crate::point::OperatingPoint;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One counter of the telemetry array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Delay-oracle queries answered by the exact gate-level kernel.
    GateSims,
    /// Delay-oracle queries answered by an oracle's local table.
    LocalHits,
    /// Delay-oracle queries answered by a chip's shared table.
    SharedHits,
    /// Static timing analyses (`StaticTiming::analyze` passes).
    StaFull,
    /// Grid artifacts loaded and verified from the disk cache.
    DiskHits,
    /// Disk-cache lookups that found no valid artifact.
    DiskMisses,
    /// Corrupt grid artifacts quarantined (each also counts a miss).
    CorruptEvictions,
    /// Grid artifact bytes written to disk.
    BytesWritten,
    /// Worker-busy time of parallel sweeps, nanoseconds.
    SweepBusyNanos,
    /// Wall-clock time of parallel sweeps, nanoseconds.
    SweepWallNanos,
    /// Grid cells resolved by whole-trace replay.
    TraceReplays,
    /// Instructions fed to simulators from replayed traces.
    ReplayedInstructions,
    /// Grid cells computed (not answered by a cache tier) at one
    /// operating point.
    CellsAt(OperatingPoint),
}

/// Metrics ahead of the per-point cell counters.
const FIXED: usize = 12;
/// Length of the counter array.
const LEN: usize = FIXED + OperatingPoint::COUNT;

impl Metric {
    fn index(self) -> usize {
        match self {
            Metric::GateSims => 0,
            Metric::LocalHits => 1,
            Metric::SharedHits => 2,
            Metric::StaFull => 3,
            Metric::DiskHits => 4,
            Metric::DiskMisses => 5,
            Metric::CorruptEvictions => 6,
            Metric::BytesWritten => 7,
            Metric::SweepBusyNanos => 8,
            Metric::SweepWallNanos => 9,
            Metric::TraceReplays => 10,
            Metric::ReplayedInstructions => 11,
            Metric::CellsAt(point) => FIXED + usize::from(point.0),
        }
    }
}

/// Counter values indexed by [`Metric`]: a drain of process totals
/// ([`take`]) or what one [`scoped`] run counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts([u64; LEN]);

impl Counts {
    /// The value of one metric.
    pub fn get(&self, metric: Metric) -> u64 {
        self.0[metric.index()]
    }
}

/// A per-run attribution scope: while installed on a thread, every
/// [`add`] there also lands in the scope. Share one `Arc` across a run's
/// threads to aggregate them.
#[derive(Debug, Default)]
pub struct Scope([AtomicU64; LEN]);

/// Process totals since each metric's last [`take`]. The counters are
/// statistics that publish no other data, so every access is `Relaxed`.
static TOTALS: [AtomicU64; LEN] = [const { AtomicU64::new(0) }; LEN];

thread_local! {
    static SCOPE: RefCell<Option<Arc<Scope>>> = const { RefCell::new(None) };
}

/// Count `n` events of `metric`, into the process total and into the
/// calling thread's scope, if one is installed.
pub fn add(metric: Metric, n: u64) {
    let i = metric.index();
    TOTALS[i].fetch_add(n, Ordering::Relaxed);
    SCOPE.with(|s| {
        if let Some(scope) = s.borrow().as_ref() {
            scope.0[i].fetch_add(n, Ordering::Relaxed);
        }
    });
}

/// Drain the process totals of `metrics`, resetting them to zero. Every
/// metric not listed reads 0 in the result and keeps its total.
pub fn take(metrics: &[Metric]) -> Counts {
    let mut out = Counts::default();
    for &m in metrics {
        out.0[m.index()] = TOTALS[m.index()].swap(0, Ordering::Relaxed);
    }
    out
}

/// The calling thread's installed scope, if any.
pub fn current_scope() -> Option<Arc<Scope>> {
    SCOPE.with(|s| s.borrow().clone())
}

/// Install (or, with `None`, clear) the calling thread's scope and
/// return the previous one.
pub fn set_scope(scope: Option<Arc<Scope>>) -> Option<Arc<Scope>> {
    SCOPE.with(|s| s.replace(scope))
}

/// Run `f` inside a fresh scope and return its result with everything
/// it counted, on this thread and on every thread it handed the scope
/// to. The previous scope comes back on return and on unwind, so a
/// nested call's work lands in the nested scope only.
pub fn scoped<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    struct Restore(Option<Arc<Scope>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_scope(self.0.take());
        }
    }
    let scope = Arc::new(Scope::default());
    let _restore = Restore(set_scope(Some(scope.clone())));
    let out = f();
    let counts = Counts(std::array::from_fn(|i| scope.0[i].load(Ordering::Relaxed)));
    (out, counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_nest_and_restore_the_previous_one() {
        assert!(current_scope().is_none());
        let ((), outer) = scoped(|| {
            let outer = current_scope().expect("installed");
            add(Metric::GateSims, 1);
            let ((), inner) = scoped(|| {
                assert!(!Arc::ptr_eq(&current_scope().expect("installed"), &outer));
                add(Metric::GateSims, 5);
            });
            assert_eq!(inner.get(Metric::GateSims), 5);
            assert!(Arc::ptr_eq(&current_scope().expect("restored"), &outer));
            add(Metric::GateSims, 2);
        });
        assert_eq!(outer.get(Metric::GateSims), 3, "nested work stays nested");
        assert!(current_scope().is_none());
        let unwound = std::panic::catch_unwind(|| scoped(|| panic!("injected")));
        assert!(unwound.is_err());
        assert!(current_scope().is_none(), "restored on unwind");
    }

    #[test]
    fn take_drains_only_the_listed_metrics() {
        // The per-point cell counters are this test's alone in this binary.
        let ntc = Metric::CellsAt(OperatingPoint::NTC);
        let stc = Metric::CellsAt(OperatingPoint::STC);
        add(ntc, 2);
        add(stc, 4);
        let drained = take(&[stc]);
        assert_eq!((drained.get(ntc), drained.get(stc)), (0, 4));
        assert_eq!(
            take(&[ntc, stc]).get(ntc),
            2,
            "an unlisted metric keeps its total"
        );
    }
}
