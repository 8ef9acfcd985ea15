//! Per-run counter attribution.
//!
//! The process-wide instrumentation counters (sweep busy/wall time,
//! oracle invocation mix, grid-cache traffic) are drained by the `repro`
//! binary once per experiment — fine for a CLI that runs one experiment
//! at a time, useless for a server that runs several jobs concurrently
//! and wants to bill each one for exactly the work it caused.
//!
//! [`with_counter_scope`] closes that gap: it installs a fresh
//! attribution scope on the calling thread for the duration of a
//! closure and returns the closure's result together with the
//! [`ScopedCounters`] that accumulated inside. Scopes *mirror* the
//! global counters rather than replace them, so `repro`'s drain-based
//! reporting is unaffected, and the sweep engine forwards the oracle
//! scope into its worker threads so fanned-out work is still
//! attributed to the job that requested it.

use crate::cache::{set_cache_scope, CacheScope, CacheStats};
use crate::runner::{set_sweep_scope, SweepScope, SweepStats};
use ntc_core::{set_oracle_scope, OracleScope, OracleStats};
use std::sync::Arc;

/// Everything a single scoped run accumulated: sweep time, oracle
/// invocation mix (including static-timing analyses), and grid-cache
/// traffic.
#[derive(Debug, Clone)]
pub struct ScopedCounters {
    /// Busy/wall time spent inside [`crate::runner::sweep`] calls.
    pub sweep: SweepStats,
    /// Timing-oracle lookup and static-timing analysis counts.
    pub oracle: OracleStats,
    /// Grid-cache hits, misses, evictions, and bytes written.
    pub cache: CacheStats,
}

/// Restores the previously installed scopes when dropped, so nesting
/// and panics both unwind cleanly.
struct ScopeGuard {
    prev_sweep: Option<Arc<SweepScope>>,
    prev_oracle: Option<Arc<OracleScope>>,
    prev_cache: Option<Arc<CacheScope>>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        set_sweep_scope(self.prev_sweep.take());
        set_oracle_scope(self.prev_oracle.take());
        set_cache_scope(self.prev_cache.take());
    }
}

/// Run `f` with fresh attribution scopes installed on this thread and
/// return its result alongside the counters the run accumulated.
///
/// The global counters still tick (and can still be drained) exactly as
/// without the scope; the returned snapshot is this run's share of
/// them. Previously installed scopes are restored on exit, including on
/// panic.
pub fn with_counter_scope<T>(f: impl FnOnce() -> T) -> (T, ScopedCounters) {
    let sweep = Arc::new(SweepScope::default());
    let oracle = Arc::new(OracleScope::default());
    let cache = Arc::new(CacheScope::default());
    let _guard = ScopeGuard {
        prev_sweep: set_sweep_scope(Some(sweep.clone())),
        prev_oracle: set_oracle_scope(Some(oracle.clone())),
        prev_cache: set_cache_scope(Some(cache.clone())),
    };
    let out = f();
    let counters = ScopedCounters {
        sweep: sweep.snapshot(),
        oracle: oracle.snapshot(),
        cache: cache.snapshot(),
    };
    (out, counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::current_sweep_scope;

    #[test]
    fn scope_restores_previous_on_exit() {
        let outer = Arc::new(SweepScope::default());
        let prev = set_sweep_scope(Some(outer.clone()));
        let ((), counters) = with_counter_scope(|| {
            // Inside, the fresh scope is installed, not `outer`.
            assert!(!Arc::ptr_eq(&current_sweep_scope().unwrap(), &outer));
        });
        assert!(Arc::ptr_eq(&current_sweep_scope().unwrap(), &outer));
        assert_eq!(counters.sweep.busy.as_nanos(), 0);
        set_sweep_scope(prev);
    }

    #[test]
    fn sweep_time_lands_in_the_scope() {
        let ((), counters) = with_counter_scope(|| {
            let out = crate::runner::sweep(4, |i| i * 2);
            assert_eq!(out, vec![0, 2, 4, 6]);
        });
        // Wall time is measured with Instant, so even a trivial sweep
        // records a nonzero duration.
        assert!(counters.sweep.wall.as_nanos() > 0);
    }
}
