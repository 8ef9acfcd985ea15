//! Proves the simulator's allocation discipline: once the delay oracle is
//! warm (every trace pair's Phase-A gate simulation cached), a full
//! `run_scheme` pass — including the per-class recovery counters, which
//! used to live in a heap-allocated map — performs **zero** heap
//! allocations.
//!
//! A thread-local counting allocator wraps the system one; counting only
//! this thread keeps the measurement immune to libtest's own threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ntc_core::baselines::Razor;
use ntc_core::sim::run_scheme;
use ntc_core::tag_delay::TagDelayOracle;
use ntc_pipeline::Pipeline;
use ntc_timing::ClockSpec;
use ntc_varmodel::{Corner, VariationParams};
use ntc_workload::{Benchmark, TraceGenerator};

thread_local! {
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the counter is a
// const-initialized thread-local `Cell`, so bumping it allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOC_COUNT.with(|c| c.get())
}

#[test]
fn warm_run_scheme_allocates_nothing() {
    let mut oracle = TagDelayOracle::for_chip(Corner::NTC, VariationParams::ntc(), 5);
    let trace = TraceGenerator::new(Benchmark::Mcf, 1).trace(2_000);
    let nominal = oracle.nominal_critical_delay_ps();
    // Aggressive timing-speculative clock: recoveries will occur, so the
    // per-class counting path (the old map's allocation site) is hot.
    let clock = ClockSpec {
        period_ps: nominal * 0.75,
        hold_ps: nominal * 0.06,
    };

    // Warm-up: every (prev, cur) pair of the trace lands in the oracle's
    // delay cache.
    let warm = run_scheme(
        &mut Razor::ch3(),
        &mut oracle,
        &trace,
        clock,
        Pipeline::core1(),
    );
    assert!(
        warm.recovered > 0,
        "the clock must induce recoveries, or the class counters are never exercised"
    );

    let before = allocations();
    let counted = run_scheme(
        &mut Razor::ch3(),
        &mut oracle,
        &trace,
        clock,
        Pipeline::core1(),
    );
    let after = allocations();
    assert_eq!(counted, warm, "a warm re-run reproduces the result");
    assert_eq!(
        after - before,
        0,
        "warm run_scheme (incl. per-class recovery counters) must not allocate"
    );
}
