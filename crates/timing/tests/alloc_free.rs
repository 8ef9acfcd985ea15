//! Proves the kernel's allocation discipline: after warm-up, the
//! workspace entry points (`simulate_pair_minmax`, `critical_path_into`)
//! perform **zero** heap allocations per call on the 64-bit ALU netlist.
//!
//! A thread-local counting allocator wraps the system one; counting only
//! this thread keeps the measurement immune to libtest's own threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ntc_netlist::generators::alu::{Alu, AluFunc};
use ntc_timing::SimWorkspace;
use ntc_varmodel::{ChipSignature, Corner, VariationParams};

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
fn steady_state_simulation_allocates_nothing() {
    let alu = Alu::new(64);
    let nominal = ChipSignature::nominal(alu.netlist(), Corner::NTC);
    let fabricated =
        ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), 7);
    // A mix of sparse, carry-ripple and dense pairs so the warmed buffers
    // cover every activity shape replayed below.
    let pairs = [
        (
            alu.encode(AluFunc::Buffer, 0x01, 0x00),
            alu.encode(AluFunc::Buffer, 0x03, 0x00),
        ),
        (
            alu.encode(AluFunc::Add, 0, 0),
            alu.encode(AluFunc::Add, u64::MAX, 1),
        ),
        (
            alu.encode(AluFunc::Mult, 0, 0),
            alu.encode(AluFunc::Mult, 0xDEAD_BEEF_1234_5678, 0x1357_9BDF_2468_ACE0),
        ),
    ];

    let mut ws = SimWorkspace::new();
    let mut path = Vec::new();
    // Warm-up: buffers reach their high-water capacity.
    for sig in [&nominal, &fabricated] {
        for (init, sens) in &pairs {
            let _ = ws.simulate_pair_minmax(alu.netlist(), sig, init, sens);
            ws.critical_path_into(alu.netlist(), sig, &mut path);
        }
    }

    let before = allocations();
    for _ in 0..50 {
        for sig in [&nominal, &fabricated] {
            for (init, sens) in &pairs {
                let _ = ws.simulate_pair_minmax(alu.netlist(), sig, init, sens);
                ws.critical_path_into(alu.netlist(), sig, &mut path);
            }
        }
    }
    let after = allocations();
    assert!(!path.is_empty(), "the last pair toggles an output");
    assert_eq!(
        after - before,
        0,
        "steady-state simulate_pair_minmax/critical_path_into must not allocate"
    );
}
