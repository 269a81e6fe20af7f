//! Asserts the `SolverWorkspace` zero-allocation guarantee: once a
//! workspace is warm at a shape, `solve_fast_in` / `solve_naive_in`
//! perform **zero** heap allocations per solve.
//!
//! This file must remain the SOLE test in its integration-test binary: the
//! counting `#[global_allocator]` observes the whole process, and the test
//! harness runs tests in one process (concurrently, by default) — any
//! sibling test's allocations would race the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use mcc_core::offline::{
    solve_batch_in, solve_fast_in, solve_naive_in, BatchWorkspace, SolverWorkspace,
};
use mcc_model::{CostModel, Instance, Request, ServerId};

/// Counts allocation *events* (alloc/realloc/alloc_zeroed) while armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static EVENTS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            EVENTS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            EVENTS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            EVENTS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Deterministic instance without pulling in the workload generators.
fn instance(n: usize, m: usize) -> Instance<f64> {
    let mut t = 0.0;
    let requests: Vec<Request<f64>> = (0..n)
        .map(|i| {
            t += 0.05 + (i * 7 % 13) as f64 * 0.01;
            Request::new(ServerId::from_index(i * 31 % m), t)
        })
        .collect();
    let cost = CostModel::new(1.0, 1.0).expect("positive rates");
    Instance::new(m, cost, requests).expect("valid instance")
}

#[test]
fn warm_workspace_solves_allocate_nothing() {
    let big = instance(2_000, 24);
    let small = instance(300, 8);
    let mut ws = SolverWorkspace::new();

    // Warm-up at the largest shape (grows every buffer), plus one sweep
    // solve so its paths are warm too.
    let expect = solve_fast_in(&big, &mut ws).optimal_cost();
    let _ = solve_naive_in(&big, &mut ws, mcc_obs::noop());

    // Warm the batched kernel at its largest staging (the sweep's chunk
    // width is 8; warm one wider to cover ragged final chunks).
    let batch_insts = [&big, &small, &big, &small, &big, &small, &big, &small, &big];
    let mut bws = BatchWorkspace::new();
    solve_batch_in(&batch_insts, &mut bws);
    let batch_expect = bws.optimal_cost(0);

    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..5 {
        let got = solve_fast_in(&big, &mut ws).optimal_cost();
        assert_eq!(got, expect);
        // Shape changes within the warmed envelope must stay free too.
        let _ = solve_fast_in(&small, &mut ws);
        let _ = solve_naive_in(&small, &mut ws, mcc_obs::noop());
        let _ = solve_naive_in(&big, &mut ws, mcc_obs::noop());
        // The warm batched kernel: full restage + solve, zero allocations.
        solve_batch_in(&batch_insts, &mut bws);
        assert_eq!(bws.optimal_cost(0), batch_expect);
        // Smaller batches over the dirty buffers stay free as well.
        solve_batch_in(&[&small, &big], &mut bws);
    }
    ARMED.store(false, Ordering::SeqCst);

    let events = EVENTS.load(Ordering::SeqCst);
    assert_eq!(
        events, 0,
        "steady-state workspace solves must not touch the heap ({events} allocation events)"
    );
}
