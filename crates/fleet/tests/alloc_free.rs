//! Asserts the fleet layer's zero-allocation guarantee: once a
//! [`FleetWorkspace`] is warm at a fleet shape, a whole [`run_fleet`]
//! call — per-item parameter draws, batched staging and SoA solves,
//! policy runs, streaming audits, result scatter, and (with capacity on)
//! the residency-interval harvest and its sort plus the full eviction
//! sweep — performs
//! **zero** heap allocations, live metrics sink included. This is what
//! makes "millions of items per box" a steady-state claim rather than a
//! cold-start one.
//!
//! Arming is **thread-local** (const-initialized, droppable-free TLS,
//! so reading it never allocates): only the test thread's allocations
//! count. The single-threaded fleet path runs entirely on this thread,
//! and harness threads (libtest's monitor, parallel test workers under
//! load) cannot race the counter. This file must remain the SOLE test
//! in its integration-test binary: the counting `#[global_allocator]`
//! is process-global state, and only one test at a time may own the
//! armed window on its thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use mcc_core::online::SpeculativeCaching;
use mcc_fleet::{run_fleet, EvictionPolicy, FleetSpec, FleetWorkspace};
use mcc_obs::{Counter, Registry};
use mcc_simnet::factory;
use mcc_workloads::distributions::ParamDist;

/// Counts this thread's allocation *events* (alloc/realloc/
/// alloc_zeroed) while armed.
struct CountingAlloc;

thread_local! {
    // Const-initialized and droppable-free, so neither reading nor the
    // first access allocates or registers a TLS destructor.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}
static EVENTS: AtomicUsize = AtomicUsize::new(0);

/// Whether the *current thread* is armed; `false` during TLS teardown.
fn armed() -> bool {
    ARMED.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if armed() {
            EVENTS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if armed() {
            EVENTS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if armed() {
            EVENTS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn warm_fleet_runs_allocate_nothing_even_with_a_live_sink() {
    // Single-threaded: the inline worker path is the steady-state one
    // (spawning OS threads allocates outside our control by design).
    let plain = FleetSpec {
        items: 64,
        servers: 4,
        requests_per_item: 12,
        rate: 1.0,
        mu: ParamDist::Uniform { lo: 0.5, hi: 2.0 },
        lambda: ParamDist::Exp { mean: 1.0 },
        seed: 11,
        threads: 1,
        ..FleetSpec::default()
    };
    // Capacity on: the interval harvest and its sort, the merge of the
    // sorted runs, the ends lane and the LRU sweep must all run inside
    // warm buffers too (`sort_unstable` is in-place; the heap, interval
    // lists and ends lane keep their capacity run to run).
    let capped = FleetSpec {
        capacity: Some(3),
        eviction: EvictionPolicy::Lru { price: 0.5 },
        ..plain
    };
    let f = factory(SpeculativeCaching::<f64>::paper());
    let reg = Registry::new();
    let mut ws_plain = FleetWorkspace::new();
    let mut ws_capped = FleetWorkspace::new();

    // Warm-up: one pass per spec grows every buffer (SoA columns, worker
    // slots, batch staging, interval lists, sweep scratch, cached policy) to
    // the high-water mark this exact shape needs again.
    let expect_plain = run_fleet(&plain, &f, &mut ws_plain, &reg).unwrap();
    let expect_capped = run_fleet(&capped, &f, &mut ws_capped, &reg).unwrap();
    assert!(expect_capped.evictions > 0, "the sweep really has work");

    ARMED.with(|a| a.set(true));
    for _ in 0..3 {
        let a = run_fleet(&plain, &f, &mut ws_plain, &reg).unwrap();
        let b = run_fleet(&capped, &f, &mut ws_capped, &reg).unwrap();
        // Warm passes must also be bit-identical to the cold one.
        assert_eq!(a, expect_plain);
        assert_eq!(b, expect_capped);
    }
    ARMED.with(|a| a.set(false));

    let events = EVENTS.load(Ordering::SeqCst);
    assert_eq!(
        events, 0,
        "warm fleet runs (capacity sweep and live sink included) must not \
         touch the heap ({events} allocation events)"
    );

    // The sink really was live the whole time (snapshotting may allocate
    // — we are disarmed).
    let snap = reg.snapshot();
    assert_eq!(snap.counter(Counter::FleetItems), 8 * 64);
    assert!(snap.counter(Counter::FleetSimNanos) > 0);
    assert!(snap.counter(Counter::FleetCapacityNanos) > 0);
    assert!(snap.counter(Counter::FleetEvictions) > 0);
}
