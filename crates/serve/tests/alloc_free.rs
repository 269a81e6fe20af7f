//! Asserts the serve engine's bounded, allocation-free steady state:
//!
//! * a warm item's requests perform **zero** heap allocations;
//! * a warm `finish` followed by admitting a new item into the freed slot
//!   performs zero heap allocations, also under a crash plan, where each
//!   slot's fault wrapper reuses its event-walk buffers;
//! * an item that is never finished holds the same live heap after 200k
//!   requests as after 20k (within 4 KiB): closed records are folded and
//!   dropped as they settle, not kept until `finish`.
//!
//! This file must remain the SOLE test in its integration-test binary: the
//! counting `#[global_allocator]` observes the whole process, and the test
//! harness runs tests in one process (concurrently, by default) — any
//! sibling test's allocations would race the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use mcc_core::online::{CrashWindow, FaultPlan, SpeculativeCaching};
use mcc_model::{CostModel, ServerId};
use mcc_serve::{ServeConfig, ServeEngine, ServeReply};
use mcc_simnet::factory;

/// Counts allocation *events* (alloc/realloc/alloc_zeroed) while armed,
/// and live heap bytes always.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static EVENTS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);

fn event() {
    if ARMED.load(Ordering::Relaxed) {
        EVENTS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        event();
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        event();
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        event();
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn engine() -> ServeEngine<'static> {
    engine_with(FaultPlan::none())
}

fn engine_with(plan: FaultPlan) -> ServeEngine<'static> {
    ServeEngine::new(
        ServeConfig::new(4, CostModel::unit()).with_plan(plan),
        factory(SpeculativeCaching::paper()),
    )
}

/// Servers 1 and 3 each down for one time unit in every ten, never
/// together: crashes, failovers and recoveries, but no total outage.
fn crash_plan() -> FaultPlan {
    let windows = (0..2_000)
        .flat_map(|j| {
            let t = 10.0 * j as f64;
            [(1, t + 2.0), (3, t + 7.0)].map(|(s, from)| CrashWindow {
                server: ServerId(s),
                from,
                to: from + 1.0,
            })
        })
        .collect();
    FaultPlan::new(windows, 1, 0.0, 0, 0.0)
}

/// Finishes item `from - 1` and serves eight requests of each item in
/// `from..to`, finishing each before the next.
fn churn(e: &mut ServeEngine<'_>, p: &mut Probe, from: u64, to: u64) {
    for item in from..to {
        assert!(e.finish(item - 1).is_some());
        for _ in 0..8 {
            p.step(e, item);
        }
    }
}

/// The probe shape: one item requested on servers 0..3 in turn, every
/// 1.5 time units (`Δt = 1`, so every step transfers and a copy closes).
struct Probe {
    k: u64,
}

impl Probe {
    fn step(&mut self, e: &mut ServeEngine<'_>, item: u64) {
        self.k += 1;
        let reply = e.observe(item, (self.k % 4) as u32, 1.5 * self.k as f64);
        assert!(matches!(reply, ServeReply::Decision(_)));
    }
}

#[test]
fn warm_serving_allocates_nothing_and_item_state_stays_bounded() {
    // Warm requests on one item.
    let mut e = engine();
    let mut p = Probe { k: 0 };
    for _ in 0..1_000 {
        p.step(&mut e, 1);
    }
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..1_000 {
        p.step(&mut e, 1);
    }
    ARMED.store(false, Ordering::SeqCst);
    let events = EVENTS.swap(0, Ordering::SeqCst);
    assert_eq!(events, 0, "warm requests allocated ({events} events)");

    // Warm finish + re-admission into the freed slot, without and with
    // a crash plan.
    churn(&mut e, &mut p, 2, 10);
    ARMED.store(true, Ordering::SeqCst);
    churn(&mut e, &mut p, 10, 50);
    ARMED.store(false, Ordering::SeqCst);
    let events = EVENTS.swap(0, Ordering::SeqCst);
    assert_eq!(
        events, 0,
        "warm finish + re-admission allocated ({events} events)"
    );
    let mut e = engine_with(crash_plan());
    let mut p = Probe { k: 0 };
    for _ in 0..8 {
        p.step(&mut e, 1);
    }
    churn(&mut e, &mut p, 2, 10);
    ARMED.store(true, Ordering::SeqCst);
    churn(&mut e, &mut p, 10, 50);
    ARMED.store(false, Ordering::SeqCst);
    let events = EVENTS.swap(0, Ordering::SeqCst);
    assert_eq!(
        events, 0,
        "warm finish + re-admission under a crash plan allocated ({events} events)"
    );
    drop(e);

    // Live heap of one never-finished item: 20k requests vs 200k.
    let mut e = engine();
    let mut p = Probe { k: 0 };
    for _ in 0..20_000 {
        p.step(&mut e, 1);
    }
    let at_20k = LIVE.load(Ordering::SeqCst);
    for _ in 20_000..200_000 {
        p.step(&mut e, 1);
    }
    let at_200k = LIVE.load(Ordering::SeqCst);
    assert!(
        at_200k.abs_diff(at_20k) <= 4096,
        "item state grew: {at_20k} B live after 20k requests, {at_200k} B after 200k"
    );
    assert_eq!(e.stats().items_live, 1);
}
