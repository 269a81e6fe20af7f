//! Phase 2: the per-server capacity/eviction sweep.
//!
//! Phase 1 harvests every item's copy-residency intervals (borrowed out
//! of the run records through [`mcc_simnet::RunRequest::run_units_observed`],
//! never recomputed) as start/end [`CopyEvent`]s, and each worker files
//! them into one bucket per server ([`ServerBuckets`]). Servers never
//! share a slot, so each server's timeline is swept on its own: its
//! buckets from every worker are gathered into one reused buffer, sorted
//! by `(time, kind, item)` — ends before starts at equal times — and
//! replayed against the slot budget.
//!
//! Pressure is resolved one of two ways:
//!
//! * [`EvictionPolicy::Lru`]: evict the resident whose copy goes longest
//!   unused (the interval's recorded last touch; the sweep is post-hoc,
//!   so the touch is known — landlord-style), charge `price` per
//!   eviction into its own cost class. Occupancy then *never* exceeds
//!   the budget.
//! * [`EvictionPolicy::None`]: admit anyway, count the violation and
//!   report a typed [`AuditFinding::CapacityViolation`].
//!
//! Evictions truncate occupancy bookkeeping only — they never feed back
//! into per-item online/OPT costs, which is exactly why a fleet whose
//! capacity covers every item is bit-identical to independent runs (the
//! conservation proptests pin this).
//!
//! The replay holds only the server's *current* residents, in an indexed
//! min-heap keyed by `(last_touch bits, item)` with each item's heap
//! position: an end removes its resident (an interval an eviction
//! already closed is simply absent), and a start on a full server
//! replaces the minimum. Items are unique among one server's residents,
//! so the item index breaks last-touch ties and the victim is a pure
//! function of the server's sorted events.
//!
//! Determinism: servers are dealt in contiguous ranges to
//! `min(threads, servers)` sweepers, and no server's outcome depends on
//! another's. Per-item eviction counts are summed, findings are
//! concatenated in server order and capped, and per-server peaks are
//! reported in server order, so the thread count cannot change a bit.

use std::panic;
use std::thread;

use mcc_obs::{Counter, Gauge, Hist, Sink};
use mcc_simnet::AuditFinding;

use crate::spec::{EvictionPolicy, FleetSpec};

/// End events sort before start events at equal times: an interval
/// ending exactly when another starts frees its slot first.
const KIND_END: u8 = 0;
/// See [`KIND_END`].
const KIND_START: u8 = 1;

/// Integer image of `t` whose unsigned order is [`f64::total_cmp`]'s.
fn time_key(t: f64) -> u64 {
    let b = t.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | 1 << 63
    }
}

/// Inverse of [`time_key`].
fn key_time(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
}

/// One residency boundary: a copy of `item` opening or closing on the
/// server whose bucket holds the event. `last_touch` (raw bits) rides
/// along to key the LRU.
#[derive(Copy, Clone, Debug)]
struct CopyEvent {
    time: u64,
    last_touch: u64,
    item: u32,
    kind: u8,
}

impl CopyEvent {
    /// The replay order within one server.
    fn order(&self) -> (u64, u8, u32) {
        (self.time, self.kind, self.item)
    }
}

/// One worker's harvest: the residency events of its shard, one list per
/// server. Warm reuse keeps every list's capacity.
#[derive(Default)]
pub(crate) struct ServerBuckets {
    lists: Vec<Vec<CopyEvent>>,
}

impl ServerBuckets {
    /// Empties every list and sizes the harvest to `servers` lists.
    pub(crate) fn reset(&mut self, servers: usize) {
        self.lists.resize_with(servers, Vec::new);
        for list in &mut self.lists {
            list.clear();
        }
    }

    /// Files one residency interval of `item` on `server`: its start at
    /// `from` and its end at `to`. Intervals of one item on one server
    /// must not overlap and must have positive length.
    pub(crate) fn push(&mut self, item: u32, server: usize, from: f64, last_touch: f64, to: f64) {
        let list = &mut self.lists[server];
        let last_touch = last_touch.to_bits();
        for (time, kind) in [(from, KIND_START), (to, KIND_END)] {
            list.push(CopyEvent {
                time: time_key(time),
                last_touch,
                item,
                kind,
            });
        }
    }
}

/// At most this many typed capacity-violation findings are materialized
/// per run (the full count is always in the summary; the findings are
/// samples for reports, not the ledger).
const FINDINGS_CAP: usize = 16;

/// Heap position of an item that is not resident.
const ABSENT: u32 = u32::MAX;

/// One server's current residents: a binary min-heap of
/// `(last_touch bits, item)` plus every item's heap index (`ABSENT` when
/// not resident), so an end event removes its resident in `O(log cap)`.
#[derive(Default)]
struct Residents {
    heap: Vec<(u64, u32)>,
    pos: Vec<u32>,
}

impl Residents {
    /// Empties the set and sizes the position array for `items` items.
    fn reset(&mut self, items: usize) {
        self.heap.clear();
        self.pos.clear();
        self.pos.resize(items, ABSENT);
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn insert(&mut self, touch: u64, item: u32) {
        debug_assert_eq!(self.pos[item as usize], ABSENT, "start on an open interval");
        self.heap.push((touch, item));
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes `item` if it is resident.
    fn remove(&mut self, item: u32) {
        let i = self.pos[item as usize];
        if i == ABSENT {
            return;
        }
        self.pos[item as usize] = ABSENT;
        let Some(last) = self.heap.pop() else {
            return;
        };
        // Unless `item` was the last entry, the last entry fills its
        // hole and may belong above or below it.
        let i = i as usize;
        if i < self.heap.len() {
            self.heap[i] = last;
            if i > 0 && last < self.heap[(i - 1) / 2] {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        }
    }

    /// Evicts the least recently touched resident in favour of
    /// `(touch, item)` and returns the victim; `None` when empty.
    fn replace_min(&mut self, touch: u64, item: u32) -> Option<u32> {
        let victim = self.heap.first()?.1;
        self.pos[victim as usize] = ABSENT;
        self.heap[0] = (touch, item);
        self.sift_down(0);
        Some(victim)
    }

    /// Empties the set, resetting only the members' positions.
    fn clear(&mut self) {
        for &(_, item) in &self.heap {
            self.pos[item as usize] = ABSENT;
        }
        self.heap.clear();
    }

    fn sift_up(&mut self, mut i: usize) {
        let e = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent] < e {
                break;
            }
            self.heap[i] = self.heap[parent];
            self.pos[self.heap[i].1 as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = e;
        self.pos[e.1 as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize) {
        let e = self.heap[i];
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && self.heap[right] < self.heap[left] {
                right
            } else {
                left
            };
            if e < self.heap[child] {
                break;
            }
            self.heap[i] = self.heap[child];
            self.pos[self.heap[i].1 as usize] = i as u32;
            i = child;
        }
        self.heap[i] = e;
        self.pos[e.1 as usize] = i as u32;
    }
}

/// The per-server budget: `cap` slots, LRU eviction or none.
#[derive(Copy, Clone)]
struct Budget {
    cap: usize,
    lru: bool,
}

/// One sweeper's replay storage: the gathered events of the server at
/// hand and its residents.
#[derive(Default)]
struct Lane {
    events: Vec<CopyEvent>,
    residents: Residents,
}

impl Lane {
    /// Sweeps servers `first .. first + peaks.len()` in order, writing
    /// each server's occupancy peak into `peaks`. The returned outcome
    /// carries no eviction cost (the caller prices the total).
    fn sweep(
        &mut self,
        harvest: &[ServerBuckets],
        first: usize,
        budget: Budget,
        evictions: &mut [u32],
        findings: &mut Vec<AuditFinding>,
        peaks: &mut [usize],
    ) -> CapacityOutcome {
        let mut out = CapacityOutcome::default();
        for (s, peak) in (first..).zip(peaks.iter_mut()) {
            self.events.clear();
            for worker in harvest {
                self.events.extend_from_slice(&worker.lists[s]);
            }
            self.events.sort_unstable_by_key(CopyEvent::order);
            out.events += self.events.len() as u64;
            let res = &mut self.residents;
            for ev in &self.events {
                if ev.kind == KIND_END {
                    res.remove(ev.item);
                    continue;
                }
                if res.len() >= budget.cap {
                    if budget.lru {
                        if let Some(victim) = res.replace_min(ev.last_touch, ev.item) {
                            out.evictions += 1;
                            evictions[victim as usize] += 1;
                            continue;
                        }
                        // Only a zero-slot budget has no victim; counted
                        // rather than panicking.
                        out.violations += 1;
                    } else {
                        out.violations += 1;
                        if findings.len() < FINDINGS_CAP {
                            findings.push(AuditFinding::CapacityViolation {
                                server: s,
                                at: key_time(ev.time),
                                occupancy: res.len() + 1,
                                capacity: budget.cap,
                            });
                        }
                    }
                }
                res.insert(ev.last_touch, ev.item);
                *peak = (*peak).max(res.len());
            }
            out.peak = out.peak.max(*peak);
            res.clear();
        }
        out
    }
}

/// A sweeper after the first: its lane plus the eviction column and
/// findings it fills, merged into the caller's after the join.
#[derive(Default)]
struct Sweeper {
    lane: Lane,
    evictions: Vec<u32>,
    findings: Vec<AuditFinding>,
}

/// Reusable sweep storage: the first sweeper's lane, the other
/// sweepers, and the per-server peaks. Warm reuse on one thread
/// allocates nothing.
#[derive(Default)]
pub(crate) struct CapacityScratch {
    lead: Lane,
    others: Vec<Sweeper>,
    peaks: Vec<usize>,
}

/// The sweep's aggregate outcome (per-item eviction counts land in the
/// `evictions` column, typed findings in `findings`).
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub(crate) struct CapacityOutcome {
    pub evictions: u64,
    pub eviction_cost: f64,
    pub violations: u64,
    pub peak: usize,
    pub events: u64,
}

impl CapacityOutcome {
    fn merge(&mut self, other: CapacityOutcome) {
        self.evictions += other.evictions;
        self.violations += other.violations;
        self.peak = self.peak.max(other.peak);
        self.events += other.events;
    }
}

/// Replays every worker's harvest against per-server budgets of `cap`
/// slots on up to `threads` sweepers. `harvest` must hold exactly the
/// workers that ran this call, each reset to `spec.servers` lists;
/// `evictions_col` is the zeroed per-item eviction column.
#[allow(clippy::too_many_arguments)]
pub(crate) fn capacity_sweep(
    spec: &FleetSpec,
    cap: usize,
    threads: usize,
    harvest: &[ServerBuckets],
    scratch: &mut CapacityScratch,
    evictions_col: &mut [u32],
    findings: &mut Vec<AuditFinding>,
    sink: &dyn Sink,
) -> CapacityOutcome {
    let m = spec.servers;
    let items = evictions_col.len();
    let lru_price = match spec.eviction {
        EvictionPolicy::Lru { price } => Some(price),
        EvictionPolicy::None => None,
    };
    let budget = Budget {
        cap,
        lru: lru_price.is_some(),
    };
    let sweepers = threads.clamp(1, m.max(1));
    // Sweeper `k` owns servers `bound(k) .. bound(k + 1)`.
    let bound = |k: usize| k * m / sweepers;
    scratch.peaks.clear();
    scratch.peaks.resize(m, 0);
    scratch.lead.residents.reset(items);
    let (lead_peaks, mut rest) = scratch.peaks.split_at_mut(bound(1));
    let mut outcome;
    if sweepers == 1 {
        outcome = scratch
            .lead
            .sweep(harvest, 0, budget, evictions_col, findings, lead_peaks);
    } else {
        if scratch.others.len() < sweepers - 1 {
            scratch.others.resize_with(sweepers - 1, Sweeper::default);
        }
        let others = &mut scratch.others[..sweepers - 1];
        let lead = &mut scratch.lead;
        outcome = thread::scope(|scope| {
            let mut handles = Vec::with_capacity(sweepers - 1);
            for (k, sw) in (1..).zip(others.iter_mut()) {
                let (peaks, tail) = rest.split_at_mut(bound(k + 1) - bound(k));
                rest = tail;
                handles.push(scope.spawn(move || {
                    sw.evictions.clear();
                    sw.evictions.resize(items, 0);
                    sw.findings.clear();
                    sw.lane.residents.reset(items);
                    sw.lane.sweep(
                        harvest,
                        bound(k),
                        budget,
                        &mut sw.evictions,
                        &mut sw.findings,
                        peaks,
                    )
                }));
            }
            let mut outcome = lead.sweep(harvest, 0, budget, evictions_col, findings, lead_peaks);
            for h in handles {
                match h.join() {
                    Ok(o) => outcome.merge(o),
                    Err(payload) => panic::resume_unwind(payload),
                }
            }
            outcome
        });
        for sw in others.iter() {
            for (e, &x) in evictions_col.iter_mut().zip(&sw.evictions) {
                *e += x;
            }
            findings.extend_from_slice(&sw.findings);
        }
        findings.truncate(FINDINGS_CAP);
    }
    outcome.eviction_cost = outcome.evictions as f64 * lru_price.unwrap_or(0.0);

    for &p in &scratch.peaks {
        sink.observe(Hist::FleetServerOccupancyPeak, p as u64);
    }
    sink.add(Counter::FleetCapacityEvents, outcome.events);
    sink.add(Counter::FleetEvictions, outcome.evictions);
    sink.add_cost(Counter::FleetEvictionCostMicros, outcome.eviction_cost);
    sink.add(Counter::FleetCapacityViolations, outcome.violations);
    sink.gauge_max(Gauge::FleetCapacitySlots, cap as u64);
    sink.gauge_max(Gauge::FleetOccupancyPeak, outcome.peak as u64);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The sweep this module's per-server design replaced, kept as the
    /// differential oracle: one global sort of every event by
    /// `(server, time, kind, item)`, then a replay with a lazy heap of
    /// every start ever pushed on the server, whose stale entries are
    /// skipped through per-`(item, server)` generation counters.
    mod oracle {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        use super::super::{CapacityOutcome, FINDINGS_CAP, KIND_END};
        use mcc_simnet::AuditFinding;

        /// One residency boundary with its server spelled out.
        #[derive(Copy, Clone, Debug)]
        pub struct CopyEvent {
            pub time: f64,
            pub last_touch: f64,
            pub item: u32,
            pub server: u32,
            pub kind: u8,
        }

        /// `lru_price` is `None` for [`crate::EvictionPolicy::None`].
        pub fn capacity_sweep(
            servers: usize,
            cap: usize,
            lru_price: Option<f64>,
            items: usize,
            mut events: Vec<CopyEvent>,
        ) -> (CapacityOutcome, Vec<u32>, Vec<AuditFinding>) {
            let m = servers;
            let mut evictions_col = vec![0u32; items];
            let mut findings = Vec::new();
            events.sort_unstable_by(|a, b| {
                a.server
                    .cmp(&b.server)
                    .then_with(|| a.time.total_cmp(&b.time))
                    .then(a.kind.cmp(&b.kind))
                    .then(a.item.cmp(&b.item))
            });
            let mut gens = vec![0u32; items * m];
            let mut occ = vec![0usize; m];
            let mut peaks = vec![0usize; m];
            let mut heap: BinaryHeap<Reverse<(u64, u32, u32)>> = BinaryHeap::new();
            let mut evictions = 0u64;
            let mut violations = 0u64;
            let mut cur_server = u32::MAX;
            for ev in &events {
                if ev.server != cur_server {
                    cur_server = ev.server;
                    heap.clear();
                }
                let s = ev.server as usize;
                let idx = ev.item as usize * m + s;
                if ev.kind == KIND_END {
                    if gens[idx] % 2 == 1 {
                        gens[idx] += 1;
                        occ[s] -= 1;
                    }
                    continue;
                }
                if occ[s] >= cap {
                    match lru_price {
                        Some(_) => {
                            let mut evicted = false;
                            while let Some(Reverse((_, vitem, vgen))) = heap.pop() {
                                let vidx = vitem as usize * m + s;
                                if gens[vidx] == vgen {
                                    gens[vidx] += 1;
                                    occ[s] -= 1;
                                    evictions += 1;
                                    evictions_col[vitem as usize] += 1;
                                    evicted = true;
                                    break;
                                }
                            }
                            if !evicted {
                                violations += 1;
                            }
                        }
                        None => {
                            violations += 1;
                            if findings.len() < FINDINGS_CAP {
                                findings.push(AuditFinding::CapacityViolation {
                                    server: s,
                                    at: ev.time,
                                    occupancy: occ[s] + 1,
                                    capacity: cap,
                                });
                            }
                        }
                    }
                }
                gens[idx] += 1;
                assert!(gens[idx] % 2 == 1, "start on an open interval");
                occ[s] += 1;
                peaks[s] = peaks[s].max(occ[s]);
                if lru_price.is_some() {
                    heap.push(Reverse((ev.last_touch.to_bits(), ev.item, gens[idx])));
                }
            }
            let outcome = CapacityOutcome {
                evictions,
                eviction_cost: evictions as f64 * lru_price.unwrap_or(0.0),
                violations,
                peak: peaks.iter().copied().max().unwrap_or(0),
                events: events.len() as u64,
            };
            (outcome, evictions_col, findings)
        }
    }

    use oracle::CopyEvent as Event;

    fn iv(item: u32, server: u32, from: f64, last_touch: f64, to: f64) -> [Event; 2] {
        [
            Event {
                time: from,
                last_touch,
                item,
                server,
                kind: KIND_START,
            },
            Event {
                time: to,
                last_touch,
                item,
                server,
                kind: KIND_END,
            },
        ]
    }

    /// Runs the sweep over `events` dealt round-robin to `workers`
    /// harvests, on `threads` sweepers.
    fn run(
        spec: &FleetSpec,
        items: usize,
        events: &[Event],
        workers: usize,
        threads: usize,
    ) -> (CapacityOutcome, Vec<u32>, Vec<AuditFinding>) {
        let mut harvest: Vec<ServerBuckets> = (0..workers).map(|_| Default::default()).collect();
        for h in &mut harvest {
            h.reset(spec.servers);
        }
        for (i, ev) in events.iter().enumerate() {
            harvest[i % workers].lists[ev.server as usize].push(CopyEvent {
                time: time_key(ev.time),
                last_touch: ev.last_touch.to_bits(),
                item: ev.item,
                kind: ev.kind,
            });
        }
        let mut col = vec![0u32; items];
        let mut findings = Vec::new();
        let out = capacity_sweep(
            spec,
            spec.capacity.unwrap_or(1),
            threads,
            &harvest,
            &mut CapacityScratch::default(),
            &mut col,
            &mut findings,
            mcc_obs::noop(),
        );
        (out, col, findings)
    }

    fn lru_price(spec: &FleetSpec) -> Option<f64> {
        match spec.eviction {
            EvictionPolicy::Lru { price } => Some(price),
            EvictionPolicy::None => None,
        }
    }

    /// The sweep on one thread, checked against the oracle.
    fn sweep(
        eviction: EvictionPolicy,
        cap: usize,
        items: usize,
        events: Vec<Event>,
    ) -> (CapacityOutcome, Vec<u32>, Vec<AuditFinding>) {
        let spec = FleetSpec {
            servers: 2,
            capacity: Some(cap),
            eviction,
            ..FleetSpec::default()
        };
        let got = run(&spec, items, &events, 1, 1);
        let want = oracle::capacity_sweep(2, cap, lru_price(&spec), items, events);
        assert_eq!(got, want, "sweep diverged from the oracle");
        got
    }

    #[test]
    fn time_keys_follow_total_order() {
        let ts = [
            f64::NEG_INFINITY,
            -3.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.5,
            f64::MAX,
            f64::INFINITY,
        ];
        for a in ts {
            assert_eq!(key_time(time_key(a)).to_bits(), a.to_bits());
            for b in ts {
                assert_eq!(time_key(a).cmp(&time_key(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn under_capacity_timeline_is_untouched() {
        let mut events = Vec::new();
        events.extend(iv(0, 0, 0.0, 4.0, 5.0));
        events.extend(iv(1, 0, 1.0, 2.0, 3.0));
        let (out, col, findings) = sweep(EvictionPolicy::Lru { price: 2.0 }, 2, 2, events);
        assert_eq!(out.evictions, 0);
        assert_eq!(out.eviction_cost, 0.0);
        assert_eq!(out.violations, 0);
        assert_eq!(out.peak, 2);
        assert_eq!(out.events, 4);
        assert!(col.iter().all(|&c| c == 0));
        assert!(findings.is_empty());
    }

    #[test]
    fn lru_evicts_the_longest_unused_resident() {
        // Items 0 and 1 resident; 0's copy goes untouched after t=1,
        // 1's stays warm until t=9. Item 2 arriving at t=2 must evict 0.
        let mut events = Vec::new();
        events.extend(iv(0, 0, 0.0, 1.0, 10.0));
        events.extend(iv(1, 0, 0.0, 9.0, 10.0));
        events.extend(iv(2, 0, 2.0, 8.0, 10.0));
        let (out, col, findings) = sweep(EvictionPolicy::Lru { price: 0.5 }, 2, 3, events);
        assert_eq!(out.evictions, 1);
        assert_eq!(out.eviction_cost, 0.5);
        assert_eq!(out.violations, 0);
        assert_eq!(out.peak, 2, "LRU keeps occupancy at the budget");
        assert_eq!(col, vec![1, 0, 0]);
        assert!(findings.is_empty());
        // The evicted interval's own end event must not underflow the
        // occupancy (the item is no longer resident, so the end is
        // skipped) — peak staying at 2 and evictions at 1 pin this.
    }

    #[test]
    fn disabled_eviction_reports_typed_violations() {
        let mut events = Vec::new();
        for item in 0..4u32 {
            events.extend(iv(item, 1, 0.0, 5.0, 10.0));
        }
        let (out, col, findings) = sweep(EvictionPolicy::None, 2, 4, events);
        assert_eq!(out.evictions, 0);
        assert_eq!(out.violations, 2, "items 2 and 3 overflow");
        assert_eq!(out.peak, 4, "over-capacity admissions still tracked");
        assert!(col.iter().all(|&c| c == 0));
        assert_eq!(findings.len(), 2);
        match &findings[0] {
            AuditFinding::CapacityViolation {
                server,
                occupancy,
                capacity,
                ..
            } => {
                assert_eq!(*server, 1);
                assert_eq!(*occupancy, 3);
                assert_eq!(*capacity, 2);
            }
            other => panic!("expected a capacity violation, got {other:?}"),
        }
    }

    #[test]
    fn reopened_items_use_fresh_generations() {
        // Item 0 is evicted, its first interval's end is skipped, and a
        // later interval of the same item must open and close cleanly.
        let mut events = Vec::new();
        events.extend(iv(0, 0, 0.0, 0.5, 4.0));
        events.extend(iv(1, 0, 1.0, 9.0, 10.0));
        events.extend(iv(2, 0, 2.0, 8.0, 10.0)); // evicts item 0 (cap 2)
        events.extend(iv(0, 0, 6.0, 7.0, 8.0)); // item 0 returns
        let (out, col, _) = sweep(EvictionPolicy::Lru { price: 1.0 }, 2, 3, events);
        assert_eq!(out.evictions, 2, "item 0's return evicts the next-LRU");
        assert_eq!(col[0], 1);
        assert_eq!(out.peak, 2);
    }

    #[test]
    fn event_order_in_the_input_does_not_matter() {
        let mut a = Vec::new();
        a.extend(iv(0, 0, 0.0, 1.0, 10.0));
        a.extend(iv(1, 0, 0.0, 9.0, 10.0));
        a.extend(iv(2, 0, 2.0, 8.0, 10.0));
        let mut b = a.clone();
        b.reverse();
        let ra = sweep(EvictionPolicy::Lru { price: 1.0 }, 2, 3, a);
        let rb = sweep(EvictionPolicy::Lru { price: 1.0 }, 2, 3, b);
        assert_eq!(ra.0, rb.0);
        assert_eq!(ra.1, rb.1);
    }

    #[test]
    fn back_to_back_intervals_free_the_slot_first() {
        // Item 0 ends at exactly t=5; item 1 starts at t=5 on a cap-1
        // server: the end sorts first, so no pressure.
        let mut events = Vec::new();
        events.extend(iv(0, 0, 0.0, 4.0, 5.0));
        events.extend(iv(1, 0, 5.0, 9.0, 10.0));
        let (out, _, findings) = sweep(EvictionPolicy::None, 1, 2, events);
        assert_eq!(out.violations, 0);
        assert_eq!(out.peak, 1);
        assert!(findings.is_empty());
    }

    /// A random interval set on a half-unit time grid (so starts, ends
    /// and last touches tie often): per `(item, server)` a chain of up
    /// to three non-overlapping intervals, each separated from the last
    /// by a gap of 0 (back to back) to 1.5 time units.
    fn random_intervals() -> impl Strategy<Value = (usize, usize, Vec<Event>)> {
        (1usize..=16, 1usize..=3).prop_flat_map(|(items, servers)| {
            let chain = (0usize..=3)
                .prop_flat_map(|len| proptest::collection::vec((0u8..4, 1u8..5, 0u8..5), len));
            proptest::collection::vec(chain, items * servers).prop_map(move |chains| {
                let mut events = Vec::new();
                for (slot, chain) in chains.into_iter().enumerate() {
                    let (item, server) = ((slot / servers) as u32, (slot % servers) as u32);
                    let mut t = 0.0;
                    for (gap, len, touch) in chain {
                        let from = t + f64::from(gap) * 0.5;
                        let to = from + f64::from(len) * 0.5;
                        let last_touch = from + f64::from(touch.min(len)) * 0.5;
                        events.extend(iv(item, server, from, last_touch, to));
                        t = to;
                    }
                }
                (items, servers, events)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn per_server_sweep_matches_the_global_sort_oracle(
            (items, servers, events) in random_intervals(),
            cap in 1usize..=6,
            lru in prop_oneof![Just(true), Just(false)],
            workers in 1usize..=3,
            threads in 1usize..=4,
        ) {
            let spec = FleetSpec {
                servers,
                capacity: Some(cap),
                eviction: if lru {
                    EvictionPolicy::Lru { price: 0.25 }
                } else {
                    EvictionPolicy::None
                },
                ..FleetSpec::default()
            };
            let want = oracle::capacity_sweep(servers, cap, lru_price(&spec), items, events.clone());
            let got = run(&spec, items, &events, workers, threads);
            prop_assert_eq!(got.0, want.0, "outcome");
            prop_assert_eq!(got.1, want.1, "per-item evictions");
            prop_assert_eq!(got.2, want.2, "findings");
        }

        #[test]
        fn residents_track_a_sorted_set_model(
            ops in proptest::collection::vec((0u8..3, 0u32..24, 0u64..6), 200),
        ) {
            let mut res = Residents::default();
            res.reset(24);
            let mut model = std::collections::BTreeSet::new();
            let mut touch_of = [None; 24];
            for (op, item, touch) in ops {
                let open = touch_of[item as usize];
                match (op, open) {
                    (0, None) => {
                        res.insert(touch, item);
                        model.insert((touch, item));
                        touch_of[item as usize] = Some(touch);
                    }
                    (1, Some(t)) => {
                        res.remove(item);
                        model.remove(&(t, item));
                        touch_of[item as usize] = None;
                    }
                    (1, None) => res.remove(item),
                    (2, None) => {
                        let victim = model.pop_first().map(|(_, v)| v);
                        prop_assert_eq!(res.replace_min(touch, item), victim);
                        if let Some(v) = victim {
                            touch_of[v as usize] = None;
                            model.insert((touch, item));
                            touch_of[item as usize] = Some(touch);
                        }
                    }
                    _ => {}
                }
                prop_assert_eq!(res.len(), model.len());
                prop_assert_eq!(res.heap.first(), model.first());
                for (i, &(_, member)) in res.heap.iter().enumerate() {
                    prop_assert_eq!(res.pos[member as usize] as usize, i);
                }
            }
        }
    }
}
