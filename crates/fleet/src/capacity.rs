//! Phase 2: the per-server capacity/eviction sweep.
//!
//! Phase 1 harvests every item's copy-residency intervals (borrowed out
//! of the run records through [`mcc_simnet::RunRequest::run_units_observed`],
//! never recomputed), each stored once as a 32-byte [`Residency`], into
//! one unsorted list per server per worker ([`ServerBuckets`]). Servers
//! never share a slot, so each server's timeline is swept on its own, by
//! the sweeper that owns it: it sorts each worker's list of the server by
//! `(from, item)` in place, merges the workers' sorted runs into one
//! start order (shards are contiguous, ascending item ranges, so this is
//! the order one global sort would give), and gathers the server's ends
//! into a reused lane of 16-byte `(to, item)` pairs sorted by `to`. The
//! sort runs inside the sweep, so the fleet's capacity span times it.
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
//! The replay holds only the server's *current* residents, in a
//! [`KeyedHeap`] keyed by `(last_touch bits, item)`. Before each start
//! it removes every resident whose end is at or before that start, so an
//! interval ending exactly when another starts frees its slot first (an
//! interval an eviction already closed is simply absent); a start on a
//! full server then replaces the minimum. The order among equal ends
//! cannot be observed: removals commute on the resident set, and items
//! are unique among one server's residents, so the victim — the unique
//! `(last_touch, item)` minimum — is a pure function of that set.
//! Capacity events still count two per interval, a start and an end.
//!
//! Determinism: servers are dealt in contiguous ranges to
//! `min(threads, servers)` sweepers, and no server's outcome depends on
//! another's. Per-item eviction counts are summed, findings are
//! concatenated in server order and capped, and per-server peaks are
//! reported in server order, so the thread count cannot change a bit.

use std::panic;
use std::thread;

use mcc_core::keyed_heap::{key_time, time_key, KeyedHeap};
use mcc_obs::{Counter, Gauge, Hist, Sink};
use mcc_simnet::AuditFinding;

use crate::spec::{EvictionPolicy, FleetSpec};

/// One copy residency: `item` holds a copy on the server whose list
/// holds this interval from `from` to `to` ([`time_key`]s), last touched
/// at `last_touch` (raw bits, the LRU key).
#[derive(Copy, Clone, Debug)]
struct Residency {
    from: u64,
    to: u64,
    last_touch: u64,
    item: u32,
}

impl Residency {
    /// The order starts are replayed in; unique within one server, since
    /// one item's intervals there never overlap.
    fn start_order(&self) -> (u64, u32) {
        (self.from, self.item)
    }
}

/// One worker's harvest: the residency intervals of its shard, one list
/// per server, in the order the worker produced them (the sweep sorts
/// each list in place). Warm reuse keeps every list's capacity.
#[derive(Default)]
pub(crate) struct ServerBuckets {
    lists: Vec<Vec<Residency>>,
}

impl AsMut<[Vec<Residency>]> for ServerBuckets {
    fn as_mut(&mut self) -> &mut [Vec<Residency>] {
        &mut self.lists
    }
}

impl ServerBuckets {
    /// Empties every list and sizes the harvest to `servers` lists.
    pub(crate) fn reset(&mut self, servers: usize) {
        self.lists.resize_with(servers, Vec::new);
        for list in &mut self.lists {
            list.clear();
        }
    }

    /// Files one residency interval of `item` on `server`, open from
    /// `from` to `to`. Intervals of one item on one server must not
    /// overlap and must have positive length.
    pub(crate) fn push(&mut self, item: u32, server: usize, from: f64, last_touch: f64, to: f64) {
        self.lists[server].push(Residency {
            from: time_key(from),
            to: time_key(to),
            last_touch: last_touch.to_bits(),
            item,
        });
    }
}

/// At most this many typed capacity-violation findings are materialized
/// per run (the full count is always in the summary; the findings are
/// samples for reports, not the ledger).
const FINDINGS_CAP: usize = 16;

/// The per-server budget: `cap` slots, LRU eviction or none.
#[derive(Copy, Clone)]
struct Budget {
    cap: usize,
    lru: bool,
}

/// One sweeper's replay storage: the ends of the server at hand, a
/// cursor into every worker's starts there, and its residents.
#[derive(Default)]
struct Lane {
    /// `(to, item)` per interval on the server at hand, sorted by `to`.
    ends: Vec<(u64, u32)>,
    /// Per worker, the index of its next start on the server at hand.
    heads: Vec<usize>,
    /// The current residents, keyed by `(last_touch bits, item)`.
    residents: KeyedHeap,
}

impl Lane {
    /// Sweeps servers `first .. first + peaks.len()` in order, writing
    /// each server's occupancy peak into `peaks`. `runs` holds, per
    /// worker, the lists of exactly those servers; each is sorted into
    /// start order in place before its server is replayed. The returned
    /// outcome carries no eviction cost (the caller prices the total).
    fn sweep<L: AsMut<[Vec<Residency>]>>(
        &mut self,
        runs: &mut [L],
        first: usize,
        budget: Budget,
        evictions: &mut [u32],
        findings: &mut Vec<AuditFinding>,
        peaks: &mut [usize],
    ) -> CapacityOutcome {
        let mut out = CapacityOutcome::default();
        for (i, peak) in peaks.iter_mut().enumerate() {
            let s = first + i;
            self.ends.clear();
            for worker in runs.iter_mut() {
                let list = &mut worker.as_mut()[i];
                list.sort_unstable_by_key(Residency::start_order);
                self.ends.extend(list.iter().map(|r| (r.to, r.item)));
            }
            // Equal ends may land in any order: removals commute.
            self.ends.sort_unstable_by_key(|&(to, _)| to);
            out.events += 2 * self.ends.len() as u64;
            self.heads.clear();
            self.heads.resize(runs.len(), 0);
            let mut ends = self.ends.iter().peekable();
            let res = &mut self.residents;
            while let Some(r) = next_start(runs, i, &mut self.heads) {
                // Every copy closed by this start frees its slot first;
                // an interval an eviction already closed is absent.
                while let Some(&(_, item)) = ends.next_if(|&&(to, _)| to <= r.from) {
                    res.remove(item);
                }
                debug_assert!(!res.contains(r.item), "start on an open interval");
                if res.len() >= budget.cap {
                    if budget.lru {
                        if let Some(victim) = res.replace_min(r.last_touch, r.item) {
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
                                at: key_time(r.from),
                                occupancy: res.len() + 1,
                                capacity: budget.cap,
                            });
                        }
                    }
                }
                res.set(r.last_touch, r.item);
                *peak = (*peak).max(res.len());
            }
            out.peak = out.peak.max(*peak);
            res.clear();
        }
        out
    }
}

/// Takes the least `(from, item)` start in list `i` among the workers'
/// sorted runs, advancing that worker's cursor in `heads`.
fn next_start<L: AsMut<[Vec<Residency>]>>(
    runs: &mut [L],
    i: usize,
    heads: &mut [usize],
) -> Option<Residency> {
    let mut best: Option<(usize, Residency)> = None;
    for (w, (worker, &h)) in runs.iter_mut().zip(heads.iter()).enumerate() {
        if let Some(&r) = worker.as_mut()[i].get(h) {
            if best.is_none_or(|(_, b)| r.start_order() < b.start_order()) {
                best = Some((w, r));
            }
        }
    }
    let (w, r) = best?;
    heads[w] += 1;
    Some(r)
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
/// slots on up to `threads` sweepers, each sorting the workers' lists of
/// its own servers in place first. `harvest` must hold exactly the
/// workers that ran this call, each reset to `spec.servers` lists;
/// `evictions_col` is the zeroed per-item eviction column.
#[allow(clippy::too_many_arguments)]
pub(crate) fn capacity_sweep(
    spec: &FleetSpec,
    cap: usize,
    threads: usize,
    harvest: &mut [ServerBuckets],
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
        // Sweeper `k`'s share: every worker's lists of its servers.
        let mut shares: Vec<Vec<&mut [Vec<Residency>]>> = (0..sweepers)
            .map(|_| Vec::with_capacity(harvest.len()))
            .collect();
        for worker in harvest.iter_mut() {
            let mut lists = &mut worker.lists[..];
            for (k, share) in shares.iter_mut().enumerate() {
                let (own, tail) = std::mem::take(&mut lists).split_at_mut(bound(k + 1) - bound(k));
                share.push(own);
                lists = tail;
            }
        }
        let mut shares = shares.into_iter();
        let mut lead_share = shares.next().unwrap_or_default();
        let others = &mut scratch.others[..sweepers - 1];
        let lead = &mut scratch.lead;
        outcome = thread::scope(|scope| {
            let mut handles = Vec::with_capacity(sweepers - 1);
            for ((k, sw), mut share) in (1..).zip(others.iter_mut()).zip(shares) {
                let (peaks, tail) = rest.split_at_mut(bound(k + 1) - bound(k));
                rest = tail;
                handles.push(scope.spawn(move || {
                    sw.evictions.clear();
                    sw.evictions.resize(items, 0);
                    sw.findings.clear();
                    sw.lane.residents.reset(items);
                    sw.lane.sweep(
                        &mut share,
                        bound(k),
                        budget,
                        &mut sw.evictions,
                        &mut sw.findings,
                        peaks,
                    )
                }));
            }
            let mut outcome = lead.sweep(
                &mut lead_share,
                0,
                budget,
                evictions_col,
                findings,
                lead_peaks,
            );
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
    // Every harvested interval, plus the largest ends lane a sweeper held.
    let lane = (0..m)
        .map(|s| harvest.iter().map(|w| w.lists[s].len()).sum::<usize>())
        .max()
        .unwrap_or(0);
    let harvest_bytes = outcome.events / 2 * std::mem::size_of::<Residency>() as u64
        + (lane * std::mem::size_of::<(u64, u32)>()) as u64;
    sink.gauge_max(Gauge::FleetCapacityHarvestBytes, harvest_bytes);
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

    /// One residency interval with its server spelled out.
    #[derive(Copy, Clone, Debug)]
    struct Interval {
        item: u32,
        server: u32,
        from: f64,
        last_touch: f64,
        to: f64,
    }

    fn iv(item: u32, server: u32, from: f64, last_touch: f64, to: f64) -> Interval {
        Interval {
            item,
            server,
            from,
            last_touch,
            to,
        }
    }

    /// The sweep this module's design replaced, kept as the differential
    /// oracle: every interval becomes a start and an end event, one
    /// global sort orders all events by `(server, time, kind, item)` with
    /// ends before starts at equal times, and a replay keeps a lazy heap
    /// of every start ever pushed on the server, whose stale entries are
    /// skipped through per-`(item, server)` generation counters.
    mod oracle {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        use super::super::{CapacityOutcome, FINDINGS_CAP};
        use super::Interval;
        use mcc_simnet::AuditFinding;

        const KIND_END: u8 = 0;
        const KIND_START: u8 = 1;

        /// One residency boundary with its server spelled out.
        #[derive(Copy, Clone, Debug)]
        struct CopyEvent {
            time: f64,
            last_touch: f64,
            item: u32,
            server: u32,
            kind: u8,
        }

        /// `lru_price` is `None` for [`crate::EvictionPolicy::None`].
        pub fn capacity_sweep(
            servers: usize,
            cap: usize,
            lru_price: Option<f64>,
            items: usize,
            intervals: &[Interval],
        ) -> (CapacityOutcome, Vec<u32>, Vec<AuditFinding>) {
            let m = servers;
            let mut evictions_col = vec![0u32; items];
            let mut findings = Vec::new();
            let mut events: Vec<CopyEvent> = intervals
                .iter()
                .flat_map(|i| {
                    [(i.from, KIND_START), (i.to, KIND_END)].map(|(time, kind)| CopyEvent {
                        time,
                        last_touch: i.last_touch,
                        item: i.item,
                        server: i.server,
                        kind,
                    })
                })
                .collect();
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

    /// Runs the sweep on `threads` sweepers over one harvest per worker,
    /// as the fleet builds them: `cuts` split the items into contiguous
    /// ascending shards (one per worker, some possibly empty), and each
    /// worker's lists keep the input's order, unsorted — the sweep sorts
    /// them.
    fn run(
        spec: &FleetSpec,
        items: usize,
        intervals: &[Interval],
        cuts: &[usize],
        threads: usize,
    ) -> (CapacityOutcome, Vec<u32>, Vec<AuditFinding>) {
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(items)).collect();
        bounds.sort_unstable();
        bounds.push(items);
        let mut harvest: Vec<ServerBuckets> = bounds.iter().map(|_| Default::default()).collect();
        for h in &mut harvest {
            h.reset(spec.servers);
        }
        for i in intervals {
            let worker = bounds.partition_point(|&b| b <= i.item as usize);
            harvest[worker].push(i.item, i.server as usize, i.from, i.last_touch, i.to);
        }
        let mut col = vec![0u32; items];
        let mut findings = Vec::new();
        let out = capacity_sweep(
            spec,
            spec.capacity.unwrap_or(1),
            threads,
            &mut harvest,
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

    /// The sweep of one worker's harvest on one thread, checked against
    /// the oracle.
    fn sweep(
        eviction: EvictionPolicy,
        cap: usize,
        items: usize,
        intervals: &[Interval],
    ) -> (CapacityOutcome, Vec<u32>, Vec<AuditFinding>) {
        let spec = FleetSpec {
            servers: 2,
            capacity: Some(cap),
            eviction,
            ..FleetSpec::default()
        };
        let got = run(&spec, items, intervals, &[], 1);
        let want = oracle::capacity_sweep(2, cap, lru_price(&spec), items, intervals);
        assert_eq!(got, want, "sweep diverged from the oracle");
        got
    }

    #[test]
    fn intervals_and_ends_are_compact() {
        assert_eq!(std::mem::size_of::<Residency>(), 32);
        assert_eq!(std::mem::size_of::<(u64, u32)>(), 16);
    }

    #[test]
    fn under_capacity_timeline_is_untouched() {
        let intervals = [iv(0, 0, 0.0, 4.0, 5.0), iv(1, 0, 1.0, 2.0, 3.0)];
        let (out, col, findings) = sweep(EvictionPolicy::Lru { price: 2.0 }, 2, 2, &intervals);
        assert_eq!(out.evictions, 0);
        assert_eq!(out.eviction_cost, 0.0);
        assert_eq!(out.violations, 0);
        assert_eq!(out.peak, 2);
        assert_eq!(out.events, 4, "a start and an end per interval");
        assert!(col.iter().all(|&c| c == 0));
        assert!(findings.is_empty());
    }

    #[test]
    fn lru_evicts_the_longest_unused_resident() {
        // Items 0 and 1 resident; 0's copy goes untouched after t=1,
        // 1's stays warm until t=9. Item 2 arriving at t=2 must evict 0.
        let intervals = [
            iv(0, 0, 0.0, 1.0, 10.0),
            iv(1, 0, 0.0, 9.0, 10.0),
            iv(2, 0, 2.0, 8.0, 10.0),
        ];
        let (out, col, findings) = sweep(EvictionPolicy::Lru { price: 0.5 }, 2, 3, &intervals);
        assert_eq!(out.evictions, 1);
        assert_eq!(out.eviction_cost, 0.5);
        assert_eq!(out.violations, 0);
        assert_eq!(out.peak, 2, "LRU keeps occupancy at the budget");
        assert_eq!(col, vec![1, 0, 0]);
        assert!(findings.is_empty());
        // The evicted interval's own end must not underflow the
        // occupancy (the item is no longer resident, so the end is
        // skipped) — peak staying at 2 and evictions at 1 pin this.
    }

    #[test]
    fn disabled_eviction_reports_typed_violations() {
        let intervals: Vec<Interval> = (0..4u32).map(|item| iv(item, 1, 0.0, 5.0, 10.0)).collect();
        let (out, col, findings) = sweep(EvictionPolicy::None, 2, 4, &intervals);
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
    fn evicted_items_reopen_cleanly() {
        // Item 0 is evicted, its first interval's end is skipped, and a
        // later interval of the same item must open and close cleanly.
        let intervals = [
            iv(0, 0, 0.0, 0.5, 4.0),
            iv(1, 0, 1.0, 9.0, 10.0),
            iv(2, 0, 2.0, 8.0, 10.0), // evicts item 0 (cap 2)
            iv(0, 0, 6.0, 7.0, 8.0),  // item 0 returns
        ];
        let (out, col, _) = sweep(EvictionPolicy::Lru { price: 1.0 }, 2, 3, &intervals);
        assert_eq!(out.evictions, 2, "item 0's return evicts the next-LRU");
        assert_eq!(col[0], 1);
        assert_eq!(out.peak, 2);
    }

    #[test]
    fn interval_order_in_the_input_does_not_matter() {
        let a = [
            iv(0, 0, 0.0, 1.0, 10.0),
            iv(1, 0, 0.0, 9.0, 10.0),
            iv(2, 0, 2.0, 8.0, 10.0),
        ];
        let mut b = a;
        b.reverse();
        let ra = sweep(EvictionPolicy::Lru { price: 1.0 }, 2, 3, &a);
        let rb = sweep(EvictionPolicy::Lru { price: 1.0 }, 2, 3, &b);
        assert_eq!(ra.0, rb.0);
        assert_eq!(ra.1, rb.1);
    }

    #[test]
    fn back_to_back_intervals_free_the_slot_first() {
        // Item 0 ends at exactly t=5; item 1 starts at t=5 on a cap-1
        // server: the end is removed first, so no pressure.
        let intervals = [iv(0, 0, 0.0, 4.0, 5.0), iv(1, 0, 5.0, 9.0, 10.0)];
        let (out, _, findings) = sweep(EvictionPolicy::None, 1, 2, &intervals);
        assert_eq!(out.violations, 0);
        assert_eq!(out.peak, 1);
        assert!(findings.is_empty());
    }

    #[test]
    fn equal_starts_across_workers_admit_the_lower_item_first() {
        // A full one-slot server: item 0 is resident when items 1 (worker
        // 0) and 2 (worker 1) both start at t=2. Item 1 must be admitted
        // first, evicting item 0, and then be evicted by item 2; the
        // other order would charge item 2's eviction instead.
        let spec = FleetSpec {
            servers: 1,
            capacity: Some(1),
            eviction: EvictionPolicy::Lru { price: 1.0 },
            ..FleetSpec::default()
        };
        let intervals = [
            iv(0, 0, 0.0, 0.5, 10.0),
            iv(2, 0, 2.0, 3.0, 10.0),
            iv(1, 0, 2.0, 3.0, 10.0),
        ];
        for threads in [1, 2] {
            let (out, col, _) = run(&spec, 3, &intervals, &[2], threads);
            assert_eq!(out.evictions, 2);
            assert_eq!(col, vec![1, 1, 0], "{threads} sweeper(s)");
        }
    }

    /// A random interval set on a half-unit time grid (so starts, ends
    /// and last touches tie often, within and across shards): per
    /// `(item, server)` a chain of up to three non-overlapping intervals,
    /// each separated from the last by a gap of 0 (back to back) to 1.5
    /// time units.
    fn random_intervals() -> impl Strategy<Value = (usize, usize, Vec<Interval>)> {
        (1usize..=16, 1usize..=3).prop_flat_map(|(items, servers)| {
            let chain = (0usize..=3)
                .prop_flat_map(|len| proptest::collection::vec((0u8..4, 1u8..5, 0u8..5), len));
            proptest::collection::vec(chain, items * servers).prop_map(move |chains| {
                let mut intervals = Vec::new();
                for (slot, chain) in chains.into_iter().enumerate() {
                    let (item, server) = ((slot / servers) as u32, (slot % servers) as u32);
                    let mut t = 0.0;
                    for (gap, len, touch) in chain {
                        let from = t + f64::from(gap) * 0.5;
                        let to = from + f64::from(len) * 0.5;
                        let last_touch = from + f64::from(touch.min(len)) * 0.5;
                        intervals.push(iv(item, server, from, last_touch, to));
                        t = to;
                    }
                }
                (items, servers, intervals)
            })
        })
    }

    /// `intervals` in a pseudo-random order drawn from `seed`
    /// (Fisher–Yates over an xorshift stream).
    fn shuffled(intervals: &[Interval], seed: u64) -> Vec<Interval> {
        let mut out = intervals.to_vec();
        let mut x = seed | 1;
        for i in (1..out.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            out.swap(i, (x % (i as u64 + 1)) as usize);
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn per_server_sweep_matches_the_global_sort_oracle(
            (items, servers, intervals) in random_intervals(),
            cap in 1usize..=6,
            lru in prop_oneof![Just(true), Just(false)],
            cuts in (0usize..=3).prop_flat_map(|n| proptest::collection::vec(0usize..=16, n)),
            threads in 1usize..=4,
            order in 0u64..u64::MAX,
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
            let want = oracle::capacity_sweep(servers, cap, lru_price(&spec), items, &intervals);
            // The workers' lists arrive in a random order: only the
            // sweep's own sort puts them in start order.
            let got = run(&spec, items, &shuffled(&intervals, order), &cuts, threads);
            prop_assert_eq!(got.0, want.0, "outcome");
            prop_assert_eq!(got.1, want.1, "per-item evictions");
            prop_assert_eq!(got.2, want.2, "findings");
        }
    }
}
