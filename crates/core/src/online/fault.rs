//! Fault model and the fault-tolerant policy wrapper.
//!
//! A [`FaultPlan`] is a deterministic description of everything that goes
//! wrong during one run: server crash/recovery windows (independent or
//! correlated bursts — the plan stores only the resulting windows),
//! network partitions (timed windows during which transfers between the
//! two sides are illegal), brownouts (a server stays up but its `μ`/`λ`
//! costs are multiplied by a degradation factor for a window), transfer
//! failures (each failed attempt pays a full `λ`, drawn against a per-run
//! retry budget with exponential backoff), and transfer delays. Plans are
//! plain data — the seed-driven generator lives in `mcc-simnet` — so the
//! same plan can degrade an online run and an off-line plan execution
//! identically.
//!
//! [`FaultTolerant`] wraps any [`OnlineDecider`] and makes it survive a
//! plan. The wrapped policy keeps issuing operations against what it
//! *believes* the copy state is; a [`CopyOps`] mediator interposes and
//! repairs each operation against reality:
//!
//! * a **crash** closes the server's live copy at the crash instant
//!   (copies do not survive an outage — cached state is volatile);
//! * a **touch on a crash-lost copy** becomes a failover transfer from the
//!   cheapest surviving replica on the requester's partition side (uniform
//!   `λ` makes every legal source equally cheap, so "cheapest" resolves to
//!   the most recently used live copy, whose speculative window has the
//!   longest remaining life);
//! * a **transfer from a crash-lost, down, or partition-severed source**
//!   fails over the source the same way;
//! * a **transfer onto a server that already holds a management replica**
//!   adopts the replica instead (a local serve, no `λ` paid);
//! * a **transfer onto a server that is currently down** degrades to a
//!   remote read: the copy serves the request instant and is dropped
//!   (`λ` paid, no caching accrues — the same shape `StayAtOrigin` uses);
//! * whenever a crash leaves a **single live copy** while more crashes are
//!   still to come, the wrapper re-replicates to the lowest-indexed up,
//!   reachable server (emergency re-replication, one `λ`); if no target is
//!   legal, the replication is pended and executed at the next recovery.
//!
//! # Degraded mode (total outage)
//!
//! There is no "at least one server is always up" invariant: a plan may
//! down every server at once (a zone outage, or any crash on an `m = 1`
//! cluster). When the last live copy is lost, the wrapper enters degraded
//! mode: requests are **deferred** into a bounded offline queue
//! ([`ServeAction::Deferred`]) — buffered up to [`FaultPlan::queue_cap`],
//! then **dropped with explicit accounting** — and **replayed at first
//! recovery** (one `λ` remote read each, [`FaultStats::replay_cost`]). At
//! the first recovery instant the wrapper **reseeds** a copy from durable
//! storage on the lowest-indexed up server ([`CopyOps::reseed`], one `λ`
//! in [`FaultStats::reseed_cost`]); an end-of-run queue is replayed in
//! [`OnlineDecider::on_finish`]. Requests that cannot reach any live copy
//! across an active partition defer the same way and replay when the
//! partition lifts. When a crash strands the sole copy with every up
//! server across a partition, the wrapper reseeds from durable storage on
//! the spot (durable reads need no transfer edge, so partitions cannot
//! block them) — `live == 0` therefore holds exactly during total
//! outages. The survival guarantee is: **no request is silently lost and
//! every cost is accounted** — `deferred == replayed + dropped` after
//! every run.
//!
//! # Retry budget and backoff
//!
//! Transfer failures never abort service: [`FaultPlan::draw_failures`]
//! prescribes how many attempts fail before one succeeds (deterministic
//! geometric draw), charged against a **per-run retry budget**. Each
//! failed attempt pays a full `λ` surcharge
//! ([`FaultStats::retry_cost`], *outside* the schedule — the schedule
//! records the successful attempt only, keeping it referee-valid) and
//! waits an exponentially growing, deterministically jittered backoff
//! ([`FaultStats::backoff_wait`], a latency metric like
//! [`FaultStats::total_delay`]). When the budget runs dry the transfer is
//! forced through degraded and the exhaustion is surfaced as a typed
//! count ([`FaultStats::budget_exhausted`]) instead of a panic-adjacent
//! dead end.
//!
//! With a trivial plan ([`FaultPlan::none`]) the wrapper is an exact
//! pass-through: every operation reaches the runtime unchanged, so
//! fault-free wrapped runs are bit-identical to unwrapped runs (asserted
//! by the property tests in `mcc-simnet`).
//!
//! # Plan layout and the event walk
//!
//! A plan keeps its crash windows by server only: the window list in
//! (server, onset) order, each server's windows coalesced into disjoint
//! ones, plus one offset per server ([`FaultPlan::server_windows`]). Each
//! server's onsets and recoveries are therefore strictly ascending runs,
//! and the plan builds no global crash order; [`FaultPlan::crashes`] lists
//! the windows by server.
//!
//! The wrapper applies crashes, recoveries and partition heals in one
//! order, keyed (instant, kind, server or heal position): by instant,
//! then recovery before heal before crash, so a pended replication or
//! queue drain can land on a server recovering exactly when another
//! crashes, then by server (or, for heals, position in the partitions'
//! by-heal index). It keeps a cursor per server's onsets and recoveries,
//! one over the heals, and a frontier key before which every event is
//! handled or passed. Most events change nothing, so each step takes the
//! least key past the frontier among the events that can act in the
//! current state: the crashes of servers holding a copy; recoveries only
//! during a total outage, with a queue to drain, or with a replication
//! pending on a sole copy; heals only with a queue to drain and a live
//! copy. The rest are passed by moving the frontier, which reaches the
//! same states as visiting every event. Two lazy min-heaps find the next
//! candidate in `O(log m)` however many servers hold a copy: one holds the
//! next onset of each server that opened a copy (an entry whose server
//! closed, or whose onset passed, is dropped or moved when it reaches the
//! top), the other each server's next recovery. The top of the first
//! bounds the next crash that can act, so a request with nothing due
//! returns after one compare.

// The chaos layer is reachable from user input (CLI fault knobs feed
// straight into plan expansion), so it carries the same no-panic bar as
// mcc-simnet / mcc-cli: CI greps for unwrap/expect and clippy enforces
// the lints below.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use mcc_model::{CostModel, Request, Scalar, ServerId};

use super::decider::{Decision, OnlineDecider, ServeAction};
use super::tracker::{CopyOps, CopyRecord, RunRecord, TransferRecord};

/// One server outage: the server is down over the half-open `[from, to)`.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CrashWindow {
    /// The crashing server.
    pub server: ServerId,
    /// Crash instant (inclusive).
    pub from: f64,
    /// Recovery instant (exclusive — the server is up again at `to`).
    pub to: f64,
}

/// One network partition: over the half-open `[from, to)` the cluster is
/// split in two sides and transfers between the sides are illegal.
///
/// Server `i`'s side is bit `i` of `mask` (servers with index ≥ 64 sit on
/// side 0). A mask that puts every server on one side partitions nothing.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PartitionWindow {
    /// Partition start (inclusive).
    pub from: f64,
    /// Heal instant (exclusive — transfers are legal again at `to`).
    pub to: f64,
    /// Side assignment: bit `i` is server `i`'s side.
    pub mask: u64,
}

impl PartitionWindow {
    /// Which side of this partition `server` sits on.
    #[inline]
    pub fn side(&self, server: ServerId) -> u64 {
        let i = server.index();
        if i < 64 {
            (self.mask >> i) & 1
        } else {
            0
        }
    }
}

/// One brownout: `server` stays up over the half-open `[from, to)` but its
/// costs are degraded by `factor > 1` (each unit of caching time costs
/// `factor·μ`; a transfer touching the server at a browned-out instant
/// costs `λ·factor`). The excess over the healthy cost is accounted as a
/// surcharge ([`brownout_surcharge`]), not rewritten into the schedule.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct BrownoutWindow {
    /// The degraded server.
    pub server: ServerId,
    /// Degradation start (inclusive).
    pub from: f64,
    /// Recovery instant (exclusive).
    pub to: f64,
    /// Cost multiplier (`> 1`; windows with `factor ≤ 1` are dropped).
    pub factor: f64,
}

/// Outcome of one transfer-failure draw against the per-run retry budget.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RetryDraw {
    /// Failed attempts actually charged (each pays `λ`), `≤ budget_left`.
    pub failures: u32,
    /// The draw wanted more retries than the budget had left: the transfer
    /// was forced through degraded.
    pub exhausted: bool,
}

/// A deterministic description of every fault in one run.
///
/// Plans carry no availability invariant: total outages (every server down
/// at once) are legal, and [`FaultTolerant`] degrades to a bounded offline
/// request queue instead of relying on a surviving server (see the module
/// docs). Unwrapped policies run against such plans produce schedules the
/// auditors flag rather than panics.
///
/// Crash windows are laid out by server (see the module docs): one
/// offset per server up to the highest crashing one, so a plan's storage
/// is linear in its windows plus that server index. Callers taking server
/// indexes from untrusted input bound them first.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Outages in (server, crash instant) order: each server's windows
    /// are one run, disjoint and strictly ascending (see
    /// `index_crashes`).
    crashes: Vec<CrashWindow>,
    /// Per-server offsets into `crashes`: server `s`'s run is
    /// `crash_start[s] .. crash_start[s + 1]`. Holds one entry per server
    /// up to the highest crashing one, plus one; empty when there are no
    /// windows.
    crash_start: Vec<u32>,
    /// The latest crash instant (`-inf` without windows).
    last_crash: f64,
    /// Partitions, sorted by start instant.
    partitions: Vec<PartitionWindow>,
    /// `partition_reach[i]`: the latest heal among `partitions[..=i]`.
    partition_reach: Vec<f64>,
    /// Positions into `partitions` sorted by heal instant.
    partition_by_end: Vec<u32>,
    /// Brownouts, sorted by start instant.
    brownouts: Vec<BrownoutWindow>,
    /// `brownout_reach[i]`: the latest recovery among `brownouts[..=i]`.
    brownout_reach: Vec<f64>,
    /// Seed for the deterministic transfer-failure/delay/backoff draws.
    fail_seed: u64,
    /// Per-attempt transfer failure probability in `[0, 1)`.
    fail_prob: f64,
    /// Per-run budget of failed transfer attempts.
    retry_budget: u32,
    /// First-retry backoff wait; doubles per attempt. `0` disables.
    backoff_base: f64,
    /// Mean transfer delay (exponential); `0` disables delays.
    mean_delay: f64,
    /// Degraded-mode queue bound: deferrals past it are dropped.
    queue_cap: u32,
    /// Correlated burst events the generator expanded into `crashes`
    /// (metadata for reporting; the windows themselves are ordinary).
    bursts: u32,
}

fn valid_window(from: f64, to: f64) -> bool {
    from.is_finite() && to.is_finite() && from >= 0.0 && to > from
}

fn clamp_prob(p: f64) -> f64 {
    if p.is_finite() {
        p.clamp(0.0, 0.999)
    } else {
        0.0
    }
}

fn clamp_nonneg(x: f64) -> f64 {
    if x.is_finite() {
        x.max(0.0)
    } else {
        0.0
    }
}

/// Refills `index` with the positions `0..len`.
fn fill_positions(index: &mut Vec<u32>, len: usize) {
    index.clear();
    index.extend((0..len).map(|i| i as u32));
}

/// Refills `reach` with the running maximum of `ends`.
fn running_reach(reach: &mut Vec<f64>, ends: impl Iterator<Item = f64>) {
    reach.clear();
    let mut latest = f64::NEG_INFINITY;
    reach.extend(ends.map(|to| {
        latest = latest.max(to);
        latest
    }));
}

/// `windows[..started]` (sorted by start, `reach` their running maximum
/// end) less the prefix that all ended by `after`: the only windows of
/// the first `started` that can still be open after `after`. Windows may
/// overlap, so callers test each one exactly; the slice keeps plan order.
fn still_open<'a, W>(windows: &'a [W], reach: &[f64], started: usize, after: f64) -> &'a [W] {
    &windows[reach[..started].partition_point(|&r| r <= after)..started]
}

impl FaultPlan {
    /// The trivial plan: nothing ever fails.
    pub fn none() -> Self {
        FaultPlan {
            crashes: Vec::new(),
            crash_start: Vec::new(),
            last_crash: f64::NEG_INFINITY,
            partitions: Vec::new(),
            partition_reach: Vec::new(),
            partition_by_end: Vec::new(),
            brownouts: Vec::new(),
            brownout_reach: Vec::new(),
            fail_seed: 0,
            fail_prob: 0.0,
            retry_budget: 0,
            backoff_base: 0.0,
            mean_delay: 0.0,
            queue_cap: 64,
            bursts: 0,
        }
    }

    /// Builds a plan from explicit parts. Windows are sorted by server
    /// and crash instant; malformed windows (non-finite, negative, or
    /// empty) are dropped, and overlapping same-server windows are
    /// coalesced. `fail_prob` is clamped to `[0, 0.999]`. Partitions and
    /// brownouts start empty — attach them with
    /// [`FaultPlan::with_partitions`] / [`FaultPlan::with_brownouts`].
    pub fn new(
        crashes: Vec<CrashWindow>,
        fail_seed: u64,
        fail_prob: f64,
        retry_budget: u32,
        mean_delay: f64,
    ) -> Self {
        let mut plan = FaultPlan {
            crashes,
            fail_seed,
            fail_prob: clamp_prob(fail_prob),
            retry_budget,
            mean_delay: clamp_nonneg(mean_delay),
            ..FaultPlan::none()
        };
        plan.index_crashes();
        plan
    }

    /// Attaches partition windows (validated and sorted like crashes).
    pub fn with_partitions(mut self, partitions: Vec<PartitionWindow>) -> Self {
        self.partitions = partitions;
        self.index_partitions();
        self
    }

    /// Attaches brownout windows (validated, `factor ≤ 1` dropped, sorted).
    pub fn with_brownouts(mut self, brownouts: Vec<BrownoutWindow>) -> Self {
        self.brownouts = brownouts;
        self.index_brownouts();
        self
    }

    /// Validates the crash windows, then coalesces overlapping or touching
    /// windows on the same server and lays them out by server. Correlated
    /// bursts can land on top of base crash windows, but every consumer
    /// of the plan — its binary-searched queries, the wrapper's event
    /// cursors, both auditors' crash geometry — assumes each server's
    /// downtime windows are disjoint, so the constructors normalize here.
    ///
    /// Allocation-free once warm. Coalescing leaves the windows in
    /// (server, from) order, which is the by-server layout itself: one
    /// offset per server over the window list. Disjoint windows make each
    /// server's onsets and recoveries strictly ascending, so no consumer
    /// needs a global event order; the wrapper and the streaming auditor
    /// walk the per-server runs instead.
    fn index_crashes(&mut self) {
        let crashes = &mut self.crashes;
        crashes.retain(|w| valid_window(w.from, w.to));
        crashes.sort_unstable_by(|a, b| {
            a.server
                .cmp(&b.server)
                .then(a.from.total_cmp(&b.from))
                .then(a.to.total_cmp(&b.to))
        });
        if crashes.len() > 1 {
            let mut w = 0usize;
            for r in 1..crashes.len() {
                let cur = crashes[r];
                let last = &mut crashes[w];
                if cur.server == last.server && cur.from <= last.to {
                    last.to = last.to.max(cur.to);
                } else {
                    w += 1;
                    crashes[w] = cur;
                }
            }
            crashes.truncate(w + 1);
        }
        // Positions fit `u32`: 2^32 windows would need ~100 GiB of storage.
        let start = &mut self.crash_start;
        start.clear();
        let mut last = f64::NEG_INFINITY;
        for (j, w) in crashes.iter().enumerate() {
            let s = w.server.index();
            if start.len() <= s {
                start.resize(s + 1, j as u32);
            }
            if w.from.total_cmp(&last).is_gt() {
                last = w.from;
            }
        }
        if !crashes.is_empty() {
            start.push(crashes.len() as u32);
        }
        self.last_crash = last;
    }

    /// Validates and sorts the partition windows in place, then rebuilds
    /// their running reach and by-heal index.
    fn index_partitions(&mut self) {
        self.partitions.retain(|w| valid_window(w.from, w.to));
        self.partitions.sort_unstable_by(|a, b| {
            a.from
                .total_cmp(&b.from)
                .then(a.to.total_cmp(&b.to))
                .then(a.mask.cmp(&b.mask))
        });
        running_reach(
            &mut self.partition_reach,
            self.partitions.iter().map(|w| w.to),
        );
        fill_positions(&mut self.partition_by_end, self.partitions.len());
        let partitions = &self.partitions;
        self.partition_by_end.sort_unstable_by(|&p, &q| {
            partitions[p as usize]
                .to
                .total_cmp(&partitions[q as usize].to)
                .then(p.cmp(&q))
        });
    }

    /// Validates (dropping `factor ≤ 1`) and sorts the brownout windows in
    /// place, then rebuilds their running reach.
    fn index_brownouts(&mut self) {
        self.brownouts
            .retain(|w| valid_window(w.from, w.to) && w.factor.is_finite() && w.factor > 1.0);
        self.brownouts.sort_unstable_by(|a, b| {
            a.from
                .total_cmp(&b.from)
                .then(a.server.cmp(&b.server))
                .then(a.to.total_cmp(&b.to))
                .then(a.factor.total_cmp(&b.factor))
        });
        running_reach(
            &mut self.brownout_reach,
            self.brownouts.iter().map(|w| w.to),
        );
    }

    /// Sets the retry backoff base wait (`0` disables backoff waits).
    pub fn with_backoff(mut self, base: f64) -> Self {
        self.backoff_base = clamp_nonneg(base);
        self
    }

    /// Sets the degraded-mode queue bound.
    pub fn with_queue_cap(mut self, cap: u32) -> Self {
        self.queue_cap = cap;
        self
    }

    /// Refills this plan in place — the capacity-reusing twin of
    /// [`FaultPlan::new`] + builders (same window validation, same
    /// clamping). `fill` pushes the raw windows straight into the plan's
    /// own emptied crash, partition and brownout buffers and returns the
    /// number of correlated bursts it expanded; the plan then validates,
    /// coalesces, sorts and indexes them where they lie. A warm plan
    /// absorbs a new expansion without touching the allocator unless a
    /// window count grows past its capacity.
    #[allow(clippy::too_many_arguments)] // the generator call sites fill every knob
    pub fn assign(
        &mut self,
        fill: impl FnOnce(
            &mut Vec<CrashWindow>,
            &mut Vec<PartitionWindow>,
            &mut Vec<BrownoutWindow>,
        ) -> u32,
        fail_seed: u64,
        fail_prob: f64,
        retry_budget: u32,
        backoff_base: f64,
        mean_delay: f64,
        queue_cap: u32,
    ) {
        self.crashes.clear();
        self.partitions.clear();
        self.brownouts.clear();
        self.bursts = fill(&mut self.crashes, &mut self.partitions, &mut self.brownouts);
        self.index_crashes();
        self.index_partitions();
        self.index_brownouts();
        self.fail_seed = fail_seed;
        self.fail_prob = clamp_prob(fail_prob);
        self.retry_budget = retry_budget;
        self.backoff_base = clamp_nonneg(backoff_base);
        self.mean_delay = clamp_nonneg(mean_delay);
        self.queue_cap = queue_cap;
    }

    /// Deep-copies `other` into this plan, reusing the window and index
    /// buffers.
    pub fn copy_from(&mut self, other: &FaultPlan) {
        self.crashes.clone_from(&other.crashes);
        self.crash_start.clone_from(&other.crash_start);
        self.last_crash = other.last_crash;
        self.partitions.clone_from(&other.partitions);
        self.partition_reach.clone_from(&other.partition_reach);
        self.partition_by_end.clone_from(&other.partition_by_end);
        self.brownouts.clone_from(&other.brownouts);
        self.brownout_reach.clone_from(&other.brownout_reach);
        self.fail_seed = other.fail_seed;
        self.fail_prob = other.fail_prob;
        self.retry_budget = other.retry_budget;
        self.backoff_base = other.backoff_base;
        self.mean_delay = other.mean_delay;
        self.queue_cap = other.queue_cap;
        self.bursts = other.bursts;
    }

    /// Whether the plan injects no faults at all.
    pub fn is_trivial(&self) -> bool {
        self.crashes.is_empty()
            && self.partitions.is_empty()
            && self.brownouts.is_empty()
            && self.fail_prob == 0.0
            && self.mean_delay == 0.0
    }

    /// Whether any crash windows exist.
    pub fn has_crashes(&self) -> bool {
        !self.crashes.is_empty()
    }

    /// The outage windows by server: sorted by (server, crash instant),
    /// each server's windows disjoint. (Before the by-server layout this
    /// list was sorted by (crash instant, server); a caller wanting that
    /// order sorts a copy.)
    pub fn crashes(&self) -> &[CrashWindow] {
        &self.crashes
    }

    /// `server`'s outage windows, by crash instant (empty for a server
    /// that owns none).
    pub fn server_windows(&self, server: ServerId) -> &[CrashWindow] {
        let s = server.index();
        match (self.crash_start.get(s), self.crash_start.get(s + 1)) {
            (Some(&a), Some(&b)) => &self.crashes[a as usize..b as usize],
            _ => &[],
        }
    }

    /// Every crashing server's windows, by server: one run per server up
    /// to the highest crashing one (servers in between yield empty runs).
    pub fn crash_runs(&self) -> impl Iterator<Item = &[CrashWindow]> + '_ {
        self.crash_start
            .windows(2)
            .map(|r| &self.crashes[r[0] as usize..r[1] as usize])
    }

    /// The partition windows, sorted by start instant.
    pub fn partitions(&self) -> &[PartitionWindow] {
        &self.partitions
    }

    /// The brownout windows, sorted by start instant.
    pub fn brownouts(&self) -> &[BrownoutWindow] {
        &self.brownouts
    }

    /// Correlated burst events expanded into this plan (metadata).
    pub fn bursts(&self) -> u32 {
        self.bursts
    }

    /// The degraded-mode queue bound.
    pub fn queue_cap(&self) -> u32 {
        self.queue_cap
    }

    /// The per-run failed-attempt budget.
    pub fn retry_budget(&self) -> u32 {
        self.retry_budget
    }

    /// Seed of the deterministic failure/delay/backoff draw stream.
    pub fn fail_seed(&self) -> u64 {
        self.fail_seed
    }

    /// Per-attempt transfer failure probability.
    pub fn fail_prob(&self) -> f64 {
        self.fail_prob
    }

    /// First-retry backoff wait (`0` = backoff disabled).
    pub fn backoff_base(&self) -> f64 {
        self.backoff_base
    }

    /// Mean transfer delay (`0` = delays disabled).
    pub fn mean_delay(&self) -> f64 {
        self.mean_delay
    }

    /// Whether `server` is down at instant `t`. `O(log w)` over the
    /// server's own windows: they are disjoint, so only the latest one
    /// starting at or before `t` can cover it.
    pub fn is_down(&self, server: ServerId, t: f64) -> bool {
        let run = self.server_windows(server);
        let k = run.partition_point(|w| w.from <= t);
        k > 0 && t < run[k - 1].to
    }

    /// The partitions that can cover instant `t`, in plan order.
    fn partitions_at(&self, t: f64) -> &[PartitionWindow] {
        let started = self.partitions.partition_point(|w| w.from <= t);
        still_open(&self.partitions, &self.partition_reach, started, t)
    }

    /// Whether a transfer `a → b` is illegal at `t` because an active
    /// partition puts the two servers on opposite sides.
    pub fn partitioned(&self, a: ServerId, b: ServerId, t: f64) -> bool {
        self.partitions_at(t)
            .iter()
            .any(|w| t < w.to && w.side(a) != w.side(b))
    }

    /// Whether any partition window covers instant `t`.
    pub fn partition_active(&self, t: f64) -> bool {
        self.partitions_at(t).iter().any(|w| t < w.to)
    }

    /// Summed brownout excess `Σ (factor − 1)` over windows degrading
    /// `server` at instant `t` (overlapping brownouts stack additively,
    /// summed in plan order).
    pub fn brownout_excess(&self, server: ServerId, t: f64) -> f64 {
        let started = self.brownouts.partition_point(|w| w.from <= t);
        let mut excess = 0.0;
        for w in still_open(&self.brownouts, &self.brownout_reach, started, t) {
            if w.server == server && t < w.to {
                excess += w.factor - 1.0;
            }
        }
        excess
    }

    /// The brownouts that can overlap `[from, to]` with positive length
    /// (every other window has `min(to, w.to) − max(from, w.from) ≤ 0`),
    /// in plan order. Windows may overlap each other and other servers'
    /// windows ride along, so callers still test each one exactly.
    pub fn brownouts_overlapping(&self, from: f64, to: f64) -> &[BrownoutWindow] {
        // `f64::min` ignores a NaN `to`, so such an interval reaches every
        // window's end.
        let started = if to.is_nan() {
            self.brownouts.len()
        } else {
            self.brownouts.partition_point(|w| w.from < to)
        };
        still_open(&self.brownouts, &self.brownout_reach, started, from)
    }

    /// The first crash of `server` strictly after `t`, if any (`O(log w)`
    /// over the server's own windows).
    pub fn next_crash_after(&self, server: ServerId, t: f64) -> Option<f64> {
        let run = self.server_windows(server);
        let k = run.partition_point(|w| w.from <= t);
        run.get(k).map(|w| w.from).filter(|&from| from > t)
    }

    /// The crash instant of the latest-starting window (`-inf` if none):
    /// past this time no further outage can begin.
    pub fn last_crash_start(&self) -> f64 {
        self.last_crash
    }

    /// Computes the **total-outage** windows — maximal positive-length
    /// spans over which *every* one of the `servers` servers is down — into
    /// `out`, reusing its buffer (zero-allocation once warm). Over these
    /// spans no live copy can exist and the wrapper's degraded-mode queue
    /// is the only service path; the auditors waive coverage and service
    /// findings inside them and ground the recovery reseed at each span's
    /// end.
    ///
    /// The intersection of the per-server window lists, one server at a
    /// time: `out` holds the spans over which every server so far is down,
    /// each server's windows cut them (the pieces are appended behind
    /// them), and the old spans are then drained from the front. Windows
    /// are half-open and each server's are disjoint and never touch, so
    /// the pieces of positive length are exactly the maximal spans; they
    /// come out sorted and disjoint. A span starts at the latest onset
    /// and ends at the earliest recovery among the windows covering it,
    /// latest and earliest in [`f64::total_cmp`] order.
    pub fn total_outages_into(&self, servers: usize, out: &mut Vec<(f64, f64)>) {
        out.clear();
        // A server past the highest crashing one is never down.
        if servers == 0 || self.crash_start.len() <= servers {
            return;
        }
        let mut runs = self.crash_runs().take(servers);
        if let Some(first) = runs.next() {
            out.extend(first.iter().map(|w| (w.from, w.to)));
        }
        for run in runs {
            let held = out.len();
            if held == 0 {
                return;
            }
            let mut i = 0;
            for w in run {
                while i < held && out[i].1 <= w.from {
                    i += 1;
                }
                let mut k = i;
                while k < held && out[k].0 < w.to {
                    let (from, to) = out[k];
                    let from = if w.from.total_cmp(&from).is_gt() {
                        w.from
                    } else {
                        from
                    };
                    let to = if w.to.total_cmp(&to).is_lt() {
                        w.to
                    } else {
                        to
                    };
                    out.push((from, to));
                    k += 1;
                }
            }
            out.drain(..held);
        }
    }

    /// Draws how many attempts of the transfer `src → dst` at `t` fail
    /// before one succeeds, charged against the remaining per-run budget.
    /// Deterministic in `(fail_seed, src, dst, t)`: geometric with
    /// per-attempt probability `fail_prob`. A draw wanting more failures
    /// than `budget_left` charges exactly `budget_left` and reports
    /// exhaustion (the transfer goes through degraded).
    pub fn draw_failures(
        &self,
        src: ServerId,
        dst: ServerId,
        t: f64,
        budget_left: u32,
    ) -> RetryDraw {
        if self.fail_prob <= 0.0 {
            return RetryDraw {
                failures: 0,
                exhausted: false,
            };
        }
        let mut x = mix(self
            .fail_seed
            .wrapping_add((src.index() as u64) << 32)
            .wrapping_add((dst.index() as u64) << 16)
            .wrapping_add(t.to_bits()));
        let mut k = 0u32;
        loop {
            x = mix(x);
            if unit(x) >= self.fail_prob {
                break;
            }
            if k == budget_left {
                return RetryDraw {
                    failures: budget_left,
                    exhausted: true,
                };
            }
            k += 1;
        }
        RetryDraw {
            failures: k,
            exhausted: false,
        }
    }

    /// Total backoff wait for `k` failed attempts of `src → dst` at `t`:
    /// `Σ base·2^i·jitter_i` with deterministic jitter in `[0.5, 1)` per
    /// attempt (a latency metric, like [`FaultPlan::delay_for`]).
    pub fn backoff_wait(&self, src: ServerId, dst: ServerId, t: f64, k: u32) -> f64 {
        if self.backoff_base <= 0.0 || k == 0 {
            return 0.0;
        }
        let mut h = mix(self
            .fail_seed
            .wrapping_mul(0xA076_1D64_78BD_642F)
            .wrapping_add((src.index() as u64) << 36)
            .wrapping_add((dst.index() as u64) << 18)
            .wrapping_add(t.to_bits()));
        let mut total = 0.0;
        for i in 0..k {
            h = mix(h);
            let jitter = 0.5 + 0.5 * unit(h);
            total += self.backoff_base * (1u64 << i.min(32)) as f64 * jitter;
        }
        total
    }

    /// Deterministic exponential transfer delay for `src → dst` at `t`
    /// (mean [`mean_delay`](FaultPlan::new); `0` when delays are off).
    /// Delays are accounted as latency ([`FaultStats::total_delay`]), not
    /// as schedule time — the model's transfers stay instantaneous.
    pub fn delay_for(&self, src: ServerId, dst: ServerId, t: f64) -> f64 {
        if self.mean_delay <= 0.0 {
            return 0.0;
        }
        let x = mix(self
            .fail_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((src.index() as u64) << 40)
            .wrapping_add((dst.index() as u64) << 20)
            .wrapping_add(t.to_bits()));
        -self.mean_delay * (1.0 - unit(x)).ln()
    }
}

/// The brownout cost surcharge of one run under `plan`: for every copy
/// interval, `μ·(factor − 1)` per unit of browned-out caching time; for
/// every transfer, `λ·max(excess(src), excess(dst))` at the transfer
/// instant. Zero when the plan has no brownouts. The surcharge is costed
/// *outside* the schedule (the schedule's own `μ/λ` costs stay healthy)
/// and added to the reported online cost by the run pipeline; the auditors
/// recompute it from the same geometry.
///
/// The sum runs through [`BrownoutFold`]: every record term in record
/// order, then every transfer term in push order.
pub fn brownout_surcharge<S: Scalar>(
    plan: &FaultPlan,
    rec: &RunRecord<S>,
    cost: &CostModel<S>,
) -> f64 {
    BrownoutFold::default().finish(plan, rec, cost)
}

/// [`brownout_surcharge`] as a running fold, for a consumer that drops
/// records as they settle (the serve engine). Record terms add into the
/// running sum as records arrive. A transfer term is computed when the
/// transfer arrives but added only at [`BrownoutFold::finish`], after every
/// record term — floating-point addition does not reassociate, and the
/// one-shot sum adds the transfer terms last. Only non-zero terms are kept
/// (8 B each), so a plan without brownouts keeps nothing.
#[derive(Clone, Debug, Default)]
pub struct BrownoutFold {
    sur: f64,
    transfer_terms: Vec<f64>,
}

impl BrownoutFold {
    /// Rewinds to the empty fold, keeping the term buffer's capacity.
    pub fn reset(&mut self) {
        self.sur = 0.0;
        self.transfer_terms.clear();
    }

    /// Adds one copy lifetime's browned-out caching time.
    pub fn copy<S: Scalar>(&mut self, plan: &FaultPlan, r: &CopyRecord<S>, cost: &CostModel<S>) {
        let mu = cost.mu.to_f64();
        let (from, to) = (r.from.to_f64(), r.to.to_f64());
        for w in plan.brownouts_overlapping(from, to) {
            if w.server == r.server {
                let overlap = to.min(w.to) - from.max(w.from);
                if overlap > 0.0 {
                    self.sur += (w.factor - 1.0) * mu * overlap;
                }
            }
        }
    }

    /// Keeps one transfer's term for [`BrownoutFold::finish`].
    pub fn transfer<S: Scalar>(
        &mut self,
        plan: &FaultPlan,
        t: &TransferRecord<S>,
        cost: &CostModel<S>,
    ) {
        if let Some(term) = transfer_term(plan, t, cost) {
            self.transfer_terms.push(term);
        }
    }

    /// The surcharge once `rec` holds the rest of the run: its records'
    /// terms, then the kept transfer terms, then `rec`'s own transfers'
    /// terms (all transfers in push order).
    pub fn finish<S: Scalar>(
        &mut self,
        plan: &FaultPlan,
        rec: &RunRecord<S>,
        cost: &CostModel<S>,
    ) -> f64 {
        if plan.brownouts().is_empty() {
            return 0.0;
        }
        for r in &rec.records {
            self.copy(plan, r, cost);
        }
        let mut sur = self.sur;
        for term in &self.transfer_terms {
            sur += term;
        }
        for t in &rec.transfers {
            if let Some(term) = transfer_term(plan, t, cost) {
                sur += term;
            }
        }
        sur
    }
}

/// One transfer's brownout term, `None` when neither end is browned out.
fn transfer_term<S: Scalar>(
    plan: &FaultPlan,
    t: &TransferRecord<S>,
    cost: &CostModel<S>,
) -> Option<f64> {
    let at = t.at.to_f64();
    let excess = plan
        .brownout_excess(t.src, at)
        .max(plan.brownout_excess(t.dst, at));
    (excess > 0.0).then(|| cost.lambda.to_f64() * excess)
}

/// splitmix64 finalizer: a well-mixed 64-bit hash step.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to `[0, 1)`.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Per-run fault counters, surfaced through `mcc-simnet`'s metrics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultStats {
    /// Live copies closed by a crash.
    pub copies_lost: usize,
    /// Failed transfer attempts that were retried.
    pub retries: usize,
    /// Serves/transfers rerouted because the believed source was lost.
    pub failovers: usize,
    /// Emergency re-replications after a crash left one live copy.
    pub emergency_replications: usize,
    /// Transfers that adopted an existing management replica (no `λ`).
    pub adopted_replicas: usize,
    /// Requests served by a remote read because the server was down.
    pub down_serves: usize,
    /// Periods the system spent at a single live copy after a crash.
    pub copy_loss_windows: usize,
    /// Requests deferred into the degraded-mode queue (buffered + dropped).
    pub deferred: usize,
    /// Deferred requests replayed at recovery (or at run end).
    pub replayed: usize,
    /// Deferred requests dropped because the queue bound was hit.
    pub dropped: usize,
    /// Peak degraded-mode queue depth.
    pub queue_peak: usize,
    /// Deferrals caused by a partition (no reachable live copy), not an
    /// outage.
    pub partition_deferrals: usize,
    /// Copies re-materialized from durable storage after a total outage.
    pub reseeds: usize,
    /// Transfers forced through after the retry budget ran dry.
    pub budget_exhausted: usize,
    /// Total `λ` surcharge paid for failed transfer attempts.
    pub retry_cost: f64,
    /// Total `λ` surcharge paid replaying deferred requests.
    pub replay_cost: f64,
    /// Total `λ` surcharge paid re-materializing copies after outages.
    pub reseed_cost: f64,
    /// Brownout cost surcharge of the run (filled by the run pipeline,
    /// which sees the finalized record geometry).
    pub brownout_cost: f64,
    /// Total backoff wait accrued (latency metric, not `λ/μ` cost).
    pub backoff_wait: f64,
    /// Total transfer latency accrued (latency metric, not `λ/μ` cost).
    pub total_delay: f64,
}

impl FaultStats {
    /// The whole degraded cost of a run whose schedule costs
    /// `schedule_cost`: plus the brownout surcharge (which must already
    /// be stored in [`FaultStats::brownout_cost`]), then the retry,
    /// replay and reseed surcharges, added left to right in that order.
    /// Batch replay and the serve engine both price a wrapped run
    /// through here, so their totals agree to the bit.
    pub fn online_cost(&self, schedule_cost: f64) -> f64 {
        schedule_cost + self.brownout_cost + self.retry_cost + self.replay_cost + self.reseed_cost
    }
}

/// A crash, recovery, or partition-heal instant, as the wrapper's walk
/// hands it to [`FaultTolerant`]'s handlers.
#[derive(Copy, Clone, Debug, PartialEq)]
enum FaultEvent {
    Up { at: f64 },
    PartitionEnd { at: f64 },
    Down { server: ServerId, at: f64 },
}

/// Event kinds in their tie order at one instant: recoveries before heals
/// before crashes, so a pended replication or queue drain can land on a
/// server recovering exactly when another crashes.
const KIND_UP: u8 = 0;
const KIND_HEAL: u8 = 1;
const KIND_DOWN: u8 = 2;

/// A place in a plan's fault-event order: (instant, kind, server — or
/// position in the partitions' by-heal index for a heal), instants in
/// [`f64::total_cmp`] order. Crashes at one instant go in server order.
#[derive(Copy, Clone, Debug, PartialEq)]
struct EventKey {
    at: f64,
    kind: u8,
    idx: u32,
}

impl EventKey {
    /// Before every event.
    const START: EventKey = EventKey {
        at: f64::NEG_INFINITY,
        kind: 0,
        idx: 0,
    };

    /// Just past every event at or before `until`. Events are due when
    /// `at <= until`, so a zero of either sign passes both zeros.
    fn through(until: f64) -> EventKey {
        EventKey {
            at: if until == 0.0 { 0.0 } else { until },
            kind: u8::MAX,
            idx: u32::MAX,
        }
    }

    fn is_after(&self, other: &EventKey) -> bool {
        self.at
            .total_cmp(&other.at)
            .then(self.kind.cmp(&other.kind))
            .then(self.idx.cmp(&other.idx))
            .is_gt()
    }
}

/// A crash or recovery of `server` due at `at`. [`BinaryHeap`] pops the
/// least (instant, server) first, in [`f64::total_cmp`] order.
#[derive(Copy, Clone, Debug)]
struct Due {
    at: f64,
    server: u32,
}

impl PartialEq for Due {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Due {}

impl PartialOrd for Due {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Due {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .total_cmp(&self.at)
            .then(other.server.cmp(&self.server))
    }
}

/// The wrapper's place in its plan's fault events. Each server's onsets
/// and recoveries are strictly ascending runs of the plan's by-server
/// layout and heals follow the partitions' by-heal index, so one cursor
/// per run and a frontier key locate every event the walk has not
/// passed. A cursor lags until the walk looks at its server again and
/// then catches up past the frontier.
///
/// Most events change nothing: a crash of a server holding no copy, a
/// recovery or heal with no queue to drain and no replication pending.
/// The walk only visits events that can act (see
/// [`FaultTolerant::advance_faults`]) and passes the rest wholesale by
/// moving the frontier. Two heaps find the next of them in `O(log m)`: the
/// onsets of the servers holding a copy and every server's next recovery.
#[derive(Clone, Debug)]
struct FaultWalk {
    /// Per crashing server: position in the plan's window list of its
    /// first window whose onset lies past the frontier (once caught up).
    onset: Vec<u32>,
    /// The same for recoveries.
    recovery: Vec<u32>,
    /// Position in the partitions' by-heal index of the first heal past
    /// the frontier (once caught up).
    heal: usize,
    /// Every event at or before this key has been handled or passed.
    frontier: EventKey,
    /// At most one entry per crashing server, at or before its next onset
    /// past the frontier. Every server holding a copy that has an onset
    /// left has one, so the top bounds the next crash that can act. An
    /// entry whose server closed or whose onset passed is dropped or
    /// moved when it reaches the top.
    downs: BinaryHeap<Due>,
    /// Whether each crashing server has an entry in `downs`.
    in_downs: Vec<bool>,
    /// One entry per crashing server with a recovery left: the recovery
    /// at its cursor, moved when it reaches the top behind the frontier.
    ups: BinaryHeap<Due>,
}

impl FaultWalk {
    /// A walk at the start of `plan`.
    fn new(plan: &FaultPlan) -> Self {
        let mut walk = FaultWalk {
            onset: Vec::new(),
            recovery: Vec::new(),
            heal: 0,
            frontier: EventKey::START,
            downs: BinaryHeap::new(),
            in_downs: Vec::new(),
            ups: BinaryHeap::new(),
        };
        walk.reset(plan);
        walk
    }

    /// Rewinds to the start of `plan`, reusing the buffers.
    fn reset(&mut self, plan: &FaultPlan) {
        let runs = &plan.crash_start[..plan.crash_start.len().saturating_sub(1)];
        self.onset.clear();
        self.onset.extend_from_slice(runs);
        self.recovery.clear();
        self.recovery.extend_from_slice(runs);
        self.heal = 0;
        self.frontier = EventKey::START;
        self.downs.clear();
        self.in_downs.clear();
        self.in_downs.resize(runs.len(), false);
        self.ups.clear();
        self.ups
            .extend(plan.crash_runs().enumerate().filter_map(|(s, run)| {
                run.first().map(|w| Due {
                    at: w.to,
                    server: s as u32,
                })
            }));
    }

    /// How many of server `s`'s windows have onsets at or before the
    /// frontier (catching its cursor up first).
    fn onsets_passed(&mut self, plan: &FaultPlan, s: usize) -> usize {
        let (Some(j), Some(&begin), Some(&end)) = (
            self.onset.get_mut(s),
            plan.crash_start.get(s),
            plan.crash_start.get(s + 1),
        ) else {
            return 0;
        };
        while *j < end {
            let key = EventKey {
                at: plan.crashes[*j as usize].from,
                kind: KIND_DOWN,
                idx: s as u32,
            };
            if key.is_after(&self.frontier) {
                break;
            }
            *j += 1;
        }
        (*j - begin) as usize
    }

    /// Server `s`'s first onset past the frontier.
    fn next_onset_of(&mut self, plan: &FaultPlan, s: ServerId) -> Option<f64> {
        let k = self.onsets_passed(plan, s.index());
        plan.server_windows(s).get(k).map(|w| w.from)
    }

    /// Notes a copy opening on `s`: its next onset becomes a crash that
    /// can act. A server already in `downs` keeps its entry, which is at
    /// or before that onset.
    fn opened(&mut self, plan: &FaultPlan, s: ServerId) {
        if self.in_downs.get(s.index()) != Some(&false) {
            return;
        }
        if let Some(at) = self.next_onset_of(plan, s) {
            self.in_downs[s.index()] = true;
            self.downs.push(Due { at, server: s.0 });
        }
    }

    /// A lower bound on the next onset of any server holding a copy.
    fn next_onset(&self) -> f64 {
        self.downs.peek().map_or(f64::INFINITY, |d| d.at)
    }

    /// Passes every event at or before `until`.
    fn pass_through(&mut self, until: f64) {
        let through = EventKey::through(until);
        if through.is_after(&self.frontier) {
            self.frontier = through;
        }
    }

    /// The next onset past the frontier of a server for which `is_open`
    /// holds, settling the top of `downs` onto it.
    fn next_down(&mut self, plan: &FaultPlan, is_open: impl Fn(ServerId) -> bool) -> Option<Due> {
        while let Some(&Due { at, server }) = self.downs.peek() {
            let s = ServerId(server);
            let next = if is_open(s) {
                self.next_onset_of(plan, s)
            } else {
                None
            };
            if next.is_some_and(|n| n.total_cmp(&at).is_eq()) {
                return Some(Due { at, server });
            }
            self.downs.pop();
            match next {
                Some(at) => self.downs.push(Due { at, server }),
                None => {
                    if let Some(flag) = self.in_downs.get_mut(s.index()) {
                        *flag = false;
                    }
                }
            }
        }
        None
    }

    /// The next recovery past the frontier, settling the top of `ups`
    /// onto it.
    fn next_up(&mut self, plan: &FaultPlan) -> Option<EventKey> {
        while let Some(&Due { at, server }) = self.ups.peek() {
            let key = EventKey {
                at,
                kind: KIND_UP,
                idx: server,
            };
            if key.is_after(&self.frontier) {
                return Some(key);
            }
            self.ups.pop();
            let s = server as usize;
            let (Some(j), Some(&end)) = (self.recovery.get_mut(s), plan.crash_start.get(s + 1))
            else {
                continue;
            };
            while *j < end {
                let Some(w) = plan.crashes.get(*j as usize) else {
                    break;
                };
                let key = EventKey { at: w.to, ..key };
                if key.is_after(&self.frontier) {
                    self.ups.push(Due { at: w.to, server });
                    break;
                }
                *j += 1;
            }
        }
        None
    }

    /// The first event past the frontier that can act, if it falls at or
    /// before `until`; the frontier moves onto it. Candidates are the
    /// onsets of servers for which `is_open` holds, every recovery when
    /// `ups`, and every heal when `heals`.
    fn next_due(
        &mut self,
        plan: &FaultPlan,
        is_open: impl Fn(ServerId) -> bool,
        ups: bool,
        heals: bool,
        until: f64,
    ) -> Option<FaultEvent> {
        let mut best: Option<(EventKey, FaultEvent)> = None;
        let mut offer = |key: EventKey, ev: FaultEvent| {
            if best.is_none_or(|(b, _)| b.is_after(&key)) {
                best = Some((key, ev));
            }
        };
        if let Some(Due { at, server }) = self.next_down(plan, is_open) {
            let key = EventKey {
                at,
                kind: KIND_DOWN,
                idx: server,
            };
            let server = ServerId(server);
            offer(key, FaultEvent::Down { server, at });
        }
        if ups {
            if let Some(key) = self.next_up(plan) {
                offer(key, FaultEvent::Up { at: key.at });
            }
        }
        if heals {
            while let Some(&p) = plan.partition_by_end.get(self.heal) {
                let key = EventKey {
                    at: plan.partitions[p as usize].to,
                    kind: KIND_HEAL,
                    idx: self.heal as u32,
                };
                if key.is_after(&self.frontier) {
                    offer(key, FaultEvent::PartitionEnd { at: key.at });
                    break;
                }
                self.heal += 1;
            }
        }
        let (key, ev) = best?;
        if key.is_after(&EventKey::through(until)) {
            return None;
        }
        self.frontier = key;
        Some(ev)
    }
}

/// Wraps an online policy with crash/partition/failure handling for a
/// [`FaultPlan`].
///
/// See the module docs for the exact degradation semantics. The inner
/// policy's believed copy state can drift from reality after a crash; the
/// mediator reconciles every operation, so the recorded schedule reflects
/// what actually happened and stays auditor-clean.
pub struct FaultTolerant<P> {
    inner: P,
    /// Shared read-only by every wrapper built from one plan (the serve
    /// engine's items); a sole owner mutates it in place.
    plan: Arc<FaultPlan>,
    stats: FaultStats,
    lambda: f64,
    walk: FaultWalk,
    pending_replica: bool,
    bootstrapped: bool,
    /// Degraded-mode queue depth (pure accounting — deferred requests
    /// carry no payload, so a counter suffices and stays allocation-free).
    queued: u32,
    /// Remaining per-run failed-attempt budget.
    budget_left: u32,
}

impl<P> FaultTolerant<P> {
    /// Wraps `inner` to run against `plan`: a [`FaultPlan`] it will own,
    /// or an `Arc` it shares with other wrappers.
    pub fn new(inner: P, plan: impl Into<Arc<FaultPlan>>) -> Self {
        let plan = plan.into();
        let budget_left = plan.retry_budget();
        FaultTolerant {
            inner,
            walk: FaultWalk::new(&plan),
            plan,
            stats: FaultStats::default(),
            lambda: 0.0,
            pending_replica: false,
            bootstrapped: false,
            queued: 0,
            budget_left,
        }
    }

    /// The fault counters accumulated by the current run.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Mutable access to the counters (the run pipeline fills
    /// [`FaultStats::brownout_cost`] after finalization).
    pub fn stats_mut(&mut self) -> &mut FaultStats {
        &mut self.stats
    }

    /// The plan this wrapper runs against.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Mutable access to the wrapper's plan, so a caller can expand the
    /// next run's faults straight into the wrapper's buffers (no per-run
    /// plan clone). Swap plans only between runs: the wrapper walks the
    /// plan's windows and indexes through cursors that only `reset`
    /// rewinds and sizes. A sole owner edits the plan in place; a shared plan is
    /// copied first (`Arc::make_mut`).
    pub fn plan_mut(&mut self) -> &mut FaultPlan {
        Arc::make_mut(&mut self.plan)
    }

    /// Unwraps the inner policy.
    pub fn into_inner(self) -> P {
        self.inner
    }
}

/// The live copy with the latest last touch (ties: lowest index) among
/// servers that can legally send to `dst` at `t` — i.e. the cheapest
/// surviving reachable replica under uniform `λ`.
fn best_source<S: Scalar>(
    rt: &dyn CopyOps<S>,
    dst: ServerId,
    plan: &FaultPlan,
    t: f64,
) -> Option<ServerId> {
    let mut best: Option<(S, ServerId)> = None;
    for j in 0..rt.servers() {
        let id = ServerId::from_index(j);
        if id == dst || !rt.is_open(id) || plan.partitioned(id, dst, t) {
            continue;
        }
        if let Some(lt) = rt.last_touch(id) {
            let better = match best {
                None => true,
                Some((bt, _)) => lt > bt,
            };
            if better {
                best = Some((lt, id));
            }
        }
    }
    best.map(|(_, id)| id)
}

impl<P> FaultTolerant<P> {
    /// Replays the whole degraded-mode queue (one `λ` remote read per
    /// request; pure accounting — replays never enter the schedule).
    fn drain_queue(&mut self) {
        if self.queued > 0 {
            self.stats.replayed += self.queued as usize;
            self.stats.replay_cost += self.queued as f64 * self.lambda;
            self.queued = 0;
        }
    }

    /// Buffers one request in the degraded-mode queue (dropping past the
    /// bound) and reports the deferral.
    fn defer(&mut self, partition: bool) -> ServeAction {
        self.stats.deferred += 1;
        if partition {
            self.stats.partition_deferrals += 1;
        }
        if self.queued < self.plan.queue_cap() {
            self.queued += 1;
            self.stats.queue_peak = self.stats.queue_peak.max(self.queued as usize);
        } else {
            self.stats.dropped += 1;
        }
        ServeAction::Deferred
    }

    /// Processes every crash/recovery/heal event at or before `until`
    /// that can act, in the plan's event order, and passes the rest.
    ///
    /// What can act depends on the state the events leave behind, so it
    /// is re-read before each step:
    /// * a crash only acts on a server holding a copy;
    /// * a recovery only acts during a total outage (`live == 0`), with a
    ///   queue to drain, or with a replication pending on a sole copy;
    /// * a heal only acts with a queue to drain and a copy to serve it.
    ///
    /// Every other event is a no-op, so skipping it leaves the state the
    /// full walk would reach. With no recovery or heal wanted and `until`
    /// before the onset bound, the call returns after one compare.
    fn advance_faults<S: Scalar>(&mut self, rt: &mut dyn CopyOps<S>, until: f64) {
        loop {
            let live = rt.live_copies();
            let ups = live == 0 || self.queued > 0 || (self.pending_replica && live == 1);
            let heals = live > 0 && self.queued > 0;
            if !ups && !heals && until < self.walk.next_onset() {
                break;
            }
            let is_open = |s| rt.is_open(s);
            match self.walk.next_due(&self.plan, is_open, ups, heals, until) {
                Some(ev) => self.apply(rt, ev),
                None => break,
            }
        }
        self.walk.pass_through(until);
    }

    /// Handles one crash, recovery or heal event.
    fn apply<S: Scalar>(&mut self, rt: &mut dyn CopyOps<S>, ev: FaultEvent) {
        match ev {
            FaultEvent::Up { at } => {
                if rt.live_copies() == 0 {
                    // First recovery after a total outage: re-materialize
                    // from durable storage on the lowest-indexed up
                    // server (`λ` accounted in `reseed_cost`), then
                    // replay the queue.
                    let target = (0..rt.servers())
                        .map(ServerId::from_index)
                        .find(|&s| !self.plan.is_down(s, at));
                    if let Some(dst) = target {
                        rt.reseed(dst, S::from_f64(at));
                        self.walk.opened(&self.plan, dst);
                        self.stats.reseeds += 1;
                        self.stats.reseed_cost += self.lambda;
                        self.drain_queue();
                        self.ensure_redundancy(rt, S::from_f64(at), true);
                    }
                } else {
                    self.drain_queue();
                    if self.pending_replica && rt.live_copies() == 1 {
                        self.pending_replica = false;
                        self.ensure_redundancy(rt, S::from_f64(at), false);
                    }
                }
            }
            FaultEvent::PartitionEnd { at: _ } => {
                // Partition-deferred requests become servable once the
                // partition heals (some copy is reachable again).
                if rt.live_copies() > 0 {
                    self.drain_queue();
                }
            }
            FaultEvent::Down { server, at } => {
                if !rt.is_open(server) {
                    return;
                }
                let mut ct = S::from_f64(at);
                if let Some(lt) = rt.last_touch(server) {
                    ct = ct.max2(lt);
                }
                let mut evacuated = false;
                if rt.live_copies() == 1 {
                    // The sole copy is on the crashing server: evacuate
                    // it in the instant before the crash takes hold, if
                    // any up, reachable target exists. If the whole
                    // cluster is going dark there is nowhere to go and
                    // the wrapper enters degraded mode instead.
                    let target = (0..rt.servers()).map(ServerId::from_index).find(|&s| {
                        s != server
                            && !self.plan.is_down(s, at)
                            && !self.plan.partitioned(server, s, at)
                    });
                    if let Some(dst) = target {
                        self.charge_transfer(server, dst, ct.to_f64());
                        rt.transfer(server, dst, ct);
                        self.walk.opened(&self.plan, dst);
                        self.stats.emergency_replications += 1;
                        evacuated = true;
                    }
                }
                rt.close(server, ct);
                self.stats.copies_lost += 1;
                if rt.live_copies() == 0 {
                    // Evacuation found no reachable target (every up
                    // server sits across an active partition), yet the
                    // cluster is not fully dark: reseed from durable
                    // storage immediately — it needs no transfer edge,
                    // so the partition cannot block it. This keeps the
                    // invariant that `live == 0` holds exactly during
                    // total outages.
                    let target = (0..rt.servers())
                        .map(ServerId::from_index)
                        .find(|&s| !self.plan.is_down(s, at));
                    if let Some(dst) = target {
                        rt.reseed(dst, ct);
                        self.walk.opened(&self.plan, dst);
                        self.stats.reseeds += 1;
                        self.stats.reseed_cost += self.lambda;
                        self.drain_queue();
                        self.ensure_redundancy(rt, ct, true);
                    }
                } else if rt.live_copies() == 1 {
                    self.stats.copy_loss_windows += 1;
                    if evacuated {
                        // The survivor was created this very instant; it
                        // cannot legally source another transfer at the
                        // same time (no same-instant relay chains), so
                        // the second replica waits for the next event.
                        self.pending_replica = true;
                    } else {
                        self.ensure_redundancy(rt, ct, false);
                    }
                }
            }
        }
    }

    /// Re-replicates the sole surviving copy to the lowest-indexed up,
    /// reachable server, or pends the replication if no target is legal. A
    /// no-op once no further crash can start (insurance would be wasted).
    /// `grounded` marks a holder that may source a same-instant transfer
    /// (the origin's initial copy at `t = 0`, or a copy reseeded from
    /// durable storage this instant).
    fn ensure_redundancy<S: Scalar>(&mut self, rt: &mut dyn CopyOps<S>, at: S, grounded: bool) {
        if rt.live_copies() != 1 || at.to_f64() > self.plan.last_crash_start() {
            return;
        }
        let holder = match (0..rt.servers())
            .map(ServerId::from_index)
            .find(|&s| rt.is_open(s))
        {
            Some(s) => s,
            None => return,
        };
        // A copy whose latest touch *is* this instant may have been created
        // right now (same-instant relay chains are infeasible); defer unless
        // it is grounded — the origin's initial copy at t = 0, or a
        // durable-storage reseed, both of which legally source transfers at
        // their creation instant.
        let grounded = grounded || (holder == ServerId::ORIGIN && at.to_f64() == 0.0);
        if rt.last_touch(holder) == Some(at) && !grounded {
            self.pending_replica = true;
            return;
        }
        let target = (0..rt.servers()).map(ServerId::from_index).find(|&s| {
            s != holder
                && !self.plan.is_down(s, at.to_f64())
                && !self.plan.partitioned(holder, s, at.to_f64())
        });
        match target {
            None => self.pending_replica = true,
            Some(dst) => {
                self.charge_transfer(holder, dst, at.to_f64());
                rt.transfer(holder, dst, at);
                self.walk.opened(&self.plan, dst);
                self.stats.emergency_replications += 1;
            }
        }
    }

    /// Accrues the retry surcharge, backoff wait and delay for one
    /// successful transfer, drawing against the per-run retry budget.
    fn charge_transfer(&mut self, src: ServerId, dst: ServerId, t: f64) {
        let draw = self.plan.draw_failures(src, dst, t, self.budget_left);
        self.budget_left -= draw.failures;
        self.stats.retries += draw.failures as usize;
        self.stats.retry_cost += draw.failures as f64 * self.lambda;
        self.stats.backoff_wait += self.plan.backoff_wait(src, dst, t, draw.failures);
        if draw.exhausted {
            self.stats.budget_exhausted += 1;
        }
        self.stats.total_delay += self.plan.delay_for(src, dst, t);
    }
}

impl<P> FaultTolerant<P> {
    /// Once per run: notes the copies the run starts with (the origin's)
    /// with the walk, then insures them: the origin's sole initial copy
    /// is one crash away from extinction.
    fn bootstrap<S: Scalar>(&mut self, rt: &mut dyn CopyOps<S>) {
        if !self.bootstrapped {
            self.bootstrapped = true;
            for s in (0..rt.servers()).map(ServerId::from_index) {
                if rt.is_open(s) {
                    self.walk.opened(&self.plan, s);
                }
            }
            if self.plan.has_crashes() {
                self.ensure_redundancy(rt, S::ZERO, false);
            }
        }
    }

    /// Serves `req` once the fault events up to its instant are applied:
    /// defers it when no copy can serve it, else hands it to the inner
    /// policy through the mediating view.
    fn serve<S: Scalar>(&mut self, req: Request<S>, rt: &mut dyn CopyOps<S>) -> Decision<S>
    where
        P: OnlineDecider<S>,
    {
        let (t, server) = (req.time, req.server);
        if rt.live_copies() == 0 {
            // Total outage: no copy anywhere, nothing to serve from. Defer
            // into the degraded-mode queue until first recovery.
            return Decision::new(req, self.defer(false));
        }
        if !rt.is_open(server) && best_source(rt, server, &self.plan, t.to_f64()).is_none() {
            // Every live copy sits across an active partition: the serving
            // transfer is illegal, so the request waits for the heal.
            return Decision::new(req, self.defer(true));
        }
        // Split borrows: the mediator takes the plan, walk and counters,
        // the inner policy drives it.
        let mut view = FaultView {
            rt,
            plan: &self.plan,
            walk: &mut self.walk,
            stats: &mut self.stats,
            lambda: self.lambda,
            budget_left: &mut self.budget_left,
        };
        self.inner.observe(req, &mut view)
    }

    /// The inner policy's expiry sweep at `now`, through the mediating
    /// view.
    fn sweep<S: Scalar>(&mut self, now: S, rt: &mut dyn CopyOps<S>)
    where
        P: OnlineDecider<S>,
    {
        let mut view = FaultView {
            rt,
            plan: &self.plan,
            walk: &mut self.walk,
            stats: &mut self.stats,
            lambda: self.lambda,
            budget_left: &mut self.budget_left,
        };
        self.inner.expire(now, &mut view);
    }
}

impl<S: Scalar, P: OnlineDecider<S>> OnlineDecider<S> for FaultTolerant<P> {
    fn name(&self) -> String {
        format!("{}+ft", self.inner.name())
    }

    fn reset(&mut self, servers: usize, cost: &CostModel<S>) {
        self.inner.reset(servers, cost);
        self.stats = FaultStats::default();
        self.lambda = cost.lambda.to_f64();
        self.walk.reset(&self.plan);
        self.pending_replica = false;
        self.bootstrapped = false;
        self.queued = 0;
        self.budget_left = self.plan.retry_budget();
    }

    fn observe(&mut self, req: Request<S>, rt: &mut dyn CopyOps<S>) -> Decision<S> {
        self.bootstrap(rt);
        self.advance_faults(rt, req.time.to_f64());
        self.serve(req, rt)
    }

    /// Mirrors [`OnlineDecider::observe`]'s fault handling without
    /// serving anything: bootstrap insurance, fault events up to `now`,
    /// then the inner decider's sweep through the mediating view.
    fn expire(&mut self, now: S, rt: &mut dyn CopyOps<S>) {
        self.bootstrap(rt);
        self.advance_faults(rt, now.to_f64());
        self.sweep(now, rt);
    }

    /// Always `None`: injected fault events are applied in *request*
    /// order during replay, so a believed expiry can only be resolved
    /// against post-crash reality at the next request. An eager timer
    /// sweep between requests would close copies that a crash (later in
    /// wall time, earlier in the replay's processing order) pre-empts —
    /// so the daemon sweeps fault-wrapped items lazily, exactly like
    /// batch replay.
    fn next_expiry(&self) -> Option<S> {
        None
    }

    fn close_time(&self, server: ServerId, last_touch: S, horizon: S) -> S {
        let t = self.inner.close_time(server, last_touch, horizon);
        // A crash pre-empts the policy's intended close: the copy is gone
        // at the crash instant, so no caching accrues past it.
        match self.plan.next_crash_after(server, last_touch.to_f64()) {
            Some(c) if c < t.to_f64() => S::from_f64(c).max2(last_touch),
            _ => t,
        }
    }

    fn on_finish(&mut self) {
        // End-of-run recovery: whatever is still queued is replayed against
        // durable storage, so no request is ever silently lost.
        self.drain_queue();
        self.inner.on_finish();
    }
}

/// The mediating [`CopyOps`] the inner policy drives: reconciles each
/// believed operation against actual (post-crash, partitioned) copy state.
struct FaultView<'a, S> {
    rt: &'a mut dyn CopyOps<S>,
    plan: &'a FaultPlan,
    walk: &'a mut FaultWalk,
    stats: &'a mut FaultStats,
    lambda: f64,
    budget_left: &'a mut u32,
}

impl<S: Scalar> FaultView<'_, S> {
    fn charge(&mut self, src: ServerId, dst: ServerId, t: f64) {
        let draw = self.plan.draw_failures(src, dst, t, *self.budget_left);
        *self.budget_left -= draw.failures;
        self.stats.retries += draw.failures as usize;
        self.stats.retry_cost += draw.failures as f64 * self.lambda;
        self.stats.backoff_wait += self.plan.backoff_wait(src, dst, t, draw.failures);
        if draw.exhausted {
            self.stats.budget_exhausted += 1;
        }
        self.stats.total_delay += self.plan.delay_for(src, dst, t);
    }

    /// Transfers `src → dst` and notes the new copy with the walk; a copy
    /// landing on a down server serves a remote read and is dropped on
    /// arrival.
    fn open(&mut self, src: ServerId, dst: ServerId, t: S) {
        self.rt.transfer(src, dst, t);
        if self.plan.is_down(dst, t.to_f64()) {
            self.rt.close(dst, t);
            self.stats.down_serves += 1;
        } else {
            self.walk.opened(self.plan, dst);
        }
    }

    /// Delivers a copy to `dst` from the best legal live source; degrades
    /// to a serve-and-drop when `dst` is down. No-op when no source is
    /// reachable (the wrapper defers requests in that state before the
    /// inner policy runs; a management replica simply isn't placed).
    fn deliver(&mut self, dst: ServerId, t: S) {
        let src = match best_source(self.rt, dst, self.plan, t.to_f64()) {
            Some(s) => s,
            None => return,
        };
        self.charge(src, dst, t.to_f64());
        self.open(src, dst, t);
    }
}

impl<S: Scalar> CopyOps<S> for FaultView<'_, S> {
    fn servers(&self) -> usize {
        self.rt.servers()
    }
    fn is_open(&self, server: ServerId) -> bool {
        self.rt.is_open(server)
    }
    fn live_copies(&self) -> usize {
        self.rt.live_copies()
    }
    fn last_touch(&self, server: ServerId) -> Option<S> {
        self.rt.last_touch(server)
    }

    fn touch(&mut self, server: ServerId, t: S) {
        if self.rt.is_open(server) {
            self.rt.touch(server, t);
        } else {
            // The believed copy was crash-lost: fail over.
            self.stats.failovers += 1;
            self.deliver(server, t);
        }
    }

    fn transfer(&mut self, src: ServerId, dst: ServerId, t: S) {
        if self.rt.is_open(dst) {
            // A management replica already lives there: adopt it.
            self.stats.adopted_replicas += 1;
            self.rt.touch(dst, t);
            return;
        }
        if self.rt.is_open(src)
            && !self.plan.is_down(src, t.to_f64())
            && !self.plan.partitioned(src, dst, t.to_f64())
        {
            self.charge(src, dst, t.to_f64());
            self.open(src, dst, t);
        } else {
            // Lost, down, or partition-severed source: fail over.
            self.stats.failovers += 1;
            self.deliver(dst, t);
        }
    }

    fn reseed(&mut self, server: ServerId, t: S) {
        // Inner policies never reseed; pass through for completeness.
        self.rt.reseed(server, t);
        self.walk.opened(self.plan, server);
    }

    fn close(&mut self, server: ServerId, t: S) {
        if !self.rt.is_open(server) {
            // Already crash-closed behind the policy's back.
            return;
        }
        if self.rt.live_copies() == 1 {
            // Never drop the last real copy, whatever the policy believes.
            return;
        }
        let mut ct = t;
        if let Some(lt) = self.rt.last_touch(server) {
            // Failover serves may have touched this copy after the
            // policy's believed last touch; never close before it.
            ct = ct.max2(lt);
        }
        self.rt.close(server, ct);
    }

    fn begin_epoch(&mut self, t: S) {
        self.rt.begin_epoch(t)
    }
    fn epoch(&self) -> u32 {
        self.rt.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::executor::{run_policy, run_policy_record};
    use crate::online::sc::SpeculativeCaching;
    use crate::online::tracker::Runtime;
    use mcc_model::Instance;

    fn inst() -> Instance<f64> {
        Instance::from_compact("m=3 mu=1 lambda=1 | s2@0.5 s2@0.9 s3@1.4 s1@3.0 s2@3.5").unwrap()
    }

    #[test]
    fn trivial_plan_is_bit_identical_passthrough() {
        let plain = run_policy(&mut SpeculativeCaching::paper(), &inst());
        let mut ft = FaultTolerant::new(SpeculativeCaching::<f64>::paper(), FaultPlan::none());
        let wrapped = run_policy(&mut ft, &inst());
        assert_eq!(plain.total_cost, wrapped.total_cost);
        assert_eq!(plain.schedule, wrapped.schedule);
        assert_eq!(plain.actions, wrapped.actions);
        assert_eq!(*ft.stats(), FaultStats::default());
        assert_eq!(ft.name(), "sc+ft");
    }

    #[test]
    fn a_plan_swapped_without_reset_walks_without_panicking() {
        // `plan_mut` is for swapping plans between runs; a caller that
        // skips `reset` gets a walk over stale cursors, never a panic.
        // The new plan crashes fewer servers than the cursors were sized
        // for, and a partition defers a request so recoveries are walked.
        let window = |s: usize, from: f64| CrashWindow {
            server: ServerId::from_index(s),
            from,
            to: from + 0.5,
        };
        let old = (0..4)
            .flat_map(|s| (0..3).map(move |k| window(s, 1.0 + 3.0 * k as f64 + 0.1 * s as f64)))
            .collect();
        let cost = CostModel::<f64>::unit();
        let mut ft = FaultTolerant::new(
            crate::online::baselines::StayAtOrigin::new(),
            FaultPlan::new(old, 1, 0.0, 0, 0.0),
        );
        let mut rt = Runtime::<f64>::new(4);
        ft.reset(4, &cost);
        for i in 0..10 {
            ft.observe(Request::new(ServerId(0), 0.5 + 0.5 * i as f64), &mut rt);
        }
        *ft.plan_mut() =
            FaultPlan::new(vec![window(0, 30.0)], 1, 0.0, 0, 0.0).with_partitions(vec![
                PartitionWindow {
                    from: 12.0,
                    to: 20.0,
                    mask: 0b1000,
                },
            ]);
        for (i, s) in [3, 0, 3, 0, 0, 0].into_iter().enumerate() {
            ft.observe(Request::new(ServerId(s), 12.5 + 4.0 * i as f64), &mut rt);
        }
        assert!(ft.stats().partition_deferrals >= 1, "{:?}", ft.stats());
    }

    #[test]
    fn crash_closes_copy_and_triggers_replication() {
        // s^2 (index 1) crashes at 1.0 while it holds the hot copy.
        let plan = FaultPlan::new(
            vec![CrashWindow {
                server: ServerId(1),
                from: 1.0,
                to: 2.0,
            }],
            7,
            0.0,
            0,
            0.0,
        );
        let mut ft = FaultTolerant::new(SpeculativeCaching::<f64>::paper(), plan);
        let run = run_policy(&mut ft, &inst());
        let stats = ft.stats();
        assert!(stats.copies_lost >= 1, "{stats:?}");
        // The request on s^2 at 0.9 precedes the crash; the one at 3.5 is
        // after recovery. Service must cover all five requests.
        assert_eq!(run.actions.len(), 5);
        // No copy interval on s^2 may span the outage [1, 2).
        for h in &run.schedule.caches {
            if h.server == ServerId(1) {
                assert!(
                    h.to <= 1.0 + 1e-9 || h.from >= 2.0 - 1e-9,
                    "interval {h:?} spans the outage"
                );
            }
        }
    }

    #[test]
    fn total_outage_defers_and_replays_with_conservation() {
        // All three servers down over [1.0, 2.0): the requests at 1.4 is
        // deferred, replayed at the recovery reseed, and every count and
        // cost is conserved.
        let windows: Vec<CrashWindow> = (0..3)
            .map(|s| CrashWindow {
                server: ServerId::from_index(s),
                from: 1.0,
                to: 2.0,
            })
            .collect();
        let plan = FaultPlan::new(windows, 7, 0.0, 0, 0.0);
        let mut ft = FaultTolerant::new(SpeculativeCaching::<f64>::paper(), plan);
        let mut rt = Runtime::new(3);
        let (stats, _rec) = run_policy_record(&mut ft, &inst(), &mut rt);
        let f = ft.stats();
        assert_eq!(stats.deferred, f.deferred, "executor and wrapper agree");
        assert!(f.deferred >= 1, "the request at 1.4 falls in the outage");
        assert_eq!(
            f.deferred,
            f.replayed + f.dropped,
            "no request silently lost: {f:?}"
        );
        assert_eq!(f.reseeds, 1, "one durable-storage reseed at recovery");
        assert!((f.replay_cost - f.replayed as f64).abs() < 1e-12, "λ=1");
        assert!((f.reseed_cost - 1.0).abs() < 1e-12, "λ=1");
    }

    #[test]
    fn queue_cap_drops_with_accounting() {
        // m=1: any crash is a total outage. Cap the queue at 1 so the
        // second deferred request is dropped — but still counted.
        let inst = Instance::<f64>::from_compact("m=1 mu=1 lambda=1 | s1@0.5 s1@1.2 s1@1.6 s1@3.0")
            .unwrap();
        let plan = FaultPlan::new(
            vec![CrashWindow {
                server: ServerId(0),
                from: 1.0,
                to: 2.0,
            }],
            0,
            0.0,
            0,
            0.0,
        )
        .with_queue_cap(1);
        let mut ft = FaultTolerant::new(SpeculativeCaching::<f64>::paper(), plan);
        let mut rt = Runtime::new(1);
        let (stats, _rec) = run_policy_record(&mut ft, &inst, &mut rt);
        let f = ft.stats();
        assert_eq!(f.deferred, 2, "requests at 1.2 and 1.6 defer: {f:?}");
        assert_eq!(f.dropped, 1, "queue cap 1 drops the second");
        assert_eq!(f.replayed, 1);
        assert_eq!(f.queue_peak, 1);
        assert_eq!(f.deferred, f.replayed + f.dropped);
        assert_eq!(stats.deferred, 2);
    }

    #[test]
    fn partition_blocks_cross_side_transfers() {
        // Servers {0} | {1, 2} split over [0.0, 5.0): requests on side 1
        // can never be served from the origin's copy.
        let plan = FaultPlan::none().with_partitions(vec![PartitionWindow {
            from: 0.0,
            to: 5.0,
            mask: 0b110,
        }]);
        assert!(plan.partitioned(ServerId(0), ServerId(1), 1.0));
        assert!(!plan.partitioned(ServerId(1), ServerId(2), 1.0));
        assert!(!plan.partitioned(ServerId(0), ServerId(1), 5.0));
        let mut ft = FaultTolerant::new(SpeculativeCaching::<f64>::paper(), plan);
        let mut rt = Runtime::new(3);
        let (_stats, rec) = run_policy_record(&mut ft, &inst(), &mut rt);
        let f = ft.stats();
        assert!(
            f.partition_deferrals > 0,
            "cross-side requests defer: {f:?}"
        );
        assert_eq!(f.deferred, f.replayed + f.dropped);
        for t in &rec.transfers {
            assert!(
                t.src.index() != 0 || t.dst.index() == 0 || t.at >= 5.0,
                "transfer {t:?} crosses the active partition"
            );
        }
    }

    #[test]
    fn brownout_excess_stacks_and_surcharge_accrues() {
        let plan = FaultPlan::none().with_brownouts(vec![
            BrownoutWindow {
                server: ServerId(0),
                from: 1.0,
                to: 3.0,
                factor: 2.0,
            },
            BrownoutWindow {
                server: ServerId(0),
                from: 2.0,
                to: 4.0,
                factor: 1.5,
            },
            BrownoutWindow {
                server: ServerId(1),
                from: 0.0,
                to: 1.0,
                factor: 0.5, // dropped: factor ≤ 1
            },
        ]);
        assert_eq!(plan.brownouts().len(), 2);
        assert!((plan.brownout_excess(ServerId(0), 1.5) - 1.0).abs() < 1e-12);
        assert!((plan.brownout_excess(ServerId(0), 2.5) - 1.5).abs() < 1e-12);
        assert!((plan.brownout_excess(ServerId(0), 3.5) - 0.5).abs() < 1e-12);
        assert_eq!(plan.brownout_excess(ServerId(1), 0.5), 0.0);
        // A run whose origin interval overlaps the windows accrues μ
        // surcharge proportional to the degraded time.
        let mut ft = FaultTolerant::new(SpeculativeCaching::<f64>::paper(), plan.clone());
        let mut rt = Runtime::new(3);
        let (_stats, rec) = run_policy_record(&mut ft, &inst(), &mut rt);
        let sur = brownout_surcharge(&plan, rec, &CostModel::unit());
        assert!(sur > 0.0, "origin holds through [1, 3): surcharge accrues");
        assert_eq!(
            brownout_surcharge(&FaultPlan::none(), rec, &CostModel::unit()),
            0.0
        );
    }

    #[test]
    fn draw_failures_respects_budget_and_reports_exhaustion() {
        let plan = FaultPlan::new(Vec::new(), 42, 0.5, 3, 0.0);
        let a = plan.draw_failures(ServerId(0), ServerId(1), 1.25, u32::MAX);
        let b = plan.draw_failures(ServerId(0), ServerId(1), 1.25, u32::MAX);
        assert_eq!(a, b, "same inputs, same draw");
        // Find a draw that fails at least once, then shrink the budget
        // under it: the charge caps at the budget and reports exhaustion.
        let (t, k) = (0..400)
            .map(|i| {
                let t = 0.1 * i as f64;
                (
                    t,
                    plan.draw_failures(ServerId(0), ServerId(2), t, u32::MAX)
                        .failures,
                )
            })
            .find(|&(_, k)| k > 0)
            .expect("p=0.5 must fail somewhere in 400 draws");
        let capped = plan.draw_failures(ServerId(0), ServerId(2), t, k - 1);
        assert_eq!(capped.failures, k - 1);
        assert!(capped.exhausted);
        let zero = plan.draw_failures(ServerId(0), ServerId(2), t, 0);
        assert_eq!(zero.failures, 0);
        assert!(zero.exhausted);
    }

    #[test]
    fn backoff_waits_are_deterministic_and_grow() {
        let plan = FaultPlan::new(Vec::new(), 9, 0.5, 8, 0.0).with_backoff(0.25);
        let w1 = plan.backoff_wait(ServerId(0), ServerId(1), 2.0, 1);
        let w3 = plan.backoff_wait(ServerId(0), ServerId(1), 2.0, 3);
        assert_eq!(w1, plan.backoff_wait(ServerId(0), ServerId(1), 2.0, 1));
        assert!(w1 > 0.0 && w3 > w1, "w1={w1} w3={w3}");
        // Each attempt waits base·2^i·jitter with jitter in [0.5, 1).
        assert!((0.25 * 0.5..0.25).contains(&w1));
        assert_eq!(plan.backoff_wait(ServerId(0), ServerId(1), 2.0, 0), 0.0);
        assert_eq!(
            FaultPlan::none().backoff_wait(ServerId(0), ServerId(1), 2.0, 3),
            0.0
        );
    }

    #[test]
    fn total_outages_are_unions_of_full_coverage() {
        let plan = FaultPlan::new(
            vec![
                CrashWindow {
                    server: ServerId(0),
                    from: 1.0,
                    to: 3.0,
                },
                CrashWindow {
                    server: ServerId(1),
                    from: 2.0,
                    to: 5.0,
                },
                // Overlapping second window on server 0 extends its outage.
                CrashWindow {
                    server: ServerId(0),
                    from: 2.5,
                    to: 4.0,
                },
                // Both down again over [7, 8) via abutting windows on 1.
                CrashWindow {
                    server: ServerId(0),
                    from: 7.0,
                    to: 8.0,
                },
                CrashWindow {
                    server: ServerId(1),
                    from: 6.5,
                    to: 7.5,
                },
                CrashWindow {
                    server: ServerId(1),
                    from: 7.5,
                    to: 9.0,
                },
            ],
            0,
            0.0,
            0,
            0.0,
        );
        let mut out = Vec::new();
        plan.total_outages_into(2, &mut out);
        assert_eq!(out, vec![(2.0, 4.0), (7.0, 8.0)]);
        // One server alone is always in "total outage" during its windows.
        plan.total_outages_into(1, &mut out);
        assert_eq!(out, vec![(1.0, 4.0), (7.0, 8.0)]);
    }

    #[test]
    fn is_down_respects_half_open_windows() {
        let plan = FaultPlan::new(
            vec![CrashWindow {
                server: ServerId(2),
                from: 1.0,
                to: 2.0,
            }],
            0,
            0.0,
            0,
            0.0,
        );
        assert!(!plan.is_down(ServerId(2), 0.99));
        assert!(plan.is_down(ServerId(2), 1.0));
        assert!(plan.is_down(ServerId(2), 1.99));
        assert!(!plan.is_down(ServerId(2), 2.0));
        assert!(!plan.is_down(ServerId(1), 1.5));
        assert_eq!(plan.next_crash_after(ServerId(2), 0.5), Some(1.0));
        assert_eq!(plan.next_crash_after(ServerId(2), 1.0), None);
    }

    #[test]
    fn assign_matches_new_and_copy_from_round_trips() {
        let windows = vec![
            CrashWindow {
                server: ServerId(2),
                from: 3.0,
                to: 4.0,
            },
            CrashWindow {
                server: ServerId(1),
                from: 1.0,
                to: 2.5,
            },
            CrashWindow {
                server: ServerId(0),
                from: 2.0,
                to: 1.0, // malformed, dropped
            },
        ];
        let partitions = vec![
            PartitionWindow {
                from: 2.0,
                to: 3.0,
                mask: 0b01,
            },
            PartitionWindow {
                from: 1.0,
                to: 1.0,
                mask: 0b10,
            }, // empty, dropped
        ];
        let brownouts = vec![BrownoutWindow {
            server: ServerId(1),
            from: 0.5,
            to: 1.5,
            factor: 2.0,
        }];
        let built = FaultPlan::new(windows.clone(), 9, 1.5, 4, -1.0)
            .with_partitions(partitions.clone())
            .with_brownouts(brownouts.clone())
            .with_backoff(0.5)
            .with_queue_cap(16);
        let mut assigned = FaultPlan::none();
        assigned.assign(
            |c, p, b| {
                c.extend_from_slice(&windows);
                p.extend_from_slice(&partitions);
                b.extend_from_slice(&brownouts);
                0
            },
            9,
            1.5,
            4,
            0.5,
            -1.0,
            16,
        );
        assert_eq!(built, assigned);
        let mut copied = FaultPlan::none();
        copied.copy_from(&built);
        assert_eq!(built, copied);
    }

    #[test]
    fn malformed_windows_are_dropped() {
        let plan = FaultPlan::new(
            vec![
                CrashWindow {
                    server: ServerId(0),
                    from: 2.0,
                    to: 1.0,
                },
                CrashWindow {
                    server: ServerId(0),
                    from: f64::NAN,
                    to: 3.0,
                },
                CrashWindow {
                    server: ServerId(0),
                    from: -1.0,
                    to: 3.0,
                },
            ],
            0,
            0.0,
            0,
            0.0,
        );
        assert!(!plan.has_crashes());
        assert!(plan.is_trivial());
    }

    // --- differential oracles: the linear scans and the sorted event list
    // the plan's indexes and the wrapper's cursors replaced ---------------

    fn is_down_scan(plan: &FaultPlan, server: ServerId, t: f64) -> bool {
        plan.crashes()
            .iter()
            .any(|w| w.server == server && w.from <= t && t < w.to)
    }

    fn next_crash_after_scan(plan: &FaultPlan, server: ServerId, t: f64) -> Option<f64> {
        plan.crashes()
            .iter()
            .find(|w| w.server == server && w.from > t)
            .map(|w| w.from)
    }

    fn partitioned_scan(plan: &FaultPlan, a: ServerId, b: ServerId, t: f64) -> bool {
        plan.partitions()
            .iter()
            .take_while(|w| w.from <= t)
            .any(|w| t < w.to && w.side(a) != w.side(b))
    }

    fn partition_active_scan(plan: &FaultPlan, t: f64) -> bool {
        plan.partitions()
            .iter()
            .take_while(|w| w.from <= t)
            .any(|w| t < w.to)
    }

    fn brownout_excess_scan(plan: &FaultPlan, server: ServerId, t: f64) -> f64 {
        let mut excess = 0.0;
        for w in plan.brownouts().iter().take_while(|w| w.from <= t) {
            if w.server == server && t < w.to {
                excess += w.factor - 1.0;
            }
        }
        excess
    }

    fn brownout_surcharge_scan(
        plan: &FaultPlan,
        rec: &RunRecord<f64>,
        cost: &CostModel<f64>,
    ) -> f64 {
        if plan.brownouts().is_empty() {
            return 0.0;
        }
        let mut sur = 0.0;
        for r in &rec.records {
            for w in plan.brownouts() {
                if w.server == r.server {
                    let overlap = r.to.min(w.to) - r.from.max(w.from);
                    if overlap > 0.0 {
                        sur += (w.factor - 1.0) * cost.mu * overlap;
                    }
                }
            }
        }
        for t in &rec.transfers {
            let excess = brownout_excess_scan(plan, t.src, t.at)
                .max(brownout_excess_scan(plan, t.dst, t.at));
            if excess > 0.0 {
                sur += cost.lambda * excess;
            }
        }
        sur
    }

    /// The normalization spelled out: sort by (server, from, to), then
    /// merge overlapping or touching same-server windows.
    fn coalesce_scan(mut crashes: Vec<CrashWindow>) -> Vec<CrashWindow> {
        crashes.sort_by(|a, b| {
            a.server
                .cmp(&b.server)
                .then(a.from.total_cmp(&b.from))
                .then(a.to.total_cmp(&b.to))
        });
        let mut out: Vec<CrashWindow> = Vec::new();
        for cur in crashes {
            match out.last_mut() {
                Some(last) if cur.server == last.server && cur.from <= last.to => {
                    last.to = last.to.max(cur.to);
                }
                _ => out.push(cur),
            }
        }
        out
    }

    /// The two global crash orders by sorting, an oracle for the merges
    /// that built them: coalesce in (server, from) order, key-sort the
    /// positions into (onset, server) order, permute the windows there,
    /// then key-sort those positions into (recovery, server) order.
    /// Returns the windows in both orders.
    fn normalize_two_sort(mut crashes: Vec<CrashWindow>) -> (Vec<CrashWindow>, Vec<CrashWindow>) {
        crashes.retain(|w| valid_window(w.from, w.to));
        crashes.sort_unstable_by(|a, b| {
            a.server
                .cmp(&b.server)
                .then(a.from.total_cmp(&b.from))
                .then(a.to.total_cmp(&b.to))
        });
        let mut coalesced: Vec<CrashWindow> = Vec::new();
        for cur in crashes {
            match coalesced.last_mut() {
                Some(last) if cur.server == last.server && cur.from <= last.to => {
                    last.to = last.to.max(cur.to);
                }
                _ => coalesced.push(cur),
            }
        }
        let mut order = Vec::new();
        fill_positions(&mut order, coalesced.len());
        order.sort_unstable_by_key(|&q| {
            let w = &coalesced[q as usize];
            (total_key(w.from), w.server)
        });
        let plan: Vec<CrashWindow> = order.iter().map(|&q| coalesced[q as usize]).collect();
        fill_positions(&mut order, plan.len());
        order.sort_unstable_by_key(|&p| {
            let w = &plan[p as usize];
            (total_key(w.to), w.server)
        });
        let by_end = order.iter().map(|&p| plan[p as usize]).collect();
        (plan, by_end)
    }

    /// Orders `x` like [`f64::total_cmp`] when compared as an unsigned
    /// integer.
    fn total_key(x: f64) -> u64 {
        let bits = x.to_bits();
        if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        }
    }

    /// The m-way heap merge that built the plan's former global orders:
    /// the per-server runs merged by `(total_key(key(w)), server)`. Each
    /// server's onsets and recoveries are strictly ascending, so either
    /// key merges its runs.
    fn merge_runs(plan: &FaultPlan, key: impl Fn(&CrashWindow) -> f64) -> Vec<CrashWindow> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let (start, crashes) = (&plan.crash_start, &plan.crashes);
        let mut heap = BinaryHeap::new();
        for (s, run) in start.windows(2).enumerate() {
            if run[0] < run[1] {
                let j = run[0];
                heap.push(Reverse((total_key(key(&crashes[j as usize])), s as u32, j)));
            }
        }
        let mut out = Vec::new();
        while let Some(Reverse((_, s, j))) = heap.pop() {
            out.push(crashes[j as usize]);
            let next = j + 1;
            if next < start[s as usize + 1] {
                heap.push(Reverse((total_key(key(&crashes[next as usize])), s, next)));
            }
        }
        out
    }

    /// The plan's former global crash orders: windows by (onset, server)
    /// and by (recovery, server).
    struct PlanOrders {
        by_onset: Vec<CrashWindow>,
        by_end: Vec<CrashWindow>,
    }

    fn plan_orders(plan: &FaultPlan) -> PlanOrders {
        PlanOrders {
            by_onset: merge_runs(plan, |w| w.from),
            by_end: merge_runs(plan, |w| w.to),
        }
    }

    /// The wrapper's former walk: one cursor per globally sorted stream
    /// (onsets, recoveries, heals), visiting every event in (instant,
    /// Up < PartitionEnd < Down, plan order) order.
    #[derive(Copy, Clone, Debug, Default)]
    struct EventCursor {
        down: usize,
        up: usize,
        heal: usize,
    }

    impl EventCursor {
        /// Consumes and returns the next event if it falls at or before
        /// `until`.
        fn next_until(
            &mut self,
            orders: &PlanOrders,
            plan: &FaultPlan,
            until: f64,
        ) -> Option<FaultEvent> {
            let up = orders
                .by_end
                .get(self.up)
                .map(|w| FaultEvent::Up { at: w.to });
            let heal = plan
                .partition_by_end
                .get(self.heal)
                .map(|&p| FaultEvent::PartitionEnd {
                    at: plan.partitions[p as usize].to,
                });
            let down = orders.by_onset.get(self.down).map(|w| FaultEvent::Down {
                server: w.server,
                at: w.from,
            });
            let mut next: Option<FaultEvent> = None;
            // Strict `<` keeps the earlier kind on ties: the array is in
            // kind order.
            for ev in [up, heal, down].into_iter().flatten() {
                if next.is_none_or(|n| ev.at().total_cmp(&n.at()).is_lt()) {
                    next = Some(ev);
                }
            }
            let ev = next.filter(|ev| ev.at() <= until)?;
            match ev {
                FaultEvent::Up { .. } => self.up += 1,
                FaultEvent::PartitionEnd { .. } => self.heal += 1,
                FaultEvent::Down { .. } => self.down += 1,
            }
            Some(ev)
        }
    }

    impl FaultEvent {
        fn at(&self) -> f64 {
            match *self {
                FaultEvent::Up { at }
                | FaultEvent::PartitionEnd { at }
                | FaultEvent::Down { at, .. } => at,
            }
        }
    }

    /// The wrapper as it ran before the per-server walk: the same
    /// handlers, fed every event of the plan through [`EventCursor`].
    struct Oracle<P> {
        ft: FaultTolerant<P>,
        orders: PlanOrders,
        cursor: EventCursor,
    }

    impl<P> Oracle<P> {
        fn new(inner: P, plan: FaultPlan) -> Self {
            Oracle {
                orders: plan_orders(&plan),
                ft: FaultTolerant::new(inner, plan),
                cursor: EventCursor::default(),
            }
        }

        fn advance<S: Scalar>(&mut self, rt: &mut dyn CopyOps<S>, until: f64) {
            self.ft.bootstrap(rt);
            while let Some(ev) = self.cursor.next_until(&self.orders, &self.ft.plan, until) {
                self.ft.apply(rt, ev);
            }
        }
    }

    impl<S: Scalar, P: OnlineDecider<S>> OnlineDecider<S> for Oracle<P> {
        fn name(&self) -> String {
            self.ft.name()
        }
        fn reset(&mut self, servers: usize, cost: &CostModel<S>) {
            self.ft.reset(servers, cost);
            self.cursor = EventCursor::default();
        }
        fn observe(&mut self, req: Request<S>, rt: &mut dyn CopyOps<S>) -> Decision<S> {
            self.advance(rt, req.time.to_f64());
            self.ft.serve(req, rt)
        }
        fn expire(&mut self, now: S, rt: &mut dyn CopyOps<S>) {
            self.advance(rt, now.to_f64());
            self.ft.sweep(now, rt);
        }
        fn close_time(&self, server: ServerId, last_touch: S, horizon: S) -> S {
            self.ft.close_time(server, last_touch, horizon)
        }
        fn on_finish(&mut self) {
            OnlineDecider::<S>::on_finish(&mut self.ft);
        }
    }

    /// The sorted onset/recovery event list with per-server depth counts.
    fn total_outages_scan(plan: &FaultPlan, servers: usize) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        if servers == 0 {
            return out;
        }
        let mut events: Vec<(f64, u8, u32)> = Vec::new();
        for w in plan.crashes() {
            if w.server.index() < servers {
                events.push((w.from, 0, w.server.0));
                events.push((w.to, 1, w.server.0));
            }
        }
        events.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let mut depth = vec![0u32; servers];
        let (mut down, mut start) = (0usize, 0.0f64);
        for (t, kind, s) in events {
            let s = s as usize;
            if kind == 0 {
                if depth[s] == 0 {
                    down += 1;
                    if down == servers {
                        start = t;
                    }
                }
                depth[s] += 1;
            } else {
                depth[s] -= 1;
                if depth[s] == 0 {
                    if down == servers && t > start {
                        out.push((start, t));
                    }
                    down -= 1;
                }
            }
        }
        out
    }

    /// The wrapper's former per-run event list: every onset, recovery and
    /// heal, sorted by (instant, Up < PartitionEnd < Down, server).
    fn sorted_events(plan: &FaultPlan) -> Vec<FaultEvent> {
        let order = |e: &FaultEvent| match e {
            FaultEvent::Up { .. } => 0u8,
            FaultEvent::PartitionEnd { .. } => 1,
            FaultEvent::Down { .. } => 2,
        };
        let server_key = |e: &FaultEvent| match *e {
            FaultEvent::Up { .. } | FaultEvent::PartitionEnd { .. } => 0,
            FaultEvent::Down { server, .. } => server.index(),
        };
        let mut events = Vec::new();
        for w in plan.crashes() {
            // Pushed by server; the sort puts them in event order.
            events.push(FaultEvent::Down {
                server: w.server,
                at: w.from,
            });
            events.push(FaultEvent::Up { at: w.to });
        }
        for w in plan.partitions() {
            events.push(FaultEvent::PartitionEnd { at: w.to });
        }
        events.sort_unstable_by(|a, b| {
            a.at()
                .total_cmp(&b.at())
                .then(order(a).cmp(&order(b)))
                .then(server_key(a).cmp(&server_key(b)))
        });
        events
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        const M: usize = 4;

        /// A window instant: mostly on a half-unit grid, so equal starts
        /// across servers, touching windows, coalescing bursts and
        /// windows at `t = 0` are common; sometimes off-grid.
        fn instant() -> impl Strategy<Value = f64> {
            let grid = || (0u32..24).prop_map(|k| 0.5 * k as f64);
            prop_oneof![grid(), grid(), grid(), 0.0f64..12.0, Just(-0.0)]
        }

        fn span() -> impl Strategy<Value = f64> {
            let grid = || (1u32..6).prop_map(|k| 0.5 * k as f64);
            prop_oneof![grid(), grid(), grid(), 0.01f64..3.0]
        }

        /// A vector of up to `max - 1` draws of `element()`.
        fn up_to<S: Strategy>(
            max: usize,
            element: impl Fn() -> S,
        ) -> impl Strategy<Value = Vec<S::Value>> {
            (0..max).prop_flat_map(move |n| proptest::collection::vec(element(), n))
        }

        fn raw_crashes(
            servers: usize,
            max: usize,
            from: impl Fn() -> BoxedStrategy<f64> + 'static,
        ) -> impl Strategy<Value = Vec<CrashWindow>> {
            up_to(max, move || (0..servers, from(), span())).prop_map(|c| {
                c.into_iter()
                    .map(|(s, from, len)| CrashWindow {
                        server: ServerId::from_index(s),
                        from,
                        to: from + len,
                    })
                    .collect()
            })
        }

        /// A plan over `M` servers. Crash windows on the servers in a
        /// random mask are dropped, so servers owning no window (below and
        /// above crashing ones) and plans with no window at all are common.
        fn random_plan() -> impl Strategy<Value = FaultPlan> {
            let crashes =
                (raw_crashes(M, 24, || instant().boxed()), 0u32..16).prop_map(|(mut c, idle)| {
                    c.retain(|w| idle >> w.server.0 & 1 == 0);
                    c
                });
            let partitions = up_to(5, || (instant(), span(), 1u64..15));
            let brownouts = up_to(8, || {
                let factor = prop_oneof![Just(0.5), Just(1.5), Just(2.0), Just(3.0)];
                (0..M, instant(), span(), factor)
            });
            // Small queue caps make deferrals drop; failing transfers draw
            // retries against small budgets.
            let knobs = (
                prop_oneof![Just(0u32), Just(1), Just(2), Just(64)],
                prop_oneof![Just(0.0), Just(0.3)],
                prop_oneof![Just(0u32), Just(3), Just(64)],
            );
            (crashes, partitions, brownouts, knobs).prop_map(|(c, p, b, (cap, fail, budget))| {
                FaultPlan::new(c, 1, fail, budget, 0.0)
                    .with_queue_cap(cap)
                    .with_partitions(
                        p.into_iter()
                            .map(|(from, len, mask)| PartitionWindow {
                                from,
                                to: from + len,
                                mask,
                            })
                            .collect(),
                    )
                    .with_brownouts(
                        b.into_iter()
                            .map(|(s, from, len, factor)| BrownoutWindow {
                                server: ServerId::from_index(s),
                                from,
                                to: from + len,
                                factor,
                            })
                            .collect(),
                    )
            })
        }

        /// Requests for the lockstep walk, strictly increasing in time:
        /// mostly on the plan's half-unit grid, so they tie with window
        /// edges, sometimes off it. Each is flagged for an expiry sweep at
        /// its instant before it is observed.
        fn random_requests() -> impl Strategy<Value = Vec<(usize, f64, bool)>> {
            let at = || {
                let grid = || (1u32..26).prop_map(|k| 0.5 * k as f64);
                prop_oneof![grid(), grid(), 0.01f64..13.0]
            };
            up_to(48, move || (0..M, at(), (0u8..3).prop_map(|k| k == 0))).prop_map(|mut r| {
                r.sort_by(|a, b| a.1.total_cmp(&b.1));
                r.dedup_by(|a, b| a.1 == b.1);
                r
            })
        }

        /// Drives `P` under the per-server walk and under [`Oracle`] (the
        /// former walk over every event) with the same requests, and
        /// compares decisions, the runtime's records and transfers, and the
        /// fault counters after every step and after finalization.
        fn lockstep<S: Scalar, P: OnlineDecider<S>>(
            make: impl Fn() -> P,
            plan: &FaultPlan,
            requests: &[(usize, f64, bool)],
        ) -> Result<(), TestCaseError> {
            let cost = CostModel::<S>::unit();
            let mut new = FaultTolerant::new(make(), plan.clone());
            let mut old = Oracle::new(make(), plan.clone());
            let (mut rt_new, mut rt_old) = (Runtime::<S>::new(M), Runtime::<S>::new(M));
            new.reset(M, &cost);
            old.reset(M, &cost);
            let mut last = S::ZERO;
            for (i, &(server, t, sweep)) in requests.iter().enumerate() {
                let t = S::from_f64(t);
                if t <= last {
                    continue; // collided after conversion
                }
                last = t;
                if sweep {
                    new.expire(t, &mut rt_new);
                    old.expire(t, &mut rt_old);
                }
                let req = Request::new(ServerId::from_index(server), t);
                let (a, b) = (new.observe(req, &mut rt_new), old.observe(req, &mut rt_old));
                prop_assert_eq!(a, b, "decision {}", i);
                prop_assert_eq!(
                    &rt_new.record().records,
                    &rt_old.record().records,
                    "records {}",
                    i
                );
                prop_assert_eq!(
                    &rt_new.record().transfers,
                    &rt_old.record().transfers,
                    "transfers {}",
                    i
                );
                prop_assert_eq!(new.stats(), old.ft.stats(), "stats {}", i);
            }
            OnlineDecider::<S>::on_finish(&mut new);
            OnlineDecider::<S>::on_finish(&mut old);
            let horizon = last + S::from_f64(1.0);
            let a = crate::online::executor::finalize_record(
                &new,
                &mut rt_new,
                requests.len(),
                horizon,
            );
            let b = crate::online::executor::finalize_record(
                &old,
                &mut rt_old,
                requests.len(),
                horizon,
            );
            prop_assert_eq!(&a.records, &b.records);
            prop_assert_eq!(&a.transfers, &b.transfers);
            prop_assert_eq!(new.stats(), old.ft.stats());
            Ok(())
        }

        fn lockstep_all<S: Scalar>(
            plan: &FaultPlan,
            requests: &[(usize, f64, bool)],
        ) -> Result<(), TestCaseError> {
            use crate::online::baselines::{Follow, KeepEverywhere, StayAtOrigin};
            lockstep::<S, _>(SpeculativeCaching::<S>::paper, plan, requests)?;
            lockstep::<S, _>(Follow::new, plan, requests)?;
            lockstep::<S, _>(StayAtOrigin::new, plan, requests)?;
            lockstep::<S, _>(KeepEverywhere::new, plan, requests)
        }

        /// Every window edge, nudged by `1 ± 1e-9`, plus a few fixed
        /// probes — sorted, so they double as the wrapper's `until` walk.
        fn query_instants(plan: &FaultPlan) -> Vec<f64> {
            let mut edges = vec![0.0, 0.25, 7.75, 100.0];
            edges.extend(plan.crashes().iter().flat_map(|w| [w.from, w.to]));
            edges.extend(plan.partitions().iter().flat_map(|w| [w.from, w.to]));
            edges.extend(plan.brownouts().iter().flat_map(|w| [w.from, w.to]));
            let mut out: Vec<f64> = edges
                .iter()
                .flat_map(|&t| [t, t * (1.0 - 1e-9), t * (1.0 + 1e-9)])
                .collect();
            out.sort_by(f64::total_cmp);
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn normalization_matches_the_two_sort_coalesce(
                // Many servers over few onsets: long runs of equal starts
                // and equal recoveries across servers (bursts share both),
                // past the sort's small-slice cutoff, so a missing server
                // tiebreak shows.
                raw in raw_crashes(16, 160, || {
                    prop_oneof![(0u32..6).prop_map(|k| 0.5 * k as f64), Just(-0.0)].boxed()
                }),
            ) {
                let plan = FaultPlan::new(raw.clone(), 1, 0.0, 0, 0.0);
                let bits = |c: &[CrashWindow]| -> Vec<(u32, u64, u64)> {
                    c.iter().map(|w| (w.server.0, w.from.to_bits(), w.to.to_bits())).collect()
                };
                prop_assert_eq!(bits(plan.crashes()), bits(&coalesce_scan(raw.clone())));
                // The by-server runs and the latest onset read the same
                // windows.
                let runs: Vec<CrashWindow> = plan.crash_runs().flatten().copied().collect();
                prop_assert_eq!(bits(&runs), bits(plan.crashes()));
                for s in 0..18 {
                    let a = ServerId::from_index(s);
                    let own: Vec<CrashWindow> =
                        plan.crashes().iter().filter(|w| w.server == a).copied().collect();
                    prop_assert_eq!(bits(plan.server_windows(a)), bits(&own), "server {}", s);
                }
                let latest = plan.crashes().iter().map(|w| w.from).max_by(f64::total_cmp);
                prop_assert_eq!(
                    plan.last_crash_start().to_bits(),
                    latest.unwrap_or(f64::NEG_INFINITY).to_bits()
                );
                // The test-only merges rebuild the two global orders the
                // plan used to store.
                let (order, by_end) = normalize_two_sort(raw);
                let orders = plan_orders(&plan);
                prop_assert_eq!(bits(&orders.by_onset), bits(&order), "onset order");
                prop_assert_eq!(bits(&orders.by_end), bits(&by_end), "by-end order");
            }

            #[test]
            fn indexed_queries_match_the_scans(
                plan in random_plan(),
                dirty in random_plan(),
            ) {
                // The same plan rebuilt over a dirty one and deep-copied
                // into another must carry the same layout and answers.
                let mut assigned = dirty.clone();
                assigned.assign(
                    |c, p, b| {
                        c.extend_from_slice(plan.crashes());
                        p.extend_from_slice(plan.partitions());
                        b.extend_from_slice(plan.brownouts());
                        plan.bursts()
                    },
                    plan.fail_seed(),
                    plan.fail_prob(),
                    plan.retry_budget(),
                    plan.backoff_base(),
                    plan.mean_delay(),
                    plan.queue_cap(),
                );
                prop_assert_eq!(&assigned, &plan);
                let mut copied = dirty;
                copied.copy_from(&plan);
                prop_assert_eq!(&copied, &plan);
                let instants = query_instants(&plan);
                for p in [&plan, &assigned, &copied] {
                    for &t in &instants {
                        // Servers past the highest crashing one included.
                        for s in 0..=M + 2 {
                            let a = ServerId::from_index(s);
                            prop_assert_eq!(p.is_down(a, t), is_down_scan(&plan, a, t), "is_down({}, {})", s, t);
                            prop_assert_eq!(p.next_crash_after(a, t), next_crash_after_scan(&plan, a, t));
                            prop_assert_eq!(
                                p.brownout_excess(a, t).to_bits(),
                                brownout_excess_scan(&plan, a, t).to_bits()
                            );
                            for b in 0..M {
                                let b = ServerId::from_index(b);
                                prop_assert_eq!(p.partitioned(a, b, t), partitioned_scan(&plan, a, b, t));
                            }
                        }
                        prop_assert_eq!(p.partition_active(t), partition_active_scan(&plan, t));
                    }
                    let mut out = Vec::new();
                    for servers in 0..=M + 1 {
                        p.total_outages_into(servers, &mut out);
                        prop_assert_eq!(&out, &total_outages_scan(&plan, servers), "servers {}", servers);
                    }
                }
            }

            #[test]
            fn brownout_surcharge_matches_the_scan(
                plan in random_plan(),
                copies in up_to(12, || (0..M, instant(), span())),
                transfers in up_to(12, || (0..M, 0..M, instant())),
            ) {
                let rec = RunRecord {
                    records: copies
                        .into_iter()
                        .map(|(s, from, len)| crate::online::tracker::CopyRecord {
                            server: ServerId::from_index(s),
                            from,
                            last_touch: from,
                            to: from + len,
                        })
                        .collect(),
                    transfers: transfers
                        .into_iter()
                        .map(|(src, dst, at)| crate::online::tracker::TransferRecord {
                            src: ServerId::from_index(src),
                            dst: ServerId::from_index(dst),
                            at,
                            epoch: 0,
                        })
                        .collect(),
                    epoch_boundaries: Vec::new(),
                };
                let cost = CostModel::new(1.25, 0.75).unwrap();
                prop_assert_eq!(
                    brownout_surcharge(&plan, &rec, &cost).to_bits(),
                    brownout_surcharge_scan(&plan, &rec, &cost).to_bits()
                );
            }

            #[test]
            fn cursors_replay_the_sorted_event_list(plan in random_plan()) {
                // The oracle walk itself: its cursors over the test-only
                // merges visit exactly the sorted event list.
                let oracle = sorted_events(&plan);
                let orders = plan_orders(&plan);
                let mut cursor = EventCursor::default();
                let mut seen = Vec::new();
                let mut untils = query_instants(&plan);
                untils.push(f64::INFINITY);
                for until in untils {
                    while let Some(ev) = cursor.next_until(&orders, &plan, until) {
                        seen.push(ev);
                    }
                    let due = oracle.iter().take_while(|e| e.at() <= until).count();
                    prop_assert_eq!(&seen[..], &oracle[..due], "until {}", until);
                }
            }

            #[test]
            fn walk_matches_the_every_event_oracle_in_lockstep(
                plan in random_plan(),
                requests in random_requests(),
            ) {
                lockstep_all::<f64>(&plan, &requests)?;
                lockstep_all::<mcc_model::Fixed>(&plan, &requests)?;
            }
        }
    }
}
