//! The serve engine: live request stream in, placement decisions out.
//!
//! One [`ServeEngine`] tracks many independent items, each with its own
//! policy instance (built from a [`PolicyFactory`]) and its own
//! [`Runtime`] copy tracker — the state one batch-replay run holds, kept
//! alive between requests instead of being driven to completion, except
//! that closed records are folded into the item's running costs and
//! dropped as soon as their place in the cost order is fixed (see
//! *Bounded growth*). Decisions go through
//! [`OnlineDecider::observe`], the same call
//! `run_policy_record` makes per replayed request, so a served stream
//! and a batch replay of the same stream are bit-identical (asserted by
//! the differential property tests in `tests/serve_equivalence.rs`).
//! Event time is a single global clock: interleaved items share one
//! timeline, as in a real deployment.
//!
//! # The timer heap
//!
//! Speculative copies expire `Δt = λ/μ` after their last use. The
//! engine keeps one indexed min-heap of believed expirations
//! ([`KeyedHeap`]) with at most one node per item slot, keyed
//! `(deadline, slot)`: every observation and every fired timer moves
//! the slot's node to its policy's next expiry (or drops it when the
//! policy arms none), and `finish` removes it. A re-request thus
//! *refreshes* a copy without a stale deadline evicting it, the heap
//! never holds more nodes than tracked items, and sweeps do no map
//! lookups. Sweeps are **insensitive to when they run**: a fired timer
//! calls [`OnlineDecider::expire`], which closes copies at their
//! *believed expiry time* (not the sweep time), and a sole surviving
//! copy is left to lapse lazily — the exact semantics the batch
//! executor applies at the next request. Any sweep schedule consistent
//! with monotone event time — eager per-event sweeps,
//! [`ServeEngine::tick`] calls anywhere in the gaps between events, or
//! no sweeping at all — produces the same records to the bit (the
//! equivalence property tests prove it).
//!
//! Items behind a [`FaultPlan`] are *never* swept from the heap
//! ([`OnlineDecider::next_expiry`] returns `None` for the tolerant
//! wrapper): injected fault events must be applied in request order, as
//! batch replay does, or an eager sweep could close a copy that a
//! later-arriving-but-earlier-in-time crash should have destroyed.
//!
//! # Bounded growth
//!
//! The engine refuses work instead of growing without bound: a request
//! for a *new* item is shed with a typed reason ([`ShedReason`]) when
//! the tracked-item or live-copy ceilings are reached. Requests for
//! already-tracked items always proceed — shedding mid-stream would
//! violate the policy invariant that every request is served.
//!
//! A tracked item's own state does not grow with its request count
//! either. After every decision and every fired timer the engine calls
//! [`Runtime::settle`], which folds each closed copy record into the
//! item's [`RunFold`] (and, under a plan with brownouts, its
//! [`BrownoutFold`]) once no later record can sort before it, then drops
//! it; transfers fold and drop at once. `finish` folds what is left in
//! the same canonical order, so reports stay bit-identical to batch
//! replay. What an item keeps is O(m) — its open copies, its policy's
//! per-server state — plus the closed records still waiting behind an
//! open copy that opened earlier. One residual is inherent to an exact
//! fold in that order: while one copy stays open (a server requested
//! more often than every `Δt`), every record closing behind it waits,
//! 32 B each, until that copy closes.
//!
//! Items live in a slab: a map from item id to slot index, a dense
//! `Vec` of slots and a free list. `finish` returns a slot to the free
//! list, and the next admission resets its policy, runtime and folds in
//! place, so a warm admission allocates nothing. The timer heap holds at
//! most one node per slot. Every fault-wrapped item shares the engine's
//! one [`FaultPlan`].
//!
//! # The offline queue
//!
//! Under an injected fault plan the tolerant wrapper defers requests
//! that arrive during a total outage or partition isolation
//! ([`ServeAction::Deferred`]) and prices their replay internally. The
//! engine additionally remembers each deferred request and, on the
//! first event at or past the target server's recovery, emits a
//! [`ReplayNote`] per buffered request in arrival order — a side
//! channel for clients, deliberately *not* part of the decision stream,
//! which stays identical to batch replay.
//!
//! [`OnlineDecider::observe`]: mcc_core::online::OnlineDecider::observe
//! [`OnlineDecider::expire`]: mcc_core::online::OnlineDecider::expire
//! [`OnlineDecider::next_expiry`]: mcc_core::online::OnlineDecider::next_expiry

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use mcc_core::keyed_heap::{key_time, time_key, KeyedHeap};
use mcc_core::online::{
    finalize_record, BrownoutFold, CopyRecord, FaultPlan, FaultTolerant, RecordFold, RunFold,
    Runtime, ServeAction, TransferRecord,
};
use mcc_model::{CostModel, Request, ServerId};
use mcc_obs::{Counter, Gauge, Hist, Sink};
use mcc_simnet::{PolicyFactory, RunPolicy};

/// Engine configuration: cluster shape, cost model, growth bounds, and
/// the optional injected fault plan.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Servers in the cluster (requests naming a server `≥ servers` are
    /// shed, not panicked on).
    pub servers: usize,
    /// The cost model every tracked item runs under.
    pub cost: CostModel<f64>,
    /// Most items tracked at once; a request for a new item beyond this
    /// is shed with [`ShedReason::MaxItems`].
    pub max_items: usize,
    /// Most live copies (across all items) before new-item admission is
    /// shed with [`ShedReason::MaxCopies`].
    pub max_copies: usize,
    /// Injected faults: every admitted item runs behind
    /// [`FaultTolerant`], all sharing this one plan.
    pub plan: Option<Arc<FaultPlan>>,
}

impl ServeConfig {
    /// A fault-free config with default growth bounds (64k items, 1M
    /// copies).
    pub fn new(servers: usize, cost: CostModel<f64>) -> Self {
        ServeConfig {
            servers: servers.max(1),
            cost,
            max_items: 1 << 16,
            max_copies: 1 << 20,
            plan: None,
        }
    }

    /// Overrides the growth bounds (both clamped to at least 1).
    #[must_use]
    pub fn with_bounds(mut self, max_items: usize, max_copies: usize) -> Self {
        self.max_items = max_items.max(1);
        self.max_copies = max_copies.max(1);
        self
    }

    /// Attaches an injected fault plan (a trivial plan detaches it).
    #[must_use]
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = if plan.is_trivial() {
            None
        } else {
            Some(Arc::new(plan))
        };
        self
    }
}

/// Why a request was refused instead of decided.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// New item, but the tracked-item ceiling is reached.
    MaxItems,
    /// New item, but the live-copy ceiling is reached.
    MaxCopies,
    /// The request's timestamp runs backwards for its item (or is not a
    /// finite non-negative number).
    TimeRegression,
    /// The request names a server outside the configured cluster.
    BadServer,
}

impl ShedReason {
    /// Stable wire tag.
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::MaxItems => "max-items",
            ShedReason::MaxCopies => "max-copies",
            ShedReason::TimeRegression => "time-regression",
            ShedReason::BadServer => "bad-server",
        }
    }
}

/// One answered request.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ServeDecision {
    /// The item the request was for.
    pub item: u64,
    /// Request timestamp (event time).
    pub t: f64,
    /// Requesting server.
    pub server: ServerId,
    /// How the request was served.
    pub action: ServeAction,
    /// Wall time the engine spent deciding, nanoseconds.
    pub latency_ns: u64,
}

/// The engine's answer to one request.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum ServeReply {
    /// A placement decision.
    Decision(ServeDecision),
    /// A typed refusal.
    Shed {
        /// The item the refused request named.
        item: u64,
        /// Why it was refused.
        reason: ShedReason,
    },
}

/// One offline-queued request replayed after recovery (side channel;
/// not part of the decision stream).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ReplayNote {
    /// The item the deferred request was for.
    pub item: u64,
    /// The server that requested it.
    pub server: ServerId,
    /// Original request timestamp.
    pub t: f64,
    /// Event time at which the engine observed the recovery.
    pub at: f64,
}

/// Final accounting for one finished item — the same numbers batch
/// replay reports for the equivalent instance, to the bit.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ItemReport {
    /// The finished item.
    pub item: u64,
    /// Requests served.
    pub requests: u64,
    /// Requests served from a local live copy.
    pub cache_hits: u64,
    /// Transfers performed.
    pub transfers: u64,
    /// Requests deferred into the offline queue.
    pub deferred: u64,
    /// Total online cost, fault surcharges included.
    pub online_cost: f64,
    /// Caching component (`μ` side) of the schedule cost.
    pub caching_cost: f64,
    /// Transfer component (`λ` side) of the schedule cost.
    pub transfer_cost: f64,
}

/// Aggregate engine counters, cheap to snapshot at any time.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct EngineStats {
    /// Decisions issued.
    pub requests: u64,
    /// Requests served from a local live copy.
    pub cache_hits: u64,
    /// Transfers performed.
    pub transfers: u64,
    /// Requests deferred into the offline queue.
    pub deferred: u64,
    /// Deferred requests replayed after recovery.
    pub replayed: u64,
    /// Requests refused by admission control.
    pub sheds: u64,
    /// Timers fired by sweeps.
    pub expirations: u64,
    /// Items currently tracked.
    pub items_live: u64,
    /// Most items tracked at once.
    pub items_peak: u64,
    /// Live copies currently tracked (across all items).
    pub copies_live: u64,
    /// Most live copies tracked at once.
    pub copies_peak: u64,
    /// Items finished and reported.
    pub items_finished: u64,
    /// Total online cost across finished items.
    pub finished_cost: f64,
}

/// A deferred request waiting in the offline queue for its server to
/// recover.
#[derive(Copy, Clone, Debug)]
struct QueuedRequest {
    item: u64,
    server: ServerId,
    t: f64,
}

/// Per-item live state: one policy instance, one copy tracker and the
/// running cost folds, held open between requests and reused by the next
/// item admitted into the slot.
struct ItemSlot {
    policy: RunPolicy,
    rt: Runtime<f64>,
    fold: RunFold<f64>,
    brownout: BrownoutFold,
    last_t: f64,
    requests: usize,
    hits: usize,
    deferred: usize,
    /// `rt.live_copies()` after the last operation (cached so the
    /// engine-wide total updates by delta, not by rescanning).
    live: usize,
}

/// What [`Runtime::settle`] feeds: the cost fold, plus the brownout fold
/// when the item runs under a plan with brownouts.
struct SlotFold<'a> {
    cost: &'a CostModel<f64>,
    run: &'a mut RunFold<f64>,
    brownout: Option<(&'a FaultPlan, &'a mut BrownoutFold)>,
}

impl RecordFold<f64> for SlotFold<'_> {
    fn copy(&mut self, r: &CopyRecord<f64>) {
        self.run.copy(r, self.cost);
        if let Some((plan, b)) = &mut self.brownout {
            b.copy(plan, r, self.cost);
        }
    }
    fn transfer(&mut self, t: &TransferRecord<f64>) {
        self.run.transfer(self.cost);
        if let Some((plan, b)) = &mut self.brownout {
            b.transfer(plan, t, self.cost);
        }
    }
}

impl ItemSlot {
    /// Folds and drops every record the runtime can release, and
    /// refreshes the live-copy count; returns `(now, before)`.
    fn settle(&mut self, cost: &CostModel<f64>) -> (usize, usize) {
        let brownout = self
            .policy
            .plan()
            .filter(|plan| !plan.brownouts().is_empty())
            .map(|plan| (plan, &mut self.brownout));
        self.rt.settle(&mut SlotFold {
            cost,
            run: &mut self.fold,
            brownout,
        });
        let live_now = self.rt.live_copies();
        (live_now, std::mem::replace(&mut self.live, live_now))
    }
}

/// The long-lived serving core. See the module docs for the moving
/// parts; the public surface is [`ServeEngine::observe`] (one request in,
/// one [`ServeReply`] out), [`ServeEngine::tick`] (sweep timers without
/// a request), [`ServeEngine::finish`] (close an item and account it),
/// and [`ServeEngine::take_replayed`] (drain recovery notifications).
pub struct ServeEngine<'s> {
    cfg: ServeConfig,
    factory: PolicyFactory,
    /// Item id → index into `slots`.
    index: HashMap<u64, usize>,
    slots: Vec<ItemSlot>,
    /// Slots freed by `finish`, reused before the slab grows.
    free: Vec<usize>,
    /// Each slot's believed next expiry, keyed `(time_key(at), slot)`.
    timers: KeyedHeap,
    offline: VecDeque<QueuedRequest>,
    replayed: Vec<ReplayNote>,
    stats: EngineStats,
    copies_live: usize,
    now: f64,
    sink: &'s dyn Sink,
}

impl ServeEngine<'static> {
    /// An engine over `cfg`, building one policy per admitted item from
    /// `factory`, with the no-op metrics sink.
    pub fn new(cfg: ServeConfig, factory: PolicyFactory) -> Self {
        ServeEngine {
            cfg,
            factory,
            index: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            timers: KeyedHeap::default(),
            offline: VecDeque::new(),
            replayed: Vec::new(),
            stats: EngineStats::default(),
            copies_live: 0,
            now: 0.0,
            sink: mcc_obs::noop(),
        }
    }
}

impl<'s> ServeEngine<'s> {
    /// Attaches a metrics sink (e.g. a live [`mcc_obs::Registry`]).
    #[must_use]
    pub fn with_sink<'t>(self, sink: &'t dyn Sink) -> ServeEngine<'t> {
        ServeEngine {
            cfg: self.cfg,
            factory: self.factory,
            index: self.index,
            slots: self.slots,
            free: self.free,
            timers: self.timers,
            offline: self.offline,
            replayed: self.replayed,
            stats: self.stats,
            copies_live: self.copies_live,
            now: self.now,
            sink,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Current aggregate counters (items/copies fields refreshed).
    pub fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        s.items_live = self.index.len() as u64;
        s.copies_live = self.copies_live as u64;
        s
    }

    /// Drains the recovery notifications accumulated since the last
    /// call, in replay order.
    pub fn take_replayed(&mut self) -> Vec<ReplayNote> {
        std::mem::take(&mut self.replayed)
    }

    /// Answers one request: admit (or shed), sweep due timers, decide
    /// through the item's [`OnlineDecider`], re-arm the item's deadline,
    /// and surface any offline-queue recoveries as [`ReplayNote`]s.
    ///
    /// [`OnlineDecider`]: mcc_core::online::OnlineDecider
    pub fn observe(&mut self, item: u64, server: u32, t: f64) -> ServeReply {
        let t0 = Instant::now();
        if !t.is_finite() || t < 0.0 {
            return self.shed(item, ShedReason::TimeRegression);
        }
        if server as usize >= self.cfg.servers {
            return self.shed(item, ShedReason::BadServer);
        }
        self.sweep(t);
        let idx = match self.index.get(&item) {
            Some(&idx) => idx,
            None => {
                if let Some(reason) = self.admission_check() {
                    return self.shed(item, reason);
                }
                self.admit(item)
            }
        };
        // Decide inside a narrow borrow of the slot; engine-level state
        // (heap, queue, counters) updates after the borrow ends.
        let (action, live_now, prev_live, rearm) = {
            let Some(slot) = self.slots.get_mut(idx) else {
                // Unreachable (the index names live slots), but shedding
                // beats panicking in a no-panic crate.
                return self.shed(item, ShedReason::MaxItems);
            };
            if t < slot.last_t {
                return self.shed(item, ShedReason::TimeRegression);
            }
            let req = Request::new(ServerId(server), t);
            let decision = slot.policy.decider_mut().observe(req, &mut slot.rt);
            slot.last_t = t;
            slot.requests += 1;
            match decision.action {
                ServeAction::Cache => slot.hits += 1,
                ServeAction::Deferred => slot.deferred += 1,
                ServeAction::Transfer { .. } => {}
            }
            let (live_now, prev) = slot.settle(&self.cfg.cost);
            (
                decision.action,
                live_now,
                prev,
                slot.policy.decider().next_expiry(),
            )
        };
        match action {
            ServeAction::Cache => self.stats.cache_hits += 1,
            ServeAction::Transfer { .. } => self.stats.transfers += 1,
            ServeAction::Deferred => {
                self.stats.deferred += 1;
                self.sink.add(Counter::ServeDeferred, 1);
                self.buffer_offline(item, ServerId(server), t);
            }
        }
        self.arm(idx, rearm);
        self.copies_live = self.copies_live.saturating_sub(prev_live) + live_now;
        self.now = if t > self.now { t } else { self.now };
        self.stats.requests += 1;
        self.stats.copies_peak = self.stats.copies_peak.max(self.copies_live as u64);
        self.drain_recovered(t);
        let latency_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.sink.add(Counter::ServeRequests, 1);
        self.sink.observe(Hist::ServeDecisionNanos, latency_ns);
        self.sink
            .gauge_max(Gauge::ServeCopiesPeak, self.copies_live as u64);
        ServeReply::Decision(ServeDecision {
            item,
            t,
            server: ServerId(server),
            action,
            latency_ns,
        })
    }

    /// Sweeps due timers and offline-queue recoveries up to event time
    /// `t` without serving a request — the idle-clock entry point, and
    /// the hook the equivalence tests use to prove sweep timing is
    /// unobservable. `t` asserts the event clock really has advanced to
    /// `t`: a tick past a request that has not arrived yet is a claim
    /// that the gap was idle, and copies whose believed expiry falls in
    /// that gap are (correctly) closed.
    pub fn tick(&mut self, t: f64) {
        if !t.is_finite() || t < 0.0 {
            return;
        }
        self.sweep(t);
        self.now = if t > self.now { t } else { self.now };
        self.drain_recovered(t);
    }

    /// Closes `item`: drains its policy, finalizes what its runtime has
    /// not settled yet exactly as batch replay would (shared
    /// [`finalize_record`] / [`RunFold`] / [`BrownoutFold`] folds),
    /// returns the accounting and frees the slot. `None` for untracked
    /// items.
    pub fn finish(&mut self, item: u64) -> Option<ItemReport> {
        let idx = self.index.remove(&item)?;
        self.free.push(idx);
        self.timers.remove(idx as u32);
        let slot = self.slots.get_mut(idx)?;
        // Queued offline requests are purged now.
        self.offline.retain(|q| q.item != item);
        self.copies_live = self.copies_live.saturating_sub(slot.live);
        let horizon = slot.last_t;
        let requests = slot.requests;
        let (hits, deferred) = (slot.hits, slot.deferred);
        let cost = &self.cfg.cost;
        let ItemSlot {
            policy,
            rt,
            fold,
            brownout,
            ..
        } = slot;
        let decider = policy.decider_mut();
        decider.on_finish();
        let rec = finalize_record(decider, rt, requests, horizon);
        fold.record(rec, cost);
        let stats = fold.stats(hits, deferred);
        let online_cost = match policy.wrapper_mut() {
            // The exact fold batch replay applies (`seed_core` in
            // mcc-simnet): the brownout surcharge from the record
            // geometry, then the wrapper surcharges — bit-identical
            // totals.
            Some(w) => {
                w.stats_mut().brownout_cost = brownout.finish(w.plan(), rec, cost);
                w.stats().online_cost(stats.total_cost)
            }
            None => stats.total_cost,
        };
        self.stats.items_finished += 1;
        self.stats.finished_cost += online_cost;
        self.sink.add(Counter::ServeItemsFinished, 1);
        Some(ItemReport {
            item,
            requests: requests as u64,
            cache_hits: hits as u64,
            transfers: stats.transfers as u64,
            deferred: deferred as u64,
            online_cost,
            caching_cost: stats.caching_cost,
            transfer_cost: stats.transfer_cost,
        })
    }

    /// Finishes every tracked item (ascending item id for determinism)
    /// and returns the reports.
    pub fn finish_all(&mut self) -> Vec<ItemReport> {
        let mut ids: Vec<u64> = self.index.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter().filter_map(|id| self.finish(id)).collect()
    }

    fn shed(&mut self, item: u64, reason: ShedReason) -> ServeReply {
        self.stats.sheds += 1;
        self.sink.add(Counter::ServeSheds, 1);
        ServeReply::Shed { item, reason }
    }

    fn admission_check(&self) -> Option<ShedReason> {
        if self.index.len() >= self.cfg.max_items {
            Some(ShedReason::MaxItems)
        } else if self.copies_live >= self.cfg.max_copies {
            Some(ShedReason::MaxCopies)
        } else {
            None
        }
    }

    /// Registers `item` in a slot holding exactly the state batch replay
    /// sets up per run (policy reset + fresh runtime): a freed slot reset
    /// in place, or a new one. Returns the slot index.
    fn admit(&mut self, item: u64) -> usize {
        let (servers, cost) = (self.cfg.servers, &self.cfg.cost);
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                let policy = match &self.cfg.plan {
                    Some(plan) => RunPolicy::Tolerant(Box::new(FaultTolerant::new(
                        (self.factory)(),
                        Arc::clone(plan),
                    ))),
                    None => RunPolicy::Plain((self.factory)()),
                };
                self.slots.push(ItemSlot {
                    policy,
                    rt: Runtime::new(servers),
                    fold: RunFold::default(),
                    brownout: BrownoutFold::default(),
                    last_t: 0.0,
                    requests: 0,
                    hits: 0,
                    deferred: 0,
                    live: 0,
                });
                self.slots.len() - 1
            }
        };
        if let Some(slot) = self.slots.get_mut(idx) {
            slot.policy.decider_mut().reset(servers, cost);
            slot.rt.reset(servers);
            slot.fold = RunFold::default();
            slot.brownout.reset();
            slot.last_t = 0.0;
            slot.requests = 0;
            slot.hits = 0;
            slot.deferred = 0;
            slot.live = 1; // the origin copy a reset runtime opens
        }
        self.copies_live += 1;
        self.index.insert(item, idx);
        self.stats.items_peak = self.stats.items_peak.max(self.index.len() as u64);
        self.stats.copies_peak = self.stats.copies_peak.max(self.copies_live as u64);
        self.sink
            .gauge_max(Gauge::ServeItemsPeak, self.index.len() as u64);
        self.sink
            .gauge_max(Gauge::ServeCopiesPeak, self.copies_live as u64);
        idx
    }

    /// Fires every timer due strictly before `until`: each fires
    /// [`OnlineDecider::expire`] (which closes copies at their believed
    /// expiry, making sweep timing unobservable) and re-arms its slot. A
    /// deadline *at* `until` is not due: the decider keeps a copy live
    /// through its expiry instant, so firing it would re-arm the same
    /// node forever.
    ///
    /// [`OnlineDecider::expire`]: mcc_core::online::OnlineDecider::expire
    fn sweep(&mut self, until: f64) {
        while let Some((at, slot)) = self.timers.peek() {
            if key_time(at) >= until {
                break;
            }
            let idx = slot as usize;
            let Some(slot) = self.slots.get_mut(idx) else {
                // Unreachable (timers name live slots); dropping the node
                // beats looping on it.
                self.timers.remove(idx as u32);
                continue;
            };
            slot.policy.decider_mut().expire(until, &mut slot.rt);
            let (live_now, prev) = slot.settle(&self.cfg.cost);
            let rearm = slot.policy.decider().next_expiry();
            self.copies_live = self.copies_live.saturating_sub(prev) + live_now;
            self.stats.expirations += 1;
            self.sink.add(Counter::ServeExpirations, 1);
            self.arm(idx, rearm);
        }
    }

    /// Moves slot `idx`'s timer to `at`, or drops it when `None`.
    fn arm(&mut self, idx: usize, at: Option<f64>) {
        match at {
            Some(at) => self.timers.set(time_key(at), idx as u32),
            None => self.timers.remove(idx as u32),
        }
    }

    /// Buffers a deferred request for client-visible replay (bounded by
    /// the plan's queue cap, mirroring the wrapper's own bound).
    fn buffer_offline(&mut self, item: u64, server: ServerId, t: f64) {
        let cap = self
            .cfg
            .plan
            .as_ref()
            .map_or(64usize, |p| p.queue_cap() as usize);
        if self.offline.len() < cap {
            self.offline.push_back(QueuedRequest { item, server, t });
        }
    }

    /// Emits a [`ReplayNote`] for every buffered request whose server is
    /// reachable again at `t`, preserving arrival order among the
    /// drained.
    fn drain_recovered(&mut self, t: f64) {
        let Some(plan) = &self.cfg.plan else { return };
        let mut i = 0;
        while i < self.offline.len() {
            let Some(q) = self.offline.get(i).copied() else {
                break;
            };
            if !plan.is_down(q.server, t) && !plan.partition_active(t) {
                self.offline.remove(i);
                self.replayed.push(ReplayNote {
                    item: q.item,
                    server: q.server,
                    t: q.t,
                    at: t,
                });
                self.stats.replayed += 1;
                self.sink.add(Counter::ServeReplayed, 1);
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_core::online::SpeculativeCaching;
    use mcc_simnet::factory;

    fn engine(servers: usize) -> ServeEngine<'static> {
        let cfg = ServeConfig::new(servers, CostModel::unit());
        ServeEngine::new(cfg, factory(SpeculativeCaching::paper()))
    }

    fn action(r: ServeReply) -> ServeAction {
        match r {
            ServeReply::Decision(d) => d.action,
            ServeReply::Shed { reason, .. } => panic!("unexpected shed: {reason:?}"),
        }
    }

    #[test]
    fn a_request_at_a_copy_deadline_is_answered() {
        // Δt = 1: the origin copy and the s1 copy both carry deadlines,
        // and the third request lands exactly on one of them. The timer
        // sweep used to re-arm that deadline forever instead of answering.
        let mut e = engine(4);
        assert_eq!(action(e.observe(1, 0, 1.0)), ServeAction::Cache);
        assert_eq!(
            action(e.observe(1, 1, 2.0)),
            ServeAction::Transfer { from: ServerId(0) }
        );
        assert_eq!(
            action(e.observe(1, 2, 3.0)),
            ServeAction::Transfer { from: ServerId(1) }
        );
        e.tick(4.0);
        assert!(e.finish(1).is_some());
    }

    #[test]
    fn serves_a_single_item_stream() {
        let mut e = engine(4);
        // Paper Fig. 6 prefix: transfers to new servers, then a hit.
        assert_eq!(
            action(e.observe(1, 1, 0.5)),
            ServeAction::Transfer { from: ServerId(0) }
        );
        assert_eq!(
            action(e.observe(1, 2, 0.8)),
            ServeAction::Transfer { from: ServerId(1) }
        );
        assert_eq!(action(e.observe(1, 2, 1.0)), ServeAction::Cache);
        let s = e.stats();
        assert_eq!(s.requests, 3);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.transfers, 2);
        assert_eq!(s.items_live, 1);
        let report = e.finish(1).unwrap();
        assert_eq!(report.requests, 3);
        assert_eq!(report.transfers, 2);
        assert!(report.online_cost > 0.0);
        assert!(e.finish(1).is_none());
        assert_eq!(e.stats().items_live, 0);
    }

    #[test]
    fn sheds_are_typed_and_counted() {
        let cfg = ServeConfig::new(2, CostModel::unit()).with_bounds(1, 1000);
        let mut e = ServeEngine::new(cfg, factory(SpeculativeCaching::paper()));
        assert!(matches!(e.observe(1, 0, 1.0), ServeReply::Decision(_)));
        assert_eq!(
            e.observe(2, 0, 2.0),
            ServeReply::Shed {
                item: 2,
                reason: ShedReason::MaxItems
            }
        );
        // Existing items always proceed.
        assert!(matches!(e.observe(1, 1, 3.0), ServeReply::Decision(_)));
        assert_eq!(
            e.observe(1, 9, 4.0),
            ServeReply::Shed {
                item: 1,
                reason: ShedReason::BadServer
            }
        );
        assert_eq!(
            e.observe(1, 0, 1.5),
            ServeReply::Shed {
                item: 1,
                reason: ShedReason::TimeRegression
            }
        );
        assert_eq!(
            e.observe(1, 0, f64::NAN),
            ServeReply::Shed {
                item: 1,
                reason: ShedReason::TimeRegression
            }
        );
        assert_eq!(e.stats().sheds, 4);
    }

    #[test]
    fn timers_fire_and_re_requests_refresh_them() {
        let mut e = engine(2);
        // Two live copies (origin + transfer target): SC arms a deadline.
        e.observe(1, 1, 1.0);
        assert_eq!(e.timers.len(), 1);
        // Re-request refreshes: the slot's node moves, so the old
        // deadline cannot evict the copy.
        e.observe(1, 1, 1.5);
        // Sweep far past every deadline: the speculative origin copy
        // lapses (λ/μ = 1 ⇒ believed expiry 1.0), the sole survivor
        // stays (lazy sole-copy semantics).
        e.tick(100.0);
        assert!(e.stats().expirations >= 1);
        let slot = &e.slots[e.index[&1]];
        assert_eq!(slot.rt.live_copies(), 1);
    }

    #[test]
    fn the_timer_heap_holds_one_node_per_tracked_slot() {
        // λ = 1e9 makes every copy's Δt outlast the stream, so no timer
        // ever fires; one item alternating servers every 0.01 re-arms its
        // slot's deadline on every request.
        let cost = CostModel::new(1.0, 1e9).unwrap();
        let mut e = ServeEngine::new(
            ServeConfig::new(4, cost),
            factory(SpeculativeCaching::paper()),
        );
        for k in 0..200_000u32 {
            e.observe(1, k % 2, 0.01 * f64::from(k + 1));
            assert!(e.timers.len() <= e.index.len(), "request {k}");
        }
        e.observe(2, 3, 2001.0);
        assert!(e.timers.len() <= 2);
        e.finish(1);
        e.finish(2);
        assert!(e.timers.is_empty());
    }

    #[test]
    fn copies_ceiling_sheds_new_items_only() {
        let cfg = ServeConfig::new(4, CostModel::unit()).with_bounds(1000, 2);
        let mut e = ServeEngine::new(cfg, factory(SpeculativeCaching::paper()));
        e.observe(1, 1, 0.5); // 2 live copies now
        assert_eq!(
            e.observe(2, 0, 0.6),
            ServeReply::Shed {
                item: 2,
                reason: ShedReason::MaxCopies
            }
        );
        // Existing item 1 may still grow.
        assert!(matches!(e.observe(1, 2, 0.7), ServeReply::Decision(_)));
    }

    #[test]
    fn finished_slots_are_reused_and_lose_their_timers() {
        let mut e = engine(2);
        // Two live copies: SC arms a deadline for item 1's slot.
        e.observe(1, 1, 1.0);
        assert_eq!(e.timers.len(), 1);
        assert!(e.finish(1).is_some());
        assert!(e.timers.is_empty(), "finish removes the slot's timer");
        // Item 2 takes the freed slot; its lone origin copy arms nothing.
        e.observe(2, 0, 1.2);
        assert_eq!(e.slots.len(), 1);
        assert_eq!(e.index[&2], 0);
        // Item 1's deadline must not fire against item 2.
        e.tick(100.0);
        assert_eq!(e.stats().expirations, 0);
        let report = e.finish(2).unwrap();
        assert_eq!(report.requests, 1);
        assert_eq!(report.cache_hits, 1);
    }

    #[test]
    fn fault_wrapped_items_share_one_plan() {
        use mcc_core::online::CrashWindow;
        let plan = FaultPlan::new(
            vec![CrashWindow {
                server: ServerId(1),
                from: 5.0,
                to: 6.0,
            }],
            7,
            0.0,
            0,
            0.0,
        );
        let cfg = ServeConfig::new(2, CostModel::unit()).with_plan(plan);
        let mut e = ServeEngine::new(cfg, factory(SpeculativeCaching::paper()));
        e.observe(1, 0, 0.5);
        e.observe(2, 1, 0.6);
        let plan_of = |item: u64| {
            let plan = e.slots[e.index[&item]].policy.plan();
            plan.expect("every item runs under the plan") as *const FaultPlan
        };
        let shared = e.cfg.plan.as_deref().unwrap() as *const FaultPlan;
        assert_eq!(plan_of(1), shared);
        assert_eq!(plan_of(2), shared);
    }

    #[test]
    fn offline_queue_buffers_and_replays_in_order() {
        use mcc_core::online::CrashWindow;
        // Both servers down over [1, 2): requests there are deferred.
        let plan = FaultPlan::new(
            vec![
                CrashWindow {
                    server: ServerId(0),
                    from: 1.0,
                    to: 2.0,
                },
                CrashWindow {
                    server: ServerId(1),
                    from: 1.0,
                    to: 2.0,
                },
            ],
            7,
            0.0,
            0,
            0.0,
        );
        let cfg = ServeConfig::new(2, CostModel::unit()).with_plan(plan);
        let mut e = ServeEngine::new(cfg, factory(SpeculativeCaching::paper()));
        e.observe(1, 0, 0.5);
        assert_eq!(action(e.observe(1, 1, 1.2)), ServeAction::Deferred);
        assert_eq!(action(e.observe(1, 0, 1.5)), ServeAction::Deferred);
        assert!(e.take_replayed().is_empty());
        // First event past recovery replays both, in arrival order.
        e.tick(2.5);
        let notes = e.take_replayed();
        assert_eq!(notes.len(), 2);
        assert_eq!(notes[0].server, ServerId(1));
        assert_eq!(notes[0].t, 1.2);
        assert_eq!(notes[1].server, ServerId(0));
        assert_eq!(notes[1].t, 1.5);
        assert_eq!(e.stats().replayed, 2);
        assert_eq!(e.stats().deferred, 2);
    }
}
