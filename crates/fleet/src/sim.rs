//! Phase 1: the sharded, batched fleet simulation.
//!
//! Items are partitioned into contiguous shards (rounded to whole
//! [`BATCH_UNITS`] chunks so every worker stays on the batched solver
//! path) across disjoint-ownership workers: each worker owns a disjoint
//! `&mut` range of every [`ItemStates`] column — the parallel-sweep
//! idiom, no locks, no shared mutable state, no unsafe. Inside a shard
//! the items stream through [`RunRequest::run_units_src`] in
//! `FLEET_BATCH_UNITS` (64) chunks with a `ShardSource` that generates
//! each
//! item's trace under its own `(μ, λ)`; since the batched kernel is
//! bit-identical to per-instance solves, shard geometry is unobservable
//! in the results and thread count cannot change a single bit.
//!
//! With capacity enforcement on, workers also harvest every item's copy
//! residency intervals through [`RunRequest::run_units_observed`] —
//! borrowed out of the run record between finalize and reset, never
//! recomputed — into one list per server, one 32-byte interval per
//! residency, and sort those lists by start on their own thread before
//! the join. Phase 2 (the private `capacity` module) then merges the
//! workers' sorted runs and sweeps each server's timeline against its
//! slot budget, dealing the servers across the job's threads.

use std::panic;
use std::thread;

use mcc_model::Instance;
use mcc_obs::{Counter, Gauge, Hist, Sink, Span};
use mcc_simnet::{
    AuditFinding, PolicyFactory, RunMode, RunPolicy, RunRequest, RunWorkspace, SeedResult,
    UnitSource, BATCH_UNITS,
};
use mcc_workloads::{CommonParams, InstanceBuf, PoissonWorkload, Workload};

use crate::capacity::{capacity_sweep, CapacityOutcome, CapacityScratch, ServerBuckets};
use crate::spec::FleetSpec;
use crate::state::{FleetSummary, ItemStates};

/// Seeds handed to the batched runner per staging round. Results are
/// scattered into the SoA columns between rounds, so this bounds the
/// per-worker `SeedResult` buffer, not the fleet size.
const SCATTER_CHUNK: usize = 256;

/// Chunk width the fleet stages at ([`RunRequest::with_batch_units`]):
/// fleet items are a handful of requests each, so the per-chunk staging
/// and kernel setup amortize much further than at the sweep-tuned
/// [`BATCH_UNITS`]. A whole chunk's instances stay cache-resident even
/// at this width. Chunk geometry is unobservable in the results.
const FLEET_BATCH_UNITS: usize = 64;

/// Everything [`run_fleet`] reuses run to run: the SoA columns, the
/// per-worker run workspaces, result buffers and event harvests, the
/// capacity-sweep scratch and the typed findings. Warm reuse at a
/// stable fleet shape performs zero heap allocations on the simulation
/// path (enforced by `tests/alloc_free.rs`).
///
/// The single-threaded path also caches one built policy, so a
/// workspace is per-(mode, factory): hand a *different* factory to
/// [`run_fleet`] only after [`FleetWorkspace::clear_cached_policy`].
#[derive(Default)]
pub struct FleetWorkspace {
    states: ItemStates,
    seeds: Vec<u64>,
    slots: Vec<WorkerSlot>,
    /// Per-worker residency intervals, one sorted list per server.
    harvest: Vec<ServerBuckets>,
    /// Cached policy for the single-threaded inline path only —
    /// [`RunPolicy`] is not `Send`, so multi-threaded workers build
    /// theirs inside the spawn (one build per shard per run).
    policy1: Option<RunPolicy>,
    scratch: CapacityScratch,
    findings: Vec<AuditFinding>,
}

impl FleetWorkspace {
    /// A fresh, cold workspace.
    pub fn new() -> Self {
        FleetWorkspace::default()
    }

    /// The per-item SoA columns of the last [`run_fleet`] call.
    pub fn states(&self) -> &ItemStates {
        &self.states
    }

    /// Typed findings from the last capacity sweep (at most a fixed
    /// sample; the summary carries the full violation count).
    pub fn findings(&self) -> &[AuditFinding] {
        &self.findings
    }

    /// Drops the cached single-thread policy; call before reusing this
    /// workspace with a different policy factory.
    pub fn clear_cached_policy(&mut self) {
        self.policy1 = None;
    }
}

/// One worker's private storage: a warm [`RunWorkspace`] and the
/// staged results of the current scatter chunk.
#[derive(Default)]
struct WorkerSlot {
    ws: Option<RunWorkspace>,
    out: Vec<SeedResult>,
}

/// A shard's disjoint `&mut` window into every phase-1 column (the
/// `evictions` column belongs to phase 2 and is not sharded).
struct ShardCols<'a> {
    mu: &'a mut [f64],
    lambda: &'a mut [f64],
    online: &'a mut [f64],
    opt: &'a mut [f64],
    ratio: &'a mut [f64],
    transfers: &'a mut [u32],
    findings: &'a mut [u32],
}

impl<'a> ShardCols<'a> {
    fn full(states: &'a mut ItemStates) -> Self {
        ShardCols {
            mu: &mut states.mu,
            lambda: &mut states.lambda,
            online: &mut states.online_cost,
            opt: &mut states.opt_cost,
            ratio: &mut states.ratio,
            transfers: &mut states.transfers,
            findings: &mut states.audit_findings,
        }
    }

    fn split(self, mid: usize) -> (ShardCols<'a>, ShardCols<'a>) {
        let (mu_a, mu_b) = self.mu.split_at_mut(mid);
        let (la_a, la_b) = self.lambda.split_at_mut(mid);
        let (on_a, on_b) = self.online.split_at_mut(mid);
        let (op_a, op_b) = self.opt.split_at_mut(mid);
        let (ra_a, ra_b) = self.ratio.split_at_mut(mid);
        let (tr_a, tr_b) = self.transfers.split_at_mut(mid);
        let (fi_a, fi_b) = self.findings.split_at_mut(mid);
        (
            ShardCols {
                mu: mu_a,
                lambda: la_a,
                online: on_a,
                opt: op_a,
                ratio: ra_a,
                transfers: tr_a,
                findings: fi_a,
            },
            ShardCols {
                mu: mu_b,
                lambda: la_b,
                online: on_b,
                opt: op_b,
                ratio: ra_b,
                transfers: tr_b,
                findings: fi_b,
            },
        )
    }
}

/// The fleet's [`UnitSource`]: the runner's "seed" is an *item index*,
/// and each item generates its Poisson trace under its own pre-drawn
/// `(μ, λ)` and its domain-separated trace seed. Building the
/// [`PoissonWorkload`] per call is free of heap traffic (it is a plain
/// value) and the uniform fill path writes the instance in place.
struct ShardSource<'a> {
    spec: &'a FleetSpec,
    base: u64,
    mu: &'a [f64],
    lambda: &'a [f64],
}

impl UnitSource for ShardSource<'_> {
    fn generate_into<'b>(&self, seed: u64, buf: &'b mut InstanceBuf) -> &'b Instance<f64> {
        let j = (seed - self.base) as usize;
        let w = PoissonWorkload::uniform(
            CommonParams {
                servers: self.spec.servers,
                requests: self.spec.requests_per_item,
                mu: self.mu[j],
                lambda: self.lambda[j],
            },
            self.spec.rate,
        );
        Workload::generate_into(&w, self.spec.trace_seed(seed), buf)
    }
}

/// Hardware thread count, probed once per process —
/// [`std::thread::available_parallelism`] reads cgroup files and
/// allocates on every call, which would break the warm path's
/// zero-allocation guarantee.
fn hw_threads() -> usize {
    static HW: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HW.get_or_init(|| {
        thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// `0` = hardware threads; clamped so every worker gets at least one
/// whole `BATCH_UNITS` chunk.
fn resolve_threads(requested: usize, items: usize) -> usize {
    let hw = hw_threads();
    let t = if requested == 0 { hw } else { requested };
    let max_shards = items.div_ceil(BATCH_UNITS).max(1);
    t.clamp(1, max_shards)
}

/// Contiguous shard length: `⌈items/threads⌉` rounded up to whole
/// `BATCH_UNITS` chunks, so no worker's tail chunk is short because of
/// the *partitioning* (only the fleet's own tail can be).
fn shard_len(items: usize, threads: usize) -> usize {
    items.div_ceil(threads).max(1).div_ceil(BATCH_UNITS) * BATCH_UNITS
}

/// Runs one shard: draws the shard's `(μ, λ)` columns, streams its items
/// through the batched runner in [`SCATTER_CHUNK`] rounds, scatters
/// results into the SoA window and, when `harvest` is given, files every
/// residency interval into it and sorts it. `cached` is the single-thread
/// policy slot; workers pass `None` and build a local policy.
#[allow(clippy::too_many_arguments)]
fn shard_body(
    spec: &FleetSpec,
    factory: &PolicyFactory,
    cached: Option<&mut Option<RunPolicy>>,
    slot: &mut WorkerSlot,
    mut harvest: Option<&mut ServerBuckets>,
    cols: ShardCols<'_>,
    base: u64,
    seeds: &[u64],
    sink: &dyn Sink,
) {
    let ShardCols {
        mu,
        lambda,
        online,
        opt,
        ratio,
        transfers,
        findings,
    } = cols;
    for (j, &seed) in seeds.iter().enumerate() {
        let (m, l) = spec.item_params(seed);
        mu[j] = m;
        lambda[j] = l;
    }
    let src = ShardSource {
        spec,
        base,
        mu: &*mu,
        lambda: &*lambda,
    };
    // The regime is set both ways because the slot's workspace remembers
    // the last run's choice across reuse.
    let req = RunRequest::from_workspace(RunMode::Plain, slot.ws.take().unwrap_or_default())
        .with_sink(sink)
        .with_batch_units(FLEET_BATCH_UNITS);
    let mut req = if spec.audit {
        req.with_streaming_audit()
    } else {
        req.without_audit()
    };
    let mut local = None;
    let policy_slot = match cached {
        Some(c) => c,
        None => &mut local,
    };
    let policy = policy_slot.get_or_insert_with(|| req.policy(factory));
    let out = &mut slot.out;
    if let Some(h) = harvest.as_deref_mut() {
        h.reset(spec.servers);
    }
    for chunk in seeds.chunks(SCATTER_CHUNK) {
        out.clear();
        if let Some(h) = harvest.as_deref_mut() {
            req.run_units_observed(policy, &src, chunk, out, |r, rec| {
                let item = r.seed as u32;
                for c in &rec.records {
                    h.push(item, c.server.index(), c.from, c.last_touch, c.to);
                }
            });
        } else {
            req.run_units_src(policy, &src, chunk, out);
        }
        for r in out.iter() {
            let j = (r.seed - base) as usize;
            online[j] = r.online_cost;
            opt[j] = r.opt_cost;
            ratio[j] = r.ratio;
            transfers[j] = r.transfers.min(u32::MAX as usize) as u32;
            findings[j] = r.audit_findings.min(u32::MAX as usize) as u32;
            sink.observe(
                Hist::FleetItemCostCenti,
                (r.online_cost.max(0.0) * 100.0) as u64,
            );
        }
    }
    if let Some(h) = harvest {
        h.sort();
    }
    slot.ws = Some(req.into_workspace());
}

/// Simulates the whole fleet described by `spec` with policies from
/// `factory`, reusing `ws` across calls. Per-item results land in
/// [`FleetWorkspace::states`]; the returned [`FleetSummary`] aggregates
/// them in item order (so it, too, is bit-identical across thread
/// counts).
pub fn run_fleet(
    spec: &FleetSpec,
    factory: &PolicyFactory,
    ws: &mut FleetWorkspace,
    sink: &dyn Sink,
) -> Result<FleetSummary, String> {
    spec.validate()?;
    let items = spec.items;
    ws.states.reset(items);
    ws.findings.clear();
    if ws.seeds.len() != items {
        ws.seeds.clear();
        ws.seeds.extend(0..items as u64);
    }
    sink.add(Counter::FleetItems, items as u64);
    sink.gauge_max(Gauge::FleetSize, items as u64);
    sink.gauge_max(Gauge::HwThreads, hw_threads() as u64);
    let collect = spec.capacity.is_some();
    let threads = resolve_threads(spec.threads, items);
    if ws.slots.len() < threads {
        ws.slots.resize_with(threads, WorkerSlot::default);
        ws.harvest.resize_with(threads, ServerBuckets::default);
    }
    // Workers that ran this call: `shard_len` rounds shards up to whole
    // chunks, so fewer than `threads` shards can cover the fleet, and an
    // idle worker's harvest still holds an earlier call's intervals.
    let mut workers = 0;
    {
        let _span = Span::start(sink, Counter::FleetSimNanos);
        if threads == 1 {
            shard_body(
                spec,
                factory,
                Some(&mut ws.policy1),
                &mut ws.slots[0],
                collect.then_some(&mut ws.harvest[0]),
                ShardCols::full(&mut ws.states),
                0,
                &ws.seeds,
                sink,
            );
            workers = 1;
        } else {
            let shard = shard_len(items, threads);
            let slots = ws.slots.iter_mut().zip(ws.harvest.iter_mut());
            let mut cols = ShardCols::full(&mut ws.states);
            let mut seeds = ws.seeds.as_slice();
            thread::scope(|scope| {
                let mut handles = Vec::with_capacity(threads);
                for (slot, harvest) in slots.take(threads) {
                    let take = shard.min(seeds.len());
                    if take == 0 {
                        break;
                    }
                    let (head, tail) = cols.split(take);
                    cols = tail;
                    let (s_head, s_tail) = seeds.split_at(take);
                    seeds = s_tail;
                    let base = s_head[0];
                    let harvest = collect.then_some(harvest);
                    workers += 1;
                    handles.push(scope.spawn(move || {
                        shard_body(spec, factory, None, slot, harvest, head, base, s_head, sink);
                    }));
                }
                for h in handles {
                    if let Err(payload) = h.join() {
                        panic::resume_unwind(payload);
                    }
                }
            });
        }
    }

    let mut outcome = CapacityOutcome::default();
    if let Some(cap) = spec.capacity {
        let _span = Span::start(sink, Counter::FleetCapacityNanos);
        outcome = capacity_sweep(
            spec,
            cap,
            threads,
            &ws.harvest[..workers],
            &mut ws.scratch,
            &mut ws.states.evictions,
            &mut ws.findings,
            sink,
        );
    }

    let st = &ws.states;
    let mut sum = FleetSummary {
        items,
        ..FleetSummary::default()
    };
    for j in 0..items {
        sum.online_cost += st.online_cost[j];
        sum.opt_cost += st.opt_cost[j];
        sum.transfers += st.transfers[j] as u64;
        sum.audit_findings += st.audit_findings[j] as u64;
        let r = st.ratio[j];
        sum.mean_ratio += r;
        if r > sum.max_ratio {
            sum.max_ratio = r;
        }
    }
    if items > 0 {
        sum.mean_ratio /= items as f64;
    }
    sum.evictions = outcome.evictions;
    sum.eviction_cost = outcome.eviction_cost;
    sum.capacity_violations = outcome.violations;
    sum.occupancy_peak = outcome.peak;
    sum.capacity_events = outcome.events;
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::EvictionPolicy;
    use mcc_core::online::SpeculativeCaching;
    use mcc_obs::{noop, Registry};
    use mcc_simnet::factory;
    use mcc_workloads::distributions::ParamDist;

    fn sc() -> PolicyFactory {
        factory(SpeculativeCaching::<f64>::paper())
    }

    /// One fresh [`RunRequest`] (cold workspace), one fresh policy and
    /// one [`RunRequest::run_unit`] call per item, summed in item order:
    /// the oracle every fleet result must match bit for bit.
    fn naive_item_loop(
        spec: &FleetSpec,
        factory: &PolicyFactory,
        sink: &dyn Sink,
    ) -> Result<FleetSummary, String> {
        spec.validate()?;
        let items = spec.items;
        let mut sum = FleetSummary {
            items,
            ..FleetSummary::default()
        };
        for item in 0..items as u64 {
            let (mu, lambda) = spec.item_params(item);
            let w = PoissonWorkload::uniform(
                CommonParams {
                    servers: spec.servers,
                    requests: spec.requests_per_item,
                    mu,
                    lambda,
                },
                spec.rate,
            );
            let req = RunRequest::new(RunMode::Plain).with_sink(sink);
            let mut req = if spec.audit { req } else { req.without_audit() };
            let mut policy = req.policy(factory);
            let r = req.run_unit(&mut policy, &w, spec.trace_seed(item));
            sum.online_cost += r.online_cost;
            sum.opt_cost += r.opt_cost;
            sum.transfers += r.transfers.min(u32::MAX as usize) as u64;
            sum.audit_findings += r.audit_findings.min(u32::MAX as usize) as u64;
            if r.ratio > sum.max_ratio {
                sum.max_ratio = r.ratio;
            }
            sum.mean_ratio += r.ratio;
        }
        if items > 0 {
            sum.mean_ratio /= items as f64;
        }
        Ok(sum)
    }

    fn spec_small() -> FleetSpec {
        FleetSpec {
            items: 37,
            servers: 4,
            requests_per_item: 12,
            rate: 1.0,
            mu: ParamDist::Uniform { lo: 0.5, hi: 2.0 },
            lambda: ParamDist::Exp { mean: 1.0 },
            seed: 7,
            ..FleetSpec::default()
        }
    }

    #[test]
    fn fleet_matches_the_naive_loop_bitwise() {
        let spec = spec_small();
        let f = sc();
        let mut ws = FleetWorkspace::new();
        let fleet = run_fleet(&spec, &f, &mut ws, noop()).unwrap();
        let naive = naive_item_loop(&spec, &f, noop()).unwrap();
        assert_eq!(fleet, naive, "same items, same order, same bits");
        assert!(fleet.online_cost > 0.0);
        assert!(fleet.max_ratio >= 1.0);
    }

    #[test]
    fn thread_count_never_changes_a_bit() {
        // Capacity on so the interval harvest + merge path is exercised too;
        // 37 items is deliberately not a multiple of BATCH_UNITS.
        let base = FleetSpec {
            capacity: Some(3),
            eviction: EvictionPolicy::Lru { price: 0.25 },
            ..spec_small()
        };
        let f = sc();
        let mut ws1 = FleetWorkspace::new();
        let one = run_fleet(&base, &f, &mut ws1, noop()).unwrap();
        for threads in [2usize, 8] {
            let spec = FleetSpec { threads, ..base };
            let mut ws = FleetWorkspace::new();
            let t = run_fleet(&spec, &f, &mut ws, noop()).unwrap();
            assert_eq!(t, one, "{threads}-thread summary diverged");
            assert_eq!(ws.states().online_cost, ws1.states().online_cost);
            assert_eq!(ws.states().opt_cost, ws1.states().opt_cost);
            assert_eq!(ws.states().mu, ws1.states().mu);
            assert_eq!(ws.states().transfers, ws1.states().transfers);
            assert_eq!(ws.states().evictions, ws1.states().evictions);
        }
    }

    #[test]
    fn unaudited_regime_changes_only_the_findings_column() {
        let spec = spec_small();
        let f = sc();
        let mut ws = FleetWorkspace::new();
        let audited = run_fleet(&spec, &f, &mut ws, noop()).unwrap();
        let quiet_spec = FleetSpec {
            audit: false,
            ..spec
        };
        // Same (dirtied) workspace on purpose: the regime must be reset
        // per run, not inherited from the slot's last use.
        let quiet = run_fleet(&quiet_spec, &f, &mut ws, noop()).unwrap();
        assert_eq!(quiet.online_cost.to_bits(), audited.online_cost.to_bits());
        assert_eq!(quiet.opt_cost.to_bits(), audited.opt_cost.to_bits());
        assert_eq!(quiet.mean_ratio.to_bits(), audited.mean_ratio.to_bits());
        assert_eq!(quiet.transfers, audited.transfers);
        assert_eq!(quiet.audit_findings, 0);
        assert!(ws.states().audit_findings.iter().all(|&c| c == 0));
        // The naive loop honors the flag the same way, so the bitwise
        // cross-check holds in both regimes.
        let naive = naive_item_loop(&quiet_spec, &f, noop()).unwrap();
        assert_eq!(quiet, naive);
        // And flipping back re-audits (no sticky workspace state).
        let again = run_fleet(&spec, &f, &mut ws, noop()).unwrap();
        assert_eq!(again, audited);
    }

    #[test]
    fn covering_capacity_is_identical_to_unbounded() {
        let spec = spec_small();
        let f = sc();
        let mut ws = FleetWorkspace::new();
        let unbounded = run_fleet(&spec, &f, &mut ws, noop()).unwrap();
        let covered_spec = FleetSpec {
            capacity: Some(spec.items),
            eviction: EvictionPolicy::Lru { price: 5.0 },
            ..spec
        };
        let covered = run_fleet(&covered_spec, &f, &mut ws, noop()).unwrap();
        assert_eq!(covered.evictions, 0);
        assert_eq!(covered.eviction_cost, 0.0);
        assert_eq!(covered.capacity_violations, 0);
        assert_eq!(
            covered.online_cost.to_bits(),
            unbounded.online_cost.to_bits()
        );
        assert_eq!(covered.opt_cost.to_bits(), unbounded.opt_cost.to_bits());
        assert_eq!(covered.mean_ratio.to_bits(), unbounded.mean_ratio.to_bits());
        assert_eq!(covered.transfers, unbounded.transfers);
        // Every item's origin copy opens on server 0 at t=0, so the
        // occupancy peak must be the whole fleet.
        assert_eq!(covered.occupancy_peak, spec.items);
        assert!(covered.capacity_events > 0);
    }

    #[test]
    fn eviction_charges_are_conserved() {
        let spec = FleetSpec {
            capacity: Some(1),
            eviction: EvictionPolicy::Lru { price: 0.75 },
            ..spec_small()
        };
        let f = sc();
        let mut ws = FleetWorkspace::new();
        let s = run_fleet(&spec, &f, &mut ws, noop()).unwrap();
        assert!(s.evictions > 0, "capacity 1 must evict");
        assert_eq!(s.eviction_cost, s.evictions as f64 * 0.75);
        assert_eq!(s.total_cost(), s.online_cost + s.eviction_cost);
        let per_item: u64 = ws.states().evictions.iter().map(|&e| e as u64).sum();
        assert_eq!(per_item, s.evictions, "eviction ledger balances per item");
        assert_eq!(s.capacity_violations, 0, "LRU never over-admits");
        assert_eq!(s.occupancy_peak, 1);
    }

    #[test]
    fn disabled_eviction_surfaces_typed_violations() {
        let spec = FleetSpec {
            capacity: Some(1),
            eviction: EvictionPolicy::None,
            ..spec_small()
        };
        let f = sc();
        let mut ws = FleetWorkspace::new();
        let s = run_fleet(&spec, &f, &mut ws, noop()).unwrap();
        assert!(s.capacity_violations > 0);
        assert_eq!(s.evictions, 0);
        assert!(s.occupancy_peak > 1, "violations admit past the budget");
        assert!(!ws.findings().is_empty());
        assert!(ws
            .findings()
            .iter()
            .all(|f| matches!(f, AuditFinding::CapacityViolation { .. })));
    }

    #[test]
    fn empty_fleet_is_a_clean_zero() {
        let spec = FleetSpec {
            items: 0,
            ..spec_small()
        };
        let f = sc();
        let mut ws = FleetWorkspace::new();
        let s = run_fleet(&spec, &f, &mut ws, noop()).unwrap();
        assert_eq!(s, FleetSummary::default());
    }

    #[test]
    fn workspace_reuse_is_stable_across_shapes() {
        let f = sc();
        let mut ws = FleetWorkspace::new();
        let spec = spec_small();
        let a = run_fleet(&spec, &f, &mut ws, noop()).unwrap();
        // Different shape in between must not leak into a rerun.
        let other = FleetSpec {
            items: 100,
            seed: 9,
            capacity: Some(2),
            eviction: EvictionPolicy::Lru { price: 1.0 },
            ..spec
        };
        let _ = run_fleet(&other, &f, &mut ws, noop()).unwrap();
        let b = run_fleet(&spec, &f, &mut ws, noop()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn shrinking_reuse_matches_a_fresh_run() {
        // 40 items on 4 threads are shards of 16, 16 and 8: the fourth
        // worker sits idle, and its harvest from the 4,096-item run must
        // not leak into the sweep (likewise 72 and 136 items on 8).
        let f = sc();
        for (threads, small) in [(4usize, 40usize), (8, 72), (8, 136)] {
            let big = FleetSpec {
                items: 4096,
                capacity: Some(8),
                eviction: EvictionPolicy::Lru { price: 0.5 },
                threads,
                ..spec_small()
            };
            let shrunk = FleetSpec {
                items: small,
                ..big
            };
            let mut ws = FleetWorkspace::new();
            run_fleet(&big, &f, &mut ws, noop()).unwrap();
            let reused = run_fleet(&shrunk, &f, &mut ws, noop()).unwrap();
            for fresh_threads in [1, threads] {
                let mut fresh_ws = FleetWorkspace::new();
                let fresh_spec = FleetSpec {
                    threads: fresh_threads,
                    ..shrunk
                };
                let fresh = run_fleet(&fresh_spec, &f, &mut fresh_ws, noop()).unwrap();
                assert_eq!(
                    reused, fresh,
                    "{small} items after 4096 on {threads} threads"
                );
                assert_eq!(ws.states().evictions, fresh_ws.states().evictions);
            }
        }
    }

    #[test]
    fn invalid_specs_are_refused() {
        let f = sc();
        let mut ws = FleetWorkspace::new();
        let bad = FleetSpec {
            servers: 0,
            ..spec_small()
        };
        assert!(run_fleet(&bad, &f, &mut ws, noop()).is_err());
        assert!(naive_item_loop(&bad, &f, noop()).is_err());
    }

    #[test]
    fn fleet_metrics_are_recorded() {
        let spec = FleetSpec {
            capacity: Some(2),
            eviction: EvictionPolicy::Lru { price: 0.5 },
            ..spec_small()
        };
        let f = sc();
        let mut ws = FleetWorkspace::new();
        let reg = Registry::new();
        let s = run_fleet(&spec, &f, &mut ws, &reg).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter(Counter::FleetItems), spec.items as u64);
        assert_eq!(snap.gauge(Gauge::FleetSize), spec.items as u64);
        assert_eq!(snap.gauge(Gauge::FleetCapacitySlots), 2);
        assert_eq!(
            snap.gauge(Gauge::FleetOccupancyPeak),
            s.occupancy_peak as u64
        );
        assert_eq!(snap.counter(Counter::FleetEvictions), s.evictions);
        assert_eq!(
            snap.counter(Counter::FleetCapacityEvents),
            s.capacity_events
        );
        // One 32-B interval per two events, plus one 16-B end per
        // interval of the busiest server.
        let intervals = s.capacity_events / 2;
        let harvest = snap.gauge(Gauge::FleetCapacityHarvestBytes);
        assert!(harvest > intervals * 32, "{harvest} B");
        assert!(harvest <= intervals * 48, "{harvest} B");
        assert!(snap.counter(Counter::FleetSimNanos) > 0);
        assert!(snap.counter(Counter::FleetCapacityNanos) > 0);
        assert_eq!(snap.hist(Hist::FleetItemCostCenti).count, spec.items as u64);
        assert_eq!(
            snap.hist(Hist::FleetServerOccupancyPeak).count,
            spec.servers as u64
        );
        // A live sink never changes results.
        let mut ws2 = FleetWorkspace::new();
        let quiet = run_fleet(&spec, &f, &mut ws2, noop()).unwrap();
        assert_eq!(s, quiet);
    }

    #[test]
    fn shard_geometry_helpers_hold_their_contracts() {
        assert_eq!(resolve_threads(1, 1000), 1);
        assert_eq!(resolve_threads(8, 1000), 8);
        assert!(resolve_threads(0, 1000) >= 1);
        assert_eq!(resolve_threads(8, 9), 2, "one BATCH_UNITS chunk per worker");
        assert_eq!(resolve_threads(8, 0), 1);
        for (items, threads) in [(37usize, 2usize), (37, 8), (100, 3), (1, 1), (1024, 8)] {
            let shard = shard_len(items, threads);
            assert_eq!(shard % BATCH_UNITS, 0, "{items}/{threads}");
            assert!(shard * threads >= items, "{items}/{threads} must cover");
        }
    }
}
