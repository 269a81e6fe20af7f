//! One experiment cell: a policy set against a workload across seeds.
//!
//! The run pipeline has a single front door: [`RunRequest`]. A request
//! owns the workspace buffers, the audit mode, the fault wiring and the
//! metrics [`Sink`] in one place, and a [`RunMode`] picks the regime —
//! [`RunMode::Plain`] (healthy cluster), [`RunMode::Faulty`] (faults
//! injected, policy wrapped in the fault-tolerant layer) or
//! [`RunMode::Oblivious`] (faults injected, policy unaware; only the
//! audit sees the plan). The pre-request entry points (`run_seed_in`,
//! `run_unit_in`, `run_cell_in` and friends) are gone — every caller
//! goes through a request.
//!
//! Every run is audited before its result is returned — feasibility
//! checking is not an opt-in debug mode but part of the measurement
//! itself, and the per-seed finding count rides along in [`SeedResult`].
//! The audit happens in-stream ([`StreamingAuditor`], one chronological
//! pass over the raw run record), property-tested against the
//! materializing [`crate::ScheduleAuditor`] replay in
//! `tests/audit_equivalence.rs` and `tests/fault_properties.rs`.
//! [`RunRequest::without_audit`] drops verification entirely — the
//! throughput regime for fleet-scale sweeps of tiny instances, where the
//! audit would otherwise be a third of the per-item wall time. The audit
//! is pure observation, so only `audit_findings` (reported as `0`)
//! changes; every cost, ratio and transfer count stays bit-identical.
//! Fault-injected modes expand a [`FaultSpec`] into a per-seed
//! [`FaultPlan`] and (for [`RunMode::Faulty`]) wrap the policy in the
//! fault-tolerant layer.
//!
//! The steady-state seed unit ([`RunRequest::run_unit`]) is
//! allocation-free: policy run, off-line optimum, fault expansion, audit
//! and metrics recording all work inside the request's [`RunWorkspace`]
//! buffers and the sink's preallocated cells (enforced by
//! `tests/alloc_free.rs`, including with a live
//! [`mcc_obs::Registry`] attached). Metrics never feed back into the
//! measurement: a request with a live sink produces bit-identical
//! [`SeedResult`]s to one without.

use mcc_core::offline::{solve_naive_in, BatchWorkspace, SolverWorkspace};
use mcc_core::online::{
    brownout_surcharge, run_policy_record, FaultPlan, FaultStats, FaultTolerant, OnlineDecider,
    RunRecord, Runtime,
};
use mcc_model::Instance;
use mcc_obs::{Counter, Hist, Sink, Span};
use mcc_workloads::{InstanceBuf, Workload};

use crate::fault::{FaultSpec, PlanScratch};
use crate::metrics::Breakdown;
use crate::streaming::{AuditScratch, StreamingAuditor};

/// Factory for fresh policy instances (policies are stateful, so each run
/// gets its own). The factory must be `Sync` for the parallel sweeps.
pub type PolicyFactory = Box<dyn Fn() -> Box<dyn OnlineDecider<f64>> + Send + Sync>;

/// Builds a policy factory from a clonable policy value.
pub fn factory<P>(proto: P) -> PolicyFactory
where
    P: OnlineDecider<f64> + Clone + Send + Sync + 'static,
{
    Box::new(move || Box::new(proto.clone()))
}

/// A per-seed instance source for the batched unit path
/// ([`RunRequest::run_units_src`]). The classic source is a [`Workload`]
/// — every seed drawn from one parameter set — and the blanket impl makes
/// every workload a source unchanged. The fleet layer implements it
/// directly: there the "seed" is an *item index* and each item generates
/// under its own `(μ, λ)`, which is what makes the run pipeline
/// item-generic without a second code path.
pub trait UnitSource {
    /// Generates (or fills in place) the instance for `seed`.
    fn generate_into<'a>(&self, seed: u64, buf: &'a mut InstanceBuf) -> &'a Instance<f64>;
}

impl<W: Workload + ?Sized> UnitSource for W {
    fn generate_into<'a>(&self, seed: u64, buf: &'a mut InstanceBuf) -> &'a Instance<f64> {
        Workload::generate_into(self, seed, buf)
    }
}

/// Per-worker storage for the whole run pipeline: instance-generation
/// buffers, solver tables, runtime record buffers, audit scratch and
/// fault-plan buffers. With a warm workspace a whole unit — instance
/// generation included — performs no heap allocation.
///
/// The generation buffer is held apart from the per-seed scratch
/// (`SeedScratch`) so a unit can borrow the generated instance out of
/// `gen` while the rest of the workspace is mutated (disjoint field
/// borrows).
pub struct RunWorkspace {
    /// Instance-generation storage ([`Workload::generate_into`]).
    gen: InstanceBuf,
    /// Everything a seed measurement needs beyond the instance.
    run: SeedScratch,
    /// Per-slot generation buffers for the batched unit path — the whole
    /// chunk's instances must be alive at once so the batched solver can
    /// stage them into one SoA kernel call.
    batch_gen: Vec<InstanceBuf>,
    /// The batched off-line solver ([`mcc_core::offline::BatchWorkspace`]):
    /// one kernel pass computes every chunk instance's optimum.
    batch: BatchWorkspace<f64>,
    /// Chunk width of the batched unit path; [`BATCH_UNITS`] unless the
    /// request overrode it ([`RunRequest::with_batch_units`]).
    batch_units: usize,
}

/// The per-seed half of [`RunWorkspace`]: solver tables, runtime record
/// buffers, audit scratch and fault-plan buffers.
struct SeedScratch {
    solver: SolverWorkspace<f64>,
    rt: Runtime<f64>,
    audit: AuditScratch,
    /// Plan storage for oblivious fault cells (tolerant cells expand
    /// straight into the wrapper's own plan buffer).
    fault_plan: FaultPlan,
    /// Whether the [`StreamingAuditor`] verifies each seed's run record;
    /// when off, `audit_findings` is reported as `0`.
    audit_on: bool,
}

impl RunWorkspace {
    /// A fresh workspace using the streaming auditor.
    pub fn new() -> Self {
        RunWorkspace {
            gen: InstanceBuf::new(),
            run: SeedScratch {
                solver: SolverWorkspace::new(),
                rt: Runtime::new(1),
                audit: AuditScratch::default(),
                fault_plan: FaultPlan::none(),
                audit_on: true,
            },
            batch_gen: Vec::new(),
            batch: BatchWorkspace::new(),
            batch_units: BATCH_UNITS,
        }
    }
}

impl Default for RunWorkspace {
    fn default() -> Self {
        RunWorkspace::new()
    }
}

/// The fault regime of a [`RunRequest`].
///
/// The mode — not the spec's `tolerant` flag — decides whether the policy
/// runs wrapped: [`RunMode::from_faults`] is the canonical mapping from a
/// cell's `Option<FaultSpec>`.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum RunMode {
    /// Healthy cluster, no fault plan at all.
    Plain,
    /// Faults injected and the policy wrapped in [`FaultTolerant`]; the
    /// wrapper's retry surcharge is folded into `online_cost`.
    Faulty(FaultSpec),
    /// Faults injected but the policy runs unaware; only the audit sees
    /// the plan and reports every violation the faults induce.
    Oblivious(FaultSpec),
}

impl RunMode {
    /// The canonical mode for a grid cell's fault column: `None` runs
    /// plain, a tolerant spec runs wrapped, a non-tolerant spec runs
    /// oblivious.
    pub fn from_faults(faults: Option<FaultSpec>) -> RunMode {
        match faults {
            None => RunMode::Plain,
            Some(spec) if spec.tolerant => RunMode::Faulty(spec),
            Some(spec) => RunMode::Oblivious(spec),
        }
    }

    /// The fault spec, if this mode injects faults.
    pub fn faults(&self) -> Option<&FaultSpec> {
        match self {
            RunMode::Plain => None,
            RunMode::Faulty(spec) | RunMode::Oblivious(spec) => Some(spec),
        }
    }
}

/// A policy instance shaped for a [`RunMode`]: plain, or behind the
/// fault-tolerant wrapper. Build one with [`RunRequest::policy`] and
/// reuse it across the seeds of a cell (the executor resets it per run);
/// rebuild it when the mode changes cells. The serve engine keeps one
/// per tracked item, so the tolerant arm is boxed: a plain item does not
/// pay for the wrapper's size.
pub enum RunPolicy {
    /// Healthy cell, or a fault cell run oblivious.
    Plain(Box<dyn OnlineDecider<f64>>),
    /// Fault cell run behind the fault-tolerant wrapper.
    Tolerant(Box<FaultTolerant<Box<dyn OnlineDecider<f64>>>>),
}

/// The run pipeline's single front door: one value owns the workspace,
/// the audit mode, the fault wiring and the metrics sink, and every
/// granularity of work — seed, unit, cell — goes through it.
///
/// ```
/// use mcc_simnet::{factory, RunMode, RunRequest};
/// use mcc_core::online::SpeculativeCaching;
/// use mcc_workloads::{CommonParams, PoissonWorkload};
///
/// let w = PoissonWorkload::uniform(CommonParams::small().with_size(4, 30), 1.0);
/// let f = factory(SpeculativeCaching::paper());
/// let mut req = RunRequest::new(RunMode::Plain);
/// let results = req.run_cell(&f, &w, 0..5);
/// assert_eq!(results.len(), 5);
/// ```
///
/// Attach a live [`mcc_obs::Registry`] with [`RunRequest::with_sink`] to
/// collect counters, phase timings and histograms; the default sink is
/// the no-op, which skips every clock read. Metrics never alter results.
pub struct RunRequest<'s> {
    mode: RunMode,
    ws: RunWorkspace,
    sink: &'s dyn Sink,
}

impl RunRequest<'static> {
    /// A request in `mode` with a fresh streaming-audit workspace and the
    /// no-op sink.
    pub fn new(mode: RunMode) -> Self {
        RunRequest::from_workspace(mode, RunWorkspace::new())
    }

    /// A request in `mode` around a caller-supplied workspace, without
    /// allocating a fresh one first ([`RunRequest::new`] followed by
    /// [`RunRequest::with_workspace`] would build and immediately drop a
    /// default workspace — a heap allocation the warm fleet path must
    /// not pay per run).
    pub fn from_workspace(mode: RunMode, ws: RunWorkspace) -> Self {
        RunRequest {
            mode,
            ws,
            sink: mcc_obs::noop(),
        }
    }
}

impl<'s> RunRequest<'s> {
    /// Attaches a metrics sink (e.g. a live [`mcc_obs::Registry`]).
    #[must_use]
    pub fn with_sink<'t>(self, sink: &'t dyn Sink) -> RunRequest<'t> {
        RunRequest {
            mode: self.mode,
            ws: self.ws,
            sink,
        }
    }

    /// Disables the per-seed audit entirely: no auditor runs and every
    /// [`SeedResult::audit_findings`] comes back `0`. The audit is pure
    /// observation, so all costs, ratios and transfer counts are
    /// bit-identical to an audited request — this is the throughput
    /// regime for fleet-scale sweeps of tiny instances, where
    /// verification would otherwise be a third of the per-item time.
    #[must_use]
    pub fn without_audit(mut self) -> Self {
        self.ws.run.audit_on = false;
        self
    }

    /// Restores the default single-pass streaming audit (e.g. on a
    /// workspace handed over from an unaudited request).
    #[must_use]
    pub fn with_streaming_audit(mut self) -> Self {
        self.ws.run.audit_on = true;
        self
    }

    /// Overrides the chunk width of the batched unit path (default
    /// [`BATCH_UNITS`], clamped to `1..=256`). [`BATCH_UNITS`] is sized
    /// for sweep-shaped instances (thousands of requests each, where a
    /// chunk must stay cache-resident); fleet-shaped instances of a
    /// handful of requests amortize the per-chunk staging much further —
    /// the fleet layer runs at 64. Results are bit-identical at any
    /// width (the kernel computes each instance's tables independently);
    /// only throughput and the chunk-granular metrics change.
    #[must_use]
    pub fn with_batch_units(mut self, width: usize) -> Self {
        self.ws.batch_units = width.clamp(1, 256);
        self
    }

    /// Replaces the request's workspace (e.g. to hand a warm one over).
    #[must_use]
    pub fn with_workspace(mut self, ws: RunWorkspace) -> Self {
        self.ws = ws;
        self
    }

    /// The current mode.
    pub fn mode(&self) -> RunMode {
        self.mode
    }

    /// Switches mode in place, keeping the warm workspace and sink — the
    /// parallel sweep does this when a worker's chunk crosses cells.
    pub fn set_mode(&mut self, mode: RunMode) {
        self.mode = mode;
    }

    /// The attached sink.
    pub fn sink(&self) -> &'s dyn Sink {
        self.sink
    }

    /// Recovers the workspace (warm buffers survive the request).
    pub fn into_workspace(self) -> RunWorkspace {
        self.ws
    }

    /// A fresh policy instance shaped for the current mode: wrapped in
    /// [`FaultTolerant`] under [`RunMode::Faulty`], plain otherwise.
    pub fn policy(&self, factory: &PolicyFactory) -> RunPolicy {
        policy_for(self.mode, factory)
    }

    /// One seed measurement on a pre-generated instance (the
    /// steady-state body of [`RunRequest::run_unit`], exposed so callers
    /// with their own instances can skip the generator).
    pub fn run_seed(
        &mut self,
        policy: &mut RunPolicy,
        seed: u64,
        inst: &Instance<f64>,
    ) -> SeedResult {
        dispatch(
            self.mode,
            policy,
            seed,
            inst,
            None,
            &mut self.ws.run,
            self.sink,
        )
    }

    /// One seed measurement against an explicit, caller-built
    /// [`FaultPlan`] instead of expanding the request's spec — the
    /// adversarial schedule search (experiment E20) evaluates perturbed
    /// plans directly through this door. A tolerant policy runs wrapped
    /// under the plan; a plain policy runs oblivious to it (the audit
    /// still sees it). The request's own mode is ignored for this seed.
    pub fn run_seed_with_plan(
        &mut self,
        policy: &mut RunPolicy,
        seed: u64,
        inst: &Instance<f64>,
        plan: &FaultPlan,
    ) -> SeedResult {
        match policy {
            RunPolicy::Tolerant(w) => {
                w.set_plan(plan);
                seed_faulty_body(w, seed, inst, None, &mut self.ws.run, self.sink)
            }
            RunPolicy::Plain(p) => {
                self.ws.run.fault_plan.copy_from(plan);
                seed_oblivious_body(p.as_mut(), seed, inst, None, &mut self.ws.run, self.sink)
            }
        }
    }

    /// One whole unit — instance generation *and* measurement — in the
    /// request's workspace. With a warm workspace (and a generator with
    /// an in-place fill path) the unit performs zero heap allocations,
    /// live sink included.
    pub fn run_unit(
        &mut self,
        policy: &mut RunPolicy,
        workload: &dyn Workload,
        seed: u64,
    ) -> SeedResult {
        unit_core(self.mode, policy, workload, seed, &mut self.ws, self.sink)
    }

    /// A whole run of consecutive units of one cell, with the off-line
    /// optima computed through the **batched** solver kernel: the seeds
    /// are processed in chunks of [`BATCH_UNITS`] — each chunk's instances
    /// are generated into per-slot buffers, staged into one SoA
    /// [`BatchWorkspace`] and solved in a single kernel pass, and only
    /// then does each seed's policy measurement run against its instance
    /// with the precomputed optimum. Results are **bit-identical** to
    /// calling [`RunRequest::run_unit`] per seed (the batched kernel
    /// computes the same `C` tables bit-for-bit; asserted by the
    /// differential proptests), appended to `out` seed-order.
    ///
    /// This is the parallel sweep's worker path: the per-instance solver
    /// setup (prescan allocation patterns, pointer-matrix builds, CSR
    /// lists) amortizes across the chunk, which is where the batched
    /// throughput win comes from. Zero heap allocations once the
    /// workspace is warm at the chunk shape, live sink included.
    pub fn run_units(
        &mut self,
        policy: &mut RunPolicy,
        workload: &dyn Workload,
        seeds: &[u64],
        out: &mut Vec<SeedResult>,
    ) {
        units_batch_core(
            self.mode,
            policy,
            workload,
            seeds,
            &mut self.ws,
            self.sink,
            out,
            |_, _| {},
        );
    }

    /// [`RunRequest::run_units`] generalized over the instance source: the
    /// same batched pipeline (BATCH_UNITS staging, one SoA kernel pass per
    /// chunk, precomputed optima) against any [`UnitSource`]. With a
    /// workload source this is bit-identical to `run_units`.
    pub fn run_units_src<Src: UnitSource + ?Sized>(
        &mut self,
        policy: &mut RunPolicy,
        source: &Src,
        seeds: &[u64],
        out: &mut Vec<SeedResult>,
    ) {
        units_batch_core(
            self.mode,
            policy,
            source,
            seeds,
            &mut self.ws,
            self.sink,
            out,
            |_, _| {},
        );
    }

    /// [`RunRequest::run_units_src`] with a per-seed observer that sees
    /// each finished seed's [`SeedResult`] together with the raw
    /// [`RunRecord`] (copy residency intervals and transfers) before the
    /// runtime is reset for the next seed. Pure observation: the record
    /// is borrowed, never cloned, and results are bit-identical with any
    /// observer. The fleet layer uses this door to harvest per-item
    /// residency intervals for the capacity sweep without a second run.
    pub fn run_units_observed<Src: UnitSource + ?Sized>(
        &mut self,
        policy: &mut RunPolicy,
        source: &Src,
        seeds: &[u64],
        out: &mut Vec<SeedResult>,
        observe: impl FnMut(&SeedResult, &RunRecord<f64>),
    ) {
        units_batch_core(
            self.mode,
            policy,
            source,
            seeds,
            &mut self.ws,
            self.sink,
            out,
            observe,
        );
    }

    /// Measures `factory()` against `workload` over `seeds`: one policy
    /// instance, reset by the executor per run; one [`SeedResult`] per
    /// seed, seed-ascending.
    pub fn run_cell(
        &mut self,
        factory: &PolicyFactory,
        workload: &dyn Workload,
        seeds: std::ops::Range<u64>,
    ) -> Vec<SeedResult> {
        cell_core(self.mode, factory, workload, seeds, &mut self.ws, self.sink)
    }
}

/// What fault injection did to one seed's run.
#[derive(Clone, Debug)]
pub struct FaultOutcome {
    /// Counters from the fault-tolerant wrapper (all zero for oblivious
    /// runs, which take no corrective action).
    pub stats: FaultStats,
    /// Crash windows in this seed's plan.
    pub crashes: usize,
    /// Correlated burst events expanded into this seed's plan.
    pub bursts: usize,
    /// Network-partition windows in this seed's plan.
    pub partitions: usize,
    /// Brownout windows in this seed's plan.
    pub brownouts: usize,
    /// Whether the policy ran wrapped in the fault-tolerant layer.
    pub tolerant: bool,
}

/// One seed's measurement of one policy on one workload.
#[derive(Clone, Debug)]
pub struct SeedResult {
    /// Seed used.
    pub seed: u64,
    /// Online policy cost (includes the retry surcharge under faults).
    pub online_cost: f64,
    /// Off-line optimum for the same trace.
    pub opt_cost: f64,
    /// Online/opt ratio.
    pub ratio: f64,
    /// Cost attribution.
    pub breakdown: Breakdown,
    /// Number of transfers performed online.
    pub transfers: usize,
    /// Auditor findings for this run (`0` = the audit came back clean).
    pub audit_findings: usize,
    /// Fault-injection outcome (`None` for fault-free cells).
    pub fault: Option<FaultOutcome>,
}

/// Folds the fault counters of a result slice into one [`FaultStats`]
/// with *saturating* integer arithmetic — a grid-scale fold across many
/// seeds must pin at `usize::MAX` rather than wrap (debug builds would
/// panic, release builds would silently report a tiny count). Fault-free
/// results contribute nothing.
pub fn fold_fault_stats(results: &[SeedResult]) -> FaultStats {
    let mut total = FaultStats::default();
    for fo in results.iter().filter_map(|r| r.fault.as_ref()) {
        total.copies_lost = total.copies_lost.saturating_add(fo.stats.copies_lost);
        total.retries = total.retries.saturating_add(fo.stats.retries);
        total.failovers = total.failovers.saturating_add(fo.stats.failovers);
        total.emergency_replications = total
            .emergency_replications
            .saturating_add(fo.stats.emergency_replications);
        total.adopted_replicas = total
            .adopted_replicas
            .saturating_add(fo.stats.adopted_replicas);
        total.down_serves = total.down_serves.saturating_add(fo.stats.down_serves);
        total.copy_loss_windows = total
            .copy_loss_windows
            .saturating_add(fo.stats.copy_loss_windows);
        total.deferred = total.deferred.saturating_add(fo.stats.deferred);
        total.replayed = total.replayed.saturating_add(fo.stats.replayed);
        total.dropped = total.dropped.saturating_add(fo.stats.dropped);
        // A peak is folded as the grid-wide maximum, not a sum.
        total.queue_peak = total.queue_peak.max(fo.stats.queue_peak);
        total.partition_deferrals = total
            .partition_deferrals
            .saturating_add(fo.stats.partition_deferrals);
        total.reseeds = total.reseeds.saturating_add(fo.stats.reseeds);
        total.budget_exhausted = total
            .budget_exhausted
            .saturating_add(fo.stats.budget_exhausted);
        total.retry_cost += fo.stats.retry_cost;
        total.replay_cost += fo.stats.replay_cost;
        total.reseed_cost += fo.stats.reseed_cost;
        total.brownout_cost += fo.stats.brownout_cost;
        total.backoff_wait += fo.stats.backoff_wait;
        total.total_delay += fo.stats.total_delay;
    }
    total
}

/// The streaming single-pass audit, or nothing at all (reported as a
/// clean run) when the request turned it off.
fn audit_findings(
    inst: &Instance<f64>,
    rec: &RunRecord<f64>,
    reported_cost: f64,
    transfers: usize,
    plan: Option<&FaultPlan>,
    scratch: &mut AuditScratch,
    audit_on: bool,
) -> usize {
    if !audit_on {
        return 0;
    }
    StreamingAuditor::default()
        .audit_record_in(
            inst,
            rec,
            Some(reported_cost),
            Some(transfers),
            plan,
            scratch,
        )
        .len()
}

/// Folds one finished seed into the sink: run/request/transfer counts,
/// the λ/μ cost split, audit findings, the ratio histogram and (when
/// present) the fault outcome. Pure observation — called after the
/// [`SeedResult`] is fully built, so it cannot perturb the measurement.
fn record_seed(sink: &dyn Sink, requests: usize, r: &SeedResult) {
    sink.add(Counter::Runs, 1);
    sink.add(Counter::Requests, requests as u64);
    sink.add(Counter::Transfers, r.transfers as u64);
    sink.add(
        Counter::Extensions,
        requests.saturating_sub(r.transfers) as u64,
    );
    sink.add_cost(
        Counter::CachingCostMicros,
        r.breakdown.useful_caching + r.breakdown.speculative_tails,
    );
    sink.add_cost(Counter::TransferCostMicros, r.breakdown.transfers);
    sink.add(Counter::AuditFindings, r.audit_findings as u64);
    sink.observe(Hist::RatioCenti, (r.ratio.max(0.0) * 100.0) as u64);
    if let Some(fo) = &r.fault {
        sink.add(Counter::FaultRetries, fo.stats.retries as u64);
        sink.add(Counter::FaultFailovers, fo.stats.failovers as u64);
        sink.add(
            Counter::FaultEvacuations,
            fo.stats.emergency_replications as u64,
        );
        sink.add(Counter::FaultCopiesLost, fo.stats.copies_lost as u64);
        sink.add(Counter::FaultDownServes, fo.stats.down_serves as u64);
        sink.add(
            Counter::FaultAdoptedReplicas,
            fo.stats.adopted_replicas as u64,
        );
        sink.add(Counter::FaultCrashWindows, fo.crashes as u64);
        sink.add(Counter::FaultBurstWindows, fo.bursts as u64);
        sink.add(Counter::FaultPartitionWindows, fo.partitions as u64);
        sink.add(Counter::FaultBrownoutWindows, fo.brownouts as u64);
        sink.add(Counter::FaultDeferred, fo.stats.deferred as u64);
        sink.add(Counter::FaultReplayed, fo.stats.replayed as u64);
        sink.add(Counter::FaultDropped, fo.stats.dropped as u64);
        sink.add(
            Counter::FaultPartitionDeferrals,
            fo.stats.partition_deferrals as u64,
        );
        sink.add(Counter::FaultReseeds, fo.stats.reseeds as u64);
        sink.add(
            Counter::FaultBudgetExhausted,
            fo.stats.budget_exhausted as u64,
        );
        sink.add_cost(Counter::FaultRetryCostMicros, fo.stats.retry_cost);
        sink.add_cost(Counter::FaultReplayCostMicros, fo.stats.replay_cost);
        sink.add_cost(Counter::FaultReseedCostMicros, fo.stats.reseed_cost);
        sink.add_cost(Counter::FaultBrownoutCostMicros, fo.stats.brownout_cost);
        sink.observe(Hist::FaultQueuePeak, fo.stats.queue_peak as u64);
        sink.observe(
            Hist::FaultBackoffWaitMicros,
            (fo.stats.backoff_wait.max(0.0) * 1e6) as u64,
        );
    }
}

/// Builds the [`RunPolicy`] variant `mode` calls for.
fn policy_for(mode: RunMode, factory: &PolicyFactory) -> RunPolicy {
    match mode {
        RunMode::Faulty(_) => {
            RunPolicy::Tolerant(Box::new(FaultTolerant::new(factory(), FaultPlan::none())))
        }
        RunMode::Plain | RunMode::Oblivious(_) => RunPolicy::Plain(factory()),
    }
}

/// Mode × policy dispatch onto the three seed cores. A policy built by
/// [`policy_for`] for the same mode always hits one of the first three
/// arms; the mismatch arms (a policy reused across a mode switch without
/// rebuilding) run the policy as-is under the requested regime, clearing
/// a tolerant wrapper's stale plan first so it cannot act on a previous
/// cell's crashes.
fn dispatch(
    mode: RunMode,
    policy: &mut RunPolicy,
    seed: u64,
    inst: &Instance<f64>,
    opt: Option<f64>,
    ws: &mut SeedScratch,
    sink: &dyn Sink,
) -> SeedResult {
    match (mode, policy) {
        (RunMode::Plain, RunPolicy::Plain(p)) => seed_core(p.as_mut(), seed, inst, opt, ws, sink),
        (RunMode::Faulty(spec), RunPolicy::Tolerant(w)) => {
            seed_faulty_core(w.as_mut(), &spec, seed, inst, opt, ws, sink)
        }
        (RunMode::Oblivious(spec), RunPolicy::Plain(p)) => {
            seed_oblivious_core(p.as_mut(), &spec, seed, inst, opt, ws, sink)
        }
        (RunMode::Plain, RunPolicy::Tolerant(w)) => {
            *w.plan_mut() = FaultPlan::none();
            seed_core(w.as_mut(), seed, inst, opt, ws, sink)
        }
        (RunMode::Oblivious(spec), RunPolicy::Tolerant(w)) => {
            *w.plan_mut() = FaultPlan::none();
            seed_oblivious_core(w.as_mut(), &spec, seed, inst, opt, ws, sink)
        }
        (RunMode::Faulty(spec), RunPolicy::Plain(p)) => {
            seed_oblivious_core(p.as_mut(), &spec, seed, inst, opt, ws, sink)
        }
    }
}

/// The off-line optimum for a seed: the precomputed batch-kernel value
/// when the caller staged one, otherwise a fresh windowed-sweep solve.
/// The two are bit-identical (the batched kernel computes the same `C`
/// tables bit-for-bit), so which path produced the number is
/// unobservable in the results — only in the metrics.
fn opt_cost_for(
    inst: &Instance<f64>,
    precomputed: Option<f64>,
    ws: &mut SeedScratch,
    sink: &dyn Sink,
) -> f64 {
    match precomputed {
        Some(opt) => opt,
        None => solve_naive_in(inst, &mut ws.solver, sink).optimal_cost(),
    }
}

/// One whole unit (generation + measurement) against `ws`, with the unit
/// wall time observed into [`Hist::UnitNanos`] when the sink wants
/// clocks.
fn unit_core(
    mode: RunMode,
    policy: &mut RunPolicy,
    workload: &dyn Workload,
    seed: u64,
    ws: &mut RunWorkspace,
    sink: &dyn Sink,
) -> SeedResult {
    let t0 = sink.enabled().then(std::time::Instant::now);
    let inst = workload.generate_into(seed, &mut ws.gen);
    let result = dispatch(mode, policy, seed, inst, None, &mut ws.run, sink);
    if let Some(t0) = t0 {
        sink.observe(
            Hist::UnitNanos,
            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
    }
    result
}

/// Chunk width of the batched unit path ([`RunRequest::run_units`]): how
/// many instances are staged into one batched-solver kernel call. Large
/// enough to amortize per-instance setup, small enough that a chunk's
/// instances (all alive at once) stay cache-resident at sweep shapes.
pub const BATCH_UNITS: usize = 8;

/// The batched unit path: generation and the off-line optima run chunked
/// through the SoA batch kernel, then each seed's policy measurement runs
/// with its precomputed optimum. One [`Hist::UnitNanos`] observation per
/// seed (covering the measurement half; the shared staging + kernel time
/// lands in the batch counters), so a sweep's unit accounting is
/// unchanged.
#[allow(clippy::too_many_arguments)] // private core; the public doors curry it
fn units_batch_core<Src: UnitSource + ?Sized>(
    mode: RunMode,
    policy: &mut RunPolicy,
    source: &Src,
    seeds: &[u64],
    ws: &mut RunWorkspace,
    sink: &dyn Sink,
    out: &mut Vec<SeedResult>,
    mut observe: impl FnMut(&SeedResult, &RunRecord<f64>),
) {
    for chunk in seeds.chunks(ws.batch_units) {
        if ws.batch_gen.len() < chunk.len() {
            ws.batch_gen.resize_with(chunk.len(), InstanceBuf::new);
        }
        ws.batch.clear();
        {
            let _stage = Span::start(sink, Counter::SolveBatchStageNanos);
            for (slot, &seed) in ws.batch_gen.iter_mut().zip(chunk) {
                let inst = source.generate_into(seed, slot);
                ws.batch.push(inst);
            }
        }
        ws.batch.solve_obs(sink);
        for (j, &seed) in chunk.iter().enumerate() {
            let t0 = sink.enabled().then(std::time::Instant::now);
            let opt = ws.batch.optimal_cost(j);
            let inst = ws.batch_gen[j].instance();
            let result = dispatch(mode, policy, seed, inst, Some(opt), &mut ws.run, sink);
            if let Some(t0) = t0 {
                sink.observe(
                    Hist::UnitNanos,
                    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                );
            }
            observe(&result, ws.run.rt.record());
            out.push(result);
        }
    }
}

/// One cell (one policy instance, reset per run, over a seed range)
/// against `ws`.
fn cell_core(
    mode: RunMode,
    factory: &PolicyFactory,
    workload: &dyn Workload,
    seeds: std::ops::Range<u64>,
    ws: &mut RunWorkspace,
    sink: &dyn Sink,
) -> Vec<SeedResult> {
    let mut policy = policy_for(mode, factory);
    seeds
        .map(|seed| unit_core(mode, &mut policy, workload, seed, ws, sink))
        .collect()
}

fn seed_core(
    policy: &mut dyn OnlineDecider<f64>,
    seed: u64,
    inst: &Instance<f64>,
    precomputed_opt: Option<f64>,
    ws: &mut SeedScratch,
    sink: &dyn Sink,
) -> SeedResult {
    let (stats, rec) = run_policy_record(policy, inst, &mut ws.rt);
    let findings = audit_findings(
        inst,
        rec,
        stats.total_cost,
        stats.transfers,
        None,
        &mut ws.audit,
        ws.audit_on,
    );
    let breakdown = Breakdown::from_record(rec, inst.cost());
    let opt = opt_cost_for(inst, precomputed_opt, ws, sink);
    let result = SeedResult {
        seed,
        online_cost: stats.total_cost,
        opt_cost: opt,
        ratio: if opt > 0.0 {
            stats.total_cost / opt
        } else {
            1.0
        },
        breakdown,
        transfers: stats.transfers,
        audit_findings: findings,
        fault: None,
    };
    record_seed(sink, inst.n(), &result);
    result
}

fn seed_faulty_core<P: OnlineDecider<f64>>(
    wrapped: &mut FaultTolerant<P>,
    spec: &FaultSpec,
    seed: u64,
    inst: &Instance<f64>,
    precomputed_opt: Option<f64>,
    ws: &mut SeedScratch,
    sink: &dyn Sink,
) -> SeedResult {
    spec.plan_for_into(
        seed,
        inst.servers(),
        inst.horizon(),
        wrapped.plan_mut(),
        &mut PlanScratch::default(),
    );
    seed_faulty_body(wrapped, seed, inst, precomputed_opt, ws, sink)
}

/// The wrapped measurement once the plan sits in the wrapper: run, charge
/// the brownout surcharge against the finished record geometry, audit
/// against the surcharged cost, and fold every wrapper surcharge
/// (retries, replays, reseeds, brownouts) into `online_cost` so the ratio
/// prices the whole degradation.
fn seed_faulty_body<P: OnlineDecider<f64>>(
    wrapped: &mut FaultTolerant<P>,
    seed: u64,
    inst: &Instance<f64>,
    precomputed_opt: Option<f64>,
    ws: &mut SeedScratch,
    sink: &dyn Sink,
) -> SeedResult {
    let crashes = wrapped.plan().crashes().len();
    let bursts = wrapped.plan().bursts() as usize;
    let partitions = wrapped.plan().partitions().len();
    let brownouts = wrapped.plan().brownouts().len();
    let (stats, rec) = run_policy_record(wrapped, inst, &mut ws.rt);
    let sur = brownout_surcharge(wrapped.plan(), rec, inst.cost());
    wrapped.stats_mut().brownout_cost = sur;
    let fstats = wrapped.stats().clone();
    let findings = audit_findings(
        inst,
        rec,
        stats.total_cost + sur,
        stats.transfers,
        Some(wrapped.plan()),
        &mut ws.audit,
        ws.audit_on,
    );
    let breakdown = Breakdown::from_record(rec, inst.cost());
    let opt = opt_cost_for(inst, precomputed_opt, ws, sink);
    let online_cost =
        stats.total_cost + sur + fstats.retry_cost + fstats.replay_cost + fstats.reseed_cost;
    let result = SeedResult {
        seed,
        online_cost,
        opt_cost: opt,
        ratio: if opt > 0.0 { online_cost / opt } else { 1.0 },
        breakdown,
        transfers: stats.transfers,
        audit_findings: findings,
        fault: Some(FaultOutcome {
            stats: fstats,
            crashes,
            bursts,
            partitions,
            brownouts,
            tolerant: true,
        }),
    };
    record_seed(sink, inst.n(), &result);
    result
}

fn seed_oblivious_core(
    policy: &mut dyn OnlineDecider<f64>,
    spec: &FaultSpec,
    seed: u64,
    inst: &Instance<f64>,
    precomputed_opt: Option<f64>,
    ws: &mut SeedScratch,
    sink: &dyn Sink,
) -> SeedResult {
    spec.plan_for_into(
        seed,
        inst.servers(),
        inst.horizon(),
        &mut ws.fault_plan,
        &mut PlanScratch::default(),
    );
    seed_oblivious_body(policy, seed, inst, precomputed_opt, ws, sink)
}

/// The oblivious measurement once the plan sits in `ws.fault_plan`. The
/// brownout surcharge still applies — degraded bandwidth taxes the run
/// whether or not the policy knows about it — so both the audited and the
/// reported cost carry it.
fn seed_oblivious_body(
    policy: &mut dyn OnlineDecider<f64>,
    seed: u64,
    inst: &Instance<f64>,
    precomputed_opt: Option<f64>,
    ws: &mut SeedScratch,
    sink: &dyn Sink,
) -> SeedResult {
    let crashes = ws.fault_plan.crashes().len();
    let bursts = ws.fault_plan.bursts() as usize;
    let partitions = ws.fault_plan.partitions().len();
    let brownouts = ws.fault_plan.brownouts().len();
    let (stats, rec) = run_policy_record(policy, inst, &mut ws.rt);
    let sur = brownout_surcharge(&ws.fault_plan, rec, inst.cost());
    let online_cost = stats.total_cost + sur;
    let findings = audit_findings(
        inst,
        rec,
        online_cost,
        stats.transfers,
        Some(&ws.fault_plan),
        &mut ws.audit,
        ws.audit_on,
    );
    let breakdown = Breakdown::from_record(rec, inst.cost());
    let opt = opt_cost_for(inst, precomputed_opt, ws, sink);
    let fstats = FaultStats {
        brownout_cost: sur,
        ..FaultStats::default()
    };
    let result = SeedResult {
        seed,
        online_cost,
        opt_cost: opt,
        ratio: if opt > 0.0 { online_cost / opt } else { 1.0 },
        breakdown,
        transfers: stats.transfers,
        audit_findings: findings,
        fault: Some(FaultOutcome {
            stats: fstats,
            crashes,
            bursts,
            partitions,
            brownouts,
            tolerant: false,
        }),
    };
    record_seed(sink, inst.n(), &result);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_core::online::SpeculativeCaching;
    use mcc_obs::Registry;
    use mcc_workloads::{CommonParams, PoissonWorkload};

    #[test]
    fn cell_produces_one_result_per_seed() {
        let w = PoissonWorkload::uniform(CommonParams::small().with_size(4, 30), 1.0);
        let f = factory(SpeculativeCaching::paper());
        let results = RunRequest::new(RunMode::Plain).run_cell(&f, &w, 0..5);
        assert_eq!(results.len(), 5);
        for r in &results {
            assert!(
                r.ratio >= 1.0 - 1e-9,
                "online can never beat OPT: {}",
                r.ratio
            );
            assert!((r.breakdown.total() - r.online_cost).abs() < 1e-9);
            assert_eq!(r.audit_findings, 0, "fault-free SC must audit clean");
            assert!(r.fault.is_none());
        }
    }

    #[test]
    fn request_reuse_across_cells_matches_fresh_requests() {
        let w1 = PoissonWorkload::uniform(CommonParams::small().with_size(4, 30), 1.0);
        let w2 = PoissonWorkload::uniform(CommonParams::small().with_size(2, 10), 2.0);
        let f = factory(SpeculativeCaching::paper());
        let mut req = RunRequest::new(RunMode::Plain);
        // Dirty the workspace on a different-shaped cell first.
        let _ = req.run_cell(&f, &w2, 0..3);
        let reused = req.run_cell(&f, &w1, 0..5);
        let fresh = RunRequest::new(RunMode::Plain).run_cell(&f, &w1, 0..5);
        for (x, y) in reused.iter().zip(&fresh) {
            assert_eq!(x.online_cost, y.online_cost);
            assert_eq!(x.opt_cost, y.opt_cost);
            assert_eq!(x.transfers, y.transfers);
        }
    }

    #[test]
    fn live_sink_does_not_perturb_results_and_counts_runs() {
        let w = PoissonWorkload::uniform(CommonParams::small().with_size(4, 30), 1.0);
        let f = factory(SpeculativeCaching::paper());
        let silent = RunRequest::new(RunMode::Plain).run_cell(&f, &w, 0..5);
        let reg = Registry::new();
        let observed = RunRequest::new(RunMode::Plain)
            .with_sink(&reg)
            .run_cell(&f, &w, 0..5);
        for (x, y) in silent.iter().zip(&observed) {
            assert_eq!(x.online_cost, y.online_cost, "metrics must never feed back");
            assert_eq!(x.opt_cost, y.opt_cost);
            assert_eq!(x.transfers, y.transfers);
            assert_eq!(x.audit_findings, y.audit_findings);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter(Counter::Runs), 5);
        assert_eq!(snap.counter(Counter::Requests), 5 * 30);
        let transfers: usize = observed.iter().map(|r| r.transfers).sum();
        assert_eq!(snap.counter(Counter::Transfers), transfers as u64);
        assert_eq!(
            snap.counter(Counter::SolveSweepDispatches),
            5,
            "every seed runs exactly one per-instance sweep solve"
        );
        assert_eq!(snap.hist(Hist::UnitNanos).count, 5);
        assert_eq!(snap.hist(Hist::RatioCenti).count, 5);
        assert!(snap.counter(Counter::SolveNanos) > 0, "spans must record");
        // The λ/μ split covers the whole online cost (micro-unit rounding
        // loses < 1 micro-unit per seed).
        let total_micros: u64 =
            snap.counter(Counter::CachingCostMicros) + snap.counter(Counter::TransferCostMicros);
        let expect: f64 = observed.iter().map(|r| r.online_cost).sum::<f64>() * 1e6;
        assert!((total_micros as f64 - expect).abs() <= 5.0 + expect * 1e-9);
    }

    #[test]
    fn faulty_mode_records_fault_counters() {
        let w = PoissonWorkload::uniform(CommonParams::small().with_size(4, 60), 1.0);
        let f = factory(SpeculativeCaching::paper());
        let spec = FaultSpec {
            seed: 7,
            crash_rate: 0.4,
            mean_downtime: 2.0,
            ..FaultSpec::default()
        };
        let reg = Registry::new();
        let results = RunRequest::new(RunMode::Faulty(spec))
            .with_sink(&reg)
            .run_cell(&f, &w, 0..6);
        let snap = reg.snapshot();
        let crashes: usize = results
            .iter()
            .filter_map(|r| r.fault.as_ref())
            .map(|fo| fo.crashes)
            .sum();
        assert!(crashes > 0, "the regime must actually inject crashes");
        assert_eq!(snap.counter(Counter::FaultCrashWindows), crashes as u64);
        let folded = fold_fault_stats(&results);
        assert_eq!(snap.counter(Counter::FaultRetries), folded.retries as u64);
        assert_eq!(
            snap.counter(Counter::FaultFailovers),
            folded.failovers as u64
        );
    }

    #[test]
    fn fold_fault_stats_saturates_instead_of_wrapping() {
        // Regression: the fold across a grid of seeds must pin at
        // usize::MAX, not wrap (debug builds used to panic on `+`).
        let huge = FaultStats {
            retries: usize::MAX - 1,
            failovers: usize::MAX / 2 + 1,
            copies_lost: usize::MAX,
            ..FaultStats::default()
        };
        let mk = |stats: FaultStats| SeedResult {
            seed: 0,
            online_cost: 1.0,
            opt_cost: 1.0,
            ratio: 1.0,
            breakdown: Breakdown::default(),
            transfers: 0,
            audit_findings: 0,
            fault: Some(FaultOutcome {
                stats,
                crashes: 0,
                bursts: 0,
                partitions: 0,
                brownouts: 0,
                tolerant: true,
            }),
        };
        let results = vec![mk(huge.clone()), mk(huge)];
        let total = fold_fault_stats(&results);
        assert_eq!(total.retries, usize::MAX);
        assert_eq!(total.failovers, usize::MAX);
        assert_eq!(total.copies_lost, usize::MAX);
        assert_eq!(total.down_serves, 0, "untouched fields stay zero");
    }

    #[test]
    fn results_are_deterministic() {
        let w = PoissonWorkload::uniform(CommonParams::small().with_size(3, 20), 1.0);
        let f = factory(SpeculativeCaching::paper());
        let a = RunRequest::new(RunMode::Plain).run_cell(&f, &w, 3..6);
        let b = RunRequest::new(RunMode::Plain).run_cell(&f, &w, 3..6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.online_cost, y.online_cost);
            assert_eq!(x.opt_cost, y.opt_cost);
        }
    }

    #[test]
    fn trivial_fault_spec_matches_fault_free_cell() {
        let w = PoissonWorkload::uniform(CommonParams::small().with_size(4, 30), 1.0);
        let f = factory(SpeculativeCaching::paper());
        let plain = RunRequest::new(RunMode::Plain).run_cell(&f, &w, 0..4);
        let faulty =
            RunRequest::new(RunMode::from_faults(Some(FaultSpec::none()))).run_cell(&f, &w, 0..4);
        for (x, y) in plain.iter().zip(&faulty) {
            assert_eq!(
                x.online_cost, y.online_cost,
                "trivial plan must not perturb"
            );
            assert_eq!(x.transfers, y.transfers);
            assert_eq!(y.audit_findings, 0);
            let fo = y.fault.as_ref().unwrap();
            assert_eq!(fo.crashes, 0);
            assert_eq!(fo.stats, FaultStats::default());
        }
    }

    #[test]
    fn wrapped_cell_audits_clean_and_oblivious_cell_does_not() {
        let w = PoissonWorkload::uniform(CommonParams::small().with_size(4, 60), 1.0);
        let f = factory(SpeculativeCaching::paper());
        let spec = FaultSpec {
            seed: 7,
            crash_rate: 0.4,
            mean_downtime: 2.0,
            ..FaultSpec::default()
        };
        let wrapped = RunRequest::new(RunMode::Faulty(spec)).run_cell(&f, &w, 0..6);
        for r in &wrapped {
            assert_eq!(
                r.audit_findings, 0,
                "seed {}: wrapped SC must audit clean under faults",
                r.seed
            );
        }
        let crashes: usize = wrapped
            .iter()
            .map(|r| r.fault.as_ref().unwrap().crashes)
            .sum();
        assert!(crashes > 0, "the regime must actually inject crashes");

        let oblivious = RunRequest::new(RunMode::Oblivious(spec)).run_cell(&f, &w, 0..6);
        let findings: usize = oblivious.iter().map(|r| r.audit_findings).sum();
        assert!(
            findings > 0,
            "oblivious SC must trip the auditor under a crashy plan"
        );
    }

    #[test]
    fn run_seed_with_plan_matches_spec_expansion() {
        // The explicit-plan door must be bit-identical to the spec path
        // when handed the very plan the spec would expand.
        let w = PoissonWorkload::uniform(CommonParams::small().with_size(4, 40), 1.0);
        let f = factory(SpeculativeCaching::paper());
        let spec = FaultSpec {
            seed: 3,
            crash_rate: 0.3,
            mean_downtime: 1.5,
            ..FaultSpec::default()
        };
        let via_spec = RunRequest::new(RunMode::Faulty(spec)).run_cell(&f, &w, 0..4);
        let mut req = RunRequest::new(RunMode::Faulty(spec));
        let mut policy = req.policy(&f);
        let mut scratch = PlanScratch::default();
        let mut plan = FaultPlan::none();
        let mut gen = mcc_workloads::InstanceBuf::new();
        for r in &via_spec {
            let inst = Workload::generate_into(&w, r.seed, &mut gen);
            spec.plan_for_into(
                r.seed,
                inst.servers(),
                inst.horizon(),
                &mut plan,
                &mut scratch,
            );
            let x = req.run_seed_with_plan(&mut policy, r.seed, inst, &plan);
            assert_eq!(x.online_cost, r.online_cost, "seed {}", r.seed);
            assert_eq!(x.opt_cost, r.opt_cost);
            assert_eq!(x.audit_findings, r.audit_findings);
        }
    }

    #[test]
    fn mode_mismatch_arms_still_run_sensibly() {
        // A policy built for one mode but run under another (the sweep
        // never does this; the API tolerates it): results must match the
        // policy's actual wrapping, not crash.
        let w = PoissonWorkload::uniform(CommonParams::small().with_size(4, 30), 1.0);
        let f = factory(SpeculativeCaching::paper());
        let spec = FaultSpec {
            seed: 5,
            crash_rate: 0.3,
            mean_downtime: 1.5,
            ..FaultSpec::default()
        };
        let mut req = RunRequest::new(RunMode::Faulty(spec));
        let mut plain_policy = RunRequest::new(RunMode::Plain).policy(&f);
        let mut tolerant_policy = req.policy(&f);
        // Faulty mode + plain policy degrades to an oblivious run.
        let a = req.run_unit(&mut plain_policy, &w, 0);
        assert!(matches!(
            a.fault,
            Some(FaultOutcome {
                tolerant: false,
                ..
            })
        ));
        // Plain mode + tolerant policy clears the stale plan and runs clean.
        req.set_mode(RunMode::Plain);
        let b = req.run_unit(&mut tolerant_policy, &w, 0);
        assert!(b.fault.is_none());
        assert_eq!(b.audit_findings, 0);
        let clean = RunRequest::new(RunMode::Plain).run_cell(&f, &w, 0..1);
        assert_eq!(b.online_cost, clean[0].online_cost);
    }
}
