//! Drives an online policy over a request sequence and assembles the
//! outcome.
//!
//! Both runners are thin drivers over the one policy trait,
//! [`OnlineDecider`]: each materialized request is fed through
//! [`OnlineDecider::observe`], exactly the call a live `mcc-serve`
//! daemon makes per arriving request, then [`OnlineDecider::on_finish`]
//! and the policy's [`OnlineDecider::close_time`] finalize the run —
//! batch replay and real-time serving share one decision core.

use mcc_model::{Instance, Request, Scalar, Schedule};

use super::decider::{OnlineDecider, ServeAction};
use super::tracker::{CopyRecord, RunRecord, Runtime};

/// The full outcome of one online run.
#[derive(Clone, Debug)]
pub struct OnlineRun<S> {
    /// Policy name.
    pub policy: String,
    /// Raw copy/transfer records (tails preserved).
    pub record: RunRecord<S>,
    /// Per-request serve actions, index `k` for request `r_{k+1}`.
    pub actions: Vec<ServeAction>,
    /// The schedule (normalized) the run materialized.
    pub schedule: Schedule<S>,
    /// Total cost under the instance's cost model.
    pub total_cost: S,
    /// Caching component.
    pub caching_cost: S,
    /// Transfer component.
    pub transfer_cost: S,
}

impl<S: Scalar> OnlineRun<S> {
    /// Number of transfers performed.
    pub fn transfers(&self) -> usize {
        self.record.transfers.len()
    }

    /// Number of requests served from a local live copy.
    pub fn cache_hits(&self) -> usize {
        self.actions
            .iter()
            .filter(|a| matches!(a, ServeAction::Cache))
            .count()
    }
}

/// Scalar summary of one online run, measured straight off the copy and
/// transfer records without materializing a [`Schedule`].
///
/// The cost components are per-record sums (`Σ μ·(to − from)` and `λ` per
/// transfer); they agree with the normalized-schedule costs of
/// [`run_policy`] up to floating-point summation order (≪ any audit
/// tolerance), because normalization only merges abutting intervals and
/// merging preserves total length.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RunStats<S> {
    /// Total cost (`caching_cost + transfer_cost`).
    pub total_cost: S,
    /// Caching component.
    pub caching_cost: S,
    /// Transfer component.
    pub transfer_cost: S,
    /// Number of transfers performed.
    pub transfers: usize,
    /// Requests served from a local live copy.
    pub cache_hits: usize,
    /// Requests deferred into a degraded-mode queue ([`ServeAction::Deferred`])
    /// instead of being served in-schedule. Zero for fault-free policies.
    pub deferred: usize,
}

/// Runs `policy` over `inst`'s request sequence on a caller-provided
/// [`Runtime`] — the zero-allocation twin of [`run_policy`].
///
/// Nothing is materialized: no schedule, no action log, no policy-name
/// string. The runtime is reset, driven, and finalized in place; with a
/// warm runtime the whole run touches no allocator. Feasibility checking
/// is the caller's job (the sweep pipeline audits every run with the
/// streaming auditor; `run_policy` keeps the debug-build referee).
pub fn run_policy_record<'rt, S: Scalar, P: OnlineDecider<S> + ?Sized>(
    policy: &mut P,
    inst: &Instance<S>,
    rt: &'rt mut Runtime<S>,
) -> (RunStats<S>, &'rt RunRecord<S>) {
    policy.reset(inst.servers(), inst.cost());
    rt.reset(inst.servers());
    let mut cache_hits = 0usize;
    let mut deferred = 0usize;
    for i in 1..=inst.n() {
        let req = Request::new(inst.server(i), inst.t(i));
        match policy.observe(req, rt).action {
            ServeAction::Cache => cache_hits += 1,
            ServeAction::Deferred => deferred += 1,
            ServeAction::Transfer { .. } => {}
        }
    }
    policy.on_finish();
    let record = finalize_record(policy, rt, inst.n(), inst.horizon());
    let stats = stats_from_record(record, inst.cost(), cache_hits, deferred);
    (stats, record)
}

/// Finalizes `rt` exactly the way batch replay does: every copy still
/// live closes at the policy's [`OnlineDecider::close_time`], except that
/// an empty sequence never speculates. Shared with the `mcc-serve`
/// engine so a served item and a replayed one finalize bit-identically.
pub fn finalize_record<'rt, S: Scalar, P: OnlineDecider<S> + ?Sized>(
    policy: &P,
    rt: &'rt mut Runtime<S>,
    requests: usize,
    horizon: S,
) -> &'rt RunRecord<S> {
    if requests == 0 {
        // No service period at all: the initial copy never speculates.
        rt.finalize(|_, last_touch| last_touch)
    } else {
        rt.finalize(|server, last_touch| policy.close_time(server, last_touch, horizon))
    }
}

/// The running sums behind [`RunStats`]: the caching cost in record
/// order, the transfer count and the `λ` sum. One definition serves batch
/// replay ([`stats_from_record`] folds a whole finished record) and the
/// serve engine (which folds each record as [`Runtime::settle`] releases
/// it, then the rest at finish), so their totals agree to the bit.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RunFold<S> {
    caching_cost: S,
    transfer_cost: S,
    transfers: usize,
}

impl<S: Scalar> Default for RunFold<S> {
    fn default() -> Self {
        RunFold {
            caching_cost: S::ZERO,
            transfer_cost: S::ZERO,
            transfers: 0,
        }
    }
}

impl<S: Scalar> RunFold<S> {
    /// Adds one copy lifetime's caching cost.
    #[inline]
    pub fn copy(&mut self, r: &CopyRecord<S>, cost: &mcc_model::CostModel<S>) {
        self.caching_cost = self.caching_cost + cost.caching(r.to - r.from);
    }

    /// Adds one transfer.
    #[inline]
    pub fn transfer(&mut self, cost: &mcc_model::CostModel<S>) {
        self.transfer_cost = self.transfer_cost + cost.lambda;
        self.transfers += 1;
    }

    /// Folds whatever `record` still holds: its copies in order, then its
    /// transfers.
    pub fn record(&mut self, record: &RunRecord<S>, cost: &mcc_model::CostModel<S>) {
        for r in &record.records {
            self.copy(r, cost);
        }
        for _ in &record.transfers {
            self.transfer(cost);
        }
    }

    /// The folded totals as [`RunStats`].
    pub fn stats(&self, cache_hits: usize, deferred: usize) -> RunStats<S> {
        RunStats {
            total_cost: self.caching_cost + self.transfer_cost,
            caching_cost: self.caching_cost,
            transfer_cost: self.transfer_cost,
            transfers: self.transfers,
            cache_hits,
            deferred,
        }
    }
}

/// Sums a finished record into [`RunStats`] through [`RunFold`]: the
/// caching cost in the record's canonical order (the order
/// [`Runtime::finalize`] sorts into, *not* the order copies closed), the
/// transfers in push order.
pub fn stats_from_record<S: Scalar>(
    record: &RunRecord<S>,
    cost: &mcc_model::CostModel<S>,
    cache_hits: usize,
    deferred: usize,
) -> RunStats<S> {
    let mut fold = RunFold::default();
    fold.record(record, cost);
    fold.stats(cache_hits, deferred)
}

/// Runs `policy` over `inst`'s request sequence (strictly online: one
/// request at a time, in time order).
///
/// The produced schedule is checked against the `mcc-model` referee in
/// debug builds; a policy that fails to serve a request or breaks copy
/// provenance panics immediately rather than producing a bogus cost.
pub fn run_policy<S: Scalar, P: OnlineDecider<S> + ?Sized>(
    policy: &mut P,
    inst: &Instance<S>,
) -> OnlineRun<S> {
    policy.reset(inst.servers(), inst.cost());
    let mut rt = Runtime::new(inst.servers());
    let mut actions = Vec::with_capacity(inst.n());
    for i in 1..=inst.n() {
        let req = Request::new(inst.server(i), inst.t(i));
        actions.push(policy.observe(req, &mut rt).action);
    }
    policy.on_finish();
    let horizon = inst.horizon();
    let record = if inst.n() == 0 {
        // No service period at all: the initial copy never speculates.
        rt.finish(|_, last_touch| last_touch)
    } else {
        rt.finish(|server, last_touch| policy.close_time(server, last_touch, horizon))
    };
    let schedule = record.to_schedule();

    #[cfg(debug_assertions)]
    {
        if let Err(errs) =
            mcc_model::validate_with(inst, &schedule, mcc_model::ValidateOptions { tol: 1e-9 })
        {
            panic!(
                "policy `{}` produced an infeasible schedule: {errs:?}",
                policy.name()
            );
        }
    }

    let caching_cost = schedule.caching_cost(inst.cost());
    let transfer_cost = schedule.transfer_cost(inst.cost());
    OnlineRun {
        policy: policy.name(),
        record,
        actions,
        schedule,
        total_cost: caching_cost + transfer_cost,
        caching_cost,
        transfer_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::decider::Decision;
    use mcc_model::{CostModel, ServerId};

    /// Keep a single copy that follows the requests (inline baseline used
    /// to test the executor; the real one lives in `baselines`).
    struct Follow {
        holder: ServerId,
    }
    impl OnlineDecider<f64> for Follow {
        fn name(&self) -> String {
            "follow-inline".into()
        }
        fn reset(&mut self, _servers: usize, _cost: &CostModel<f64>) {
            self.holder = ServerId::ORIGIN;
        }
        fn observe(
            &mut self,
            req: Request<f64>,
            rt: &mut dyn super::super::tracker::CopyOps<f64>,
        ) -> Decision<f64> {
            let (t, server) = (req.time, req.server);
            let action = if server == self.holder {
                rt.touch(server, t);
                ServeAction::Cache
            } else {
                let from = self.holder;
                rt.transfer(from, server, t);
                rt.close(from, t);
                self.holder = server;
                ServeAction::Transfer { from }
            };
            Decision::new(req, action)
        }
    }

    #[test]
    fn executor_runs_and_costs_a_simple_policy() {
        let inst =
            mcc_model::Instance::<f64>::from_compact("m=2 mu=1 lambda=1 | s2@1.0 s1@3.0 s1@4.0")
                .unwrap();
        let run = run_policy(
            &mut Follow {
                holder: ServerId::ORIGIN,
            },
            &inst,
        );
        // Hold origin [0,1], transfer, hold s^2 [1,3], transfer, hold s^1
        // [3,4]: caching 4.0, transfers 2.0.
        assert_eq!(run.total_cost, 6.0);
        assert_eq!(run.transfers(), 2);
        assert_eq!(run.cache_hits(), 1);
        assert_eq!(run.actions[0], ServeAction::Transfer { from: ServerId(0) });
    }

    #[test]
    fn record_runner_matches_the_materializing_one() {
        let inst =
            mcc_model::Instance::<f64>::from_compact("m=2 mu=1 lambda=1 | s2@1.0 s1@3.0 s1@4.0")
                .unwrap();
        let mut policy = Follow {
            holder: ServerId::ORIGIN,
        };
        let full = run_policy(&mut policy, &inst);
        let mut rt = Runtime::new(1);
        let (stats, rec) = run_policy_record(&mut policy, &inst, &mut rt);
        assert!((stats.total_cost - full.total_cost).abs() < 1e-12);
        assert!((stats.caching_cost - full.caching_cost).abs() < 1e-12);
        assert!((stats.transfer_cost - full.transfer_cost).abs() < 1e-12);
        assert_eq!(stats.transfers, full.transfers());
        assert_eq!(stats.cache_hits, full.cache_hits());
        assert_eq!(rec.records, full.record.records);
        assert_eq!(rec.transfers, full.record.transfers);
        // Re-running on the same warm runtime gives the same answer.
        let (again, _) = run_policy_record(&mut policy, &inst, &mut rt);
        assert_eq!(again, stats);
    }

    #[test]
    fn empty_sequence_is_free() {
        let inst = mcc_model::Instance::<f64>::from_compact("m=2 mu=1 lambda=1 |").unwrap();
        let run = run_policy(
            &mut Follow {
                holder: ServerId::ORIGIN,
            },
            &inst,
        );
        assert_eq!(run.total_cost, 0.0);
        assert!(run.schedule.caches.is_empty());
    }
}
