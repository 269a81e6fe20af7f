//! Plan-and-repair execution: run a schedule that was planned for a
//! *predicted* request sequence against the sequence that actually
//! arrives.
//!
//! The paper's off-line algorithm assumes the trajectory is known; in
//! deployment it is predicted, and mispredictions must be absorbed at run
//! time. The repair semantics here are the minimal ones a real service
//! would use:
//!
//! * the planned schedule is executed as committed (its full cost is
//!   paid, including caching that turns out useless);
//! * an actual request already covered by a live planned (or repaired)
//!   copy on its server is free;
//! * otherwise it is served by an emergency transfer (`λ`) from a copy
//!   live at that instant, and the delivered copy is dropped immediately
//!   (conservative: repairs never speculate);
//! * if the plan has run out entirely (no copy live at the request time —
//!   e.g. the actual sequence outlives the predicted horizon), the copy
//!   with the latest planned end is held over, paying `μ` per unit time of
//!   extension.
//!
//! The outcome decomposes into planned cost + repair transfers + holdover
//! caching, so experiments can attribute exactly what misprediction
//! costs.

use mcc_core::offline::optimal_schedule;
use mcc_core::online::FaultPlan;
use mcc_model::{Instance, Scalar, Schedule, ServerId};

/// Cost decomposition of a plan-and-repair execution.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PlannedOutcome {
    /// Cost of the committed plan (as scheduled).
    pub planned_cost: f64,
    /// Number of emergency transfers.
    pub repair_transfers: usize,
    /// Cost of emergency transfers (`λ · repairs`).
    pub repair_transfer_cost: f64,
    /// Holdover caching paid past the plan's coverage.
    pub holdover_cost: f64,
    /// Requests served for free by planned coverage.
    pub covered: usize,
}

impl PlannedOutcome {
    /// Total realized cost.
    pub fn total(&self) -> f64 {
        self.planned_cost + self.repair_transfer_cost + self.holdover_cost
    }
}

/// Executes `plan` (built for some predicted sequence) against the
/// `actual` instance.
///
/// # Panics
///
/// Panics if the plan has no initial copy anchoring coverage at `t = 0`
/// (any schedule produced by the off-line solvers qualifies).
pub fn execute_plan<S: Scalar>(plan: &Schedule<S>, actual: &Instance<S>) -> PlannedOutcome {
    let cost = actual.cost();
    let planned_cost = plan.cost(cost).to_f64();
    let lambda = cost.lambda.to_f64();
    let mu = cost.mu.to_f64();

    // The latest-ending planned interval seeds the holdover chain.
    let (holdover_server, mut coverage_end) = plan
        .caches
        .iter()
        .map(|h| (h.server, h.to.to_f64()))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or((ServerId::ORIGIN, 0.0));
    let mut holdover_cost = 0.0;

    let mut repair_transfers = 0usize;
    let mut covered = 0usize;

    for i in 1..=actual.n() {
        let t = actual.t(i).to_f64();
        let s = actual.server(i);

        // Covered if a planned copy lives on s at t, or a planned delivery
        // (transfer) arrives exactly then — a correctly predicted request
        // served by a serve-and-drop transfer leaves no interval behind.
        let live_on_s = plan
            .caches
            .iter()
            .any(|h| h.server == s && h.from.to_f64() <= t && t <= h.to.to_f64())
            || plan
                .transfers
                .iter()
                .any(|tr| tr.dst == s && (tr.at.to_f64() - t).abs() <= 1e-9)
            || (s == holdover_server && t <= coverage_end);
        if live_on_s {
            covered += 1;
            continue;
        }
        // Emergency transfer: does any copy live at t?
        let any_live = plan
            .caches
            .iter()
            .any(|h| h.from.to_f64() <= t && t <= h.to.to_f64())
            || t <= coverage_end;
        if !any_live {
            // Plan exhausted: hold the last copy over until now.
            debug_assert!(t > coverage_end);
            holdover_cost += mu * (t - coverage_end);
            coverage_end = t;
        }
        // The delivered repair copy is dropped immediately; the holdover
        // chain stays on the latest-ending planned copy.
        repair_transfers += 1;
    }

    PlannedOutcome {
        planned_cost,
        repair_transfers,
        repair_transfer_cost: lambda * repair_transfers as f64,
        holdover_cost,
        covered,
    }
}

/// Cost decomposition of a plan executed on a crash-degraded cluster.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct FaultyPlannedOutcome {
    /// Plan-and-repair decomposition over the *actualized* schedule (the
    /// committed plan after crash truncation and dead-transfer removal).
    pub base: PlannedOutcome,
    /// Planned intervals cut short or stillborn because of crashes.
    pub copies_lost: usize,
    /// Planned transfers dropped (source down or already dead).
    pub dropped_transfers: usize,
    /// `λ` surcharge for failed repair-transfer attempts.
    pub retry_cost: f64,
}

impl FaultyPlannedOutcome {
    /// Total realized cost including the retry surcharge.
    pub fn total(&self) -> f64 {
        self.base.total() + self.retry_cost
    }
}

/// Executes `plan` against `actual` on a cluster degraded by `faults`.
///
/// The committed plan is first *actualized* against the crash windows,
/// with the same degradation semantics the auditor replays:
///
/// * an interval starting while its server is down is stillborn;
/// * an interval spanning a crash start is truncated there (`μ` stops
///   accruing when the copy is destroyed — a dead server's cache is not
///   billed);
/// * transfers are replayed in time order: one departing a server
///   strictly inside an outage, or whose source interval no longer covers
///   its departure, is dropped, and the interval it would have delivered
///   dies with it (cascade).
///
/// Repairs then run exactly as in [`execute_plan`] against the actualized
/// coverage, except each emergency transfer additionally pays the fault
/// plan's deterministic failed-attempt surcharge (`λ` per failed
/// attempt). The holdover chain is assumed re-homeable at no extra cost —
/// it models "keep the item somewhere", not a specific server's disk.
pub fn execute_plan_under_faults(
    plan: &Schedule<f64>,
    actual: &Instance<f64>,
    faults: &FaultPlan,
) -> FaultyPlannedOutcome {
    let (actualized, copies_lost, dropped_transfers) = actualize(plan, faults);
    let cost = actual.cost();
    let lambda = cost.lambda;

    // Repair pass mirrors `execute_plan`, with the retry surcharge added
    // per emergency transfer. Reuse its decomposition for everything else
    // so the two paths cannot drift.
    let base = execute_plan(&actualized, actual);
    let mut retry_cost = 0.0;
    let mut budget_left = faults.retry_budget();
    if base.repair_transfers > 0 {
        let (holdover_server, mut coverage_end) = actualized
            .caches
            .iter()
            .map(|h| (h.server, h.to))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap_or((ServerId::ORIGIN, 0.0));
        for i in 1..=actual.n() {
            let t = actual.t(i);
            let s = actual.server(i);
            let covered = actualized
                .caches
                .iter()
                .any(|h| h.server == s && h.from <= t && t <= h.to)
                || actualized
                    .transfers
                    .iter()
                    .any(|tr| tr.dst == s && (tr.at - t).abs() <= 1e-9)
                || (s == holdover_server && t <= coverage_end);
            if covered {
                continue;
            }
            let any_live =
                actualized.caches.iter().any(|h| h.from <= t && t <= h.to) || t <= coverage_end;
            if !any_live {
                coverage_end = t; // mirrors execute_plan's holdover step
            }
            // Same deterministic draw the online wrapper uses; repairs are
            // sourced from wherever the item lives, keyed on the origin,
            // and share one per-run retry budget with the wrapper's rule.
            let draw = faults.draw_failures(ServerId::ORIGIN, s, t, budget_left);
            budget_left -= draw.failures;
            retry_cost += lambda * f64::from(draw.failures);
        }
    }

    FaultyPlannedOutcome {
        base,
        copies_lost,
        dropped_transfers,
        retry_cost,
    }
}

/// Applies crash truncation and dead-transfer removal to a committed
/// plan. Returns the surviving schedule plus loss counters.
fn actualize(plan: &Schedule<f64>, faults: &FaultPlan) -> (Schedule<f64>, usize, usize) {
    let mut caches = plan.caches.clone();
    let mut copies_lost = 0usize;
    for h in caches.iter_mut() {
        if h.to > h.from && faults.is_down(h.server, h.from) {
            h.to = h.from; // stillborn: created into an outage
            copies_lost += 1;
            continue;
        }
        let cut = faults
            .server_windows(h.server)
            .iter()
            .find(|w| w.from > h.from && w.from < h.to);
        if let Some(w) = cut {
            h.to = w.from;
            copies_lost += 1;
        }
    }

    let mut order: Vec<usize> = (0..plan.transfers.len()).collect();
    order.sort_by(|&a, &b| plan.transfers[a].at.total_cmp(&plan.transfers[b].at));
    let mut kept = Vec::with_capacity(plan.transfers.len());
    let mut dropped = 0usize;
    for idx in order {
        let tr = plan.transfers[idx];
        let src_down = faults
            .server_windows(tr.src)
            .iter()
            .any(|w| tr.at > w.from && tr.at < w.to);
        let src_alive = caches.iter().any(|h| {
            h.server == tr.src
                && h.from <= tr.at
                && tr.at <= h.to
                && (h.from < tr.at || (tr.src == ServerId::ORIGIN && h.from == 0.0))
        });
        if src_down || !src_alive {
            dropped += 1;
            // The interval this transfer would have seeded dies with it.
            if let Some(h) = caches
                .iter_mut()
                .find(|h| h.server == tr.dst && (h.from - tr.at).abs() <= 1e-9 && h.to > h.from)
            {
                h.to = h.from;
                copies_lost += 1;
            }
        } else {
            kept.push(tr);
        }
    }

    let mut sched = Schedule {
        caches,
        transfers: kept,
    };
    sched.normalize();
    (sched, copies_lost, dropped)
}

/// Convenience for experiments: plan optimally for `predicted`, execute
/// against `actual`.
pub fn plan_and_execute<S: Scalar>(
    predicted: &Instance<S>,
    actual: &Instance<S>,
) -> PlannedOutcome {
    let (plan, _) = optimal_schedule(predicted);
    execute_plan(&plan, actual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_model::Instance;

    fn inst(text: &str) -> Instance<f64> {
        Instance::from_compact(text).unwrap()
    }

    #[test]
    fn perfect_prediction_costs_exactly_opt() {
        let actual = inst("m=3 mu=1 lambda=1 | s2@0.5 s3@0.8 s2@1.1 s1@2.0");
        let out = plan_and_execute(&actual, &actual);
        let opt = mcc_core::offline::optimal_cost(&actual);
        assert_eq!(out.repair_transfers, 0);
        assert_eq!(out.holdover_cost, 0.0);
        assert_eq!(out.covered, 4);
        assert!((out.total() - opt).abs() < 1e-9);
    }

    #[test]
    fn wrong_location_triggers_one_repair() {
        // Plan expects s^2 at 0.5; reality asks s^3.
        let predicted = inst("m=3 mu=1 lambda=1 | s2@0.5");
        let actual = inst("m=3 mu=1 lambda=1 | s3@0.5");
        let out = plan_and_execute(&predicted, &actual);
        assert_eq!(out.repair_transfers, 1);
        assert_eq!(out.covered, 0);
        // Planned: hold origin [0, .5] + transfer = 1.5; repair λ = 1.
        assert!((out.total() - 2.5).abs() < 1e-9, "{out:?}");
    }

    #[test]
    fn outliving_the_plan_pays_holdover() {
        let predicted = inst("m=2 mu=1 lambda=1 | s1@1.0");
        // Reality keeps requesting long after the predicted horizon.
        let actual = inst("m=2 mu=1 lambda=1 | s1@1.0 s2@4.0");
        let out = plan_and_execute(&predicted, &actual);
        // Plan: origin [0, 1] (cost 1). r_2 at t=4 on s^2: plan exhausted →
        // hold origin 1→4 (3) + repair transfer (1).
        assert_eq!(out.repair_transfers, 1);
        assert!((out.holdover_cost - 3.0).abs() < 1e-9);
        assert!((out.total() - 5.0).abs() < 1e-9, "{out:?}");
        assert_eq!(out.covered, 1);
    }

    #[test]
    fn trivial_fault_plan_leaves_execution_unchanged() {
        let predicted = inst("m=3 mu=1 lambda=1 | s2@0.5 s3@0.8 s2@1.1");
        let actual = inst("m=3 mu=1 lambda=1 | s2@0.5 s3@0.9 s2@1.1");
        let (plan, _) = optimal_schedule(&predicted);
        let plain = execute_plan(&plan, &actual);
        let faulty = execute_plan_under_faults(&plan, &actual, &FaultPlan::none());
        assert_eq!(faulty.base, plain);
        assert_eq!(faulty.copies_lost, 0);
        assert_eq!(faulty.dropped_transfers, 0);
        assert_eq!(faulty.retry_cost, 0.0);
        assert!((faulty.total() - plain.total()).abs() < 1e-12);
    }

    #[test]
    fn crash_truncates_planned_coverage_and_forces_repairs() {
        use mcc_core::online::CrashWindow;
        use mcc_model::ServerId;
        // Plan: hold the origin copy over [0, 3] serving s^1 throughout.
        let mut plan = Schedule::new();
        plan.cache(ServerId::ORIGIN, 0.0, 3.0);
        let actual = inst("m=2 mu=1 lambda=1 | s1@1.0 s1@2.5");
        // Origin crashes at t = 2: the interval is cut there, so the
        // request at 2.5 loses its planned coverage.
        let faults = FaultPlan::new(
            vec![CrashWindow {
                server: ServerId::ORIGIN,
                from: 2.0,
                to: 2.2,
            }],
            1,
            0.0,
            0,
            0.0,
        );
        let out = execute_plan_under_faults(&plan, &actual, &faults);
        assert_eq!(out.copies_lost, 1);
        // Actualized plan costs μ·2 instead of μ·3; the uncovered request
        // pays a holdover extension (2 → 2.5) plus a repair transfer.
        assert_eq!(out.base.repair_transfers, 1);
        assert!((out.base.planned_cost - 2.0).abs() < 1e-9, "{out:?}");
        assert!((out.base.holdover_cost - 0.5).abs() < 1e-9, "{out:?}");
        assert!((out.total() - 3.5).abs() < 1e-9, "{out:?}");
    }

    #[test]
    fn dead_transfer_cascades_to_its_delivered_interval() {
        use mcc_core::online::CrashWindow;
        use mcc_model::ServerId;
        // Origin seeds s^2 (= ServerId(1)) at t = 1; the delivered copy
        // runs [1, 2].
        let mut plan = Schedule::new();
        plan.cache(ServerId::ORIGIN, 0.0, 1.5);
        plan.cache(ServerId(1), 1.0, 2.0);
        plan.transfer(ServerId::ORIGIN, ServerId(1), 1.0);
        let actual = inst("m=2 mu=1 lambda=1 | s2@1.5");
        // Origin is down across the transfer instant → the transfer and
        // the s^2 interval both die; origin's own interval is stillborn?
        // No — it *starts* before the outage, so it is truncated at 0.8.
        let faults = FaultPlan::new(
            vec![CrashWindow {
                server: ServerId::ORIGIN,
                from: 0.8,
                to: 1.2,
            }],
            1,
            0.0,
            0,
            0.0,
        );
        let out = execute_plan_under_faults(&plan, &actual, &faults);
        assert_eq!(out.dropped_transfers, 1);
        assert_eq!(out.copies_lost, 2, "source truncated + delivery killed");
        assert_eq!(out.base.repair_transfers, 1);
    }

    #[test]
    fn realized_cost_is_bounded_below_by_opt() {
        let predicted = inst("m=3 mu=1 lambda=1 | s2@0.5 s2@1.0 s3@1.5");
        let actual = inst("m=3 mu=1 lambda=1 | s3@0.5 s2@1.0 s2@1.5");
        let out = plan_and_execute(&predicted, &actual);
        let opt = mcc_core::offline::optimal_cost(&actual);
        assert!(out.total() >= opt - 1e-9, "{} < {}", out.total(), opt);
        assert!(out.repair_transfers >= 1);
    }
}
