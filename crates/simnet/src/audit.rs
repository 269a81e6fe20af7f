//! The replay schedule auditor: the reference the run pipeline's
//! streaming audit is property-tested against.
//!
//! A replay turns feasibility violations, unpaid transfers and
//! cost-accounting drift into typed [`AuditFinding`]s instead of
//! debug-build panics. Every run that goes through `run_cell`/`sweep` is
//! checked by the single-pass [`crate::StreamingAuditor`], which must
//! report the same findings as this replay (`tests/audit_equivalence.rs`,
//! `tests/fault_properties.rs`).
//!
//! Like the referee in `mcc-model` ([`mcc_model::validate_with`]), this
//! auditor performs its checks with per-server sorted interval indexes
//! and binary-searched transfer lookups (`O((|H| + |T| + n)·log)`).
//!
//! When a [`FaultPlan`] is supplied the replay additionally applies
//! *reality*: copies die at crash instants, intervals claimed on a down
//! server are stillborn, transfers out of a down or crash-lost source —
//! or across an active network partition — are invalid and their
//! delivered copies (and everything served from them) die in cascade.
//! Findings that no policy could avoid are *waived*: requests and
//! coverage gaps inside a **total outage** (every server down), requests
//! a partition strands with no same-side live copy, and cache intervals
//! grounded as durable-storage reseeds (at a total-outage end, or at a
//! crash instant under an active partition). Brownout windows do not
//! change feasibility but surcharge the cost recompute. A fault-oblivious
//! policy's believed schedule lights up with findings under this replay;
//! the fault-tolerant wrapper's schedule must stay clean (property-tested
//! in `tests/fault_properties.rs`).
//!
//! Boundary semantics: a copy may be read *at* the crash instant (the
//! evacuation "last gasp" — state just before the crash takes hold), so a
//! transfer source is only invalid strictly inside an outage; a copy
//! *created* at or inside an outage with positive length is fictional.

use mcc_core::online::{FaultPlan, OnlineRun};
use mcc_model::{tol_band, Instance, Scalar, Schedule, ServerId, Violation};

// --- shared fault-waiver helpers ------------------------------------------
//
// Both auditors (this replay and the streaming sweep in
// `crate::streaming`) judge the new fault classes through these exact
// functions, so their verdicts — and the bit pattern of every recomputed
// cost — cannot drift apart.

/// Approximate time equality at `tol`: the model referee's rule,
/// [`Scalar::approx_eq`].
pub(crate) fn eq_tol(tol: f64, a: f64, b: f64) -> bool {
    a.approx_eq(b, tol)
}

/// Whether a cache interval starting at `from` with no incoming transfer
/// is *grounded* — justified as a durable-storage reseed: it starts at a
/// total-outage end (first-recovery reseed) or at a crash instant under an
/// active partition (the wrapper's stranded-evacuation reseed). Grounded
/// intervals may also source transfers at their own start instant, like
/// the origin's initial copy at `t = 0`.
///
/// `outages` is sorted and disjoint (as
/// [`FaultPlan::total_outages_into`] builds it) and the plan's crashes are
/// sorted by onset, so both are binary-searched for the band of instants
/// within tolerance of `from`; the exact `eq_tol` test then decides.
pub(crate) fn grounded_start(
    tol: f64,
    plan: &FaultPlan,
    outages: &[(f64, f64)],
    from: f64,
) -> bool {
    let (lo, hi) = tol_band(tol, from);
    let ends = &outages[outages.partition_point(|w| w.1 < lo)..];
    let crashes = plan.crashes();
    let onsets = &crashes[crashes.partition_point(|c| c.from < lo)..];
    ends.iter()
        .take_while(|w| w.1 <= hi)
        .any(|w| eq_tol(tol, from, w.1))
        || onsets
            .iter()
            .take_while(|c| c.from <= hi)
            .any(|c| eq_tol(tol, from, c.from) && plan.partition_active(c.from))
}

/// Whether instant `t` falls inside a total outage `[from, to)` — requests
/// there are unservable by any policy and their service findings are
/// waived (the wrapper defers them into its offline queue). `outages` is
/// sorted and disjoint: only spans ending after `t` and starting within
/// tolerance of it are tested.
pub(crate) fn outage_covers(tol: f64, outages: &[(f64, f64)], t: f64) -> bool {
    let (_, hi) = tol_band(tol, t);
    outages[outages.partition_point(|w| w.1 <= t)..]
        .iter()
        .take_while(|w| w.0 <= hi)
        .any(|w| (w.0 <= t || eq_tol(tol, w.0, t)) && t < w.1 && !eq_tol(tol, t, w.1))
}

/// Whether a coverage gap `[from, to]` lies inside a total outage (within
/// tolerance): no copy can exist anywhere over such a span. `outages` is
/// sorted and disjoint, searched like [`outage_covers`].
pub(crate) fn gap_waived(tol: f64, outages: &[(f64, f64)], from: f64, to: f64) -> bool {
    let (_, hi) = tol_band(tol, from);
    let (lo, _) = tol_band(tol, to);
    outages[outages.partition_point(|w| w.1 < lo)..]
        .iter()
        .take_while(|w| w.0 <= hi)
        .any(|w| (w.0 <= from || eq_tol(tol, w.0, from)) && (to <= w.1 || eq_tol(tol, to, w.1)))
}

/// Brownout `μ` surcharge of one merged cache interval: `(factor − 1)·μ`
/// per unit of overlap with each degrading window (overlaps stack, summed
/// in plan order).
pub(crate) fn interval_surcharge(
    plan: &FaultPlan,
    server: ServerId,
    from: f64,
    to: f64,
    mu: f64,
) -> f64 {
    let mut sur = 0.0;
    for w in plan.brownouts_overlapping(from, to) {
        if w.server == server {
            let overlap = to.min(w.to) - from.max(w.from);
            if overlap > 0.0 {
                sur += (w.factor - 1.0) * mu * overlap;
            }
        }
    }
    sur
}

/// Brownout `λ` surcharge of one transfer: the worse endpoint's excess.
pub(crate) fn transfer_surcharge(
    plan: &FaultPlan,
    src: ServerId,
    dst: ServerId,
    at: f64,
    lambda: f64,
) -> f64 {
    let excess = plan
        .brownout_excess(src, at)
        .max(plan.brownout_excess(dst, at));
    if excess > 0.0 {
        lambda * excess
    } else {
        0.0
    }
}

/// One defect found by the auditor.
#[derive(Clone, Debug, PartialEq)]
pub enum AuditFinding {
    /// A feasibility violation (same vocabulary as the model referee,
    /// extended with the fault-replay variants).
    Violation(Violation),
    /// The run's reported cost disagrees with the recomputed schedule cost.
    CostDrift {
        /// Cost the run reported.
        reported: f64,
        /// Cost recomputed from the schedule.
        recomputed: f64,
    },
    /// Transfers were performed but not costed (or vice versa).
    UnpaidTransfers {
        /// Transfers in the raw run record.
        recorded: usize,
        /// Transfers in the costed schedule.
        costed: usize,
    },
    /// A capacity-constrained server admitted more items than it has
    /// slots (fleet capacity sweep with eviction disabled — an enabled
    /// eviction policy resolves the pressure instead of reporting it).
    CapacityViolation {
        /// Server whose slots overflowed.
        server: usize,
        /// Event time of the over-capacity admission.
        at: f64,
        /// Occupancy the admission produced.
        occupancy: usize,
        /// The server's slot budget.
        capacity: usize,
    },
}

impl std::fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditFinding::Violation(v) => write!(f, "{v}"),
            AuditFinding::CostDrift {
                reported,
                recomputed,
            } => write!(
                f,
                "reported cost {reported} drifts from recomputed {recomputed}"
            ),
            AuditFinding::UnpaidTransfers { recorded, costed } => {
                write!(f, "{recorded} transfers performed but {costed} costed")
            }
            AuditFinding::CapacityViolation {
                server,
                at,
                occupancy,
                capacity,
            } => write!(
                f,
                "server {server} holds {occupancy} items at t={at} with only {capacity} slots"
            ),
        }
    }
}

/// The auditor's verdict on one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AuditReport {
    /// Every defect found (empty for a clean run).
    pub findings: Vec<AuditFinding>,
}

impl AuditReport {
    /// Whether the run passed with no findings.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.findings.len()
    }

    /// Whether the report holds no findings (mirrors [`Self::is_clean`]).
    pub fn is_empty(&self) -> bool {
        self.findings.is_empty()
    }

    /// Number of feasibility violations (excludes accounting findings).
    pub fn violations(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| matches!(f, AuditFinding::Violation(_)))
            .count()
    }
}

/// Replays schedules and reports defects as typed findings.
#[derive(Copy, Clone, Debug)]
pub struct ScheduleAuditor {
    /// Relative/absolute time-matching tolerance (see
    /// `mcc_model::Scalar::approx_eq`).
    pub tol: f64,
}

impl Default for ScheduleAuditor {
    fn default() -> Self {
        ScheduleAuditor { tol: 1e-9 }
    }
}

/// A cache interval being replayed: `to` is what the schedule claims,
/// `actual_to` what survives the fault replay.
#[derive(Copy, Clone, Debug)]
struct Iv {
    from: f64,
    to: f64,
    actual_to: f64,
    alive: bool,
    /// Justified as a durable-storage reseed (see [`grounded_start`]).
    grounded: bool,
}

impl ScheduleAuditor {
    /// Approximate time equality, matching the model referee's rule.
    fn eq(&self, a: f64, b: f64) -> bool {
        if a == b {
            return true;
        }
        (a - b).abs() <= self.tol * a.abs().max(b.abs()).max(1.0)
    }

    fn le(&self, a: f64, b: f64) -> bool {
        a <= b || self.eq(a, b)
    }

    /// Audits an online run (schedule, reported cost, transfer count).
    pub fn audit_run(
        &self,
        inst: &Instance<f64>,
        run: &OnlineRun<f64>,
        plan: Option<&FaultPlan>,
    ) -> AuditReport {
        self.audit(
            inst,
            &run.schedule,
            Some(run.total_cost),
            Some(run.record.transfers.len()),
            plan,
        )
    }

    /// Full replay of `sched` against `inst` (and `plan`, when supplied).
    pub fn audit(
        &self,
        inst: &Instance<f64>,
        sched: &Schedule<f64>,
        reported_cost: Option<f64>,
        recorded_transfers: Option<usize>,
        plan: Option<&FaultPlan>,
    ) -> AuditReport {
        let mut findings = Vec::new();

        // --- structural: malformed intervals stop the replay early ------
        let mut malformed = false;
        for h in &sched.caches {
            if h.to < h.from || h.from < 0.0 || !h.from.is_finite() || !h.to.is_finite() {
                findings.push(AuditFinding::Violation(Violation::MalformedInterval {
                    server: h.server,
                    from: h.from,
                    to: h.to,
                }));
                malformed = true;
            }
        }
        if malformed {
            return AuditReport { findings };
        }

        let servers = inst.servers();

        // Total-outage windows: spans where every server is down. Service
        // and coverage findings inside them are waived (the wrapper's
        // degraded-mode queue is the only service path there), and reseeds
        // at their ends are grounded.
        let mut outages: Vec<(f64, f64)> = Vec::new();
        if let Some(plan) = plan {
            plan.total_outages_into(servers, &mut outages);
        }

        // Per-server interval index, sorted by start.
        let mut ivs: Vec<Vec<Iv>> = vec![Vec::new(); servers];
        for h in &sched.caches {
            if h.server.index() < servers {
                ivs[h.server.index()].push(Iv {
                    from: h.from,
                    to: h.to,
                    actual_to: h.to,
                    alive: true,
                    grounded: plan.is_some_and(|p| grounded_start(self.tol, p, &outages, h.from)),
                });
            }
        }
        for list in &mut ivs {
            list.sort_by(|a, b| a.from.total_cmp(&b.from));
        }

        // Overlaps double-count cost (believed geometry, fault-independent).
        for (s, list) in ivs.iter().enumerate() {
            for w in list.windows(2) {
                if w[1].from < w[0].to && !self.eq(w[1].from, w[0].to) {
                    findings.push(AuditFinding::Violation(Violation::OverlappingIntervals {
                        server: ServerId::from_index(s),
                        at: w[1].from,
                    }));
                }
            }
        }

        // All incoming transfer times per destination, for provenance.
        let mut incoming: Vec<Vec<f64>> = vec![Vec::new(); servers];
        for tr in &sched.transfers {
            if tr.dst.index() < servers {
                incoming[tr.dst.index()].push(tr.at);
            }
        }
        for list in &mut incoming {
            list.sort_by(f64::total_cmp);
        }
        let has_time = |list: &[f64], at: f64, tol_eq: &dyn Fn(f64, f64) -> bool| {
            let i = list.partition_point(|&x| x < at);
            (i < list.len() && tol_eq(list[i], at)) || (i > 0 && tol_eq(list[i - 1], at))
        };

        // Provenance: every interval starts at the origin at t = 0, at an
        // incoming transfer, or seamlessly continues its predecessor.
        let eqf = |a: f64, b: f64| self.eq(a, b);
        for (s, list) in ivs.iter().enumerate() {
            for (k, iv) in list.iter().enumerate() {
                let origin_start = s == ServerId::ORIGIN.index() && self.eq(iv.from, 0.0);
                let continuation = k > 0 && self.le(iv.from, list[k - 1].to);
                if !origin_start
                    && !continuation
                    && !iv.grounded
                    && !has_time(&incoming[s], iv.from, &eqf)
                {
                    findings.push(AuditFinding::Violation(Violation::UnjustifiedCacheStart {
                        server: ServerId::from_index(s),
                        at: iv.from,
                    }));
                }
            }
        }

        // --- fault replay: crashes kill copies --------------------------
        if let Some(plan) = plan {
            for w in plan.crashes() {
                if w.server.index() >= servers {
                    continue;
                }
                let list = &mut ivs[w.server.index()];
                // Intervals created at/inside the outage with positive
                // length are stillborn; intervals spanning the crash are
                // truncated at it.
                for iv in list.iter_mut() {
                    if !iv.alive {
                        continue;
                    }
                    if iv.from >= w.from && iv.from < w.to {
                        if iv.actual_to > iv.from && !self.eq(iv.actual_to, iv.from) {
                            iv.alive = false;
                            iv.actual_to = iv.from;
                            findings.push(AuditFinding::Violation(Violation::CopyLostInCrash {
                                server: w.server,
                                at: iv.from,
                            }));
                        }
                    } else if iv.from < w.from
                        && iv.actual_to > w.from
                        && !self.eq(iv.actual_to, w.from)
                    {
                        iv.actual_to = w.from;
                        findings.push(AuditFinding::Violation(Violation::CopyLostInCrash {
                            server: w.server,
                            at: w.from,
                        }));
                    }
                }
            }
        }

        // --- transfers, replayed in time order --------------------------
        // An invalid transfer kills the copy it delivered (cascade: later
        // transfers sourced from that copy are invalid too, and requests
        // it served go unserved).
        let mut order: Vec<usize> = (0..sched.transfers.len()).collect();
        order.sort_by(|&a, &b| sched.transfers[a].at.total_cmp(&sched.transfers[b].at));
        let mut delivered: Vec<Vec<f64>> = vec![Vec::new(); servers];
        for idx in order {
            let tr = &sched.transfers[idx];
            if tr.src.index() >= servers || tr.dst.index() >= servers {
                findings.push(AuditFinding::Violation(Violation::DeadTransferSource {
                    src: tr.src,
                    dst: tr.dst,
                    at: tr.at,
                }));
                continue;
            }
            // Strictly inside an outage the source machine cannot send
            // (the boundary instant is the pre-crash state).
            let src_down = plan.is_some_and(|p| {
                p.crashes()
                    .iter()
                    .any(|w| w.server == tr.src && tr.at > w.from && tr.at < w.to)
            });
            let src_alive = !src_down
                && ivs[tr.src.index()].iter().any(|iv| {
                    iv.alive
                        && self.le(iv.from, tr.at)
                        && self.le(tr.at, iv.actual_to)
                        && (iv.from < tr.at
                            || (tr.src == ServerId::ORIGIN && self.eq(iv.from, 0.0))
                            || (iv.grounded && self.eq(iv.from, tr.at)))
                });
            // A grounded *pass-through*: a durable-storage reseed that
            // relays the copy onward at the very instant it lands leaves a
            // zero-length interval in the raw record, which `normalize`
            // drops from the schedule — so the transfer it sourced has no
            // covering interval here. The raw record keeps the interval
            // (the streaming auditor accepts it through its grounded
            // flag); the replay accepts the phantom at the same grounded
            // instants.
            let phantom_grounded = !src_down
                && !src_alive
                && plan.is_some_and(|p| grounded_start(self.tol, p, &outages, tr.at));
            let src_alive = src_alive || phantom_grounded;
            // An otherwise-valid transfer crossing an active partition is
            // illegal (outage and dead-source findings take precedence).
            let severed = src_alive && plan.is_some_and(|p| p.partitioned(tr.src, tr.dst, tr.at));
            if src_alive && !severed {
                delivered[tr.dst.index()].push(tr.at);
            } else {
                findings.push(AuditFinding::Violation(if src_down {
                    Violation::TransferDuringOutage {
                        src: tr.src,
                        at: tr.at,
                    }
                } else if severed {
                    Violation::TransferAcrossPartition {
                        src: tr.src,
                        dst: tr.dst,
                        at: tr.at,
                    }
                } else {
                    Violation::DeadTransferSource {
                        src: tr.src,
                        dst: tr.dst,
                        at: tr.at,
                    }
                }));
                // Kill the interval this transfer would have opened.
                for iv in ivs[tr.dst.index()].iter_mut() {
                    if iv.alive && self.eq(iv.from, tr.at) {
                        iv.alive = false;
                        iv.actual_to = iv.from;
                    }
                }
            }
        }
        for list in &mut delivered {
            list.sort_by(f64::total_cmp);
        }

        // --- service ----------------------------------------------------
        // Latest request that pins the coverage obligation: one served
        // in-schedule, or one unserved without a deferral waiver. Requests
        // past it were all absorbed by the wrapper's offline queue, so the
        // schedule owes no coverage beyond the last covered instant.
        let mut tail_block = f64::NEG_INFINITY;
        for i in 1..=inst.n() {
            let (s, t) = (inst.server(i), inst.t(i));
            let cached = s.index() < servers
                && ivs[s.index()]
                    .iter()
                    .any(|iv| iv.alive && self.le(iv.from, t) && self.le(t, iv.actual_to));
            let transferred = s.index() < servers && has_time(&delivered[s.index()], t, &eqf);
            if cached || transferred {
                tail_block = tail_block.max(t);
            }
            if !cached && !transferred {
                // Waived when reality made service impossible: a total
                // outage covers `t`, or a partition puts every live copy
                // on the far side (the wrapper defers such requests into
                // its accounted offline queue).
                let waived = plan.is_some_and(|p| {
                    outage_covers(self.tol, &outages, t)
                        || (p.partition_active(t)
                            && !ivs.iter().enumerate().any(|(s2, list)| {
                                !p.partitioned(ServerId::from_index(s2), s, t)
                                    && list.iter().any(|iv| {
                                        iv.alive && self.le(iv.from, t) && self.le(t, iv.actual_to)
                                    })
                            }))
                });
                if !waived {
                    tail_block = tail_block.max(t);
                    findings.push(AuditFinding::Violation(Violation::UnservedRequest {
                        request: i,
                        server: s,
                        at: t,
                    }));
                }
            }
        }

        // --- coverage ---------------------------------------------------
        if inst.n() > 0 {
            let anchored = ivs[ServerId::ORIGIN.index()]
                .iter()
                .any(|iv| self.eq(iv.from, 0.0) && iv.actual_to > 0.0);
            if !anchored {
                findings.push(AuditFinding::Violation(Violation::MissingOriginCopy));
            }
            let mut spans: Vec<(f64, f64)> = ivs
                .iter()
                .flatten()
                .filter(|iv| iv.actual_to > iv.from)
                .map(|iv| (iv.from, iv.actual_to))
                .collect();
            spans.sort_by(|a, b| a.0.total_cmp(&b.0));
            let horizon = inst.horizon();
            let mut reach = 0.0f64;
            let mut gap_reported = false;
            for (from, to) in spans {
                if from > reach && !self.eq(from, reach) {
                    // A gap lying inside a total outage is waived: no
                    // policy can hold a copy anywhere over it.
                    if !gap_waived(self.tol, &outages, reach, from) {
                        findings.push(AuditFinding::Violation(Violation::CoverageGap {
                            at: reach,
                        }));
                        gap_reported = true;
                    }
                    // Jump the gap and keep scanning: one report per gap.
                    reach = from;
                }
                reach = reach.max(to);
                if reach >= horizon {
                    break;
                }
            }
            // A trailing gap is also waived when every request past `reach`
            // was deferred into the wrapper's accounted offline queue: the
            // run's last in-schedule obligation ends at `reach`, and the
            // replay of the queue happens against durable storage, outside
            // the schedule.
            let tail_deferred =
                plan.is_some() && (tail_block <= reach || self.eq(tail_block, reach));
            if !gap_reported
                && reach < horizon
                && !self.eq(reach, horizon)
                && !tail_deferred
                && !gap_waived(self.tol, &outages, reach, horizon)
            {
                findings.push(AuditFinding::Violation(Violation::CoverageGap {
                    at: reach,
                }));
            }
        }

        // --- accounting -------------------------------------------------
        if let Some(reported) = reported_cost {
            // The *believed* schedule is what the run charged itself for;
            // drift means the run's own arithmetic disagrees with it. The
            // brownout surcharge is part of the reported cost, so it is
            // recomputed here too — interval terms in (server, start)
            // order, then transfer terms in (time, src, dst) order,
            // exactly as the streaming auditor sums them.
            let mut recomputed = sched.cost(inst.cost());
            if let Some(p) = plan {
                if !p.brownouts().is_empty() {
                    let (mu, lambda) = (inst.cost().mu, inst.cost().lambda);
                    let mut sur = 0.0;
                    for h in &sched.caches {
                        sur += interval_surcharge(p, h.server, h.from, h.to, mu);
                    }
                    for tr in &sched.transfers {
                        sur += transfer_surcharge(p, tr.src, tr.dst, tr.at, lambda);
                    }
                    recomputed += sur;
                }
            }
            if !self.eq(reported, recomputed) {
                findings.push(AuditFinding::CostDrift {
                    reported,
                    recomputed,
                });
            }
        }
        if let Some(recorded) = recorded_transfers {
            let costed = sched.transfers.len();
            if recorded != costed {
                findings.push(AuditFinding::UnpaidTransfers { recorded, costed });
            }
        }

        AuditReport { findings }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_core::online::{run_policy, SpeculativeCaching};
    use mcc_core::online::{CrashWindow, FaultTolerant};
    use mcc_model::CostModel;

    fn inst() -> Instance<f64> {
        Instance::from_compact("m=3 mu=1 lambda=1 | s2@0.5 s2@0.9 s3@1.4 s1@3.0 s2@3.5").unwrap()
    }

    fn crashy_plan() -> FaultPlan {
        FaultPlan::new(
            vec![
                CrashWindow {
                    server: ServerId(1),
                    from: 1.0,
                    to: 2.0,
                },
                CrashWindow {
                    server: ServerId(0),
                    from: 2.5,
                    to: 4.0,
                },
            ],
            11,
            0.0,
            0,
            0.0,
        )
    }

    #[test]
    fn clean_run_audits_clean() {
        let inst = inst();
        let run = run_policy(&mut SpeculativeCaching::paper(), &inst);
        let report = ScheduleAuditor::default().audit_run(&inst, &run, None);
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.violations(), 0);
    }

    #[test]
    fn agrees_with_model_referee_on_clean_schedules() {
        let inst = inst();
        for policy in [1.0, 2.0, 0.5] {
            let run = run_policy(&mut SpeculativeCaching::with_options(policy, None), &inst);
            let referee = mcc_model::validate_with(
                &inst,
                &run.schedule,
                mcc_model::ValidateOptions { tol: 1e-9 },
            );
            let audit = ScheduleAuditor::default().audit_run(&inst, &run, None);
            assert_eq!(referee.is_ok(), audit.is_clean());
        }
    }

    #[test]
    fn oblivious_run_lights_up_under_fault_replay() {
        let inst = inst();
        let run = run_policy(&mut SpeculativeCaching::paper(), &inst);
        let plan = crashy_plan();
        let report = ScheduleAuditor::default().audit_run(&inst, &run, Some(&plan));
        assert!(
            !report.is_clean(),
            "a fault-oblivious schedule must show violations under crashes"
        );
        assert!(report.findings.iter().any(|f| matches!(
            f,
            AuditFinding::Violation(Violation::CopyLostInCrash { .. })
        )));
    }

    #[test]
    fn wrapped_run_stays_clean_under_fault_replay() {
        let inst = inst();
        let plan = crashy_plan();
        let mut ft = FaultTolerant::new(SpeculativeCaching::<f64>::paper(), plan.clone());
        let run = run_policy(&mut ft, &inst);
        let report = ScheduleAuditor::default().audit_run(&inst, &run, Some(&plan));
        assert!(report.is_clean(), "{:?}", report.findings);
    }

    #[test]
    fn cost_drift_and_unpaid_transfers_are_reported() {
        let inst = inst();
        let run = run_policy(&mut SpeculativeCaching::paper(), &inst);
        let auditor = ScheduleAuditor::default();
        let drift = auditor.audit(&inst, &run.schedule, Some(run.total_cost + 1.0), None, None);
        assert!(drift
            .findings
            .iter()
            .any(|f| matches!(f, AuditFinding::CostDrift { .. })));
        let unpaid = auditor.audit(
            &inst,
            &run.schedule,
            None,
            Some(run.record.transfers.len() + 2),
            None,
        );
        assert!(unpaid
            .findings
            .iter()
            .any(|f| matches!(f, AuditFinding::UnpaidTransfers { .. })));
    }

    #[test]
    fn infeasible_schedule_is_flagged() {
        // A schedule that serves nothing: single origin interval ending
        // before the requests.
        let inst = Instance::<f64>::new(
            2,
            CostModel::unit(),
            vec![mcc_model::Request {
                server: ServerId(1),
                time: 2.0,
            }],
        )
        .unwrap();
        let mut sched = Schedule::new();
        sched.cache(ServerId(0), 0.0, 0.5);
        sched.normalize();
        let report = ScheduleAuditor::default().audit(&inst, &sched, None, None, None);
        assert!(report.violations() >= 2, "{:?}", report.findings); // unserved + gap
    }

    #[test]
    fn findings_display_readably() {
        let f = AuditFinding::CostDrift {
            reported: 3.0,
            recomputed: 4.0,
        };
        assert!(f.to_string().contains("drift"));
        let f = AuditFinding::Violation(Violation::CopyLostInCrash {
            server: ServerId(1),
            at: 1.5,
        });
        assert!(f.to_string().contains("crash"));
    }

    /// The linear scans the binary-searched waiver helpers replaced, as
    /// oracles over random plans.
    mod differential {
        use super::*;
        use mcc_core::online::{BrownoutWindow, PartitionWindow};
        use proptest::prelude::*;

        const M: usize = 3;

        fn grounded_start_scan(
            tol: f64,
            plan: &FaultPlan,
            outages: &[(f64, f64)],
            from: f64,
        ) -> bool {
            outages.iter().any(|w| eq_tol(tol, from, w.1))
                || plan
                    .crashes()
                    .iter()
                    .any(|c| eq_tol(tol, from, c.from) && plan.partition_active(c.from))
        }

        fn outage_covers_scan(tol: f64, outages: &[(f64, f64)], t: f64) -> bool {
            outages
                .iter()
                .any(|w| (w.0 <= t || eq_tol(tol, w.0, t)) && t < w.1 && !eq_tol(tol, t, w.1))
        }

        fn gap_waived_scan(tol: f64, outages: &[(f64, f64)], from: f64, to: f64) -> bool {
            outages.iter().any(|w| {
                (w.0 <= from || eq_tol(tol, w.0, from)) && (to <= w.1 || eq_tol(tol, to, w.1))
            })
        }

        fn interval_surcharge_scan(
            plan: &FaultPlan,
            server: ServerId,
            from: f64,
            to: f64,
            mu: f64,
        ) -> f64 {
            let mut sur = 0.0;
            for w in plan.brownouts() {
                if w.server == server {
                    let overlap = to.min(w.to) - from.max(w.from);
                    if overlap > 0.0 {
                        sur += (w.factor - 1.0) * mu * overlap;
                    }
                }
            }
            sur
        }

        /// Mostly half-unit grid instants (equal starts, touching windows,
        /// coalescing overlaps, `t = 0`), sometimes off-grid.
        fn instant() -> impl Strategy<Value = f64> {
            let grid = || (0u32..16).prop_map(|k| 0.5 * k as f64);
            prop_oneof![grid(), grid(), grid(), 0.0f64..8.0]
        }

        fn span() -> impl Strategy<Value = f64> {
            let grid = || (1u32..6).prop_map(|k| 0.5 * k as f64);
            prop_oneof![grid(), grid(), grid(), 0.01f64..3.0]
        }

        fn up_to<S: Strategy>(
            max: usize,
            element: impl Fn() -> S,
        ) -> impl Strategy<Value = Vec<S::Value>> {
            (0..max).prop_flat_map(move |n| proptest::collection::vec(element(), n))
        }

        /// Dense crashes on few servers, so total outages are common.
        fn random_plan() -> impl Strategy<Value = FaultPlan> {
            let crashes = up_to(20, || (0..M, instant(), span()));
            let partitions = up_to(4, || (instant(), span(), 1u64..7));
            let brownouts = up_to(6, || {
                (0..M, instant(), span(), prop_oneof![Just(1.5), Just(3.0)])
            });
            (crashes, partitions, brownouts).prop_map(|(c, p, b)| {
                FaultPlan::new(
                    c.into_iter()
                        .map(|(s, from, len)| CrashWindow {
                            server: ServerId::from_index(s),
                            from,
                            to: from + len,
                        })
                        .collect(),
                    1,
                    0.0,
                    0,
                    0.0,
                )
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

        /// Every window and outage edge, exact and nudged just inside and
        /// just outside the `1e-9` tolerance, plus fixed probes.
        fn query_instants(plan: &FaultPlan, outages: &[(f64, f64)]) -> Vec<f64> {
            let mut edges = vec![0.0, 0.3, 20.0];
            edges.extend(plan.crashes().iter().flat_map(|w| [w.from, w.to]));
            edges.extend(plan.brownouts().iter().flat_map(|w| [w.from, w.to]));
            edges.extend(outages.iter().flat_map(|w| [w.0, w.1]));
            let mut out: Vec<f64> = edges
                .iter()
                .flat_map(|&t| {
                    [0.0, 1e-9, -1e-9, 0.5e-9, -0.5e-9, 2e-9, -2e-9]
                        .map(|r| t * (1.0 + r))
                        .into_iter()
                        .chain([t + 0.5e-9, t - 0.5e-9, t + 2e-9])
                })
                .collect();
            out.sort_by(f64::total_cmp);
            out.dedup();
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn waiver_helpers_match_the_scans(
                plan in random_plan(),
                tol in prop_oneof![Just(1e-9), Just(1e-9), Just(0.0), Just(1e-3), Just(0.3)],
            ) {
                let mut outages = Vec::new();
                plan.total_outages_into(M, &mut outages);
                let instants = query_instants(&plan, &outages);
                for &t in &instants {
                    prop_assert_eq!(
                        grounded_start(tol, &plan, &outages, t),
                        grounded_start_scan(tol, &plan, &outages, t),
                        "grounded_start({})", t
                    );
                    prop_assert_eq!(
                        outage_covers(tol, &outages, t),
                        outage_covers_scan(tol, &outages, t),
                        "outage_covers({})", t
                    );
                }
                for (i, &from) in instants.iter().enumerate() {
                    for &to in instants[i..].iter().step_by(3) {
                        prop_assert_eq!(
                            gap_waived(tol, &outages, from, to),
                            gap_waived_scan(tol, &outages, from, to),
                            "gap_waived({}, {})", from, to
                        );
                        for s in 0..=M {
                            let s = ServerId::from_index(s);
                            prop_assert_eq!(
                                interval_surcharge(&plan, s, from, to, 1.25).to_bits(),
                                interval_surcharge_scan(&plan, s, from, to, 1.25).to_bits()
                            );
                        }
                    }
                }
            }
        }
    }
}
