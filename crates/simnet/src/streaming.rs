//! Single-pass streaming auditor: the replay auditor's checks, folded
//! into one chronological sweep over the raw [`RunRecord`].
//!
//! [`crate::audit::ScheduleAuditor`] materializes a normalized
//! [`mcc_model::Schedule`], builds per-server interval indexes and
//! replays crashes/transfers/requests against them. That costs several
//! allocations and two extra passes per seed — about half the sweep hot
//! path before this module existed. [`StreamingAuditor`] performs the
//! same checks in one merged scan over four already-sorted event streams
//! (copy records by start time, transfers by instant, requests by
//! arrival, crash windows by onset), carrying one small state per
//! server instead of interval lists. All storage lives in a caller-owned
//! [`AuditScratch`], so a warm audit performs **zero heap allocations**.
//!
//! What the sweep builds comes out in order as well, so the audit sorts
//! nothing: each merged interval reserves its coverage span when it opens
//! (spans are therefore in start order, the order the coverage walk
//! needs), each server's cost terms are kept in their own list in closing
//! order (read server by server, that is the replay's `(server, from)`
//! summation order), and the brownout surcharge orders only runs of
//! same-instant transfers by `(src, dst)`.
//!
//! # Equivalence with the replay auditor
//!
//! For every run the pipeline can produce, the streaming pass yields the
//! same multiset of [`AuditFinding`]s as
//! `ScheduleAuditor::audit(inst, &rec.to_schedule(), …)` (property-tested
//! in `tests/audit_equivalence.rs`; the replay auditor remains the
//! reference those tests compare against). Finding *order* may differ — the
//! replay groups findings by check, the stream emits them by time.
//!
//! The equivalence holds under the preconditions the runtime guarantees
//! (and the generators preserve):
//!
//! * record times are finite and non-negative, `last_touch`/`to` ordered —
//!   [`mcc_core::online::Runtime`] asserts this while recording;
//! * per-server copy records are chronological and transfers arrive in
//!   non-decreasing time order (runtime time never goes backwards);
//! * per-server crash windows do not overlap (the generator draws
//!   alternating outage/uptime spans);
//! * independent continuous event times never collide within the `1e-9`
//!   relative tolerance unless they are exactly equal (seed-driven
//!   exponential/uniform draws make sub-tolerance near-misses a
//!   measure-zero event; exact ties — e.g. a copy handed over at the
//!   very instant a crash starts — are handled by the event priority
//!   and the pending-crash slot below).
//!
//! Outside those preconditions (hand-built records with overlapping
//! windows or sub-tolerance near-ties) the two auditors may disagree on
//! tolerance-boundary corners; the replay auditor is the arbiter there.

use mcc_core::online::{sort_tie_runs, CrashWindow, FaultPlan, RunRecord};
use mcc_model::{Instance, ServerId, Violation};

use crate::audit::{
    eq_tol, gap_waived, grounded_start, interval_surcharge, outage_covers, transfer_surcharge,
    AuditFinding, AuditReport,
};

/// Per-server incremental audit state: the *current* (latest) merged
/// cache interval plus the provenance/outage context needed to judge the
/// next event.
///
/// Crash-death (`stillborn`/`truncated`) and transfer-death (`killed`)
/// are tracked separately on purpose: the replay auditor applies *all*
/// crash truncations before it replays any transfer, so an interval
/// killed by an invalid delivering transfer still collects crash
/// findings from later outage onsets. The crash checks therefore read
/// `crash_actual_to` (kill-independent), while service, transfer-source
/// and coverage checks read the effective end (`from` once killed).
#[derive(Copy, Clone, Debug)]
struct SrvState {
    /// Whether a current interval exists.
    has: bool,
    /// Start of the current merged interval.
    from: f64,
    /// Believed end (grows as seamless records merge in).
    to: f64,
    /// End surviving the crash replay (`≤ to`), ignoring transfer kills.
    crash_actual_to: f64,
    /// Created at/inside an outage with positive length (crash-dead).
    stillborn: bool,
    /// Killed by its invalid delivering transfer (transfer-dead).
    killed: bool,
    /// True once truncated at a crash onset (`crash_actual_to` frozen).
    truncated: bool,
    /// Crash onset at/after the current believed end: if a later record
    /// merges the interval past it, the truncation applies retroactively.
    pending_crash: Option<f64>,
    /// Justified as a durable-storage reseed (see
    /// [`crate::audit`]'s `grounded_start`): needs no incoming transfer
    /// and may source same-instant transfers.
    grounded: bool,
    /// Believed end of the previous merged interval (continuation check).
    prev_to: f64,
    /// Whether `prev_to` is meaningful.
    has_prev: bool,
    /// Latest crash window seen on this server (`[down_from, down_to)`).
    down_from: f64,
    down_to: f64,
    /// Index of the current interval's coverage span in
    /// [`AuditScratch`]'s `spans`, reserved when the interval opened.
    span: usize,
}

impl SrvState {
    /// End of the interval as service/coverage see it.
    fn effective_to(&self) -> f64 {
        if self.killed || self.stillborn {
            self.from
        } else {
            self.crash_actual_to
        }
    }

    /// Whether the copy is live at all (for service/source checks).
    fn alive(&self) -> bool {
        self.has && !self.stillborn && !self.killed
    }
}

impl Default for SrvState {
    fn default() -> Self {
        SrvState {
            has: false,
            from: 0.0,
            to: 0.0,
            crash_actual_to: 0.0,
            stillborn: false,
            killed: false,
            truncated: false,
            pending_crash: None,
            grounded: false,
            prev_to: 0.0,
            has_prev: false,
            down_from: f64::NEG_INFINITY,
            down_to: f64::NEG_INFINITY,
            span: 0,
        }
    }
}

/// Reusable storage for [`StreamingAuditor::audit_record_in`].
///
/// Holds per-server states, incoming/delivered transfer-time indexes,
/// coverage spans and the findings buffer. Sized on first use; a warm
/// audit of a same-shaped run allocates nothing.
#[derive(Default, Debug)]
pub struct AuditScratch {
    srv: Vec<SrvState>,
    incoming: Vec<Vec<f64>>,
    delivered: Vec<Vec<f64>>,
    /// Coverage span per merged interval, in opening order (so by start);
    /// a span left empty (`to == from`) covers nothing and is skipped.
    spans: Vec<(f64, f64)>,
    /// `(from, believed to)` per merged interval and server, in closing
    /// order (so by start), for the cost recompute in the replay
    /// auditor's `(server, from)` summation order.
    costs: Vec<Vec<(f64, f64)>>,
    /// Total-outage spans of the current plan (empty without a plan).
    outages: Vec<(f64, f64)>,
    /// `(at, src, dst)` per transfer, ordered like a normalized schedule's
    /// transfer list, for the brownout surcharge summation order.
    tr_order: Vec<(f64, u32, u32)>,
    findings: Vec<AuditFinding>,
}

impl AuditScratch {
    /// Clears all buffers and sizes the per-server tables.
    fn reset(&mut self, servers: usize) {
        self.srv.clear();
        self.srv.resize(servers, SrvState::default());
        for list in &mut self.incoming {
            list.clear();
        }
        for list in &mut self.delivered {
            list.clear();
        }
        for list in &mut self.costs {
            list.clear();
        }
        if self.incoming.len() < servers {
            self.incoming.resize_with(servers, Vec::new);
        }
        if self.delivered.len() < servers {
            self.delivered.resize_with(servers, Vec::new);
        }
        if self.costs.len() < servers {
            self.costs.resize_with(servers, Vec::new);
        }
        self.spans.clear();
        self.outages.clear();
        self.tr_order.clear();
        self.findings.clear();
    }
}

/// Audits raw run records in one chronological pass (see module docs).
#[derive(Copy, Clone, Debug)]
pub struct StreamingAuditor {
    /// Relative/absolute time-matching tolerance (see
    /// `mcc_model::Scalar::approx_eq`).
    pub tol: f64,
}

impl Default for StreamingAuditor {
    fn default() -> Self {
        StreamingAuditor { tol: 1e-9 }
    }
}

/// Event tags, in tie-breaking priority order at equal times: a crash
/// takes hold before anything else at its onset instant, copies open
/// before the transfers that justify same-instant deliveries elsewhere,
/// and requests are served last (a transfer *at* the request instant
/// counts).
const TAG_CRASH: u8 = 0;
const TAG_OPEN: u8 = 1;
const TAG_TRANSFER: u8 = 2;
const TAG_REQUEST: u8 = 3;

impl StreamingAuditor {
    /// Approximate time equality, the model referee's rule.
    fn eq(&self, a: f64, b: f64) -> bool {
        eq_tol(self.tol, a, b)
    }

    fn le(&self, a: f64, b: f64) -> bool {
        a <= b || self.eq(a, b)
    }

    fn has_time(&self, list: &[f64], at: f64) -> bool {
        let i = list.partition_point(|&x| x < at);
        (i < list.len() && self.eq(list[i], at)) || (i > 0 && self.eq(list[i - 1], at))
    }

    /// Closes out a server's current merged interval: coverage span end,
    /// cost contribution, origin anchor, continuation bookkeeping.
    fn finalize_interval(
        &self,
        st: &mut SrvState,
        s: usize,
        spans: &mut [(f64, f64)],
        costs: &mut Vec<(f64, f64)>,
        anchored: &mut bool,
    ) {
        if !st.has {
            return;
        }
        let eff = st.effective_to();
        if eff > st.from {
            spans[st.span].1 = eff;
        }
        costs.push((st.from, st.to));
        if s == ServerId::ORIGIN.index() && self.eq(st.from, 0.0) && eff > 0.0 {
            *anchored = true;
        }
        st.prev_to = st.to;
        st.has_prev = true;
    }

    /// Streaming audit of a raw run record; returns the findings slice
    /// borrowed from `scratch` (empty for a clean run).
    ///
    /// Mirrors [`crate::audit::ScheduleAuditor::audit`] applied to
    /// `rec.to_schedule()`: `reported_cost`/`recorded_transfers` enable
    /// the accounting checks, `plan` enables the fault replay.
    pub fn audit_record_in<'a>(
        &self,
        inst: &Instance<f64>,
        rec: &RunRecord<f64>,
        reported_cost: Option<f64>,
        recorded_transfers: Option<usize>,
        plan: Option<&FaultPlan>,
        scratch: &'a mut AuditScratch,
    ) -> &'a [AuditFinding] {
        let servers = inst.servers();
        scratch.reset(servers);
        let AuditScratch {
            srv,
            incoming,
            delivered,
            spans,
            costs,
            outages,
            tr_order,
            findings,
        } = scratch;

        // Total-outage windows of the plan (see the replay auditor): the
        // waiver and grounding rules below all read from this one list.
        if let Some(plan) = plan {
            plan.total_outages_into(servers, outages);
        }

        // --- structural: malformed merged intervals stop the audit ------
        // Normalization drops empty records and merges seamless ones, so
        // the malformed check must run on *merged* geometry to match the
        // replay. Reuse the per-server states for a cheap pre-merge.
        let mut malformed = false;
        {
            let mut check = |server: ServerId, from: f64, to: f64| {
                if from < 0.0 || !from.is_finite() || !to.is_finite() {
                    findings.push(AuditFinding::Violation(Violation::MalformedInterval {
                        server,
                        from,
                        to,
                    }));
                    malformed = true;
                }
            };
            for r in &rec.records {
                if !(r.to > r.from) {
                    continue; // dropped by normalization
                }
                let s = r.server.index();
                if s >= servers {
                    // Out-of-range servers never merge in practice
                    // (unreachable through the runtime); check directly.
                    check(r.server, r.from, r.to);
                    continue;
                }
                let st = &mut srv[s];
                if st.has && r.from <= st.to {
                    st.to = st.to.max(r.to);
                } else {
                    if st.has {
                        check(r.server, st.from, st.to);
                    }
                    st.has = true;
                    st.from = r.from;
                    st.to = r.to;
                }
            }
            for (s, st) in srv.iter_mut().enumerate() {
                if st.has {
                    check(ServerId::from_index(s), st.from, st.to);
                }
                *st = SrvState::default();
            }
        }
        if malformed {
            return findings;
        }

        // Overlap findings cannot arise on merged geometry (an overlap is
        // merged away), exactly as in the replay auditor — skipped.

        // All incoming transfer times per destination, for provenance.
        // The runtime emits transfers in non-decreasing time order, so
        // the lists are already sorted for binary search.
        for tr in &rec.transfers {
            if tr.dst.index() < servers {
                incoming[tr.dst.index()].push(tr.at);
            }
        }
        debug_assert!(incoming.iter().all(|l| l.windows(2).all(|w| w[0] <= w[1])));

        // --- the merged chronological sweep -----------------------------
        let records = &rec.records;
        let transfers = &rec.transfers;
        let no_crashes: &[CrashWindow] = &[];
        let crashes = plan.map_or(no_crashes, |p| p.crashes());
        let n = inst.n();
        let mut anchored = false;
        // Latest request that pins the coverage obligation: one served
        // in-schedule, or one unserved without a deferral waiver. Requests
        // past it were all absorbed by the wrapper's offline queue, so the
        // schedule owes no coverage beyond the last covered instant.
        let mut tail_block = f64::NEG_INFINITY;
        let (mut ri, mut ti, mut qi, mut ci) = (0usize, 0usize, 1usize, 0usize);
        loop {
            // Skip empty records (dropped by normalization).
            while ri < records.len() && !(records[ri].to > records[ri].from) {
                ri += 1;
            }
            let mut pick: Option<(f64, u8)> = None;
            let candidates = [
                ((ci < crashes.len()).then(|| crashes[ci].from), TAG_CRASH),
                ((ri < records.len()).then(|| records[ri].from), TAG_OPEN),
                (
                    (ti < transfers.len()).then(|| transfers[ti].at),
                    TAG_TRANSFER,
                ),
                ((qi <= n).then(|| inst.t(qi)), TAG_REQUEST),
            ];
            for (t, tag) in candidates {
                if let Some(t) = t {
                    // Strict `<` keeps the lowest tag on ties: the array
                    // above is in priority order.
                    if pick.is_none_or(|(bt, _)| t < bt) {
                        pick = Some((t, tag));
                    }
                }
            }
            let Some((_, tag)) = pick else { break };
            match tag {
                TAG_CRASH => {
                    let w = crashes[ci];
                    ci += 1;
                    if w.server.index() >= servers {
                        continue;
                    }
                    let st = &mut srv[w.server.index()];
                    st.down_from = w.from;
                    st.down_to = w.to;
                    // Crash checks deliberately ignore `killed`: the
                    // replay applies every crash before any transfer, so
                    // a transfer-killed interval still collects crash
                    // findings (see `SrvState`).
                    if !st.has || st.stillborn {
                        continue;
                    }
                    // Opens at the onset instant are processed after the
                    // crash, so the current interval started strictly
                    // before it; it is truncated if it reaches past the
                    // onset, and watched via the pending slot if a later
                    // seamless merge might stretch it past.
                    if st.from < w.from
                        && st.crash_actual_to > w.from
                        && !self.eq(st.crash_actual_to, w.from)
                    {
                        st.crash_actual_to = w.from;
                        st.truncated = true;
                        findings.push(AuditFinding::Violation(Violation::CopyLostInCrash {
                            server: w.server,
                            at: w.from,
                        }));
                    } else if !st.truncated {
                        st.pending_crash = st.pending_crash.or(Some(w.from));
                    }
                }
                TAG_OPEN => {
                    let r = &records[ri];
                    ri += 1;
                    let s = r.server.index();
                    if s >= servers {
                        continue; // not indexed by the replay either
                    }
                    let st = &mut srv[s];
                    if st.has && r.from <= st.to {
                        // Seamless continuation: merge. The crash-replay
                        // end tracks the believed end even for a killed
                        // interval — the replay's crash phase sees the
                        // full merged geometry before any kill applies.
                        st.to = st.to.max(r.to);
                        if !st.stillborn && !st.truncated {
                            st.crash_actual_to = st.to;
                            if let Some(w) = st.pending_crash {
                                if st.crash_actual_to > w && !self.eq(st.crash_actual_to, w) {
                                    st.crash_actual_to = w;
                                    st.truncated = true;
                                    st.pending_crash = None;
                                    findings.push(AuditFinding::Violation(
                                        Violation::CopyLostInCrash {
                                            server: r.server,
                                            at: w,
                                        },
                                    ));
                                }
                            }
                        }
                    } else {
                        self.finalize_interval(st, s, spans, &mut costs[s], &mut anchored);
                        st.has = true;
                        st.span = spans.len();
                        spans.push((r.from, r.from));
                        st.from = r.from;
                        st.to = r.to;
                        st.crash_actual_to = r.to;
                        st.stillborn = false;
                        st.killed = false;
                        st.truncated = false;
                        st.pending_crash = None;
                        st.grounded =
                            plan.is_some_and(|p| grounded_start(self.tol, p, outages, r.from));
                        // Provenance: origin at t = 0, seamless successor,
                        // a durable-storage reseed, or an incoming transfer
                        // at the start instant.
                        let origin_start = s == ServerId::ORIGIN.index() && self.eq(r.from, 0.0);
                        let continuation = st.has_prev && self.le(r.from, st.prev_to);
                        if !origin_start
                            && !continuation
                            && !st.grounded
                            && !self.has_time(&incoming[s], r.from)
                        {
                            findings.push(AuditFinding::Violation(
                                Violation::UnjustifiedCacheStart {
                                    server: r.server,
                                    at: r.from,
                                },
                            ));
                        }
                        // Created at/inside an outage with positive
                        // length: stillborn.
                        if r.from >= st.down_from
                            && r.from < st.down_to
                            && st.crash_actual_to > st.from
                            && !self.eq(st.crash_actual_to, st.from)
                        {
                            st.stillborn = true;
                            st.crash_actual_to = st.from;
                            findings.push(AuditFinding::Violation(Violation::CopyLostInCrash {
                                server: r.server,
                                at: st.from,
                            }));
                        }
                    }
                }
                TAG_TRANSFER => {
                    let tr = &transfers[ti];
                    ti += 1;
                    if tr.src.index() >= servers || tr.dst.index() >= servers {
                        findings.push(AuditFinding::Violation(Violation::DeadTransferSource {
                            src: tr.src,
                            dst: tr.dst,
                            at: tr.at,
                        }));
                        continue;
                    }
                    let src = &srv[tr.src.index()];
                    // Strictly inside an outage the source cannot send
                    // (the boundary instant is the pre-crash state).
                    let src_down = src.down_from < tr.at && tr.at < src.down_to;
                    let src_alive = !src_down
                        && src.alive()
                        && self.le(src.from, tr.at)
                        && self.le(tr.at, src.crash_actual_to)
                        && (src.from < tr.at
                            || (tr.src == ServerId::ORIGIN && self.eq(src.from, 0.0))
                            || (src.grounded && self.eq(src.from, tr.at)));
                    // A grounded *pass-through*: a durable-storage reseed
                    // relayed onward at the very instant it lands leaves a
                    // zero-length interval, which the record sweep skips
                    // (mirroring `normalize`) — accept the sourceless
                    // transfer at the same grounded instants the replay
                    // does.
                    let phantom_grounded = !src_down
                        && !src_alive
                        && plan.is_some_and(|p| grounded_start(self.tol, p, outages, tr.at));
                    let src_alive = src_alive || phantom_grounded;
                    // An otherwise-valid transfer crossing an active
                    // partition is illegal (outage and dead-source
                    // findings take precedence).
                    let severed =
                        src_alive && plan.is_some_and(|p| p.partitioned(tr.src, tr.dst, tr.at));
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
                        // Kill the interval this transfer would have
                        // opened (same-instant opens precede transfers).
                        // Only the `killed` flag is set: crash geometry
                        // stays intact so later crash onsets still judge
                        // the interval exactly as the replay does.
                        let dst = &mut srv[tr.dst.index()];
                        if dst.alive() && self.eq(dst.from, tr.at) {
                            dst.killed = true;
                        }
                    }
                }
                _ => {
                    let (s, t) = (inst.server(qi), inst.t(qi));
                    qi += 1;
                    let served = s.index() < servers && {
                        let st = &srv[s.index()];
                        (st.alive() && self.le(st.from, t) && self.le(t, st.crash_actual_to))
                            || self.has_time(&delivered[s.index()], t)
                    };
                    if served {
                        tail_block = tail_block.max(t);
                    }
                    if !served {
                        // Waived when reality made service impossible: a
                        // total outage covers `t`, or a partition puts
                        // every live copy on the far side (the wrapper
                        // defers such requests into its accounted queue).
                        let waived = plan.is_some_and(|p| {
                            outage_covers(self.tol, outages, t)
                                || (p.partition_active(t)
                                    && !srv.iter().enumerate().any(|(s2, st)| {
                                        !p.partitioned(ServerId::from_index(s2), s, t)
                                            && st.alive()
                                            && self.le(st.from, t)
                                            && self.le(t, st.crash_actual_to)
                                    }))
                        });
                        if !waived {
                            tail_block = tail_block.max(t);
                            findings.push(AuditFinding::Violation(Violation::UnservedRequest {
                                request: qi - 1,
                                server: s,
                                at: t,
                            }));
                        }
                    }
                }
            }
        }
        for (s, st) in srv.iter_mut().enumerate() {
            self.finalize_interval(st, s, spans, &mut costs[s], &mut anchored);
        }

        // --- coverage ---------------------------------------------------
        if n > 0 {
            if !anchored {
                findings.push(AuditFinding::Violation(Violation::MissingOriginCopy));
            }
            // The spans were reserved as their intervals opened, so they
            // are in start order already; spans sharing a start time give
            // the same gap verdict in any order (`reach` is a running max).
            let horizon = inst.horizon();
            let mut reach = 0.0f64;
            let mut gap_reported = false;
            for &(from, to) in spans.iter() {
                if !(to > from) {
                    continue; // crash- or transfer-dead: covers nothing
                }
                if from > reach && !self.eq(from, reach) {
                    // A gap lying inside a total outage is waived: no
                    // policy can hold a copy anywhere over it.
                    if !gap_waived(self.tol, outages, reach, from) {
                        findings.push(AuditFinding::Violation(Violation::CoverageGap {
                            at: reach,
                        }));
                        gap_reported = true;
                    }
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
                && !gap_waived(self.tol, outages, reach, horizon)
            {
                findings.push(AuditFinding::Violation(Violation::CoverageGap {
                    at: reach,
                }));
            }
        }

        // --- accounting -------------------------------------------------
        if let Some(reported) = reported_cost {
            // Recompute in the replay auditor's exact summation order
            // (normalized schedules sort by (server, from)) so the two
            // auditors agree bit-for-bit on the drift verdict. Each
            // server's intervals closed in start order, so reading the
            // lists server by server is that order.
            let costs = &costs[..servers];
            let model = inst.cost();
            let mut caching = 0.0;
            for &(from, to) in costs.iter().flatten() {
                caching += model.caching(to - from);
            }
            let mut transfer = 0.0;
            for _ in 0..transfers.len() {
                transfer += model.lambda;
            }
            let mut recomputed = caching + transfer;
            // Brownout surcharge, in the replay auditor's exact summation
            // order: interval terms over merged geometry sorted by
            // (server, start), then transfer terms sorted like a
            // normalized schedule's transfer list — (time, src, dst).
            if let Some(p) = plan {
                if !p.brownouts().is_empty() {
                    let mut sur = 0.0;
                    for (s, list) in costs.iter().enumerate() {
                        for &(from, to) in list {
                            sur +=
                                interval_surcharge(p, ServerId::from_index(s), from, to, model.mu);
                        }
                    }
                    // Transfers come in time order: only same-instant runs
                    // need their `(src, dst)` order.
                    debug_assert!(transfers.windows(2).all(|w| w[0].at <= w[1].at));
                    tr_order.extend(transfers.iter().map(|tr| (tr.at, tr.src.0, tr.dst.0)));
                    sort_tie_runs(
                        tr_order,
                        |a, b| a.0 == b.0,
                        |a, b| (a.1, a.2).cmp(&(b.1, b.2)),
                    );
                    for &(at, src, dst) in tr_order.iter() {
                        sur +=
                            transfer_surcharge(p, ServerId(src), ServerId(dst), at, model.lambda);
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
            let costed = rec.transfers.len();
            if recorded != costed {
                findings.push(AuditFinding::UnpaidTransfers { recorded, costed });
            }
        }

        findings
    }

    /// Allocating convenience wrapper around [`Self::audit_record_in`].
    pub fn audit_record(
        &self,
        inst: &Instance<f64>,
        rec: &RunRecord<f64>,
        reported_cost: Option<f64>,
        recorded_transfers: Option<usize>,
        plan: Option<&FaultPlan>,
    ) -> AuditReport {
        let mut scratch = AuditScratch::default();
        let findings = self
            .audit_record_in(
                inst,
                rec,
                reported_cost,
                recorded_transfers,
                plan,
                &mut scratch,
            )
            .to_vec();
        AuditReport { findings }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::ScheduleAuditor;
    use mcc_core::online::{
        run_policy, CopyRecord, FaultTolerant, SpeculativeCaching, TransferRecord,
    };
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

    /// Multiset comparison: findings have no `Ord`, so compare sorted
    /// debug renderings.
    fn multiset(findings: &[AuditFinding]) -> Vec<String> {
        let mut v: Vec<String> = findings.iter().map(|f| format!("{f:?}")).collect();
        v.sort();
        v
    }

    fn assert_matches_replay(
        inst: &Instance<f64>,
        rec: &RunRecord<f64>,
        reported: Option<f64>,
        recorded: Option<usize>,
        plan: Option<&FaultPlan>,
    ) {
        let replay =
            ScheduleAuditor::default().audit(inst, &rec.to_schedule(), reported, recorded, plan);
        let streaming =
            StreamingAuditor::default().audit_record(inst, rec, reported, recorded, plan);
        assert_eq!(
            multiset(&replay.findings),
            multiset(&streaming.findings),
            "streaming vs replay finding multisets"
        );
    }

    #[test]
    fn clean_run_audits_clean() {
        let inst = inst();
        let run = run_policy(&mut SpeculativeCaching::paper(), &inst);
        let report = StreamingAuditor::default().audit_record(
            &inst,
            &run.record,
            Some(run.total_cost),
            Some(run.record.transfers.len()),
            None,
        );
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_matches_replay(
            &inst,
            &run.record,
            Some(run.total_cost),
            Some(run.record.transfers.len()),
            None,
        );
    }

    #[test]
    fn oblivious_run_matches_replay_under_crashes() {
        let inst = inst();
        let run = run_policy(&mut SpeculativeCaching::paper(), &inst);
        let plan = crashy_plan();
        let report = StreamingAuditor::default().audit_record(
            &inst,
            &run.record,
            Some(run.total_cost),
            Some(run.record.transfers.len()),
            Some(&plan),
        );
        assert!(!report.is_clean());
        assert_matches_replay(
            &inst,
            &run.record,
            Some(run.total_cost),
            Some(run.record.transfers.len()),
            Some(&plan),
        );
    }

    #[test]
    fn wrapped_run_stays_clean() {
        let inst = inst();
        let plan = crashy_plan();
        let mut ft = FaultTolerant::new(SpeculativeCaching::<f64>::paper(), plan.clone());
        let run = run_policy(&mut ft, &inst);
        let report = StreamingAuditor::default().audit_record(
            &inst,
            &run.record,
            Some(run.total_cost),
            Some(run.record.transfers.len()),
            Some(&plan),
        );
        assert!(report.is_clean(), "{:?}", report.findings);
    }

    #[test]
    fn boundary_crash_truncates_a_later_seamless_merge() {
        // Two seamless records [0,1] + [1,2] on the origin; a crash
        // starting exactly at the handover instant t = 1. The crash event
        // precedes the second open, so the truncation must be applied
        // retroactively when the merge stretches past it (the
        // pending-crash slot).
        let inst = Instance::<f64>::new(
            1,
            CostModel::unit(),
            vec![mcc_model::Request {
                server: ServerId(0),
                time: 0.5,
            }],
        )
        .unwrap();
        let rec = RunRecord {
            records: vec![
                CopyRecord {
                    server: ServerId(0),
                    from: 0.0,
                    last_touch: 0.5,
                    to: 1.0,
                },
                CopyRecord {
                    server: ServerId(0),
                    from: 1.0,
                    last_touch: 1.0,
                    to: 2.0,
                },
            ],
            transfers: vec![],
            epoch_boundaries: vec![],
        };
        let plan = FaultPlan::new(
            vec![CrashWindow {
                server: ServerId(0),
                from: 1.0,
                to: 1.5,
            }],
            1,
            0.0,
            0,
            0.0,
        );
        let report = StreamingAuditor::default().audit_record(&inst, &rec, None, None, Some(&plan));
        assert!(
            report.findings.iter().any(|f| matches!(
                f,
                AuditFinding::Violation(Violation::CopyLostInCrash { at, .. }) if *at == 1.0
            )),
            "{:?}",
            report.findings
        );
        assert_matches_replay(&inst, &rec, None, None, Some(&plan));
    }

    #[test]
    fn stillborn_copy_inside_an_outage_is_flagged() {
        // Origin copy [0,5]; a transfer at t = 1.2 delivers to server 1,
        // which is down over [1, 3): the delivered copy is stillborn.
        let inst = Instance::<f64>::new(2, CostModel::unit(), vec![]).unwrap();
        let rec = RunRecord {
            records: vec![
                CopyRecord {
                    server: ServerId(0),
                    from: 0.0,
                    last_touch: 1.2,
                    to: 5.0,
                },
                CopyRecord {
                    server: ServerId(1),
                    from: 1.2,
                    last_touch: 1.2,
                    to: 2.0,
                },
            ],
            transfers: vec![TransferRecord {
                src: ServerId(0),
                dst: ServerId(1),
                at: 1.2,
                epoch: 0,
            }],
            epoch_boundaries: vec![],
        };
        let plan = FaultPlan::new(
            vec![CrashWindow {
                server: ServerId(1),
                from: 1.0,
                to: 3.0,
            }],
            1,
            0.0,
            0,
            0.0,
        );
        let report = StreamingAuditor::default().audit_record(&inst, &rec, None, None, Some(&plan));
        assert!(
            report.findings.iter().any(|f| matches!(
                f,
                AuditFinding::Violation(Violation::CopyLostInCrash { at, .. }) if *at == 1.2
            )),
            "{:?}",
            report.findings
        );
        assert_matches_replay(&inst, &rec, None, None, Some(&plan));
    }

    #[test]
    fn infeasible_record_is_flagged_like_the_replay() {
        // A single origin copy ending before the only request: unserved
        // request + coverage gap.
        let inst = Instance::<f64>::new(
            2,
            CostModel::unit(),
            vec![mcc_model::Request {
                server: ServerId(1),
                time: 2.0,
            }],
        )
        .unwrap();
        let rec = RunRecord {
            records: vec![CopyRecord {
                server: ServerId(0),
                from: 0.0,
                last_touch: 0.0,
                to: 0.5,
            }],
            transfers: vec![],
            epoch_boundaries: vec![],
        };
        let report = StreamingAuditor::default().audit_record(&inst, &rec, None, None, None);
        assert!(report.violations() >= 2, "{:?}", report.findings);
        assert_matches_replay(&inst, &rec, None, None, None);
    }

    #[test]
    fn accounting_findings_fire_and_match() {
        let inst = inst();
        let run = run_policy(&mut SpeculativeCaching::paper(), &inst);
        let report = StreamingAuditor::default().audit_record(
            &inst,
            &run.record,
            Some(run.total_cost + 1.0),
            Some(run.record.transfers.len() + 2),
            None,
        );
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, AuditFinding::CostDrift { .. })));
        assert!(report
            .findings
            .iter()
            .any(|f| matches!(f, AuditFinding::UnpaidTransfers { .. })));
        assert_matches_replay(
            &inst,
            &run.record,
            Some(run.total_cost + 1.0),
            Some(run.record.transfers.len() + 2),
            None,
        );
    }

    #[test]
    fn warm_scratch_is_reused_across_runs() {
        let inst = inst();
        let run = run_policy(&mut SpeculativeCaching::paper(), &inst);
        let auditor = StreamingAuditor::default();
        let mut scratch = AuditScratch::default();
        let cold: Vec<AuditFinding> = auditor
            .audit_record_in(
                &inst,
                &run.record,
                Some(run.total_cost),
                None,
                None,
                &mut scratch,
            )
            .to_vec();
        let warm: Vec<AuditFinding> = auditor
            .audit_record_in(
                &inst,
                &run.record,
                Some(run.total_cost),
                None,
                None,
                &mut scratch,
            )
            .to_vec();
        assert_eq!(cold, warm);
    }
}
