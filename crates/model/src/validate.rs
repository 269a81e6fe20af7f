//! The schedule referee: an independent feasibility checker and cost
//! re-deriver.
//!
//! Every solver in this workspace (off-line DP, naive sweep, brute force,
//! online policies) produces a [`Schedule`]; this module re-checks the
//! paper's feasibility conditions from first principles:
//!
//! 1. at least one server caches the item at every `t ∈ [t_0, t_n]`;
//! 2. the item is present at `s_i` at `t_i` for every request;
//! 3. every copy has a provenance: cache intervals start at the origin at
//!    `t = 0` or at an incoming transfer, and transfer sources hold a live
//!    copy (created strictly earlier, so copies cannot appear from nothing).
//!
//! The validator recomputes `Π(Ψ)` itself, so a solver cannot "agree with
//! itself" about a wrong cost.

use std::ops::Range;

use crate::error::Violation;
use crate::ids::ServerId;
use crate::instance::Instance;
use crate::scalar::{tol_band, Scalar};
use crate::schedule::{CacheInterval, Schedule};

/// Cost breakdown returned on successful validation.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ValidatedCost<S> {
    /// Total cost `Π(Ψ)`.
    pub total: S,
    /// Caching component `μ·Σ|H|`.
    pub caching: S,
    /// Transfer component `λ·|T|`.
    pub transfer: S,
}

/// Validation options.
#[derive(Copy, Clone, Debug)]
pub struct ValidateOptions {
    /// Relative/absolute tolerance used when matching event times. Zero
    /// demands exact equality (always use zero with
    /// [`crate::scalar::Fixed`]).
    pub tol: f64,
}

impl Default for ValidateOptions {
    fn default() -> Self {
        ValidateOptions { tol: 0.0 }
    }
}

/// Validates `sched` against `inst` with exact time matching.
pub fn validate<S: Scalar>(
    inst: &Instance<S>,
    sched: &Schedule<S>,
) -> Result<ValidatedCost<S>, Vec<Violation>> {
    validate_with(inst, sched, ValidateOptions::default())
}

/// Validates with explicit options. Returns *all* violations found.
///
/// Near-linear: cache intervals are indexed by server and start (with
/// each server's running maximum end), transfers by destination and
/// instant, and every provenance and service question is a binary search
/// plus a scan of the entries within tolerance of the instant asked
/// about. The band is [`tol_band`], which holds every time `approx_eq`
/// can accept for `0 ≤ tol < 1/4`; the exact test still decides inside
/// it. With a tolerance outside that range, or a non-finite instant, the
/// tolerance scans cover the server's whole list instead. Checks and
/// violations come in the same order either way.
pub fn validate_with<S: Scalar>(
    inst: &Instance<S>,
    sched: &Schedule<S>,
    opts: ValidateOptions,
) -> Result<ValidatedCost<S>, Vec<Violation>> {
    let tol = opts.tol;
    let mut violations = Vec::new();
    let eq = |a: S, b: S| a.approx_eq(b, tol);
    let le = |a: S, b: S| a <= b || a.approx_eq(b, tol);

    // --- structural checks on intervals -------------------------------
    for h in &sched.caches {
        if h.to < h.from || h.from < S::ZERO {
            violations.push(Violation::MalformedInterval {
                server: h.server,
                from: h.from.to_f64(),
                to: h.to.to_f64(),
            });
        }
    }
    if !violations.is_empty() {
        // Later checks assume well-formed intervals.
        return Err(violations);
    }

    // Per-server overlap check (sorted copies; strict interior overlap is a
    // defect because it double-counts cost).
    let mut by_server: Vec<CacheInterval<S>> = sched.caches.clone();
    by_server.sort_by(|a, b| {
        (a.server,)
            .cmp(&(b.server,))
            .then(a.from.partial_cmp(&b.from).expect("no NaN times"))
    });
    for w in by_server.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        if a.server == b.server && b.from < a.to && !eq(b.from, a.to) {
            violations.push(Violation::OverlappingIntervals {
                server: a.server,
                at: b.from.to_f64(),
            });
        }
    }

    // --- indexes -------------------------------------------------------
    // `reach[k]`: the latest end among `by_server[..=k]` on that server,
    // `None` until one is comparable: past the malformed check, `to >= from`
    // fails only for a NaN, and a NaN end holds no instant. For the
    // non-negative times a well-formed schedule has, `le(t, reach[k])`
    // holds exactly when some copy in that prefix has `le(t, to)`: an end
    // below `t` within tolerance of it brings the later maximum closer.
    let mut reach: Vec<Option<S>> = Vec::with_capacity(by_server.len());
    for (k, h) in by_server.iter().enumerate() {
        let prev = match k.checked_sub(1) {
            Some(j) if by_server[j].server == h.server => reach[j],
            _ => None,
        };
        let end = (h.to >= h.from).then_some(h.to);
        reach.push(match (prev, end) {
            (Some(p), Some(e)) => Some(p.max2(e)),
            _ => prev.or(end),
        });
    }
    // Transfer arrivals, by destination then instant.
    let mut arrivals: Vec<(ServerId, S)> =
        sched.transfers.iter().map(|tr| (tr.dst, tr.at)).collect();
    arrivals.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.to_f64().total_cmp(&b.1.to_f64())));
    let copies_on = |server: ServerId| {
        let span = server_span(&by_server, server, |h| h.server);
        (&by_server[span.clone()], &reach[span])
    };
    let arrives = |server: ServerId, at: S| {
        let own = &arrivals[server_span(&arrivals, server, |a| a.0)];
        near(own, |a| a.1, tol, at).iter().any(|a| eq(a.1, at))
    };
    // Whether one of a server's first `k` copies (by start) lasts until
    // `t`, read off their running end.
    let lasts =
        |reach: &[Option<S>], k: usize, t: S| k > 0 && reach[k - 1].is_some_and(|end| le(t, end));

    // --- provenance ----------------------------------------------------
    // A cache interval must start at the origin at t = 0, at an incoming
    // transfer, or seamlessly continue an earlier interval on the same
    // server (which normalize() would have merged, but we accept it).
    for h in &sched.caches {
        let origin_start = h.server == ServerId::ORIGIN && eq(h.from, S::ZERO);
        let continuation = || {
            let (copies, reach) = copies_on(h.server);
            lasts(reach, copies.partition_point(|g| g.from < h.from), h.from)
        };
        if !origin_start && !continuation() && !arrives(h.server, h.from) {
            violations.push(Violation::UnjustifiedCacheStart {
                server: h.server,
                at: h.from.to_f64(),
            });
        }
    }

    // A transfer's source must hold a live copy that existed strictly
    // before the transfer instant (no same-instant relay chains), with the
    // origin's initial copy grounding transfers at t = 0.
    for tr in &sched.transfers {
        let (copies, reach) = copies_on(tr.src);
        let grounds = |h: &CacheInterval<S>| {
            le(h.from, tr.at)
                && le(tr.at, h.to)
                && (h.from < tr.at || (h.server == ServerId::ORIGIN && eq(h.from, S::ZERO)))
        };
        let alive = lasts(reach, copies.partition_point(|h| h.from < tr.at), tr.at)
            || (tr.src == ServerId::ORIGIN
                && near(copies, |h| h.from, tol, S::ZERO).iter().any(grounds));
        if !alive {
            violations.push(Violation::DeadTransferSource {
                src: tr.src,
                dst: tr.dst,
                at: tr.at.to_f64(),
            });
        }
    }

    // --- service -------------------------------------------------------
    for i in 1..=inst.n() {
        let (s, t) = (inst.server(i), inst.t(i));
        let (copies, reach) = copies_on(s);
        let covers = |h: &CacheInterval<S>| le(h.from, t) && le(t, h.to);
        let k = copies.partition_point(|h| h.from <= t);
        let cached =
            lasts(reach, k, t) || near(&copies[k..], |h| h.from, tol, t).iter().any(covers);
        if !cached && !arrives(s, t) {
            violations.push(Violation::UnservedRequest {
                request: i,
                server: s,
                at: t.to_f64(),
            });
        }
    }

    // --- coverage ------------------------------------------------------
    if inst.n() > 0 {
        let anchored = sched
            .caches
            .iter()
            .any(|h| h.server == ServerId::ORIGIN && eq(h.from, S::ZERO) && h.to > S::ZERO);
        if !anchored {
            violations.push(Violation::MissingOriginCopy);
        }
        let mut spans: Vec<(S, S)> = sched.caches.iter().map(|h| (h.from, h.to)).collect();
        spans.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN times"));
        let mut reach = S::ZERO;
        let horizon = inst.horizon();
        for (from, to) in spans {
            if from > reach && !eq(from, reach) {
                if reach < horizon {
                    violations.push(Violation::CoverageGap { at: reach.to_f64() });
                }
                break;
            }
            reach = reach.max2(to);
            if reach >= horizon {
                break;
            }
        }
        if reach < horizon && !eq(reach, horizon) {
            violations.push(Violation::CoverageGap { at: reach.to_f64() });
        }
    }

    if !violations.is_empty() {
        violations.dedup_by(|a, b| a == b);
        return Err(violations);
    }

    let caching = sched.caching_cost(inst.cost());
    let transfer = sched.transfer_cost(inst.cost());
    Ok(ValidatedCost {
        total: caching + transfer,
        caching,
        transfer,
    })
}

/// The index range of `server`'s entries in `sorted` (ordered by server).
fn server_span<T>(sorted: &[T], server: ServerId, key: impl Fn(&T) -> ServerId) -> Range<usize> {
    let start = sorted.partition_point(|x| key(x) < server);
    start..start + sorted[start..].partition_point(|x| key(x) == server)
}

/// The entries of `sorted` (ascending by `time`) that can lie within
/// tolerance of `t`: the binary-searched [`tol_band`]. A non-finite time
/// in the list equals only itself, so the band misses no match.
fn near<T, S: Scalar>(sorted: &[T], time: impl Fn(&T) -> S, tol: f64, t: S) -> &[T] {
    let (lo, hi) = tol_band(tol, t.to_f64());
    let start = sorted.partition_point(|x| time(x).to_f64() < lo);
    &sorted[start..start + sorted[start..].partition_point(|x| time(x).to_f64() <= hi)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ServerId;

    fn fig2_instance() -> Instance<f64> {
        // Requests matching the schedule in schedule.rs::fig2_cost_split.
        Instance::from_compact("m=4 mu=1 lambda=1 | s2@0.5 s3@1.0 s1@1.4 s4@1.8 s1@2.2 s3@2.6")
            .unwrap()
    }

    fn fig2_schedule() -> Schedule<f64> {
        let mut sched = Schedule::new();
        sched.cache(ServerId(0), 0.0, 1.4); // origin holds, serves s1@1.4
        sched.cache(ServerId(1), 0.5, 0.7); // via transfer, short hold
        sched.cache(ServerId(2), 1.0, 2.6); // via transfer, serves s3@1.0 & s3@2.6
        sched.transfer(ServerId(0), ServerId(1), 0.5);
        sched.transfer(ServerId(0), ServerId(2), 1.0);
        sched.transfer(ServerId(2), ServerId(3), 1.8);
        sched.transfer(ServerId(2), ServerId(0), 2.2);
        sched
    }

    #[test]
    fn accepts_feasible_schedule_and_recosts_it() {
        let got = validate(&fig2_instance(), &fig2_schedule()).unwrap();
        assert!((got.caching - 3.2).abs() < 1e-12);
        assert_eq!(got.transfer, 4.0);
        assert!((got.total - 7.2).abs() < 1e-12);
    }

    #[test]
    fn detects_unserved_request() {
        let inst = fig2_instance();
        let mut sched = fig2_schedule();
        sched.transfers.retain(|t| t.dst != ServerId(3));
        let errs = validate(&inst, &sched).unwrap_err();
        assert!(
            errs.iter()
                .any(|v| matches!(v, Violation::UnservedRequest { request: 4, .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn detects_dead_transfer_source() {
        let inst = fig2_instance();
        let mut sched = fig2_schedule();
        // Source s^2's interval ends at 0.7, transfer at 1.8 is dead.
        for t in &mut sched.transfers {
            if t.dst == ServerId(3) {
                t.src = ServerId(1);
            }
        }
        let errs = validate(&inst, &sched).unwrap_err();
        assert!(
            errs.iter()
                .any(|v| matches!(v, Violation::DeadTransferSource { .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn detects_coverage_gap() {
        let inst = fig2_instance();
        let mut sched = fig2_schedule();
        // Shorten s^3's interval: requests s3@2.6 still "served" by nothing.
        sched.caches[2].to = 1.6;
        let errs = validate(&inst, &sched).unwrap_err();
        assert!(
            errs.iter()
                .any(|v| matches!(v, Violation::CoverageGap { .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn detects_unjustified_cache_start() {
        let inst = fig2_instance();
        let mut sched = fig2_schedule();
        sched.cache(ServerId(3), 0.3, 0.6); // no transfer delivers this copy
        let errs = validate(&inst, &sched).unwrap_err();
        assert!(
            errs.iter()
                .any(|v| matches!(v, Violation::UnjustifiedCacheStart { .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn detects_missing_origin_anchor() {
        let inst = Instance::<f64>::from_compact("m=2 mu=1 lambda=1 | s2@1.0").unwrap();
        let mut sched = Schedule::new();
        // Copy materializes on s^2 with no provenance at all.
        sched.cache(ServerId(1), 1.0, 1.0);
        let errs = validate(&inst, &sched).unwrap_err();
        assert!(
            errs.iter()
                .any(|v| matches!(v, Violation::MissingOriginCopy)),
            "{errs:?}"
        );
    }

    #[test]
    fn detects_overlap_double_count() {
        let inst = fig2_instance();
        let mut sched = fig2_schedule();
        sched.cache(ServerId(0), 0.5, 1.0); // overlaps the origin interval
        let errs = validate(&inst, &sched).unwrap_err();
        assert!(
            errs.iter()
                .any(|v| matches!(v, Violation::OverlappingIntervals { .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn detects_malformed_interval() {
        let inst = fig2_instance();
        let mut sched = fig2_schedule();
        sched.cache(ServerId(0), 2.0, 1.0);
        let errs = validate(&inst, &sched).unwrap_err();
        assert!(
            errs.iter()
                .any(|v| matches!(v, Violation::MalformedInterval { .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_same_instant_relay_chain() {
        // A -> B -> C at the same instant: B's copy did not exist strictly
        // before the hand-off, so the second hop must be reported dead.
        let inst = Instance::<f64>::from_compact("m=3 mu=1 lambda=1 | s3@1.0").unwrap();
        let mut sched = Schedule::new();
        sched.cache(ServerId(0), 0.0, 1.0);
        sched.cache(ServerId(1), 1.0, 1.0);
        sched.transfer(ServerId(0), ServerId(1), 1.0);
        sched.transfer(ServerId(1), ServerId(2), 1.0);
        let errs = validate(&inst, &sched).unwrap_err();
        assert!(
            errs.iter()
                .any(|v| matches!(v, Violation::DeadTransferSource { .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn empty_instance_accepts_empty_schedule() {
        let inst = Instance::<f64>::from_compact("m=2 mu=1 lambda=1 |").unwrap();
        let got = validate(&inst, &Schedule::new()).unwrap();
        assert_eq!(got.total, 0.0);
    }

    #[test]
    fn tolerance_mode_accepts_tiny_time_skew() {
        let inst = fig2_instance();
        let mut sched = fig2_schedule();
        sched.transfers[0].at += 1e-12;
        assert!(validate(&inst, &sched).is_err());
        assert!(validate_with(&inst, &sched, ValidateOptions { tol: 1e-9 }).is_ok());
    }

    /// A transfer at `t = +∞` neither lives off a copy that ended at 2.0
    /// nor delivers the request at 2.0: tolerance must not make a finite
    /// time equal to an infinite one.
    #[test]
    fn tolerance_never_matches_a_finite_time_to_infinity() {
        let inst = Instance::<f64>::from_compact("m=2 mu=1 lambda=1 | s2@1.0 s2@2.0").unwrap();
        let mut sched = Schedule::new();
        sched.cache(ServerId(0), 0.0, 2.0);
        sched.cache(ServerId(1), 1.0, 1.5);
        sched.transfer(ServerId(0), ServerId(1), 1.0);
        sched.transfer(ServerId(0), ServerId(1), f64::INFINITY);
        let exact = validate_with(&inst, &sched, ValidateOptions { tol: 0.0 }).unwrap_err();
        for tol in [0.0, 1e-9] {
            let errs = validate_with(&inst, &sched, ValidateOptions { tol }).unwrap_err();
            assert!(
                errs.iter()
                    .any(|v| matches!(v, Violation::DeadTransferSource { .. })),
                "tol {tol}: {errs:?}"
            );
            assert!(
                errs.iter()
                    .any(|v| matches!(v, Violation::UnservedRequest { request: 2, .. })),
                "tol {tol}: {errs:?}"
            );
            assert_eq!(errs, exact);
        }
    }

    /// The referee before indexing: every provenance and service question
    /// scans every interval and transfer. Kept as the oracle for
    /// [`validate_with`].
    fn validate_scan<S: Scalar>(
        inst: &Instance<S>,
        sched: &Schedule<S>,
        opts: ValidateOptions,
    ) -> Result<ValidatedCost<S>, Vec<Violation>> {
        let tol = opts.tol;
        let mut violations = Vec::new();
        let eq = |a: S, b: S| a.approx_eq(b, tol);
        let le = |a: S, b: S| a <= b || a.approx_eq(b, tol);
        for h in &sched.caches {
            if h.to < h.from || h.from < S::ZERO {
                violations.push(Violation::MalformedInterval {
                    server: h.server,
                    from: h.from.to_f64(),
                    to: h.to.to_f64(),
                });
            }
        }
        if !violations.is_empty() {
            return Err(violations);
        }
        let mut by_server: Vec<CacheInterval<S>> = sched.caches.clone();
        by_server.sort_by(|a, b| {
            (a.server,)
                .cmp(&(b.server,))
                .then(a.from.partial_cmp(&b.from).expect("no NaN times"))
        });
        for w in by_server.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if a.server == b.server && b.from < a.to && !eq(b.from, a.to) {
                violations.push(Violation::OverlappingIntervals {
                    server: a.server,
                    at: b.from.to_f64(),
                });
            }
        }
        let has_incoming = |server, at| {
            sched
                .transfers
                .iter()
                .any(|tr| tr.dst == server && eq(tr.at, at))
        };
        for h in &sched.caches {
            let origin_start = h.server == ServerId::ORIGIN && eq(h.from, S::ZERO);
            let continuation = by_server.iter().any(|g| {
                g.server == h.server
                    && !(g.from == h.from && g.to == h.to)
                    && g.from < h.from
                    && le(h.from, g.to)
            });
            if !origin_start && !continuation && !has_incoming(h.server, h.from) {
                violations.push(Violation::UnjustifiedCacheStart {
                    server: h.server,
                    at: h.from.to_f64(),
                });
            }
        }
        for tr in &sched.transfers {
            let alive = sched.caches.iter().any(|h| {
                h.server == tr.src
                    && le(h.from, tr.at)
                    && le(tr.at, h.to)
                    && (h.from < tr.at || (h.server == ServerId::ORIGIN && eq(h.from, S::ZERO)))
            });
            if !alive {
                violations.push(Violation::DeadTransferSource {
                    src: tr.src,
                    dst: tr.dst,
                    at: tr.at.to_f64(),
                });
            }
        }
        for i in 1..=inst.n() {
            let (s, t) = (inst.server(i), inst.t(i));
            let cached = sched
                .caches
                .iter()
                .any(|h| h.server == s && le(h.from, t) && le(t, h.to));
            let transferred = sched.transfers.iter().any(|tr| tr.dst == s && eq(tr.at, t));
            if !cached && !transferred {
                violations.push(Violation::UnservedRequest {
                    request: i,
                    server: s,
                    at: t.to_f64(),
                });
            }
        }
        if inst.n() > 0 {
            let anchored = sched
                .caches
                .iter()
                .any(|h| h.server == ServerId::ORIGIN && eq(h.from, S::ZERO) && h.to > S::ZERO);
            if !anchored {
                violations.push(Violation::MissingOriginCopy);
            }
            let mut spans: Vec<(S, S)> = sched.caches.iter().map(|h| (h.from, h.to)).collect();
            spans.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN times"));
            let mut reach = S::ZERO;
            let horizon = inst.horizon();
            for (from, to) in spans {
                if from > reach && !eq(from, reach) {
                    if reach < horizon {
                        violations.push(Violation::CoverageGap { at: reach.to_f64() });
                    }
                    break;
                }
                reach = reach.max2(to);
                if reach >= horizon {
                    break;
                }
            }
            if reach < horizon && !eq(reach, horizon) {
                violations.push(Violation::CoverageGap { at: reach.to_f64() });
            }
        }
        if !violations.is_empty() {
            violations.dedup_by(|a, b| a == b);
            return Err(violations);
        }
        let caching = sched.caching_cost(inst.cost());
        let transfer = sched.transfer_cost(inst.cost());
        Ok(ValidatedCost {
            total: caching + transfer,
            caching,
            transfer,
        })
    }

    mod oracle {
        use super::*;
        use crate::cost::CostModel;
        use crate::request::Request;
        use crate::scalar::Fixed;
        use proptest::prelude::*;

        /// xorshift64* draws for the case builder.
        struct Draw(u64);

        impl Draw {
            fn next(&mut self) -> u64 {
                let mut x = self.0;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                self.0 = x;
                x.wrapping_mul(0x2545_F491_4F6C_DD1D)
            }
            fn below(&mut self, n: usize) -> usize {
                (self.next() % n as u64) as usize
            }
            fn unit(&mut self) -> f64 {
                (self.next() >> 11) as f64 / (1u64 << 53) as f64
            }
        }

        /// One case: a request sequence on `m` servers and a schedule a
        /// random policy built for it (feasible: copies touched at each
        /// use, dropped only while another copy lives), possibly broken
        /// by a few mutations.
        struct Case {
            m: usize,
            requests: Vec<(usize, f64)>,
            sched: Schedule<f64>,
        }

        fn build(seed: u64) -> Case {
            let mut d = Draw(seed.max(1));
            let m = 1 + d.below(4);
            let n = d.below(14);
            let mut t = 0.0;
            let requests: Vec<(usize, f64)> = (0..n)
                .map(|_| {
                    // Mostly grid gaps, so instants tie across servers.
                    t += match d.below(4) {
                        0 => 0.25,
                        1 => 0.5,
                        2 => 1.0,
                        _ => 0.05 + d.unit(),
                    };
                    (d.below(m), t)
                })
                .collect();
            let mut sched = Schedule::new();
            // Open copies: (start, last touch) per server.
            let mut open: Vec<Option<(f64, f64)>> = vec![None; m];
            open[0] = Some((0.0, 0.0));
            for &(s, t) in &requests {
                // Sometimes drop copies other than the last one.
                for j in 0..m {
                    let live = open.iter().flatten().count();
                    if live > 1 && d.below(3) == 0 {
                        if let Some((from, _)) = open[j].take() {
                            sched.cache(ServerId::from_index(j), from, t);
                        }
                    }
                }
                if let Some(c) = &mut open[s] {
                    c.1 = t;
                } else {
                    let sources: Vec<usize> = (0..m).filter(|&j| open[j].is_some()).collect();
                    let src = sources[d.below(sources.len())];
                    if let Some(c) = &mut open[src] {
                        c.1 = t;
                    }
                    sched.transfer(ServerId::from_index(src), ServerId::from_index(s), t);
                    open[s] = Some((t, t));
                }
            }
            let horizon = requests.last().map_or(0.0, |r| r.1);
            for (j, c) in open.iter().enumerate() {
                if let Some((from, last)) = *c {
                    let to = if d.below(2) == 0 { horizon } else { last };
                    sched.cache(ServerId::from_index(j), from, to);
                }
            }
            // Touching pieces: split an interval where it can continue.
            if d.below(3) == 0 && !sched.caches.is_empty() {
                let k = d.below(sched.caches.len());
                let h = sched.caches[k];
                let mid = h.from + (h.to - h.from) * 0.5;
                let gap = [0.0, 0.0, 1e-12, -1e-12, 0.25][d.below(5)];
                sched.caches[k].to = mid;
                sched.cache(h.server, mid + gap, h.to);
            }
            for _ in 0..d.below(4) {
                mutate(&mut d, m, horizon, &mut sched);
            }
            Case { m, requests, sched }
        }

        fn mutate(d: &mut Draw, m: usize, horizon: f64, sched: &mut Schedule<f64>) {
            let nudge = |d: &mut Draw| [1e-12, -1e-12, 1e-10, 0.25, -0.25, 0.5][d.below(6)];
            match d.below(6) {
                0 if !sched.transfers.is_empty() => {
                    let k = d.below(sched.transfers.len());
                    sched.transfers[k].at += nudge(d);
                }
                1 if !sched.caches.is_empty() => {
                    let k = d.below(sched.caches.len());
                    sched.caches.remove(k);
                }
                2 if !sched.transfers.is_empty() => {
                    let k = d.below(sched.transfers.len());
                    sched.transfers.remove(k);
                }
                3 => {
                    // An overlapping (or duplicate) copy.
                    let from = (d.below(8) as f64 * 0.25).min(horizon);
                    let to = from + d.below(4) as f64 * 0.25;
                    sched.cache(ServerId::from_index(d.below(m)), from, to);
                }
                4 if !sched.caches.is_empty() => {
                    let k = d.below(sched.caches.len());
                    let h = &mut sched.caches[k];
                    if d.below(2) == 0 {
                        h.from = (h.from + nudge(d)).max(0.0).min(h.to);
                    } else {
                        h.to = (h.to + nudge(d)).max(h.from);
                    }
                }
                _ if !sched.transfers.is_empty() => {
                    let k = d.below(sched.transfers.len());
                    sched.transfers[k].src = ServerId::from_index(d.below(m));
                }
                _ => {}
            }
        }

        fn agree<S: Scalar>(case: &Case, tol: f64) -> Result<(), TestCaseError> {
            let requests = case
                .requests
                .iter()
                .map(|&(s, t)| Request::new(ServerId::from_index(s), S::from_f64(t)))
                .collect();
            let cost = CostModel::new(S::from_f64(1.0), S::from_f64(1.0)).expect("unit costs");
            let Ok(inst) = Instance::new(case.m, cost, requests) else {
                // Rounding collapsed two request instants.
                return Ok(());
            };
            let mut sched = Schedule::new();
            for h in &case.sched.caches {
                sched.cache(h.server, S::from_f64(h.from), S::from_f64(h.to));
            }
            for tr in &case.sched.transfers {
                sched.transfer(tr.src, tr.dst, S::from_f64(tr.at));
            }
            let opts = ValidateOptions { tol };
            prop_assert_eq!(
                validate_with(&inst, &sched, opts),
                validate_scan(&inst, &sched, opts),
                "tol {}",
                tol
            );
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]

            /// The indexed referee returns exactly the scan's verdict,
            /// violations in order, at exact and tolerant matching, and
            /// at a tolerance past the band's range (the scan fallback).
            #[test]
            fn indexed_referee_matches_the_scan(seed in 0u64..u64::MAX) {
                let case = build(seed);
                for tol in [0.0, 1e-9, 0.3] {
                    agree::<f64>(&case, tol)?;
                    agree::<Fixed>(&case, tol)?;
                }
            }
        }

        #[test]
        fn cases_cover_feasible_and_broken_schedules() {
            let (mut ok, mut broken) = (0, 0);
            for seed in 1..400 {
                let case = build(seed);
                let requests = case
                    .requests
                    .iter()
                    .map(|&(s, t)| Request::new(ServerId::from_index(s), t))
                    .collect();
                let inst = Instance::new(case.m, CostModel::unit(), requests).expect("valid");
                match validate(&inst, &case.sched) {
                    Ok(_) => ok += 1,
                    Err(_) => broken += 1,
                }
            }
            assert!(ok > 50 && broken > 50, "{ok} feasible, {broken} broken");
        }

        #[test]
        fn non_finite_times_fall_back_to_the_scan() {
            let inst = Instance::<f64>::from_compact("m=2 mu=1 lambda=1 | s2@1.0 s2@2.0").unwrap();
            let mut sched = Schedule::new();
            sched.cache(ServerId(0), 0.0, f64::INFINITY);
            sched.cache(ServerId(1), 1.0, 1.5);
            sched.transfer(ServerId(0), ServerId(1), 1.0);
            sched.transfer(ServerId(0), ServerId(1), f64::INFINITY);
            // A NaN end holds no instant and must not hide the earlier
            // copy's end (2.0, serving request 2) from the running maximum.
            let mut nan_end = Schedule::new();
            nan_end.cache(ServerId(0), 0.0, 2.0);
            nan_end.cache(ServerId(1), 1.0, 2.0);
            nan_end.cache(ServerId(1), 1.2, f64::NAN);
            nan_end.transfer(ServerId(0), ServerId(1), 1.0);
            for sched in [&sched, &nan_end] {
                for tol in [0.0, 1e-9] {
                    let opts = ValidateOptions { tol };
                    assert_eq!(
                        validate_with(&inst, sched, opts),
                        validate_scan(&inst, sched, opts)
                    );
                }
            }
        }
    }
}
