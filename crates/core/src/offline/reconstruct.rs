//! Reconstruction of an optimal schedule `Ψ*(n)` from the DP tables.
//!
//! The paper sketches this as "recursively backtracking the vectors of C
//! and D up to the initial configuration at t = 0" (Fig. 6). Concretely:
//!
//! * `C(i)` chose **Transfer** → the sub-schedule for `r_{i−1}` is optimal
//!   (Lemma 1); emit `H(s_{i−1}, t_{i−1}, t_i)` plus `Tr(s_{i−1}, s_i, t_i)`.
//! * `C(i)` chose **Cache** → materialize the conditional schedule behind
//!   `D(i)`: the final cache `H(s_i, t_{p(i)}, t_i)`, then
//!   * **Direct** (Lemma 3): recurse into the optimal schedule up to
//!     `r_{p(i)}` and serve every intermediate `r_j`, `p(i) < j < i`, at its
//!     marginal bound `b_j` — by its own short cache when `μσ_j < λ`
//!     (extending the copy parked by `r_{p(j)}`), otherwise by a transfer
//!     out of the spanning final cache;
//!   * **Pivot κ** (Lemma 4): recurse into the conditional schedule behind
//!     `D(κ)` and serve the intermediates `κ < j < i` the same way.
//!
//! The result is re-validated (feasibility + exact cost = `C(n)`) by the
//! `mcc-model` referee in this module's tests and in the cross-crate
//! property suite; reconstruction is where a wrong recurrence would
//! surface, because an unachievable cost cannot be materialized.

use mcc_model::{Instance, Prescan, Scalar, Schedule};

use super::tables::{CStep, DStep, DpSolution};

/// Rebuilds an optimal schedule from solved DP tables.
///
/// `sol` must come from one of the solvers in this crate run on the same
/// `inst`. The returned schedule is normalized (sorted, merged intervals).
///
/// The backtrack is a loop, not a recursion: every step of the C/D chain
/// emits its own pieces — a step's intermediates before the step it
/// descends into, since normalization makes the emission order
/// unobservable — so the stack stays flat however long the chain is.
pub fn reconstruct<S: Scalar>(
    inst: &Instance<S>,
    scan: &Prescan<S>,
    sol: &DpSolution<S>,
) -> Schedule<S> {
    let mut sched = Schedule::new();
    let mut step = Step::C(inst.n());
    while let Some(next) = rebuild_step(inst, scan, sol, step, &mut sched) {
        step = next;
    }
    sched.normalize();
    sched
}

/// One link of the backtrack chain: the optimal schedule up to request
/// `i` (`C(i)`), or the conditional schedule behind `D(i)`.
#[derive(Copy, Clone)]
enum Step {
    C(usize),
    D(usize),
}

/// Emits the pieces step `step` adds on its own and returns the step it
/// descends into, if any.
fn rebuild_step<S: Scalar>(
    inst: &Instance<S>,
    scan: &Prescan<S>,
    sol: &DpSolution<S>,
    step: Step,
    out: &mut Schedule<S>,
) -> Option<Step> {
    match step {
        Step::C(0) => None,
        Step::C(i) => match sol.c_from[i] {
            CStep::Boundary => None,
            CStep::Transfer => {
                let src = inst.server(i - 1);
                let dst = inst.server(i);
                debug_assert_ne!(
                    src, dst,
                    "self-transfer would mean the cache branch was not preferred on a tie"
                );
                out.cache(src, inst.t(i - 1), inst.t(i));
                out.transfer(src, dst, inst.t(i));
                Some(Step::C(i - 1))
            }
            CStep::Cache => Some(Step::D(i)),
        },
        Step::D(i) => {
            let p_i = scan.p[i].expect("D(i) finite requires a real p(i)");
            // The conditional final cache H(s_i, t_{p(i)}, t_i).
            out.cache(inst.server(i), inst.t(p_i), inst.t(i));
            let (anchor, next) = match sol.d_from[i] {
                DStep::Infeasible => unreachable!("Cache branch chosen with infeasible D"),
                DStep::Direct => (p_i, Step::C(p_i)),
                DStep::Pivot(kappa) => (kappa, Step::D(kappa)),
            };
            // Serve the intermediates r_j, anchor < j < i, at their
            // marginal bounds.
            for j in anchor + 1..i {
                serve_at_bound(inst, scan, i, j, out);
            }
            Some(next)
        }
    }
}

/// Serves intermediate request `r_j` at cost `b_j = min(λ, μσ_j)`: by its
/// own short cache extension when that is cheaper, else by a transfer out
/// of the spanning final cache of request `i` (live throughout
/// `[t_{p(i)}, t_i] ⊃ {t_j}`).
fn serve_at_bound<S: Scalar>(
    inst: &Instance<S>,
    scan: &Prescan<S>,
    i: usize,
    j: usize,
    out: &mut Schedule<S>,
) {
    let cost = inst.cost();
    let cache_cost = scan.sigma[j].map(|s| cost.caching(s));
    match (scan.p[j], cache_cost) {
        (Some(p_j), Some(hold)) if hold < cost.lambda => {
            // Extend the copy parked at s_j by r_{p(j)}.
            out.cache(inst.server(j), inst.t(p_j), inst.t(j));
        }
        _ => {
            debug_assert_ne!(
                inst.server(i),
                inst.server(j),
                "no request shares s_i strictly between p(i) and i"
            );
            out.transfer(inst.server(i), inst.server(j), inst.t(j));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::fast::solve_fast_with;
    use crate::offline::naive::solve_naive_with;
    use mcc_model::validate;

    fn check_roundtrip(compact: &str) -> (f64, Schedule<f64>) {
        let inst = Instance::<f64>::from_compact(compact).unwrap();
        let scan = Prescan::compute(&inst);
        let sol = solve_fast_with(&inst, &scan);
        let sched = reconstruct(&inst, &scan, &sol);
        let validated = validate(&inst, &sched)
            .unwrap_or_else(|errs| panic!("infeasible reconstruction for `{compact}`: {errs:?}"));
        assert!(
            (validated.total - sol.optimal_cost()).abs() < 1e-9,
            "reconstructed cost {} != C(n) {} for `{compact}`",
            validated.total,
            sol.optimal_cost()
        );
        // The naive solver must reconstruct to the same cost too.
        let sol2 = solve_naive_with(&inst, &scan);
        let sched2 = reconstruct(&inst, &scan, &sol2);
        let v2 = validate(&inst, &sched2).expect("naive reconstruction feasible");
        assert!((v2.total - validated.total).abs() < 1e-9);
        (validated.total, sched)
    }

    #[test]
    fn fig6_reconstructs_to_its_optimum() {
        let (cost, sched) =
            check_roundtrip("m=4 mu=1 lambda=1 | s2@0.5 s3@0.8 s4@1.1 s1@1.4 s2@2.6 s2@3.2 s3@4.0");
        assert!((cost - 8.9).abs() < 1e-9);
        // The optimum ends with a transfer into r_7 (C path), so s^3's last
        // touch is the transfer instant t = 4.0.
        assert!(sched.transfers.iter().any(|t| t.at == 4.0));
    }

    #[test]
    fn empty_instance_reconstructs_empty() {
        let inst = Instance::<f64>::from_compact("m=3 mu=1 lambda=1 |").unwrap();
        let scan = Prescan::compute(&inst);
        let sol = solve_fast_with(&inst, &scan);
        let sched = reconstruct(&inst, &scan, &sol);
        assert!(sched.caches.is_empty() && sched.transfers.is_empty());
    }

    #[test]
    fn pure_caching_chain() {
        let (cost, sched) = check_roundtrip("m=1 mu=1 lambda=1 | s1@1.0 s1@2.5 s1@4.0");
        assert_eq!(cost, 4.0);
        assert!(sched.transfers.is_empty());
        assert_eq!(sched.caches.len(), 1, "chain merges into one interval");
    }

    #[test]
    fn transfer_chain() {
        // Far-apart alternating requests with cheap transfers. Naively one
        // would ping-pong a single copy (3 transfers, cost 33); the DP does
        // better: serve r_1 out of the origin's spanning cache and let s^2
        // cache across r_2 (2 transfers, cost 32).
        let (cost, sched) = check_roundtrip("m=2 mu=10 lambda=1 | s2@1.0 s1@2.0 s2@3.0");
        assert!((cost - 32.0).abs() < 1e-9);
        assert_eq!(sched.transfers.len(), 2);
    }

    #[test]
    fn replication_case() {
        let (cost, sched) = check_roundtrip("m=2 mu=1 lambda=10 | s1@1 s2@2 s1@3 s2@4 s1@5 s2@6");
        assert!((cost - 19.0).abs() < 1e-9);
        assert_eq!(
            sched.transfers.len(),
            1,
            "one replication, then both sides cache"
        );
    }

    /// The recursive backtrack `reconstruct` replaced, kept as the
    /// oracle of its output: each step recurses before it emits its
    /// intermediates.
    fn reconstruct_recursive(
        inst: &Instance<f64>,
        scan: &Prescan<f64>,
        sol: &DpSolution<f64>,
    ) -> Schedule<f64> {
        fn rebuild_c(
            inst: &Instance<f64>,
            scan: &Prescan<f64>,
            sol: &DpSolution<f64>,
            i: usize,
            out: &mut Schedule<f64>,
        ) {
            match sol.c_from[i] {
                CStep::Boundary => {}
                CStep::Transfer => {
                    out.cache(inst.server(i - 1), inst.t(i - 1), inst.t(i));
                    out.transfer(inst.server(i - 1), inst.server(i), inst.t(i));
                    rebuild_c(inst, scan, sol, i - 1, out);
                }
                CStep::Cache => rebuild_d(inst, scan, sol, i, out),
            }
        }
        fn rebuild_d(
            inst: &Instance<f64>,
            scan: &Prescan<f64>,
            sol: &DpSolution<f64>,
            i: usize,
            out: &mut Schedule<f64>,
        ) {
            let p_i = scan.p[i].unwrap();
            out.cache(inst.server(i), inst.t(p_i), inst.t(i));
            let anchor = match sol.d_from[i] {
                DStep::Infeasible => unreachable!(),
                DStep::Direct => {
                    rebuild_c(inst, scan, sol, p_i, out);
                    p_i
                }
                DStep::Pivot(kappa) => {
                    rebuild_d(inst, scan, sol, kappa, out);
                    kappa
                }
            };
            for j in anchor + 1..i {
                serve_at_bound(inst, scan, i, j, out);
            }
        }
        let mut sched = Schedule::new();
        if inst.n() > 0 {
            rebuild_c(inst, scan, sol, inst.n(), &mut sched);
        }
        sched.normalize();
        sched
    }

    #[test]
    fn iterative_backtrack_matches_the_recursive_one() {
        // Deterministic mixes over 1..=5 servers and both cost regimes,
        // so Direct and Pivot steps and both bound kinds all occur.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for case in 0..300 {
            let m = 1 + case % 5;
            let n = 1 + (next() % 40) as usize;
            let lambda = [0.3, 1.0, 4.0][case % 3];
            let mut t = 0.0;
            let mut reqs = String::new();
            for _ in 0..n {
                t += 0.05 + (next() % 100) as f64 * 0.02;
                reqs.push_str(&format!(" s{}@{t}", 1 + next() % m as u64));
            }
            let inst =
                Instance::<f64>::from_compact(&format!("m={m} mu=1 lambda={lambda} |{reqs}"))
                    .unwrap();
            let scan = Prescan::compute(&inst);
            let sol = solve_fast_with(&inst, &scan);
            assert_eq!(
                reconstruct(&inst, &scan, &sol),
                reconstruct_recursive(&inst, &scan, &sol),
                "case {case}"
            );
        }
    }

    #[test]
    fn million_request_transfer_chain_reconstructs() {
        // Alternating servers one time unit apart with λ = μ/2: s1 caches
        // throughout and serves each s2 request by a transfer, so the C/D
        // chain takes one step per s1 request — half a million links, far
        // past what one stack frame per link would fit.
        let n = 1_000_000;
        let requests = (0..n)
            .map(|i| {
                mcc_model::Request::new(mcc_model::ServerId::from_index(i % 2), (i + 1) as f64)
            })
            .collect();
        let cost = mcc_model::CostModel::new(1.0, 0.5).unwrap();
        let inst = Instance::new(2, cost, requests).unwrap();
        let scan = Prescan::compute(&inst);
        let sol = solve_fast_with(&inst, &scan);
        let sched = reconstruct(&inst, &scan, &sol);
        assert_eq!(sched.transfers.len(), n / 2);
        assert_eq!(sched.cost(inst.cost()), sol.optimal_cost());
    }

    #[test]
    fn dense_multi_server_mix() {
        check_roundtrip(
            "m=3 mu=1 lambda=0.7 | s2@0.2 s3@0.3 s2@0.5 s1@0.9 s3@1.0 s3@1.8 s1@2.0 s2@2.1",
        );
    }
}
