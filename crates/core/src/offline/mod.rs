//! Off-line solvers for the data-caching problem (Section IV).
//!
//! Given the full request sequence in advance (the "trajectory" setting),
//! compute a minimum-cost set of caches and transfers:
//!
//! * [`solve_fast`] — the paper's O(mn) time/space algorithm (Theorem 2),
//!   with its pointer matrix (Fig. 5);
//! * [`solve_naive`] — the windowed sweep (O(nm) amortized, O(n + m)
//!   space); its workspace form [`solve_naive_in`] is the per-instance
//!   hot path, faster than the matrix pass at every measured shape;
//! * [`solve_batch_in`] — the batched SoA kernel: K instances staged into
//!   one [`BatchWorkspace`] and solved lane by lane, amortizing per-instance
//!   setup (bit-identical values, no provenance);
//! * [`solve_quadratic`] — the paper's Θ(n²) straightforward implementation;
//! * [`brute_force_cost`] — an exponential exact oracle for tiny instances
//!   sharing no code with the recurrences;
//! * [`capped_optimal_cost`] — the exact optimum under a replication cap
//!   (≤ K simultaneous copies), bridging Table I's fixed-k and dynamic
//!   columns;
//! * [`reconstruct()`] — turns DP tables into an explicit, validated
//!   [`mcc_model::Schedule`].
//!
//! One-call conveniences: [`optimal_cost`] and [`optimal_schedule`].

pub mod batch;
pub mod brute;
pub mod capped;
pub mod fast;
pub mod naive;
pub mod reconstruct;
pub mod tables;

pub use batch::{solve_batch_in, BatchWorkspace};
pub use brute::{brute_force_cost, MAX_BRUTE_M, MAX_BRUTE_N};
pub use capped::{capped_optimal_cost, MAX_CAPPED_M, MAX_CAPPED_N};
pub use fast::{solve_fast, solve_fast_in, solve_fast_with, solve_naive_in, SolverWorkspace};
pub use naive::{solve_naive, solve_naive_with, solve_quadratic, solve_quadratic_with};
pub use reconstruct::reconstruct;
pub use tables::{CStep, DStep, DpSolution, PivotSource};

use mcc_model::{Instance, Prescan, Scalar, Schedule};

/// The minimum total service cost `C(n)` for an instance, via the O(mn)
/// solver.
///
/// ```
/// use mcc_core::offline::optimal_cost;
/// use mcc_model::Instance;
///
/// // The paper's Fig. 6 running example: C(7) = 8.9.
/// let inst = Instance::<f64>::from_compact(
///     "m=4 mu=1 lambda=1 | s2@0.5 s3@0.8 s4@1.1 s1@1.4 s2@2.6 s2@3.2 s3@4.0",
/// )
/// .unwrap();
/// assert!((optimal_cost(&inst) - 8.9).abs() < 1e-9);
/// ```
pub fn optimal_cost<S: Scalar>(inst: &Instance<S>) -> S {
    solve_fast(inst).optimal_cost()
}

/// An optimal schedule and its cost, via the O(mn) solver plus
/// reconstruction.
///
/// The schedule is normalized and passes the `mcc-model` referee at
/// exactly the returned cost:
///
/// ```
/// use mcc_core::offline::optimal_schedule;
/// use mcc_model::{validate, Instance};
///
/// let inst =
///     Instance::<f64>::from_compact("m=2 mu=1 lambda=1 | s2@0.5 s1@2.0").unwrap();
/// let (schedule, cost) = optimal_schedule(&inst);
/// let checked = validate(&inst, &schedule).unwrap();
/// assert!((checked.total - cost).abs() < 1e-9);
/// ```
pub fn optimal_schedule<S: Scalar>(inst: &Instance<S>) -> (Schedule<S>, S) {
    let scan = Prescan::compute(inst);
    let sol = solve_fast_with(inst, &scan);
    let sched = reconstruct(inst, &scan, &sol);
    let cost = sol.optimal_cost();
    (sched, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_model::validate;

    #[test]
    fn convenience_wrappers_agree() {
        let inst = Instance::<f64>::from_compact(
            "m=4 mu=1 lambda=1 | s2@0.5 s3@0.8 s4@1.1 s1@1.4 s2@2.6 s2@3.2 s3@4.0",
        )
        .unwrap();
        let (sched, cost) = optimal_schedule(&inst);
        assert_eq!(cost, optimal_cost(&inst));
        let v = validate(&inst, &sched).unwrap();
        assert!((v.total - cost).abs() < 1e-9);
    }
}
