//! Differential testing of the off-line solvers.
//!
//! The fast O(mn) DP, the windowed sweep, the quadratic scan and the
//! exhaustive oracle must agree *exactly* — we run them over the [`Fixed`]
//! scalar with all inputs on a millisecond grid, so every `μ·duration`
//! product is exact and `==` is sound (see `mcc_model::scalar` docs).
//! Reconstruction must produce a schedule the independent referee accepts
//! at exactly the DP's claimed cost.

use mcc_core::offline::{
    brute_force_cost, reconstruct, solve_batch_in, solve_fast, solve_fast_in, solve_fast_with,
    solve_naive, solve_naive_in, solve_naive_with, solve_quadratic_with, BatchWorkspace,
    SolverWorkspace,
};
use mcc_model::{validate, CostModel, Fixed, Instance, Prescan, Request, Scalar};
use proptest::prelude::*;

/// Strategy: a random instance on a millisecond grid.
///
/// `servers ∈ 1..=4`, `n ∈ 0..=10`, times strictly increasing in steps of
/// 1..=4000 ms, `μ, λ ∈ {0.25, 0.5, 1, 2, 4} scaled by 0.001..` — all
/// representable exactly in micro-units with exact products.
fn small_instance() -> impl Strategy<Value = Instance<Fixed>> {
    (1usize..=4, 0usize..=10).prop_flat_map(|(m, n)| {
        let servers = proptest::collection::vec(0..m, n);
        let gaps = proptest::collection::vec(1u32..=4000, n);
        let mu = prop_oneof![Just(250), Just(500), Just(1000), Just(2000), Just(4000)];
        let lambda = prop_oneof![Just(250), Just(500), Just(1000), Just(3000), Just(8000)];
        (Just(m), servers, gaps, mu, lambda).prop_map(|(m, servers, gaps, mu, lambda)| {
            let mut t_ms: i64 = 0;
            let requests: Vec<Request<Fixed>> = servers
                .into_iter()
                .zip(gaps)
                .map(|(s, gap)| {
                    t_ms += gap as i64;
                    Request::new(
                        mcc_model::ServerId::from_index(s),
                        Fixed::from_micros(t_ms * 1000),
                    )
                })
                .collect();
            let cost = CostModel::new(
                Fixed::from_micros(mu * 1000),
                Fixed::from_micros(lambda * 1000),
            )
            .expect("positive rates");
            Instance::new(m, cost, requests).expect("construction is valid")
        })
    })
}

/// A larger instance (f64) for fast-vs-naive agreement at scale.
fn medium_instance() -> impl Strategy<Value = Instance<f64>> {
    (1usize..=8, 0usize..=120).prop_flat_map(|(m, n)| {
        let servers = proptest::collection::vec(0..m, n);
        let gaps = proptest::collection::vec(0.001f64..5.0, n);
        let mu = 0.1f64..4.0;
        let lambda = 0.1f64..4.0;
        (Just(m), servers, gaps, mu, lambda).prop_map(|(m, servers, gaps, mu, lambda)| {
            let mut t = 0.0;
            let requests: Vec<Request<f64>> = servers
                .into_iter()
                .zip(gaps)
                .map(|(s, gap)| {
                    t += gap;
                    Request::new(mcc_model::ServerId::from_index(s), t)
                })
                .collect();
            let cost = CostModel::new(mu, lambda).unwrap();
            Instance::new(m, cost, requests).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The recurrence solvers and the exhaustive oracle agree bit-exactly.
    #[test]
    fn dp_matches_brute_force_exactly(inst in small_instance()) {
        let scan = Prescan::compute(&inst);
        let fast = solve_fast_with(&inst, &scan);
        let naive = solve_naive_with(&inst, &scan);
        let quadratic = solve_quadratic_with(&inst, &scan);
        let oracle = brute_force_cost(&inst);
        prop_assert_eq!(fast.optimal_cost(), oracle, "fast vs oracle on {}", inst.to_compact());
        prop_assert_eq!(naive.optimal_cost(), oracle, "naive vs oracle");
        prop_assert_eq!(quadratic.optimal_cost(), oracle, "quadratic vs oracle");
        // Full tables agree, not just the end value.
        for i in 0..=inst.n() {
            prop_assert_eq!(fast.c[i], naive.c[i]);
            prop_assert_eq!(fast.d[i], naive.d[i]);
            prop_assert_eq!(quadratic.c[i], naive.c[i]);
        }
    }

    /// Reconstruction materializes a schedule the referee accepts at
    /// exactly C(n) — i.e. the DP's optimum is *achievable*, not just a
    /// number.
    #[test]
    fn reconstruction_is_feasible_and_exactly_optimal(inst in small_instance()) {
        let scan = Prescan::compute(&inst);
        let sol = solve_fast_with(&inst, &scan);
        let sched = reconstruct(&inst, &scan, &sol);
        let validated = validate(&inst, &sched)
            .map_err(|e| TestCaseError::fail(format!("infeasible: {e:?} on {}", inst.to_compact())))?;
        prop_assert_eq!(
            validated.total,
            sol.optimal_cost(),
            "reconstructed cost differs on {}",
            inst.to_compact()
        );
    }

    /// A dirty reused workspace changes no bit of the output: `solve_fast_in`
    /// after solving an unrelated instance produces exactly the tables —
    /// values *and* provenance — of a fresh allocating solve, and exactly
    /// the naive sweep's values. (Provenance is only compared against
    /// `solve_fast`, which enumerates pivots in the same order; the sweep
    /// may break cost ties differently.)
    #[test]
    fn workspace_reuse_is_bit_exact(dirty in small_instance(), inst in small_instance()) {
        let mut ws = SolverWorkspace::new();
        let _ = solve_fast_in(&dirty, &mut ws);
        let _ = solve_naive_in(&dirty, &mut ws, mcc_obs::noop());
        let fresh = solve_fast(&inst);
        let naive = solve_naive(&inst);
        let sol = solve_fast_in(&inst, &mut ws);
        prop_assert_eq!(&sol.c, &fresh.c, "C on {}", inst.to_compact());
        prop_assert_eq!(&sol.d, &fresh.d);
        prop_assert_eq!(&sol.c_from, &fresh.c_from);
        prop_assert_eq!(&sol.d_from, &fresh.d_from);
        prop_assert_eq!(&sol.c, &naive.c);
        prop_assert_eq!(&sol.d, &naive.d);
        let sol = solve_naive_in(&inst, &mut ws, mcc_obs::noop());
        prop_assert_eq!(&sol.c, &naive.c);
        prop_assert_eq!(&sol.d, &naive.d);
    }

    /// The running bound B_n is a true lower bound and C is monotone.
    #[test]
    fn structural_invariants(inst in small_instance()) {
        let scan = Prescan::compute(&inst);
        let sol = solve_fast_with(&inst, &scan);
        prop_assert!(scan.total_lower_bound() <= sol.optimal_cost());
        for i in 1..=inst.n() {
            prop_assert!(sol.c[i] >= sol.c[i-1], "C must be nondecreasing");
            prop_assert!(sol.d[i] >= sol.c[i], "C(i) ≤ D(i) by definition");
        }
    }

    /// The batched kernel over K random instances is bit-identical to K
    /// independent per-instance solves ([`Fixed`], exact `==` on the full
    /// `C`/`D` lanes) — staged through a *dirty* workspace, so lane
    /// boundaries and leftover state from a previous batch can't leak.
    #[test]
    fn batch_matches_per_instance_solves_exactly(
        dirty in (0usize..=3).prop_flat_map(|k| proptest::collection::vec(small_instance(), k)),
        insts in (0usize..=5).prop_flat_map(|k| proptest::collection::vec(small_instance(), k)),
    ) {
        let mut bws = BatchWorkspace::new();
        let dirty_views: Vec<&Instance<Fixed>> = dirty.iter().collect();
        solve_batch_in(&dirty_views, &mut bws);
        let views: Vec<&Instance<Fixed>> = insts.iter().collect();
        solve_batch_in(&views, &mut bws);
        prop_assert_eq!(bws.len(), insts.len());
        let mut ws = SolverWorkspace::new();
        for (k, inst) in insts.iter().enumerate() {
            let scalar = solve_fast_in(inst, &mut ws);
            prop_assert_eq!(bws.c(k), &scalar.c[..], "C lane {} on {}", k, inst.to_compact());
            prop_assert_eq!(bws.d(k), &scalar.d[..], "D lane {} on {}", k, inst.to_compact());
            prop_assert_eq!(bws.optimal_cost(k), scalar.optimal_cost());
        }
    }

    /// The same bit-identity holds for `f64` at scale (`to_bits`
    /// comparison, no tolerance): the batched lanes reproduce the windowed
    /// sweep's tables bit for bit — the per-instance solve the run pipeline
    /// falls back to — so swapping the sweep pipeline onto the batched
    /// kernel can never change a result.
    #[test]
    fn batch_is_bit_identical_to_sweep_at_scale(
        insts in (1usize..=4).prop_flat_map(|k| proptest::collection::vec(medium_instance(), k)),
    ) {
        let views: Vec<&Instance<f64>> = insts.iter().collect();
        let mut bws = BatchWorkspace::new();
        solve_batch_in(&views, &mut bws);
        let mut ws = SolverWorkspace::new();
        for (k, inst) in insts.iter().enumerate() {
            let scalar = solve_naive_in(inst, &mut ws, mcc_obs::noop());
            for i in 0..=inst.n() {
                prop_assert_eq!(
                    bws.c(k)[i].to_bits(),
                    scalar.c[i].to_bits(),
                    "C({}) lane {}", i, k
                );
                prop_assert_eq!(
                    bws.d(k)[i].to_bits(),
                    scalar.d[i].to_bits(),
                    "D({}) lane {}", i, k
                );
            }
        }
    }

    /// At scale (f64): the matrix pass agrees with the naive sweep to
    /// floating-point tolerance, and reconstruction stays feasible.
    #[test]
    fn fast_equals_naive_at_scale(inst in medium_instance()) {
        let scan = Prescan::compute(&inst);
        let fast = solve_fast_with(&inst, &scan);
        let naive = solve_naive_with(&inst, &scan);
        prop_assert!(fast.optimal_cost().approx_eq(naive.optimal_cost(), 1e-9));
        let sched = reconstruct(&inst, &scan, &fast);
        let validated = mcc_model::validate_with(
            &inst,
            &sched,
            mcc_model::ValidateOptions { tol: 1e-9 },
        )
        .map_err(|e| TestCaseError::fail(format!("infeasible: {e:?}")))?;
        prop_assert!(validated.total.approx_eq(fast.optimal_cost(), 1e-7));
    }
}

/// The batched kernel on every degenerate shape at once: an empty batch,
/// then a mixed batch of n = 0, n = 1, m = 1 and a normal lane — each lane
/// bit-identical to its per-instance solve, including across the reuse.
#[test]
fn batch_handles_degenerate_shapes_exactly() {
    let empty_n = Instance::<f64>::from_compact("m=3 mu=1 lambda=1 |").unwrap();
    let one_req = Instance::<f64>::from_compact("m=2 mu=2 lambda=0.5 | s2@1.5").unwrap();
    let one_server =
        Instance::<f64>::from_compact("m=1 mu=1 lambda=1 | s1@0.5 s1@1.0 s1@3.5").unwrap();
    let normal =
        Instance::<f64>::from_compact("m=4 mu=1 lambda=1 | s2@0.5 s3@0.8 s4@1.1 s1@1.4 s2@2.6")
            .unwrap();

    let mut bws = BatchWorkspace::new();
    // An empty batch is legal and leaves nothing behind.
    solve_batch_in(&[], &mut bws);
    assert_eq!(bws.len(), 0);
    assert!(bws.is_empty());

    let insts = [&empty_n, &one_req, &one_server, &normal];
    solve_batch_in(&insts, &mut bws);
    let mut ws = SolverWorkspace::new();
    for (k, inst) in insts.iter().enumerate() {
        let scalar = solve_fast_in(inst, &mut ws);
        assert_eq!(bws.c(k), &scalar.c[..], "C lane {k}");
        assert_eq!(bws.n_of(k), inst.n(), "lane length {k}");
        for i in 0..=inst.n() {
            let (bd, sd) = (bws.d(k)[i], scalar.d[i]);
            assert!(
                bd.to_bits() == sd.to_bits(),
                "D({i}) lane {k}: {bd} vs {sd}"
            );
        }
    }
    // n = 0 solves to zero cost; a lone request must be cached (μσ + B).
    assert_eq!(bws.optimal_cost(0), 0.0);
    assert_eq!(bws.optimal_cost(1), solve_naive(&one_req).optimal_cost());
}
