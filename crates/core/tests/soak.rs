//! Heavy soak tests — `#[ignore]`d by default; run with
//! `cargo test -p mcc-core --test soak -- --ignored` (a few minutes).
//!
//! Same invariants as the default suites at 10–50× the case counts and
//! larger instances: the deep net for regressions before a release.

use mcc_core::offline::{
    brute_force_cost, reconstruct, solve_fast_with, solve_naive_with, solve_quadratic_with,
};
use mcc_core::online::{analyze, double_transfer, run_policy, SpeculativeCaching};
use mcc_model::{validate, CostModel, Fixed, Instance, Prescan, Request, Scalar};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_fixed_instance(rng: &mut StdRng) -> Instance<Fixed> {
    let m = rng.gen_range(1..=5);
    let n = rng.gen_range(0..=12);
    let mut t_ms: i64 = 0;
    let requests: Vec<Request<Fixed>> = (0..n)
        .map(|_| {
            t_ms += rng.gen_range(1..=5000);
            Request::new(
                mcc_model::ServerId::from_index(rng.gen_range(0..m)),
                Fixed::from_micros(t_ms * 1000),
            )
        })
        .collect();
    let mu = Fixed::from_micros(rng.gen_range(1..=50) * 100_000);
    let lambda = Fixed::from_micros(rng.gen_range(1..=50) * 100_000);
    Instance::new(m, CostModel::new(mu, lambda).unwrap(), requests).unwrap()
}

fn random_f64_instance(rng: &mut StdRng, max_n: usize) -> Instance<f64> {
    let m = rng.gen_range(1..=12);
    let n = rng.gen_range(0..=max_n);
    let mut t = 0.0;
    let requests: Vec<Request<f64>> = (0..n)
        .map(|_| {
            t += rng.gen_range(0.001..4.0);
            Request::at(rng.gen_range(0..m), t)
        })
        .collect();
    let cost = CostModel::new(rng.gen_range(0.05..5.0), rng.gen_range(0.05..5.0)).unwrap();
    Instance::new(m, cost, requests).unwrap()
}

/// 20 000 exact differential cases against the exhaustive oracle.
#[test]
#[ignore = "soak: ~minutes"]
fn soak_dp_vs_oracle() {
    let mut rng = StdRng::seed_from_u64(0x50a4);
    for case in 0..20_000u32 {
        let inst = random_fixed_instance(&mut rng);
        let scan = Prescan::compute(&inst);
        let fast = solve_fast_with(&inst, &scan).optimal_cost();
        let oracle = brute_force_cost(&inst);
        assert_eq!(fast, oracle, "case {case}: {}", inst.to_compact());
        assert_eq!(
            solve_naive_with(&inst, &scan).optimal_cost(),
            oracle,
            "case {case} naive"
        );
        assert_eq!(
            solve_quadratic_with(&inst, &scan).optimal_cost(),
            oracle,
            "case {case} quadratic"
        );
    }
}

/// 5 000 reconstruction round-trips at up to 400 requests.
#[test]
#[ignore = "soak: ~minutes"]
fn soak_reconstruction() {
    let mut rng = StdRng::seed_from_u64(0x5ec0);
    for case in 0..5_000u32 {
        let inst = random_f64_instance(&mut rng, 400);
        let scan = Prescan::compute(&inst);
        let sol = solve_fast_with(&inst, &scan);
        let sched = reconstruct(&inst, &scan, &sol);
        let v = mcc_model::validate_with(&inst, &sched, mcc_model::ValidateOptions { tol: 1e-9 })
            .unwrap_or_else(|e| panic!("case {case}: infeasible {e:?}"));
        assert!(
            v.total.approx_eq(sol.optimal_cost(), 1e-7),
            "case {case}: {} != {}",
            v.total,
            sol.optimal_cost()
        );
    }
}

/// 5 000 online runs: feasibility, DT equality, the full theorem chain.
#[test]
#[ignore = "soak: ~minutes"]
fn soak_online_chain() {
    let mut rng = StdRng::seed_from_u64(0x0111_u64);
    for case in 0..5_000u32 {
        let inst = random_f64_instance(&mut rng, 200);
        let run = run_policy(&mut SpeculativeCaching::paper(), &inst);
        validate(&inst, &run.schedule)
            .or_else(|_| {
                mcc_model::validate_with(
                    &inst,
                    &run.schedule,
                    mcc_model::ValidateOptions { tol: 1e-9 },
                )
            })
            .unwrap_or_else(|e| panic!("case {case}: SC infeasible {e:?}"));
        let dt = double_transfer(&run.record, inst.cost());
        assert!(
            dt.cost(inst.cost()).approx_eq(run.total_cost, 1e-9),
            "case {case}: DT != SC"
        );
        analyze(&inst, &run)
            .check_chain(1e-7)
            .unwrap_or_else(|e| panic!("case {case}: {e} on {}", inst.to_compact()));
    }
}
