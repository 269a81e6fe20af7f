//! End-to-end checks of the paper's headline claims through the facade
//! crate — the "if these pass, the reproduction stands" suite.

use mobile_cloud_cache::analysis::Summary;
use mobile_cloud_cache::offline::{brute_force_cost, solve_fast, solve_naive, solve_quadratic};
use mobile_cloud_cache::online::analyze;
use mobile_cloud_cache::prelude::*;

fn fig6() -> Instance<f64> {
    Instance::from_compact("m=4 mu=1 lambda=1 | s2@0.5 s3@0.8 s4@1.1 s1@1.4 s2@2.6 s2@3.2 s3@4.0")
        .unwrap()
}

/// Contribution 1 — the O(mn) off-line algorithm computes the paper's
/// worked example exactly, agrees with an exhaustive oracle, and its
/// optimum is materializable as a referee-validated schedule.
#[test]
fn contribution_1_offline_optimality() {
    let inst = fig6();
    let sol = solve_fast(&inst);
    let expect_c = [0.0, 1.5, 2.8, 4.1, 4.4, 6.5, 7.1, 8.9];
    for (i, e) in expect_c.iter().enumerate() {
        assert!((sol.c[i] - e).abs() < 1e-9, "C({i})");
    }
    assert!((brute_force_cost(&inst) - 8.9).abs() < 1e-9);

    let (sched, cost) = optimal_schedule(&inst);
    let validated = validate(&inst, &sched).expect("feasible");
    assert!((validated.total - cost).abs() < 1e-9);
}

/// Contribution 2 — Speculative Caching is 3-competitive (with the
/// additive-λ correction documented in `online::reduction`): checked
/// across every workload family and a λ/μ grid.
#[test]
fn contribution_2_online_competitiveness() {
    let mut worst: f64 = 1.0;
    for lom in [0.2, 1.0, 5.0] {
        let common = CommonParams {
            servers: 6,
            requests: 150,
            mu: 1.0,
            lambda: lom,
        };
        for w in standard_suite(common) {
            for seed in 0..6 {
                let inst = w.generate(seed);
                let run = run_policy(&mut SpeculativeCaching::paper(), &inst);
                let report = analyze(&inst, &run);
                report
                    .check_chain(1e-7)
                    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name()));
                worst = worst.max(report.ratio());
            }
        }
    }
    assert!(worst <= 3.0 + 0.1, "worst observed ratio {worst}");
}

/// The three solvers agree on every workload family at moderate scale.
#[test]
fn solver_agreement_across_families() {
    let common = CommonParams {
        servers: 8,
        requests: 200,
        mu: 2.0,
        lambda: 1.5,
    };
    for w in standard_suite(common) {
        let inst = w.generate(11);
        let fast = solve_fast(&inst).optimal_cost();
        let naive = solve_naive(&inst).optimal_cost();
        let quadratic = solve_quadratic(&inst).optimal_cost();
        assert!((fast - naive).abs() < 1e-7, "{}", w.name());
        assert!((fast - quadratic).abs() < 1e-7, "{}", w.name());
        // The running bound really is a lower bound (Definition 5).
        let scan = Prescan::compute(&inst);
        assert!(scan.total_lower_bound() <= fast + 1e-9);
    }
}

/// Online never beats off-line, the off-line advantage is substantial on
/// trajectory workloads regardless of regularity, and the measured effect
/// of regularity matches E9: perfectly periodic tours remove the cheap
/// near-immediate revisits, raising OPT's absolute per-request cost.
#[test]
fn offline_advantage_on_trajectories() {
    let common = CommonParams {
        servers: 8,
        requests: 300,
        mu: 1.0,
        lambda: 1.0,
    };
    let mut opt_per_req = Vec::new();
    for rho in [0.0, 1.0] {
        let w = MarkovWorkload::new(common, 1.0, rho);
        let mut ratios = Summary::new();
        let mut opt_pr = Summary::new();
        for seed in 0..8 {
            let inst = w.generate(seed);
            let run = run_policy(&mut SpeculativeCaching::paper(), &inst);
            let opt = optimal_cost(&inst);
            assert!(run.total_cost >= opt - 1e-9);
            ratios.push(run.total_cost / opt);
            opt_pr.push(opt / inst.n() as f64);
        }
        // The off-line advantage is real and bounded in both regimes.
        assert!(ratios.mean() > 1.2, "rho {rho}: {}", ratios.mean());
        assert!(ratios.max() <= 3.05, "rho {rho}: {}", ratios.max());
        opt_per_req.push(opt_pr.mean());
    }
    assert!(
        opt_per_req[1] > opt_per_req[0],
        "periodic tours should cost the optimum more per request: {opt_per_req:?}"
    );
}

/// The compact text format, JSON traces and the facade prelude round-trip
/// a real workload end to end.
#[test]
fn trace_roundtrip_through_facade() {
    let inst = PoissonWorkload::uniform(
        CommonParams {
            servers: 5,
            requests: 50,
            mu: 1.0,
            lambda: 2.0,
        },
        1.0,
    )
    .generate(3);
    let text = inst.to_compact();
    let back = Instance::<f64>::from_compact(&text).unwrap();
    assert_eq!(optimal_cost(&inst), optimal_cost(&back));
}
