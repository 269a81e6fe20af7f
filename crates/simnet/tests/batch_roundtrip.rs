//! Property test: the sweep's batched staging path is a faithful
//! round-trip.
//!
//! The batched worker fills per-slot [`InstanceBuf`]s from
//! [`Workload::generate_into`] and pushes each borrowed instance into one
//! [`BatchWorkspace`]. This test pins both halves of that hand-off:
//!
//! * the packed SoA lanes reproduce the scalar [`Prescan`] of every staged
//!   instance **bit for bit** (times, shifted previous-pointers, σ, the
//!   marginal and running bounds) — i.e. staging is a layout change, not a
//!   recomputation that could drift;
//! * every lane's solved optimum equals the per-instance
//!   [`solve_naive_in`] answer exactly, across workload families, shapes
//!   and seeds, including a dirty (reused) workspace.

use mcc_core::offline::{solve_batch_in, solve_naive_in, BatchWorkspace, SolverWorkspace};
use mcc_model::Prescan;
use mcc_workloads::{CommonParams, InstanceBuf, PoissonWorkload, Workload, ZipfWorkload};
use proptest::prelude::*;

fn check_roundtrip(workload: &dyn Workload, seeds: &[u64]) -> Result<(), TestCaseError> {
    let mut bufs: Vec<InstanceBuf> = (0..seeds.len()).map(|_| InstanceBuf::new()).collect();
    let mut bws = BatchWorkspace::new();
    // Dirty the workspace first: the sweep reuses one workspace per
    // worker, so a fresh-allocation-only guarantee would be vacuous.
    {
        let mut warm = InstanceBuf::new();
        let inst = workload.generate_into(u64::MAX, &mut warm);
        solve_batch_in(&[inst, inst], &mut bws);
    }

    bws.clear();
    for (slot, &seed) in bufs.iter_mut().zip(seeds) {
        let inst = workload.generate_into(seed, slot);
        bws.push(inst);
    }
    bws.solve();
    prop_assert_eq!(bws.len(), seeds.len());

    let mut ws = SolverWorkspace::new();
    for (k, slot) in bufs.iter().enumerate() {
        let inst = slot.instance();
        // Lane views reproduce the scalar prescan bit for bit.
        let scan = Prescan::compute(inst);
        let batch_scan = bws.prescan();
        let lane = batch_scan.lane(k);
        prop_assert_eq!(bws.n_of(k), inst.n(), "lane {} length", k);
        for (i, j) in lane.enumerate() {
            prop_assert_eq!(
                batch_scan.p1[j],
                scan.p[i].map_or(0, |p| p as u32 + 1),
                "p1 lane {} entry {}",
                k,
                i
            );
            // Dummy entries carry σ = 0 in the SoA lanes (the branch-free
            // bound select never reads them); real entries match exactly.
            let expect_sigma = scan.sigma[i].unwrap_or(0.0);
            prop_assert_eq!(
                batch_scan.sigma[j].to_bits(),
                expect_sigma.to_bits(),
                "sigma lane {} entry {}",
                k,
                i
            );
            prop_assert_eq!(
                batch_scan.b[j].to_bits(),
                scan.b[i].to_bits(),
                "b lane {} entry {}",
                k,
                i
            );
            prop_assert_eq!(
                batch_scan.big_b[j].to_bits(),
                scan.big_b[i].to_bits(),
                "B lane {} entry {}",
                k,
                i
            );
        }
        // And the solved lane equals the per-instance sweep solve exactly.
        let scalar = solve_naive_in(inst, &mut ws, mcc_obs::noop());
        prop_assert_eq!(
            bws.optimal_cost(k).to_bits(),
            scalar.optimal_cost().to_bits(),
            "optimal cost lane {}",
            k
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_batches_roundtrip_bit_for_bit(
        servers in 1usize..=8,
        requests in 0usize..=60,
        rate in 0.2f64..4.0,
        base_seed in 0u64..1_000_000,
        k in 1usize..=9,
    ) {
        let params = CommonParams { servers, requests, mu: 1.0, lambda: 1.0 };
        let seeds: Vec<u64> = (0..k as u64).map(|j| base_seed.wrapping_add(j)).collect();
        let poisson = PoissonWorkload::uniform(params, rate);
        check_roundtrip(&poisson, &seeds)?;
        let zipf = ZipfWorkload::new(params, rate, 1.2);
        check_roundtrip(&zipf, &seeds)?;
    }
}
