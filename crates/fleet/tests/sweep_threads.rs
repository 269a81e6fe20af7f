//! Thread count is unobservable in the capacity sweep's outputs beyond
//! the summary: the typed findings sample (content and order) and the
//! per-item eviction column agree between one thread and 2–8, under
//! both eviction policies. The sweep deals servers to as many sweepers
//! as the job has threads, so this pins its merge order.

use mcc_core::online::SpeculativeCaching;
use mcc_fleet::{run_fleet, EvictionPolicy, FleetSpec, FleetWorkspace};
use mcc_obs::noop;
use mcc_simnet::factory;
use mcc_workloads::distributions::ParamDist;
use proptest::prelude::*;

fn random_capped_fleet() -> impl Strategy<Value = FleetSpec> {
    (
        1usize..24,
        2usize..7,
        1usize..20,
        0.2f64..3.0,
        0u64..u64::MAX,
        1usize..6,
        prop_oneof![
            Just(EvictionPolicy::None),
            Just(EvictionPolicy::Lru { price: 0.5 })
        ],
    )
        .prop_map(
            |(items, servers, requests_per_item, rate, seed, cap, eviction)| FleetSpec {
                items,
                servers,
                requests_per_item,
                rate,
                mu: ParamDist::Uniform { lo: 0.5, hi: 2.0 },
                lambda: ParamDist::Exp { mean: 1.0 },
                seed,
                capacity: Some(cap),
                eviction,
                ..FleetSpec::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn findings_and_evictions_ignore_the_thread_count(
        base in random_capped_fleet(),
        threads in 2usize..9,
    ) {
        let f = factory(SpeculativeCaching::<f64>::paper());
        let mut ws1 = FleetWorkspace::new();
        let one = run_fleet(&base, &f, &mut ws1, noop()).unwrap();
        let mut wst = FleetWorkspace::new();
        let t = run_fleet(&FleetSpec { threads, ..base }, &f, &mut wst, noop()).unwrap();
        prop_assert_eq!(t, one);
        prop_assert_eq!(wst.findings(), ws1.findings());
        prop_assert_eq!(&wst.states().evictions, &ws1.states().evictions);
    }
}
