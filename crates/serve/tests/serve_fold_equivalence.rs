//! Differential property tests for the shapes the serve engine's early
//! fold has to preserve: a served item folds each closed record as soon as
//! its place in the cost order is fixed and drops it, yet its report must
//! stay bit-identical to batch replay of the same stream.
//!
//! `serve_equivalence.rs` covers random interleavings under the paper's
//! SC and crash-only plans. The cases here add what that leaves open:
//! plans with brownouts and partitions (the brownout fold's transfer
//! terms), Speculative Caching with epochs, a hot server whose copy never
//! closes (so every other record waits behind it), equal timestamps
//! across servers with zero-length copies, and slots reused by later
//! items after an earlier item finished.

use mcc_core::online::{
    brownout_surcharge, finalize_record, run_policy, run_policy_record, stats_from_record,
    BrownoutWindow, CrashWindow, FaultPlan, FaultTolerant, OnlineDecider, OnlinePolicy,
    PartitionWindow, Runtime, ServeAction, SpeculativeCaching,
};
use mcc_model::{CostModel, Instance, Request, ServerId};
use mcc_serve::engine::ItemReport;
use mcc_serve::{ServeConfig, ServeEngine, ServeReply};
use mcc_simnet::factory;
use proptest::prelude::*;

/// One generated workload: `m` servers, one cost model, per-item request
/// sequences (times strictly increasing), and a per-event timer-sweep
/// injection as in `serve_equivalence.rs`.
#[derive(Clone, Debug)]
struct Workload {
    servers: usize,
    cost: CostModel<f64>,
    streams: Vec<Vec<(u32, f64)>>,
    ticks: Vec<Option<f64>>,
}

impl Workload {
    fn merged(&self) -> Vec<(u64, u32, f64)> {
        let mut events: Vec<(u64, u32, f64)> = self
            .streams
            .iter()
            .enumerate()
            .flat_map(|(k, reqs)| reqs.iter().map(move |&(s, t)| (k as u64, s, t)))
            .collect();
        events.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));
        events
    }

    fn instance(&self, k: usize) -> Instance<f64> {
        let requests: Vec<Request<f64>> = self.streams[k]
            .iter()
            .map(|&(s, t)| Request::new(ServerId(s), t))
            .collect();
        Instance::new(self.servers, self.cost, requests).expect("generated instance is valid")
    }
}

/// Builds a workload from per-item `(server, gap)` draws: each item's
/// times are prefix sums of its gaps from its own start offset.
fn assemble(
    m: usize,
    raw: Vec<Vec<(u32, f64)>>,
    start: impl Fn(usize) -> f64,
    cost: CostModel<f64>,
) -> impl Strategy<Value = Workload> {
    let streams: Vec<Vec<(u32, f64)>> = raw
        .iter()
        .enumerate()
        .map(|(k, reqs)| {
            let mut t = start(k);
            reqs.iter()
                .map(|&(s, gap)| {
                    t += gap;
                    (s, t)
                })
                .collect()
        })
        .collect();
    let total: usize = streams.iter().map(Vec::len).sum();
    let tick = prop_oneof![(0.0f64..1.0).prop_map(Some), Just(None)];
    proptest::collection::vec(tick, total).prop_map(move |ticks| Workload {
        servers: m,
        cost,
        streams: streams.clone(),
        ticks,
    })
}

fn cost() -> impl Strategy<Value = CostModel<f64>> {
    (0.2f64..3.0, 0.2f64..3.0).prop_map(|(mu, lambda)| CostModel::new(mu, lambda).expect("valid"))
}

/// Times mostly on a half-unit grid: items request different servers at
/// the same instants, one item's copies open and close on instants that
/// other copies and the plan's windows share, and a copy delivered to a
/// server crashing at that instant closes as it opens. Items start
/// staggered, so early items finish while later ones are still to come.
fn grid_workload() -> impl Strategy<Value = Workload> {
    (1usize..=5, 1usize..=5).prop_flat_map(|(m, items)| {
        let gap = || prop_oneof![Just(0.5f64), Just(1.0), Just(1.5), 0.01f64..2.0];
        let stream = (1usize..=24)
            .prop_flat_map(move |n| proptest::collection::vec((0u32..m as u32, gap()), n));
        (proptest::collection::vec(stream, items), cost())
            .prop_flat_map(move |(raw, cost)| assemble(m, raw, |k| 4.0 * k as f64, cost))
    })
}

/// A hot server 0 requested more often than every `Δt`, with sporadic
/// requests elsewhere: the hot copy never closes, so every other record
/// waits behind it in a long pending run.
fn pinned_workload() -> impl Strategy<Value = Workload> {
    (2usize..=5, 1usize..=2).prop_flat_map(|(m, items)| {
        let step = move || (0u32..6, 0u32..m as u32, 0.05f64..0.45);
        let stream = (20usize..=120).prop_flat_map(move |n| proptest::collection::vec(step(), n));
        (proptest::collection::vec(stream, items), 0.5f64..2.0).prop_flat_map(move |(raw, mu)| {
            // λ = 2μ: Δt = 2, every gap below is under 0.45·Δt.
            let cost = CostModel::new(mu, 2.0 * mu).expect("valid");
            let raw: Vec<Vec<(u32, f64)>> = raw
                .into_iter()
                .map(|reqs| {
                    reqs.into_iter()
                        .map(|(pick, s, gap)| (if pick == 0 { s } else { 0 }, gap * 2.0))
                        .collect()
                })
                .collect();
            assemble(m, raw, |k| 0.05 * k as f64, cost)
        })
    })
}

/// Crashes, partitions and brownouts together; crash and partition
/// windows start and end on the half-unit grid the requests use.
fn rich_plan(m: usize) -> impl Strategy<Value = FaultPlan> {
    let crash = move || {
        (0u32..m as u32, 0u32..60, 1u32..12).prop_map(|(s, from, len)| CrashWindow {
            server: ServerId(s),
            from: 0.5 * f64::from(from),
            to: 0.5 * f64::from(from + len),
        })
    };
    let partition = move || {
        (0u32..60, 1u32..10, 0u64..(1u64 << m)).prop_map(|(from, len, mask)| PartitionWindow {
            from: 0.5 * f64::from(from),
            to: 0.5 * f64::from(from + len),
            mask,
        })
    };
    let brownout = move || {
        (0u32..m as u32, 0.0f64..30.0, 0.5f64..12.0, 1.2f64..4.0).prop_map(
            |(s, from, len, factor)| BrownoutWindow {
                server: ServerId(s),
                from,
                to: from + len,
                factor,
            },
        )
    };
    (0usize..=2, 0usize..=2, 1usize..=4).prop_flat_map(move |(c, p, b)| {
        (
            proptest::collection::vec(crash(), c),
            proptest::collection::vec(partition(), p),
            proptest::collection::vec(brownout(), b),
            0u64..=u64::MAX,
            prop_oneof![Just(0.0f64), 0.05f64..0.4],
            0u32..=3,
        )
            .prop_map(
                |(crashes, partitions, brownouts, seed, fail_prob, retries)| {
                    FaultPlan::new(crashes, seed, fail_prob, retries, 0.0)
                        .with_partitions(partitions)
                        .with_brownouts(brownouts)
                },
            )
    })
}

/// Serves the merged stream and returns, per item, the actions and the
/// finish report. Each item is finished right after its last request,
/// so its slot is free for any item admitted later.
fn serve(
    w: &Workload,
    plan: Option<&FaultPlan>,
    policy: fn() -> SpeculativeCaching<f64>,
) -> Vec<(Vec<ServeAction>, ItemReport)> {
    let mut cfg = ServeConfig::new(w.servers, w.cost);
    if let Some(p) = plan {
        cfg = cfg.with_plan(p.clone());
    }
    let mut engine = ServeEngine::new(cfg, factory(policy()));
    let mut actions: Vec<Vec<ServeAction>> = vec![Vec::new(); w.streams.len()];
    let mut reports: Vec<Option<ItemReport>> = vec![None; w.streams.len()];
    let events = w.merged();
    for (i, &(item, server, t)) in events.iter().enumerate() {
        let k = item as usize;
        match engine.observe(item, server, t) {
            ServeReply::Decision(d) => actions[k].push(d.action),
            ServeReply::Shed { reason, .. } => {
                panic!("unexpected shed ({reason:?}) for item {item} at t={t}")
            }
        }
        if actions[k].len() == w.streams[k].len() {
            reports[k] = engine.finish(item);
        }
        if let Some(Some(frac)) = w.ticks.get(i) {
            let tick_t = match events.get(i + 1) {
                Some(&(_, _, next_t)) => t + frac * (next_t - t),
                None => t + frac * 10.0,
            };
            engine.tick(tick_t);
        }
    }
    assert_eq!(engine.stats().items_live, 0);
    actions
        .into_iter()
        .zip(reports)
        .map(|(a, r)| (a, r.expect("every item finished")))
        .collect()
}

/// Fault-free: every item's report equals the production batch pipeline
/// to the bit.
fn check_plain(w: &Workload, policy: fn() -> SpeculativeCaching<f64>) -> Result<(), TestCaseError> {
    for (k, (actions, report)) in serve(w, None, policy).iter().enumerate() {
        let inst = w.instance(k);
        let run = run_policy(&mut policy(), &inst);
        prop_assert_eq!(actions, &run.actions, "item {} actions diverged", k);
        let mut rt = Runtime::new(inst.servers());
        let (stats, _) = run_policy_record(&mut policy(), &inst, &mut rt);
        prop_assert_eq!(
            report.online_cost.to_bits(),
            stats.total_cost.to_bits(),
            "item {}",
            k
        );
        prop_assert_eq!(report.caching_cost.to_bits(), stats.caching_cost.to_bits());
        prop_assert_eq!(
            report.transfer_cost.to_bits(),
            stats.transfer_cost.to_bits()
        );
        prop_assert_eq!(report.transfers as usize, stats.transfers);
        prop_assert_eq!(report.cache_hits as usize, stats.cache_hits);
    }
    Ok(())
}

/// Under a plan: every item's report equals the batch fault pipeline's
/// fold (`seed_faulty_body` in mcc-simnet) to the bit.
fn check_faulty(
    w: &Workload,
    plan: &FaultPlan,
    policy: fn() -> SpeculativeCaching<f64>,
) -> Result<(), TestCaseError> {
    for (k, (actions, report)) in serve(w, Some(plan), policy).iter().enumerate() {
        let inst = w.instance(k);
        let mut wrapped = FaultTolerant::new(policy(), plan.clone());
        let mut rt = Runtime::new(inst.servers());
        wrapped.reset(inst.servers(), inst.cost());
        let (mut hits, mut deferred) = (0usize, 0usize);
        let mut batch_actions = Vec::with_capacity(inst.n());
        for i in 1..=inst.n() {
            let action = wrapped
                .observe(Request::new(inst.server(i), inst.t(i)), &mut rt)
                .action;
            match action {
                ServeAction::Cache => hits += 1,
                ServeAction::Deferred => deferred += 1,
                ServeAction::Transfer { .. } => {}
            }
            batch_actions.push(action);
        }
        wrapped.on_finish();
        let rec = finalize_record(&wrapped, &mut rt, inst.n(), inst.horizon());
        let stats = stats_from_record(rec, inst.cost(), hits, deferred);
        let sur = brownout_surcharge(wrapped.plan(), rec, inst.cost());
        let f = wrapped.stats();
        let total = stats.total_cost + sur + f.retry_cost + f.replay_cost + f.reseed_cost;
        prop_assert_eq!(actions, &batch_actions, "item {} actions diverged", k);
        prop_assert_eq!(
            report.online_cost.to_bits(),
            total.to_bits(),
            "item {} folded cost",
            k
        );
        prop_assert_eq!(report.caching_cost.to_bits(), stats.caching_cost.to_bits());
        prop_assert_eq!(report.transfers as usize, stats.transfers);
        prop_assert_eq!(report.deferred as usize, deferred);
    }
    Ok(())
}

fn paper() -> SpeculativeCaching<f64> {
    SpeculativeCaching::paper()
}

fn epochs3() -> SpeculativeCaching<f64> {
    SpeculativeCaching::with_epochs(3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn equal_timestamps_and_slot_reuse_match_batch_replay(w in grid_workload()) {
        check_plain(&w, paper)?;
    }

    #[test]
    fn epochs_match_batch_replay(w in grid_workload()) {
        check_plain(&w, epochs3)?;
    }

    #[test]
    fn a_pinned_hot_copy_matches_batch_replay(w in pinned_workload()) {
        check_plain(&w, paper)?;
    }

    #[test]
    fn brownouts_and_partitions_match_batch_replay(
        (w, plan) in grid_workload().prop_flat_map(|w| {
            let m = w.servers;
            (Just(w), rich_plan(m))
        })
    ) {
        check_faulty(&w, &plan, paper)?;
    }

    #[test]
    fn epochs_under_brownouts_match_batch_replay(
        (w, plan) in grid_workload().prop_flat_map(|w| {
            let m = w.servers;
            (Just(w), rich_plan(m))
        })
    ) {
        check_faulty(&w, &plan, epochs3)?;
    }

    #[test]
    fn a_pinned_hot_copy_under_brownouts_matches_batch_replay(
        (w, plan) in pinned_workload().prop_flat_map(|w| {
            let m = w.servers;
            (Just(w), rich_plan(m))
        })
    ) {
        check_faulty(&w, &plan, paper)?;
    }
}
