//! Differential property tests: a stream served live through
//! [`ServeEngine`] and the same stream replayed through the batch
//! executor produce **bit-identical** decisions and costs.
//!
//! This is the contract that makes `mcc serve` trustworthy: the daemon
//! is not a reimplementation of the online algorithms, it is the same
//! [`OnlineDecider`] core behind a timer wheel — so every theorem and
//! benchmark established for batch replay transfers to the daemon
//! verbatim. The tests interleave many items on one global timeline,
//! inject timer sweeps ([`ServeEngine::tick`]) at arbitrary times
//! between requests (sweep timing must be unobservable), and repeat the
//! whole comparison under an injected crash/recovery [`FaultPlan`] with
//! the exact surcharge fold batch replay applies.

use mcc_core::online::{
    brownout_surcharge, finalize_record, run_policy, run_policy_record, stats_from_record,
    CrashWindow, FaultPlan, FaultTolerant, OnlineDecider, Runtime, ServeAction, SpeculativeCaching,
};
use mcc_model::{CostModel, Instance, Request, ServerId};
use mcc_serve::{ServeConfig, ServeEngine, ServeReply};
use mcc_simnet::factory;
use proptest::prelude::*;

/// One generated workload: `m` servers, one shared cost model, per-item
/// strictly-increasing request sequences, and a sweep-injection extra
/// per event.
#[derive(Clone, Debug)]
struct Workload {
    servers: usize,
    cost: CostModel<f64>,
    /// `streams[k]` = item `k`'s requests, times strictly increasing.
    streams: Vec<Vec<(u32, f64)>>,
    /// Per merged event: `Some(frac)` injects a timer sweep after it, at
    /// `t + frac·(next_event_t − t)` — anywhere in the gap before the
    /// next event (event time is monotone: a sweep may never run ahead
    /// of a request that has not arrived yet). After the final event the
    /// sweep lands at `t + 10·frac`, past every believed expiry.
    ticks: Vec<Option<f64>>,
}

impl Workload {
    /// All events merged onto the global timeline: `(item, server, t)`.
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

    /// Item `k`'s requests as a batch instance.
    fn instance(&self, k: usize) -> Instance<f64> {
        let requests: Vec<Request<f64>> = self.streams[k]
            .iter()
            .map(|&(s, t)| Request::new(ServerId(s), t))
            .collect();
        Instance::new(self.servers, self.cost, requests).expect("generated instance is valid")
    }
}

fn workload() -> impl Strategy<Value = Workload> {
    (1usize..=5, 1usize..=4).prop_flat_map(|(m, items)| {
        // The vendored proptest stand-in only sizes `vec` exactly, so
        // per-item lengths come from a flat-mapped range.
        let stream = (1usize..=20)
            .prop_flat_map(move |n| proptest::collection::vec((0u32..m as u32, 0.01f64..3.0), n));
        let streams = proptest::collection::vec(stream, items);
        let mu = 0.2f64..3.0;
        let lambda = 0.2f64..3.0;
        (Just(m), streams, mu, lambda).prop_flat_map(|(m, raw, mu, lambda)| {
            // Per-item prefix sums make times strictly increasing; a
            // per-item phase offset desynchronizes the streams.
            let streams: Vec<Vec<(u32, f64)>> = raw
                .iter()
                .enumerate()
                .map(|(k, reqs)| {
                    let mut t = 0.05 * k as f64;
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
            let ticks = proptest::collection::vec(tick, total);
            let cost = CostModel::new(mu, lambda).expect("generated cost is valid");
            ticks.prop_map(move |ticks| Workload {
                servers: m,
                cost,
                streams: streams.clone(),
                ticks,
            })
        })
    })
}

fn crash_plan(m: usize) -> impl Strategy<Value = FaultPlan> {
    let windows = (1usize..=3).prop_flat_map(move |n| {
        let window =
            (0u32..m as u32, 0.0f64..30.0, 0.1f64..10.0).prop_map(|(s, from, len)| CrashWindow {
                server: ServerId(s),
                from,
                to: from + len,
            });
        proptest::collection::vec(window, n)
    });
    (
        windows,
        0u64..=u64::MAX,
        prop_oneof![Just(0.0f64), 0.05f64..0.4],
        0u32..=3,
    )
        .prop_map(|(crashes, seed, fail_prob, retries)| {
            FaultPlan::new(crashes, seed, fail_prob, retries, 0.0)
        })
}

/// Serves the merged stream through an engine and returns, per item, the
/// action sequence and the finish report.
fn serve(
    w: &Workload,
    plan: Option<&FaultPlan>,
) -> Vec<(Vec<ServeAction>, mcc_serve::engine::ItemReport)> {
    let mut cfg = ServeConfig::new(w.servers, w.cost);
    if let Some(p) = plan {
        cfg = cfg.with_plan(p.clone());
    }
    let mut engine = ServeEngine::new(cfg, factory(SpeculativeCaching::paper()));
    let mut actions: Vec<Vec<ServeAction>> = vec![Vec::new(); w.streams.len()];
    let events = w.merged();
    for (i, &(item, server, t)) in events.iter().enumerate() {
        match engine.observe(item, server, t) {
            ServeReply::Decision(d) => actions[item as usize].push(d.action),
            ServeReply::Shed { reason, .. } => {
                panic!("unexpected shed ({reason:?}) for item {item} at t={t}")
            }
        }
        if let Some(Some(frac)) = w.ticks.get(i) {
            let tick_t = match events.get(i + 1) {
                Some(&(_, _, next_t)) => t + frac * (next_t - t),
                None => t + frac * 10.0,
            };
            engine.tick(tick_t);
        }
    }
    let reports = engine.finish_all();
    assert_eq!(reports.len(), w.streams.len());
    actions
        .into_iter()
        .zip(reports)
        .map(|(a, r)| {
            assert_eq!(a.len() as u64, r.requests);
            (a, r)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Fault-free: serving ≡ batch replay, bit for bit, per item —
    /// actions, total/caching/transfer cost, transfers, hits — no matter
    /// how the items interleave or when timer sweeps run.
    #[test]
    fn served_stream_matches_batch_replay(w in workload()) {
        let served = serve(&w, None);
        for (k, (actions, report)) in served.iter().enumerate() {
            let inst = w.instance(k);
            // Action-level reference (materializing runner).
            let run = run_policy(&mut SpeculativeCaching::paper(), &inst);
            prop_assert_eq!(actions, &run.actions, "item {} actions diverged", k);
            // Cost-level reference (the production batch pipeline).
            let mut rt = Runtime::new(inst.servers());
            let (stats, _rec) =
                run_policy_record(&mut SpeculativeCaching::paper(), &inst, &mut rt);
            prop_assert_eq!(report.online_cost, stats.total_cost, "item {} cost", k);
            prop_assert_eq!(report.caching_cost, stats.caching_cost);
            prop_assert_eq!(report.transfer_cost, stats.transfer_cost);
            prop_assert_eq!(report.transfers as usize, stats.transfers);
            prop_assert_eq!(report.cache_hits as usize, stats.cache_hits);
            prop_assert_eq!(report.deferred, 0);
        }
    }

    /// Under an injected crash/recovery plan: serving ≡ batch replay
    /// including the wrapper's surcharge fold (retries, replays, reseeds,
    /// brownouts) — the daemon prices degradation exactly like `mcc run`.
    #[test]
    fn served_stream_matches_batch_replay_under_faults(
        (w, plan) in workload().prop_flat_map(|w| {
            let m = w.servers;
            (Just(w), crash_plan(m))
        })
    ) {
        let served = serve(&w, Some(&plan));
        for (k, (actions, report)) in served.iter().enumerate() {
            let inst = w.instance(k);
            // The batch reference: the exact `seed_faulty_body` sequence.
            let mut wrapped =
                FaultTolerant::new(SpeculativeCaching::paper(), plan.clone());
            let mut rt = Runtime::new(inst.servers());
            let mut batch_actions = Vec::with_capacity(inst.n());
            wrapped.reset(inst.servers(), inst.cost());
            rt.reset(inst.servers());
            let (mut hits, mut deferred) = (0usize, 0usize);
            for i in 1..=inst.n() {
                let req = Request::new(inst.server(i), inst.t(i));
                let action = wrapped.observe(req, &mut rt).action;
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
            wrapped.stats_mut().brownout_cost = sur;
            let f = wrapped.stats();
            let total = stats.total_cost + sur + f.retry_cost + f.replay_cost + f.reseed_cost;

            prop_assert_eq!(actions, &batch_actions, "item {} actions diverged", k);
            prop_assert_eq!(report.online_cost, total, "item {} folded cost", k);
            prop_assert_eq!(report.deferred as usize, deferred);
            prop_assert_eq!(report.cache_hits as usize, hits);
            prop_assert_eq!(report.transfers as usize, stats.transfers);
        }
    }
}

/// Deterministic pin of the crash/recovery path: a two-server outage
/// defers the requests inside the window in both worlds, and the folded
/// costs still agree to the bit.
#[test]
fn crash_recovery_equivalence_pinned_case() {
    let cost = CostModel::new(1.0, 1.0).expect("unit cost");
    let w = Workload {
        servers: 2,
        cost,
        streams: vec![vec![(1, 0.5), (1, 1.2), (0, 1.5), (1, 2.6), (0, 3.4)]],
        ticks: vec![None, Some(0.1), None, Some(0.9), Some(0.5)],
    };
    let plan = FaultPlan::new(
        vec![
            CrashWindow {
                server: ServerId(0),
                from: 1.0,
                to: 2.0,
            },
            CrashWindow {
                server: ServerId(1),
                from: 1.0,
                to: 2.0,
            },
        ],
        7,
        0.0,
        0,
        0.0,
    );
    let served = serve(&w, Some(&plan));
    assert_eq!(served.len(), 1);
    let (actions, report) = &served[0];
    // The two mid-outage requests are deferred in the served world...
    assert_eq!(
        actions
            .iter()
            .filter(|a| matches!(a, ServeAction::Deferred))
            .count(),
        2
    );
    // ...and in the batch world, with the identical folded cost.
    let inst = w.instance(0);
    let mut wrapped = FaultTolerant::new(SpeculativeCaching::paper(), plan);
    let mut rt = Runtime::new(inst.servers());
    let (stats, rec) = run_policy_record(&mut wrapped, &inst, &mut rt);
    let sur = brownout_surcharge(wrapped.plan(), rec, inst.cost());
    wrapped.stats_mut().brownout_cost = sur;
    let f = wrapped.stats();
    let total = stats.total_cost + sur + f.retry_cost + f.replay_cost + f.reseed_cost;
    assert_eq!(stats.deferred, 2);
    assert_eq!(report.online_cost, total);
    assert_eq!(report.deferred, 2);
}
