//! [`Runtime::settle`] folds records early without changing a single bit:
//! a run whose records are folded as they settle (at random points), with
//! the rest folded after [`Runtime::finalize`], must give the same
//! [`RunStats`] and the same brownout surcharge as [`stats_from_record`]
//! and [`brownout_surcharge`] over the whole record of the same run — on
//! `f64` and on [`Fixed`].
//!
//! The runs are raw operation scripts, not policy runs, so they reach
//! shapes a policy rarely produces: many copies opening at one instant,
//! zero-length copies, copies closing long after they were last touched,
//! total outages re-materialized by `reseed`, and a copy that stays open
//! while every other record closes behind it.

use mcc_core::online::{
    brownout_surcharge, stats_from_record, BrownoutFold, BrownoutWindow, CopyRecord, FaultPlan,
    RecordFold, RunFold, RunStats, Runtime, TransferRecord,
};
use mcc_model::{CostModel, Fixed, Scalar, ServerId};
use proptest::prelude::*;

/// One scripted operation: `kind` picks the operation, `a`/`b` pick
/// servers, `dt` advances the clock (zero in about a third of the steps,
/// so many operations share one instant), `tail` is the gap between a
/// closed copy's last touch and its close, and `settle` calls
/// [`Runtime::settle`] after the operation.
#[derive(Copy, Clone, Debug)]
struct Op {
    kind: u32,
    a: u32,
    b: u32,
    dt: f64,
    tail: f64,
    settle: bool,
}

#[derive(Clone, Debug)]
struct Script {
    servers: usize,
    mu: f64,
    lambda: f64,
    brownouts: Vec<BrownoutWindow>,
    ops: Vec<Op>,
}

fn op() -> impl Strategy<Value = Op> {
    (
        0u32..10,
        0u32..64,
        0u32..64,
        prop_oneof![Just(0.0f64), 0.01f64..1.5],
        prop_oneof![Just(0.0f64), 0.01f64..2.0],
        prop_oneof![Just(true), Just(false)],
    )
        .prop_map(|(kind, a, b, dt, tail, settle)| Op {
            kind,
            a,
            b,
            dt,
            tail,
            settle,
        })
}

fn script() -> impl Strategy<Value = Script> {
    (1usize..=5, 0usize..=80, 0usize..=4).prop_flat_map(|(m, n, w)| {
        let window = (0u32..m as u32, 0.0f64..40.0, 0.1f64..15.0, 1.1f64..4.0).prop_map(
            |(s, from, len, factor)| BrownoutWindow {
                server: ServerId(s),
                from,
                to: from + len,
                factor,
            },
        );
        (
            Just(m),
            0.2f64..3.0,
            0.2f64..3.0,
            proptest::collection::vec(window, w),
            proptest::collection::vec(op(), n),
        )
            .prop_map(|(servers, mu, lambda, brownouts, ops)| Script {
                servers,
                mu,
                lambda,
                brownouts,
                ops,
            })
    })
}

/// Drives `rt` through the script; `settle` is called after each
/// operation whose flag is set.
fn drive<S: Scalar>(s: &Script, rt: &mut Runtime<S>, mut settle: impl FnMut(&mut Runtime<S>)) {
    let m = s.servers;
    let mut t = 0.0f64;
    for op in &s.ops {
        t += op.dt;
        let at = S::from_f64(t);
        let open: Vec<ServerId> = (0..m)
            .map(ServerId::from_index)
            .filter(|&id| rt.is_open(id))
            .collect();
        let closed: Vec<ServerId> = (0..m)
            .map(ServerId::from_index)
            .filter(|&id| !rt.is_open(id))
            .collect();
        if open.is_empty() {
            rt.reseed(closed[op.a as usize % closed.len()], at);
        } else {
            let src = open[op.a as usize % open.len()];
            match op.kind {
                0..=3 if !closed.is_empty() => {
                    rt.transfer(src, closed[op.b as usize % closed.len()], at);
                }
                4..=6 => {
                    // Close at or after the last touch: a zero tail, or a
                    // speculative tail that may reach past `now`.
                    let last = rt.last_touch(src).unwrap_or(at);
                    rt.close(src, last + S::from_f64(op.tail));
                }
                7 => rt.begin_epoch(at),
                _ => rt.touch(src, at),
            }
        }
        if op.settle {
            settle(rt);
        }
    }
}

fn close_at<S: Scalar>(server: ServerId, last: S) -> S {
    last + S::from_f64(0.25 * server.index() as f64)
}

/// The batch reference and the settled fold, side by side.
fn both<S: Scalar>(s: &Script) -> ((RunStats<S>, f64), (RunStats<S>, f64)) {
    let cost = CostModel::new(S::from_f64(s.mu), S::from_f64(s.lambda)).expect("valid cost");
    let plan = FaultPlan::none().with_brownouts(s.brownouts.clone());

    let mut whole = Runtime::<S>::new(s.servers);
    drive(s, &mut whole, |_| {});
    let rec = whole.finalize(close_at);
    let reference = (
        stats_from_record(rec, &cost, 0, 0),
        brownout_surcharge(&plan, rec, &cost),
    );

    struct Fold<'a, S> {
        cost: &'a CostModel<S>,
        plan: &'a FaultPlan,
        run: RunFold<S>,
        brownout: BrownoutFold,
    }
    impl<S: Scalar> RecordFold<S> for Fold<'_, S> {
        fn copy(&mut self, r: &CopyRecord<S>) {
            self.run.copy(r, self.cost);
            self.brownout.copy(self.plan, r, self.cost);
        }
        fn transfer(&mut self, t: &TransferRecord<S>) {
            self.run.transfer(self.cost);
            self.brownout.transfer(self.plan, t, self.cost);
        }
    }
    let mut fold = Fold {
        cost: &cost,
        plan: &plan,
        run: RunFold::default(),
        brownout: BrownoutFold::default(),
    };
    let mut settled = Runtime::<S>::new(s.servers);
    drive(s, &mut settled, |rt| rt.settle(&mut fold));
    let rest = settled.finalize(close_at);
    fold.run.record(rest, &cost);
    let folded = (
        fold.run.stats(0, 0),
        fold.brownout.finish(&plan, rest, &cost),
    );
    (reference, folded)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn settled_fold_matches_the_whole_record_f64(s in script()) {
        let ((stats, sur), (fstats, fsur)) = both::<f64>(&s);
        prop_assert_eq!(stats.caching_cost.to_bits(), fstats.caching_cost.to_bits());
        prop_assert_eq!(stats.transfer_cost.to_bits(), fstats.transfer_cost.to_bits());
        prop_assert_eq!(stats.total_cost.to_bits(), fstats.total_cost.to_bits());
        prop_assert_eq!(stats.transfers, fstats.transfers);
        prop_assert_eq!(sur.to_bits(), fsur.to_bits());
    }

    #[test]
    fn settled_fold_matches_the_whole_record_fixed(s in script()) {
        let ((stats, sur), (fstats, fsur)) = both::<Fixed>(&s);
        prop_assert_eq!(stats, fstats);
        prop_assert_eq!(sur.to_bits(), fsur.to_bits());
    }
}

/// A copy that never closes holds every record behind it: nothing
/// settles while the origin stays open. Once it closes, everything that
/// opened strictly before the clock settles; the last record opened at
/// `now` itself, where a later copy could still open on a lower server,
/// so it stays pending.
#[test]
fn an_open_copy_pins_every_later_record() {
    struct Count(usize);
    impl RecordFold<f64> for Count {
        fn copy(&mut self, _: &CopyRecord<f64>) {
            self.0 += 1;
        }
        fn transfer(&mut self, _: &TransferRecord<f64>) {}
    }
    let mut rt = Runtime::<f64>::new(2);
    let mut n = Count(0);
    for k in 1..=50 {
        let t = f64::from(k);
        rt.touch(ServerId(0), t);
        rt.transfer(ServerId(0), ServerId(1), t + 0.25);
        rt.close(ServerId(1), t + 0.5);
        rt.settle(&mut n);
    }
    assert_eq!(n.0, 0);
    assert_eq!(rt.record().records.len(), 50);
    assert!(rt.record().transfers.is_empty());
    rt.close(ServerId(0), 60.0);
    rt.settle(&mut n);
    assert_eq!(n.0, 50);
    assert_eq!(rt.record().records.len(), 1);
    assert_eq!(rt.record().records[0].from, 50.25);
}
