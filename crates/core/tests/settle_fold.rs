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
//! total outages re-materialized by `reseed`, reseeds beside live copies,
//! and a copy that stays open while every other record closes behind it.
//!
//! The same scripts check the record layout itself: the runtime gives
//! each copy its record slot when it opens and orders only same-instant
//! runs, so after [`Runtime::finalize`] (and across [`Runtime::settle`]
//! calls) the records must be exactly the close-order log of the script
//! sorted by the full canonical comparator.

use mcc_core::online::{
    brownout_surcharge, stats_from_record, BrownoutFold, BrownoutWindow, CopyRecord, FaultPlan,
    RecordFold, RunFold, RunStats, Runtime, TransferRecord,
};
use mcc_model::{CostModel, Fixed, Scalar, ServerId};
use proptest::prelude::*;
use std::cmp::Ordering;

/// One scripted operation: `kind` picks the operation (transfer, close,
/// new epoch, reseed of a closed server, or touch), `a`/`b` pick
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

/// The script's copies as a log kept apart from the runtime: the closed
/// ones in close order, and per server the open one's `from` and last
/// touch.
struct Shadow<S> {
    open: Vec<Option<(S, S)>>,
    log: Vec<CopyRecord<S>>,
}

impl<S: Scalar> Shadow<S> {
    fn close(&mut self, server: ServerId, to: S) {
        let (from, last_touch) = self.open[server.index()].take().expect("open");
        self.log.push(CopyRecord {
            server,
            from,
            last_touch,
            to,
        });
    }

    /// Closes what is still open the way [`Runtime::finalize`] does.
    fn finish(mut self, close_at: impl Fn(ServerId, S) -> S) -> Vec<CopyRecord<S>> {
        for idx in 0..self.open.len() {
            if let Some((_, last)) = self.open[idx] {
                let server = ServerId::from_index(idx);
                self.close(server, close_at(server, last).max2(last));
            }
        }
        self.log
    }
}

/// Drives `rt` through the script; `settle` is called after each
/// operation whose flag is set. Returns the script's copies as a
/// [`Shadow`] log.
fn drive<S: Scalar>(
    s: &Script,
    rt: &mut Runtime<S>,
    mut settle: impl FnMut(&mut Runtime<S>),
) -> Shadow<S> {
    let m = s.servers;
    let mut shadow = Shadow {
        open: vec![None; m],
        log: Vec::new(),
    };
    shadow.open[0] = Some((S::ZERO, S::ZERO));
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
        if open.is_empty() || (op.kind == 9 && !closed.is_empty()) {
            let dst = closed[op.a as usize % closed.len()];
            rt.reseed(dst, at);
            shadow.open[dst.index()] = Some((at, at));
        } else {
            let src = open[op.a as usize % open.len()];
            match op.kind {
                0..=3 if !closed.is_empty() => {
                    let dst = closed[op.b as usize % closed.len()];
                    rt.transfer(src, dst, at);
                    shadow.open[src.index()].as_mut().expect("open").1 = at;
                    shadow.open[dst.index()] = Some((at, at));
                }
                4..=6 => {
                    // Close at or after the last touch: a zero tail (at
                    // the opening instant, for a copy never touched), or
                    // a speculative tail that may reach past `now`.
                    let last = rt.last_touch(src).unwrap_or(at);
                    let to = last + S::from_f64(op.tail);
                    rt.close(src, to);
                    shadow.close(src, to);
                }
                7 => rt.begin_epoch(at),
                _ => {
                    rt.touch(src, at);
                    shadow.open[src.index()].as_mut().expect("open").1 = at;
                }
            }
        }
        if op.settle {
            settle(rt);
        }
    }
    shadow
}

fn close_at<S: Scalar>(server: ServerId, last: S) -> S {
    last + S::from_f64(0.25 * server.index() as f64)
}

/// The batch reference and the settled fold, side by side.
fn both<S: Scalar>(s: &Script) -> ((RunStats<S>, f64), (RunStats<S>, f64)) {
    let cost = CostModel::new(S::from_f64(s.mu), S::from_f64(s.lambda)).expect("valid cost");
    let plan = FaultPlan::none().with_brownouts(s.brownouts.clone());

    let mut whole = Runtime::<S>::new(s.servers);
    let _ = drive(s, &mut whole, |_| {});
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
    let _ = drive(s, &mut settled, |rt| rt.settle(&mut fold));
    let rest = settled.finalize(close_at);
    fold.run.record(rest, &cost);
    let folded = (
        fold.run.stats(0, 0),
        fold.brownout.finish(&plan, rest, &cost),
    );
    (reference, folded)
}

/// The canonical record order, `(from, server, to, last_touch)`, as a
/// full comparator: the order a complete sort of the records gives.
fn canonical<S: Scalar>(a: &CopyRecord<S>, b: &CopyRecord<S>) -> Ordering {
    a.from
        .partial_cmp(&b.from)
        .expect("no NaN times")
        .then(a.server.cmp(&b.server))
        .then(a.to.partial_cmp(&b.to).expect("no NaN times"))
        .then(
            a.last_touch
                .partial_cmp(&b.last_touch)
                .expect("no NaN times"),
        )
}

/// A record's bits, so `-0.0` and `0.0` (or two `Fixed` values with one
/// `f64` image) cannot pass for each other.
fn bits<S: Scalar>(records: &[CopyRecord<S>]) -> Vec<(u32, u64, u64, u64)> {
    records
        .iter()
        .map(|r| {
            (
                r.server.0,
                r.from.to_f64().to_bits(),
                r.last_touch.to_f64().to_bits(),
                r.to.to_f64().to_bits(),
            )
        })
        .collect()
}

/// The finalized record, and the settled copies followed by the
/// finalized tail, both equal the script's close-order log sorted by
/// [`canonical`].
fn layout<S: Scalar>(s: &Script) -> Result<(), TestCaseError> {
    let mut whole = Runtime::<S>::new(s.servers);
    let mut expect = drive(s, &mut whole, |_| {}).finish(close_at);
    expect.sort_unstable_by(canonical);
    let expect = bits(&expect);
    prop_assert_eq!(bits(&whole.finalize(close_at).records), expect.clone());

    struct Collect<S>(Vec<CopyRecord<S>>);
    impl<S: Copy> RecordFold<S> for Collect<S> {
        fn copy(&mut self, r: &CopyRecord<S>) {
            self.0.push(*r);
        }
        fn transfer(&mut self, _: &TransferRecord<S>) {}
    }
    let mut folded = Collect(Vec::new());
    let mut settled = Runtime::<S>::new(s.servers);
    let _ = drive(s, &mut settled, |rt| rt.settle(&mut folded));
    folded
        .0
        .extend_from_slice(&settled.finalize(close_at).records);
    prop_assert_eq!(bits(&folded.0), expect);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn records_land_in_canonical_order_f64(s in script()) {
        layout::<f64>(&s)?;
    }

    #[test]
    fn records_land_in_canonical_order_fixed(s in script()) {
        layout::<Fixed>(&s)?;
    }

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
/// settles while the origin stays open, and the record holds the origin's
/// open slot plus the 50 copies closed behind it. Once it closes,
/// everything that opened strictly before the clock settles; the last
/// record opened at `now` itself, where a later copy could still open on
/// a lower server, so it stays pending.
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
    assert_eq!(rt.record().records.len(), 51);
    assert!(rt.record().transfers.is_empty());
    rt.close(ServerId(0), 60.0);
    rt.settle(&mut n);
    assert_eq!(n.0, 50);
    assert_eq!(rt.record().records.len(), 1);
    assert_eq!(rt.record().records[0].from, 50.25);
}
