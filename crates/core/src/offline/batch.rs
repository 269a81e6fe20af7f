//! Batched solver kernel: throughput over many instances.
//!
//! The fleet direction of the ROADMAP turns the solver's cost model from
//! "fast per instance" into "throughput over millions of instances". A
//! [`BatchWorkspace`] stages K instances into one structure-of-arrays
//! [`PrescanBatch`] (contiguous lanes for times, shifted previous-pointers,
//! σ, marginal and running bounds) and then runs the DP over each lane with
//! a branch-free pivot window scan. Per-instance setup amortizes — one
//! buffer reservation, no CSR build, no `Option` discriminants in the hot
//! loop — while the computed tables stay **bit-identical** to
//! [`super::solve_fast_in`] / [`super::solve_naive_in`] (asserted by the
//! differential proptests):
//!
//! * the staged `b`/`B` lanes reproduce [`mcc_model::Prescan::recompute`]'s exact
//!   additions in the same order ([`PrescanBatch`] docs);
//! * the lane DP evaluates recurrences (2) and (5) with the same
//!   association and the same strict-`<` minimization as
//!   [`super::tables::run_dp_into`];
//! * the pivot window `π(i) = {k : p(k) < p(i) ≤ k < i}` is enumerated over
//!   the same ascending range as the windowed sweep, with the `Option`
//!   membership test replaced by one unsigned compare on the shifted
//!   pointer lane (`p1[k] < p1[i]`) and a predicated select instead of a
//!   branch — value-identical because the fold's strict `<` never lets the
//!   `∞` placeholder win against the always-finite Lemma 3 anchor.
//!
//! What the batch kernel *doesn't* compute is branch provenance
//! (`c_from`/`d_from`) — batch callers want costs, not reconstructions;
//! anyone needing a schedule re-solves the one interesting instance through
//! [`super::solve_fast_in`].

use mcc_model::{Instance, PrescanBatch, Scalar};
use mcc_obs::{Counter, Hist, Sink, Span};

/// Reusable storage for the batched solver: the packed SoA pre-scan plus
/// packed `C`/`D`/`e` value tables, one lane per staged instance.
///
/// Stage with [`BatchWorkspace::push`] (or [`solve_batch_in`] over a
/// slice), solve once, then read per-instance results through the lane
/// views. Buffers only grow; a warm workspace re-staged at no larger total
/// size performs **zero heap allocations** (asserted by
/// `tests/alloc_free.rs`).
///
/// ```
/// use mcc_core::offline::{solve_batch_in, solve_fast, BatchWorkspace};
/// use mcc_model::Instance;
///
/// let a = Instance::<f64>::from_compact("m=2 mu=1 lambda=1 | s2@0.5 s1@2.0").unwrap();
/// let b = Instance::<f64>::from_compact("m=3 mu=2 lambda=3 | s3@1.0 s3@1.2").unwrap();
/// let mut ws = BatchWorkspace::new();
/// solve_batch_in(&[&a, &b], &mut ws);
/// assert_eq!(ws.optimal_cost(0), solve_fast(&a).optimal_cost());
/// assert_eq!(ws.optimal_cost(1), solve_fast(&b).optimal_cost());
/// ```
pub struct BatchWorkspace<S> {
    scan: PrescanBatch<S>,
    c: Vec<S>,
    d: Vec<S>,
    e: Vec<S>,
}

impl<S: Scalar> Default for BatchWorkspace<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Scalar> BatchWorkspace<S> {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        BatchWorkspace {
            scan: PrescanBatch::new(),
            c: Vec::new(),
            d: Vec::new(),
            e: Vec::new(),
        }
    }

    /// Drops every staged instance, keeping all buffer capacity.
    pub fn clear(&mut self) {
        self.scan.clear();
    }

    /// Stages one instance into the batch (no solve yet).
    pub fn push(&mut self, inst: &Instance<S>) {
        self.scan.push(inst);
    }

    /// Number of staged instances `K`.
    #[inline]
    pub fn len(&self) -> usize {
        self.scan.len()
    }

    /// `true` when no instance is staged.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.scan.is_empty()
    }

    /// Requests `n_k` of staged instance `k`.
    #[inline]
    pub fn n_of(&self, k: usize) -> usize {
        self.scan.n_of(k)
    }

    /// The packed SoA pre-scan of the staged batch.
    pub fn prescan(&self) -> &PrescanBatch<S> {
        &self.scan
    }

    /// Instance `k`'s solved `C` table (`C(0)..=C(n_k)`).
    #[inline]
    pub fn c(&self, k: usize) -> &[S] {
        &self.c[self.scan.lane(k)]
    }

    /// Instance `k`'s solved `D` table (`D(0)..=D(n_k)`).
    #[inline]
    pub fn d(&self, k: usize) -> &[S] {
        &self.d[self.scan.lane(k)]
    }

    /// Instance `k`'s optimal total service cost `C(n_k)`.
    #[inline]
    pub fn optimal_cost(&self, k: usize) -> S {
        self.c[self.scan.lane(k).end - 1]
    }

    /// Solves every staged lane (no observability).
    pub fn solve(&mut self) {
        self.solve_obs(mcc_obs::noop());
    }

    /// Solves every staged lane, reporting the batch dispatch, the lane
    /// count and the kernel wall time to `sink`. Against the no-op sink no
    /// clock is read; the sink never changes what is computed.
    pub fn solve_obs(&mut self, sink: &dyn Sink) {
        sink.add(Counter::SolveBatchDispatches, 1);
        sink.add(Counter::SolveBatchInstances, self.len() as u64);
        let _dp = Span::with_hist(sink, Counter::SolveBatchDpNanos, Hist::BatchSolveNanos);
        // Size the value tables to the packed total. No clearing: every
        // cell in every lane is overwritten by `dp_lane`.
        let total = self.scan.t.len();
        grow_or_truncate(&mut self.c, total);
        grow_or_truncate(&mut self.d, total);
        grow_or_truncate(&mut self.e, total);
        for k in 0..self.scan.len() {
            let lane = self.scan.lane(k);
            dp_lane(
                self.scan.mu_of(k),
                self.scan.lambda_of(k),
                &self.scan.t[lane.clone()],
                &self.scan.p1[lane.clone()],
                &self.scan.sigma[lane.clone()],
                &self.scan.big_b[lane.clone()],
                &mut self.c[lane.clone()],
                &mut self.d[lane.clone()],
                &mut self.e[lane],
            );
        }
    }
}

fn grow_or_truncate<S: Scalar>(buf: &mut Vec<S>, need: usize) {
    if buf.len() < need {
        buf.resize(need, S::ZERO);
    } else {
        buf.truncate(need);
    }
}

/// The per-lane DP pass: recurrences (2) and (5) over one packed lane,
/// using the windowed pivot enumeration with a branch-free membership
/// select. All slices have length `n + 1`; `c`/`d`/`e` are outputs.
///
/// Bit-identity with [`super::tables::run_dp_into`] hangs on three details:
/// the additive association `(μσ_i + B_{i−1}) + best_e` matches, the window
/// fold uses the same strict `<` over the same ascending `k` range, and
/// `via_transfer` performs the identical `μ·(t_i − t_{i−1})` single
/// multiplication (never `μt_i − μt_{i−1}`; see the `Scalar` exactness
/// contract).
#[allow(clippy::too_many_arguments)]
fn dp_lane<S: Scalar>(
    mu: S,
    lambda: S,
    t: &[S],
    p1: &[u32],
    sigma: &[S],
    big_b: &[S],
    c: &mut [S],
    d: &mut [S],
    e: &mut [S],
) {
    let n = t.len() - 1;
    c[0] = S::ZERO;
    d[0] = S::INFINITY;
    e[0] = S::INFINITY;
    for i in 1..=n {
        let p1i = p1[i];
        let di = if p1i == 0 {
            S::INFINITY
        } else {
            let p_i = (p1i - 1) as usize;
            let hold = mu.mul(sigma[i]);
            // Minimize in B-excess space (as the scalar DP does). The fold
            // runs over four independent accumulators: a single seeded
            // `min` chain is a loop-carried compare+select dependency
            // (~4 cycles/pivot, the whole kernel's critical path at large
            // m), while four lanes overlap and let the backend vectorize.
            // Unlike the additive bounds, `min` is exactly associative and
            // commutative for the values here (finite or the one ∞
            // placeholder, never NaN), so regrouping changes no output bit.
            // The Lemma 3 anchor is always finite, so folding it in last —
            // with the same strict `<` — still never lets ∞ win.
            let anchor = c[p_i] - big_b[p_i];
            let lo = p_i.max(1);
            let win_p = &p1[lo..i];
            let win_e = &e[lo..i];
            let mut acc = [S::INFINITY; 4];
            let mut chunks_p = win_p.chunks_exact(4);
            let mut chunks_e = win_e.chunks_exact(4);
            for (cp, ce) in (&mut chunks_p).zip(&mut chunks_e) {
                for j in 0..4 {
                    // Load before selecting: with the load hoisted out of
                    // the arm, the select is register-to-register and the
                    // backend predicates it instead of emitting a
                    // data-dependent (unpredictable) branch.
                    let ek = ce[j];
                    let cand = if cp[j] < p1i { ek } else { S::INFINITY };
                    acc[j] = if cand < acc[j] { cand } else { acc[j] };
                }
            }
            for (&pk, &ek) in chunks_p.remainder().iter().zip(chunks_e.remainder()) {
                let cand = if pk < p1i { ek } else { S::INFINITY };
                acc[0] = if cand < acc[0] { cand } else { acc[0] };
            }
            let m01 = if acc[1] < acc[0] { acc[1] } else { acc[0] };
            let m23 = if acc[3] < acc[2] { acc[3] } else { acc[2] };
            let wmin = if m23 < m01 { m23 } else { m01 };
            let best_e = if wmin < anchor { wmin } else { anchor };
            hold + big_b[i - 1] + best_e
        };
        d[i] = di;
        e[i] = di - big_b[i];
        // Recurrence (2), preferring the cache branch on ties exactly as
        // the scalar DP does.
        let via_transfer = c[i - 1] + mu.mul(t[i] - t[i - 1]) + lambda;
        c[i] = if di <= via_transfer { di } else { via_transfer };
    }
}

/// Stages `insts` into the workspace and solves them all in one batched
/// pass. Returns the workspace for lane reads ([`BatchWorkspace::c`],
/// [`BatchWorkspace::optimal_cost`], …). Zero heap allocations once the
/// workspace is warm at this total size.
pub fn solve_batch_in<'w, S: Scalar>(
    insts: &[&Instance<S>],
    ws: &'w mut BatchWorkspace<S>,
) -> &'w BatchWorkspace<S> {
    ws.clear();
    for inst in insts {
        ws.push(inst);
    }
    ws.solve();
    ws
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::solve_fast;

    fn fig6() -> Instance<f64> {
        Instance::from_compact(
            "m=4 mu=1 lambda=1 | s2@0.5 s3@0.8 s4@1.1 s1@1.4 s2@2.6 s2@3.2 s3@4.0",
        )
        .unwrap()
    }

    #[test]
    fn batch_matches_scalar_tables_on_fig6() {
        let inst = fig6();
        let scalar = solve_fast(&inst);
        let mut ws = BatchWorkspace::new();
        solve_batch_in(&[&inst], &mut ws);
        assert_eq!(ws.c(0), &scalar.c[..]);
        for i in 0..=inst.n() {
            let (bd, sd) = (ws.d(0)[i], scalar.d[i]);
            assert!(bd == sd || (!bd.is_finite() && !sd.is_finite()), "D({i})");
        }
        assert!((ws.optimal_cost(0) - 8.9).abs() < 1e-9);
    }

    #[test]
    fn mixed_batch_solves_each_lane_independently() {
        let a = fig6();
        let b = Instance::<f64>::from_compact("m=2 mu=10 lambda=1 | s2@1.0 s1@2.0 s2@3.0").unwrap();
        let empty = Instance::<f64>::from_compact("m=2 mu=1 lambda=1 |").unwrap();
        let single = Instance::<f64>::from_compact("m=2 mu=1 lambda=1 | s2@0.5").unwrap();
        let mut ws = BatchWorkspace::new();
        solve_batch_in(&[&a, &b, &empty, &single], &mut ws);
        assert_eq!(ws.len(), 4);
        for (k, inst) in [&a, &b, &empty, &single].iter().enumerate() {
            assert_eq!(
                ws.optimal_cost(k),
                solve_fast(inst).optimal_cost(),
                "lane {k}"
            );
        }
        assert_eq!(ws.optimal_cost(2), 0.0);
        assert_eq!(ws.optimal_cost(3), 1.5);
    }

    #[test]
    fn workspace_reuse_leaks_no_state_across_batches() {
        let big = fig6();
        let small = Instance::<f64>::from_compact("m=2 mu=1 lambda=1 | s2@0.5 s1@1.0").unwrap();
        let mut ws = BatchWorkspace::new();
        solve_batch_in(&[&big, &big, &big], &mut ws);
        // Smaller re-stage over dirty buffers must match a fresh solve.
        solve_batch_in(&[&small], &mut ws);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws.optimal_cost(0), solve_fast(&small).optimal_cost());
        // And growing again is fine too.
        solve_batch_in(&[&small, &big], &mut ws);
        assert_eq!(ws.optimal_cost(1), solve_fast(&big).optimal_cost());
    }

    #[test]
    fn solve_obs_reports_batch_metrics() {
        use mcc_obs::Registry;
        let reg = Registry::new();
        let inst = fig6();
        let mut ws = BatchWorkspace::new();
        ws.push(&inst);
        ws.push(&inst);
        ws.solve_obs(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter(Counter::SolveBatchDispatches), 1);
        assert_eq!(snap.counter(Counter::SolveBatchInstances), 2);
        assert_eq!(snap.hist(Hist::BatchSolveNanos).count, 1);
        assert!(snap.counter(Counter::SolveBatchDpNanos) > 0);
    }
}
