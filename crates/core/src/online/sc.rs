//! The Speculative Caching (SC) online algorithm (Section V).
//!
//! After serving a request (or sourcing a transfer) at time `t`, a copy is
//! speculatively kept alive until `t + Δt` with `Δt = λ/μ` — the break-even
//! point where keeping the copy has cost exactly one transfer. Copies whose
//! window lapses are deleted, with two carve-outs from the paper's
//! expiration rules:
//!
//! * the *last* live copy is never deleted (its window keeps extending by
//!   `Δt`), preserving the ≥ 1-copy invariant;
//! * when the two copies refreshed by one transfer lapse simultaneously and
//!   they are the only copies left, the *source* is deleted and the
//!   *target* survives (the paper's tie-break).
//!
//! A miss is served by a transfer from the server of the previous request —
//! which the expiration rules guarantee still holds a live copy (Observation
//! 4). Optionally the algorithm runs in epochs of `N` transfers: at the end
//! of an epoch every copy except the most recent transfer target is
//! deleted and counters reset.
//!
//! The speculative window is generalized to `α·Δt` (`window_multiplier`);
//! the paper's algorithm is `α = 1`, and the E8 ablation sweeps `α`.
//!
//! When the sequence ends, every live copy is closed at `last_touch + αΔt`
//! (it runs out its current window; the open-ended "extend forever" rule is
//! truncated there, which is the reading under which every speculative tail
//! `ω ≤ αλ`, as Definition 10 requires for `α = 1`).
//!
//! # State layout and cost
//!
//! The believed live copies sit in one compact, unordered list of
//! `(expiry, server, role)` entries, and a per-server column holds each
//! server's position in that list (`u32::MAX`: no copy). A drop
//! swap-removes its entry and re-points the moved one. The hit check is
//! one column read; the earliest expiry, the copies lapsing at it, the
//! miss fallback and [`OnlineDecider::next_expiry`] scan the list only.
//! A request therefore costs O(live copies), not O(m): at the benchmark
//! shapes (one request per `Δt`) a handful of copies are live whatever
//! the server count, and the worst case, every server holding a copy, is
//! the O(m) of a per-server scan. Wherever the order of closes or of
//! window draws is observable — copies lapsing at one instant, an epoch
//! reset, the miss fallback's tie — servers are taken in ascending
//! order, so runs are bit-identical to a per-server scan.

use mcc_model::{CostModel, Request, Scalar, ServerId};

use super::decider::{Decision, OnlineDecider, ServeAction};
use super::tracker::CopyOps;

/// Last-refresh role of a live copy, used by the pair tie-break.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Role {
    /// Refreshed by serving a request or sourcing a transfer.
    Used,
    /// Created (or last refreshed) as the target of a transfer.
    Target,
}

/// One believed live copy. The role lives here rather than in a
/// per-server column: it is written whenever a copy becomes live (a serve
/// or either end of a transfer), so a dead server's role is never read.
#[derive(Copy, Clone, Debug)]
struct LiveCopy<S> {
    expiry: S,
    server: ServerId,
    role: Role,
}

/// The position-column value of a server without a believed copy.
const NO_COPY: u32 = u32::MAX;

/// How refresh windows are chosen.
#[derive(Copy, Clone, Debug, PartialEq)]
enum WindowMode {
    /// The paper's deterministic window `α·Δt`.
    Fixed,
    /// Randomized ski-rental: each refresh draws its window from the
    /// classical density `f(x) ∝ e^{x/Δt}` on `[0, αΔt]` (inverse-CDF
    /// sampling from an embedded xorshift64* generator, so runs stay
    /// reproducible without an RNG dependency). No competitive guarantee
    /// is proven for this variant in the caching setting; it exists for
    /// the E8 ablation.
    Randomized {
        /// xorshift64* state.
        state: u64,
    },
}

/// The Speculative Caching policy.
#[derive(Clone, Debug)]
pub struct SpeculativeCaching<S> {
    /// `α`: the speculative window is `α·λ/μ`. Must be `> 0`.
    window_multiplier: f64,
    /// Reset the copy set after this many transfers (`None`: single epoch).
    epoch_size: Option<usize>,
    /// Window selection mode.
    mode: WindowMode,
    // --- per-run state ---
    window: S,
    /// The believed live copies, unordered (see the module docs).
    copies: Vec<LiveCopy<S>>,
    /// Per server: its entry's index in `copies`, or [`NO_COPY`].
    slot: Vec<u32>,
    prev_server: ServerId,
    transfers_in_epoch: usize,
    /// Scratch for the servers closed together (the copies lapsing at
    /// one expiry event, or an epoch reset's), sorted ascending. A field
    /// so the per-request path performs no heap allocation in steady
    /// state.
    closing: Vec<ServerId>,
}

impl<S: Scalar> SpeculativeCaching<S> {
    /// The paper's algorithm: `Δt = λ/μ`, single epoch.
    ///
    /// ```
    /// use mcc_core::offline::optimal_cost;
    /// use mcc_core::online::{run_policy, SpeculativeCaching};
    /// use mcc_model::Instance;
    ///
    /// let inst = Instance::<f64>::from_compact(
    ///     "m=3 mu=1 lambda=1 | s2@0.5 s2@0.9 s3@1.4 s1@3.0",
    /// )
    /// .unwrap();
    /// let run = run_policy(&mut SpeculativeCaching::paper(), &inst);
    /// // Theorem 3 (with the additive-λ correction): Π(SC) ≤ 3·Π(OPT) + λ.
    /// assert!(run.total_cost <= 3.0 * optimal_cost(&inst) + 1.0);
    /// ```
    pub fn paper() -> Self {
        Self::with_options(1.0, None)
    }

    /// The paper's algorithm with epochs of `n` transfers.
    pub fn with_epochs(n: usize) -> Self {
        Self::with_options(1.0, Some(n))
    }

    /// Fully parameterized: window `α·λ/μ` and optional epoch size.
    ///
    /// # Panics
    ///
    /// Panics if `alpha ≤ 0` (use the `Follow` baseline for "no
    /// speculation") or `epoch_size == Some(0)`.
    pub fn with_options(alpha: f64, epoch_size: Option<usize>) -> Self {
        assert!(
            alpha > 0.0,
            "speculative window multiplier must be positive"
        );
        assert!(
            epoch_size != Some(0),
            "epoch size must be at least one transfer"
        );
        SpeculativeCaching {
            window_multiplier: alpha,
            epoch_size,
            mode: WindowMode::Fixed,
            window: S::ZERO,
            copies: Vec::new(),
            slot: Vec::new(),
            prev_server: ServerId::ORIGIN,
            transfers_in_epoch: 0,
            closing: Vec::new(),
        }
    }

    /// Randomized ski-rental variant: each refresh draws its window from
    /// the classical `f(x) ∝ e^{x/Δt}` density on `[0, αΔt]`; `seed`
    /// makes runs reproducible. Experimental — no proven ratio here.
    pub fn randomized(alpha: f64, seed: u64) -> Self {
        let mut sc = Self::with_options(alpha, None);
        sc.mode = WindowMode::Randomized { state: seed.max(1) };
        sc
    }

    /// The configured window multiplier `α`.
    pub fn alpha(&self) -> f64 {
        self.window_multiplier
    }

    /// The window for the next refresh (fixed, or freshly sampled).
    fn next_window(&mut self) -> S {
        match &mut self.mode {
            WindowMode::Fixed => self.window,
            WindowMode::Randomized { state } => {
                // xorshift64*.
                let mut x = *state;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                *state = x;
                let u = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
                // Inverse CDF of f(x) = e^{x/w} / (w(e − 1)) on [0, w]:
                // x = w·ln(1 + u(e − 1)).
                let frac = (1.0 + u * (std::f64::consts::E - 1.0)).ln().max(0.01);
                S::from_f64(frac).mul(self.window)
            }
        }
    }

    /// Whether `server` holds a believed live copy.
    #[inline]
    fn is_live(&self, server: ServerId) -> bool {
        self.slot[server.index()] != NO_COPY
    }

    /// The index in `copies` of `server`'s believed copy (which must
    /// exist).
    #[inline]
    fn pos(&self, server: ServerId) -> usize {
        self.slot[server.index()] as usize
    }

    /// Sets `server`'s believed copy to expire at `expiry` after a
    /// refresh in `role`, making it live if it was not.
    fn refresh(&mut self, server: ServerId, expiry: S, role: Role) {
        let entry = LiveCopy {
            expiry,
            server,
            role,
        };
        match self.slot[server.index()] {
            NO_COPY => {
                self.slot[server.index()] = self.copies.len() as u32;
                self.copies.push(entry);
            }
            pos => self.copies[pos as usize] = entry,
        }
    }

    /// Processes every expiration event strictly before `until`.
    fn process_expiries(&mut self, rt: &mut dyn CopyOps<S>, until: S) {
        // The policy's *believed* copies, not `rt.live_copies()`: under
        // fault injection reality can diverge from belief (crashes destroy
        // copies, the wrapper creates repair replicas), and the expiration
        // rules must stay self-consistent with `self.copies` or believed
        // expiries go stale. Fault-free, belief == reality.
        //
        // A sole copy's window keeps extending until the next request, so
        // its believed expiry is *lazy* — left stale rather than advanced.
        // The stored value is unobservable while the copy stays sole (the
        // hit check is liveness alone, every serve refreshes it, and a
        // transfer overwrites both ends of the pair), and laziness makes
        // this sweep insensitive to *when* it runs: sweeping at an eager
        // timer-wheel deadline and sweeping lazily at the next request
        // leave bit-identical state, the property the serve-vs-replay
        // equivalence tests pin down.
        while self.copies.len() >= 2 {
            // One pass finds the earliest expiry τ strictly before `until`
            // and the (usually at most two: transfer source + target)
            // copies lapsing at it. The scratch is taken out of `self` for
            // the duration (drop_copy needs `&mut self`); `mem::take`
            // leaves an empty Vec behind, so nothing allocates.
            let mut lapsing = std::mem::take(&mut self.closing);
            lapsing.clear();
            let mut tau = until;
            for c in &self.copies {
                if c.expiry < tau {
                    tau = c.expiry;
                    lapsing.clear();
                    lapsing.push(c.server);
                } else if c.expiry == tau {
                    lapsing.push(c.server);
                }
            }
            if !(tau < until) {
                self.closing = lapsing;
                return;
            }
            debug_assert!(!lapsing.is_empty());
            lapsing.sort_unstable();
            if lapsing.len() >= 2 && lapsing.len() == self.copies.len() {
                // The last copies lapse together: keep the transfer target.
                let keep = lapsing
                    .iter()
                    .copied()
                    .find(|&j| self.copies[self.pos(j)].role == Role::Target)
                    .unwrap_or(lapsing[0]);
                for &j in &lapsing {
                    if j != keep {
                        self.drop_copy(rt, j, tau);
                    }
                }
                let w = self.next_window();
                let k = self.pos(keep);
                self.copies[k].expiry = tau + w;
            } else {
                // Fewer copies lapse than are live: delete all lapsing
                // ones, and at least one copy remains.
                for &j in &lapsing {
                    self.drop_copy(rt, j, tau);
                }
            }
            self.closing = lapsing;
        }
    }

    /// Closes `server`'s believed copy at `at`: its entry is swap-removed
    /// and the entry moved into its place re-pointed.
    fn drop_copy(&mut self, rt: &mut dyn CopyOps<S>, server: ServerId, at: S) {
        rt.close(server, at);
        let pos = std::mem::replace(&mut self.slot[server.index()], NO_COPY);
        self.copies.swap_remove(pos as usize);
        if let Some(moved) = self.copies.get(pos as usize) {
            self.slot[moved.server.index()] = pos;
        }
    }

    /// The miss fallback's source: the believed copy with the latest
    /// expiry, ties to the highest server.
    fn latest_copy(&self) -> ServerId {
        self.copies
            .iter()
            .max_by(|a, b| {
                a.expiry
                    .partial_cmp(&b.expiry)
                    .expect("finite expiries")
                    .then(a.server.cmp(&b.server))
            })
            .expect("at least one copy is always live")
            .server
    }
}

impl<S: Scalar> OnlineDecider<S> for SpeculativeCaching<S> {
    fn name(&self) -> String {
        let alpha = self.window_multiplier;
        if matches!(self.mode, WindowMode::Randomized { .. }) {
            return format!("sc-randomized(alpha={alpha})");
        }
        match self.epoch_size {
            Some(n) if alpha == 1.0 => format!("sc(epoch={n})"),
            Some(n) => format!("sc(alpha={alpha},epoch={n})"),
            None if alpha == 1.0 => "sc".into(),
            None => format!("sc(alpha={alpha})"),
        }
    }

    fn reset(&mut self, servers: usize, cost: &CostModel<S>) {
        self.window = S::from_f64(self.window_multiplier).mul(cost.delta_t());
        assert!(self.window > S::ZERO, "speculative window must be positive");
        // Clear-and-resize keeps the buffers' capacity, and the list is
        // sized for every server holding a copy, so a reused policy
        // instance resets and runs without reallocating.
        self.copies.clear();
        self.copies.reserve(servers);
        self.slot.clear();
        self.slot.resize(servers, NO_COPY);
        let w0 = self.next_window();
        self.refresh(ServerId::ORIGIN, w0, Role::Used);
        self.prev_server = ServerId::ORIGIN;
        self.transfers_in_epoch = 0;
    }

    fn observe(&mut self, req: Request<S>, rt: &mut dyn CopyOps<S>) -> Decision<S> {
        let (t, server) = (req.time, req.server);
        self.process_expiries(rt, t);
        let action = if self.is_live(server) {
            // Live local copy: serve by caching. (A sole copy's believed
            // expiry may be stale — lazily un-advanced — so it is not
            // compared against `t`; liveness is the copy's presence.)
            rt.touch(server, t);
            let w = self.next_window();
            self.refresh(server, t + w, Role::Used);
            ServeAction::Cache
        } else {
            // Miss: transfer from the previous request's server, whose copy
            // the expiration rules keep alive (Observation 4). That
            // invariant can fail under randomized windows (the transfer
            // pair's windows differ, so the previous copy may lapse alone)
            // and under fault injection (the copy crashed, or the local
            // believed-dropped copy actually survived as the last live
            // one); fall back to the copy with the latest expiry.
            let src = if self.prev_server != server && rt.is_open(self.prev_server) {
                self.prev_server
            } else {
                self.latest_copy()
            };
            rt.transfer(src, server, t);
            let w_src = self.next_window();
            self.refresh(src, t + w_src, Role::Used);
            let w_dst = self.next_window();
            self.refresh(server, t + w_dst, Role::Target);
            self.transfers_in_epoch += 1;
            if self.epoch_size == Some(self.transfers_in_epoch) {
                // Epoch complete: drop everything except the fresh target,
                // in ascending server order.
                let mut others = std::mem::take(&mut self.closing);
                others.clear();
                others.extend(
                    self.copies
                        .iter()
                        .map(|c| c.server)
                        .filter(|&j| j != server),
                );
                others.sort_unstable();
                for &j in &others {
                    self.drop_copy(rt, j, t);
                }
                self.closing = others;
                self.transfers_in_epoch = 0;
                rt.begin_epoch(t);
            }
            ServeAction::Transfer { from: src }
        };
        self.prev_server = server;
        Decision::new(req, action)
    }

    fn expire(&mut self, now: S, rt: &mut dyn CopyOps<S>) {
        self.process_expiries(rt, now);
    }

    fn next_expiry(&self) -> Option<S> {
        // The sole live copy never expires (its window extends lazily);
        // with two or more believed copies the earliest believed expiry
        // is the next TTL deadline.
        if self.copies.len() < 2 {
            return None;
        }
        self.copies.iter().map(|c| c.expiry).reduce(S::min2)
    }

    fn close_time(&self, _server: ServerId, last_touch: S, _horizon: S) -> S {
        last_touch + self.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::executor::run_policy;
    use mcc_model::Instance;

    fn run(compact: &str) -> crate::online::executor::OnlineRun<f64> {
        let inst = Instance::<f64>::from_compact(compact).unwrap();
        run_policy(&mut SpeculativeCaching::paper(), &inst)
    }

    #[test]
    fn within_window_requests_are_cache_hits() {
        // Δt = 1; consecutive same-server requests 0.5 apart all hit.
        let r = run("m=2 mu=1 lambda=1 | s1@0.5 s1@1.0 s1@1.5");
        assert_eq!(r.cache_hits(), 3);
        assert_eq!(r.transfers(), 0);
        // Copy held 0..1.5 plus a Δt tail: cost 2.5.
        assert!((r.total_cost - 2.5).abs() < 1e-9);
    }

    #[test]
    fn miss_is_served_from_previous_requests_server() {
        let r = run("m=3 mu=1 lambda=1 | s2@0.5 s3@1.0");
        assert_eq!(r.transfers(), 2);
        assert_eq!(
            r.actions,
            vec![
                ServeAction::Transfer { from: ServerId(0) },
                ServeAction::Transfer { from: ServerId(1) },
            ]
        );
    }

    #[test]
    fn sole_copy_never_dies() {
        // One server, huge gap ≫ Δt: the copy must bridge the whole gap.
        let r = run("m=1 mu=1 lambda=1 | s1@1.0 s1@50.0");
        assert_eq!(r.transfers(), 0);
        assert_eq!(r.cache_hits(), 2);
        // Held 0..50 plus tail 1.0.
        assert!((r.total_cost - 51.0).abs() < 1e-9);
    }

    #[test]
    fn lapsed_remote_copy_is_dropped_and_tail_costs_lambda() {
        // Request on s^2 at 0.5, then s^1 at 5.0. After the transfer at 0.5
        // both copies live; both lapse at 1.5; the pair tie-break keeps the
        // target s^2 (which then bridges to 5.0 as the sole copy) and the
        // source s^1 dies with a Δt tail. The request at 5.0 on s^1 is a
        // miss served from s^2.
        let r = run("m=2 mu=1 lambda=1 | s2@0.5 s1@5.0");
        assert_eq!(r.transfers(), 2);
        // Costs: origin [0, 1.5] (1.5), s^2 [0.5, 5.0] + tail (5.5), s^1
        // [5.0, 6.0] (1.0), transfers 2.0 → 10.0.
        assert!((r.total_cost - 10.0).abs() < 1e-9, "{}", r.total_cost);
    }

    #[test]
    fn pair_lapse_with_other_copies_drops_both() {
        // Three servers: transfer to s^2 at 0.2 (copies on s^1, s^2), then
        // s^3 at 0.4 (transfer from s^2; copies on all three). s^1 lapses
        // alone at 1.2 (dropped, two copies remain); s^2 and s^3 lapse
        // together at 1.4 but are the last two: target s^3 survives.
        let r = run("m=3 mu=1 lambda=1 | s2@0.2 s3@0.4 s3@9.0");
        assert_eq!(r.transfers(), 2);
        assert_eq!(r.cache_hits(), 1);
        let sched = &r.schedule;
        // s^1 closed at 1.2 (tail Δt from its touch at 0.2).
        assert!(sched
            .caches
            .iter()
            .any(|h| h.server == ServerId(0) && (h.to - 1.2).abs() < 1e-9));
        // s^2 closed at 1.4 (its expiry; it lost the tie-break).
        assert!(sched
            .caches
            .iter()
            .any(|h| h.server == ServerId(1) && (h.to - 1.4).abs() < 1e-9));
        // s^3 bridges to 9.0 and runs a final tail to 10.0.
        assert!(sched
            .caches
            .iter()
            .any(|h| h.server == ServerId(2) && (h.to - 10.0).abs() < 1e-9));
    }

    #[test]
    fn epochs_reset_the_copy_set() {
        let inst = Instance::<f64>::from_compact("m=3 mu=1 lambda=1 | s2@0.2 s3@0.4 s2@0.6 s3@0.8")
            .unwrap();
        let no_epochs = run_policy(&mut SpeculativeCaching::paper(), &inst);
        let tiny_epochs = run_policy(&mut SpeculativeCaching::with_epochs(1), &inst);
        // With epoch=1 every transfer clears the other copies, so later
        // same-server requests miss more often and more transfers happen.
        assert!(tiny_epochs.transfers() >= no_epochs.transfers());
        assert_eq!(
            tiny_epochs.record.epoch_boundaries.len(),
            tiny_epochs.transfers()
        );
    }

    #[test]
    fn alpha_scales_the_window() {
        let inst = Instance::<f64>::from_compact("m=2 mu=1 lambda=1 | s1@0.5 s1@2.0").unwrap();
        // α = 1: gap 1.5 > Δt = 1, but the sole copy bridges anyway (cache
        // hit either way); check window arithmetic via the final tail.
        let a1 = run_policy(&mut SpeculativeCaching::with_options(2.0, None), &inst);
        // Tail = αΔt = 2 after last touch at 2.0 → origin closes at 4.0.
        assert!((a1.schedule.caches[0].to - 4.0).abs() < 1e-9);
        assert_eq!(a1.policy, "sc(alpha=2)");
    }

    #[test]
    fn name_reflects_options() {
        assert_eq!(SpeculativeCaching::<f64>::paper().name(), "sc");
        assert_eq!(
            SpeculativeCaching::<f64>::with_epochs(5).name(),
            "sc(epoch=5)"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_alpha_is_rejected() {
        SpeculativeCaching::<f64>::with_options(0.0, None);
    }

    #[test]
    fn randomized_variant_is_reproducible_and_feasible() {
        let inst = Instance::<f64>::from_compact(
            "m=3 mu=1 lambda=1 | s2@0.5 s3@0.9 s2@1.4 s1@2.6 s3@3.1 s3@3.3 s1@5.0",
        )
        .unwrap();
        let a = run_policy(&mut SpeculativeCaching::randomized(1.0, 42), &inst);
        let b = run_policy(&mut SpeculativeCaching::randomized(1.0, 42), &inst);
        assert_eq!(a.total_cost, b.total_cost, "same seed, same run");
        let c = run_policy(&mut SpeculativeCaching::randomized(1.0, 43), &inst);
        // Different seeds generally differ (this instance exercises
        // several window draws).
        assert_ne!(a.total_cost, c.total_cost);
        assert_eq!(a.policy, "sc-randomized(alpha=1)");
        // Windows are ≤ αΔt, so every copy record's tail is bounded.
        for rec in &a.record.records {
            assert!(rec.tail() <= 1.0 + 1e-9, "tail {}", rec.tail());
        }
    }

    #[test]
    fn randomized_never_beats_opt_and_stays_sane() {
        // A small sweep: the randomized variant has no proven ratio, but
        // must stay feasible and above OPT.
        for seed in 0..5u64 {
            let inst = Instance::<f64>::from_compact(
                "m=3 mu=1 lambda=1 | s2@0.5 s3@0.9 s2@1.4 s1@2.6 s3@3.1 s3@3.3 s1@5.0",
            )
            .unwrap();
            let run = run_policy(&mut SpeculativeCaching::randomized(1.0, seed), &inst);
            let opt = crate::offline::optimal_cost(&inst);
            assert!(run.total_cost >= opt - 1e-9);
        }
    }
}
