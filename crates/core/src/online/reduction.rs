//! The V-/H-reductions and the Theorem 3 analysis chain.
//!
//! The paper proves `Π(SC) ≤ 3·Π(OPT)` by transforming both schedules:
//!
//! * **V-reduction** (Definition 11): any inter-request gap with
//!   `μ·δt_{i−1,i} > λ` is carried by exactly one caching server in both
//!   DT and OPT (Lemma 5), so both sides can be reduced by
//!   `μ·δt_{i−1,i} − λ`, clipping every gap's weight to `λ`.
//! * **H-reduction** (Definition 12): every request in
//!   `SR = {r_i : μσ_i < λ}` is served by the same short cache
//!   `H(s_i, t_{p(i)}, t_i)` in both schedules (Lemma 6), so both sides
//!   drop `μσ_i` for each.
//!
//! After the reductions, `Π(DT′) ≤ 3n′λ` (Lemma 7) and `Π(OPT′) ≥ n′λ`
//! (Lemma 8) for `n′ = |R \ SR|`, giving the ratio 3. [`analyze`] computes
//! every quantity in that chain for a concrete run so tests and the E2/E5
//! experiments can check each inequality, not just the headline ratio.
//!
//! # A correction to Lemma 7's accounting
//!
//! The Double-Transfer rewrite parks the **initial copy's** speculative
//! tail `ω_1^1 ≤ λ` on the origin's initial cost (Definition 10, first
//! bullet) — but Lemma 7's per-request budget (`≤ 3λ` each) never charges
//! it to any request, so the tight statement provable for this algorithm
//! is `Π(DT′) ≤ 3n′λ + λ`, i.e. Speculative Caching is 3-competitive *with
//! an additive constant* `λ`: `Π(SC) ≤ 3·Π(OPT) + λ`. The discrepancy is
//! real, not an implementation artifact: three sparse requests with gaps
//! `≫ Δt` already exhibit `Π(DT′) = 3n′λ + ω_1^1` (see
//! `chain_holds_on_sparse_sequence` below and experiment E5). All bounds
//! checked here use the corrected form; EXPERIMENTS.md discusses it.
//!
//! # A second correction: epochs do not compose
//!
//! The paper closes with "since it can be repeated on each epoch, the SC
//! algorithm is 3-competitive" — but the per-epoch bound compares each
//! epoch against the *optimum of that epoch's subsequence with the copy
//! state reset*, and those per-epoch optima do not sum to O(global OPT).
//! Concretely, with epochs of one transfer and two servers alternating
//! requests at gaps `ε → 0`, SC pays ≈ λ per request (every reset deletes
//! the other copy, forcing a transfer) while the global optimum pays
//! ≈ λ + 2nεμ in total — the ratio grows as Θ(n). See the
//! `tiny_epochs_are_not_competitive_globally` test for the constructive
//! counterexample. The 3-competitive guarantee therefore applies to the
//! single-epoch algorithm (`SpeculativeCaching::paper()`); the paper's own
//! epoch size ("n transfers" for an n-request sequence) never actually
//! completes an epoch, which is consistent with this reading. [`analyze`]
//! accordingly requires a run whose epoch resets (if any) happen at the
//! very end of the sequence, where they cannot distort the σ structure.

use mcc_model::{Instance, Scalar};

use super::executor::OnlineRun;
use crate::offline::optimal_cost;

/// Every quantity in the Theorem 3 chain, for one instance + one SC run.
#[derive(Clone, Debug)]
pub struct ReductionReport<S> {
    /// `Π(SC)`: the online run's total cost.
    pub sc_cost: S,
    /// `Π(OPT)`: the off-line optimum `C(n)`.
    pub opt_cost: S,
    /// `n′ = |R \ SR|`: requests surviving the H-reduction.
    pub n_prime: usize,
    /// Total H-reduction `Σ_{i ∈ SR} μσ_i` (same on both sides).
    pub h_reduction: S,
    /// Total V-reduction `Σ_i (μ·δt_{i−1,i} − λ)⁺` (same on both sides).
    pub v_reduction: S,
    /// `Π(DT′) = Π(SC) − V − H`.
    pub dt_reduced: S,
    /// `Π(OPT′) = Π(OPT) − V − H`.
    pub opt_reduced: S,
    /// Lemma 7's (corrected) upper bound `3·n′·λ + λ` on `Π(DT′)` — the
    /// trailing `λ` pays the initial copy's speculative tail, which the
    /// paper's per-request budget omits (see module docs).
    pub dt_bound: S,
    /// Lemma 8's lower bound `n′·λ` on `Π(OPT′)`.
    pub opt_bound: S,
    /// Refined server intervals `μσ′_i` for `i ∈ R′` (equation (6)).
    pub sigma_prime_cost: Vec<S>,
}

impl<S: Scalar> ReductionReport<S> {
    /// The raw competitive ratio `Π(SC)/Π(OPT)` (1.0 when both are zero).
    pub fn ratio(&self) -> f64 {
        if !(self.opt_cost > S::ZERO) {
            return 1.0;
        }
        self.sc_cost.to_f64() / self.opt_cost.to_f64()
    }

    /// The reduced ratio `Π(DT′)/Π(OPT′)` that upper-bounds the raw ratio.
    pub fn reduced_ratio(&self) -> f64 {
        if !(self.opt_reduced > S::ZERO) {
            return 1.0;
        }
        self.dt_reduced.to_f64() / self.opt_reduced.to_f64()
    }

    /// Checks every inequality in the Theorem 3 chain, returning the first
    /// failure as text (tests want a single assertion point).
    pub fn check_chain(&self, tol: f64) -> Result<(), String> {
        let le = |a: S, b: S, what: &str| -> Result<(), String> {
            if a <= b || a.approx_eq(b, tol) {
                Ok(())
            } else {
                Err(format!("{what}: {a} > {b}"))
            }
        };
        le(
            self.dt_reduced,
            self.dt_bound,
            "Lemma 7 (corrected): Π(DT′) ≤ 3n′λ + λ",
        )?;
        le(self.opt_bound, self.opt_reduced, "Lemma 8: Π(OPT′) ≥ n′λ")?;
        le(self.opt_cost, self.sc_cost, "optimality: Π(OPT) ≤ Π(SC)")?;
        // σ′ refinement (Fig. 10): every surviving request has μσ′ ≥ λ.
        for (k, &sp) in self.sigma_prime_cost.iter().enumerate() {
            if !(sp.to_f64() >= self.opt_bound.to_f64() / self.n_prime.max(1) as f64 - tol) {
                // Equivalent to μσ′ ≥ λ; phrased via opt_bound to avoid
                // re-deriving λ here.
                return Err(format!(
                    "σ′ refinement fails at surviving request #{k}: {sp}"
                ));
            }
        }
        // Theorem 3 in its additive-constant form (see module docs):
        // Π(SC) ≤ 3·Π(OPT) + λ, with λ recovered as dt_bound − 3·opt_bound.
        let lambda = self.dt_bound.to_f64() - 3.0 * self.opt_bound.to_f64();
        let rhs = 3.0 * self.opt_cost.to_f64() + lambda;
        if self.sc_cost.to_f64() > rhs * (1.0 + tol) + tol {
            return Err(format!(
                "Theorem 3 (corrected): Π(SC) = {} > 3·Π(OPT) + λ = {rhs}",
                self.sc_cost
            ));
        }
        Ok(())
    }
}

/// Why [`try_analyze`] refuses a run.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum AnalyzeError {
    /// An epoch reset at `at`, strictly before the last request: it breaks
    /// the σ/SR correspondence between the online run and the off-line
    /// optimum, which voids the Theorem 3 chain (see module docs).
    MidSequenceEpoch {
        /// The first such reset instant.
        at: f64,
    },
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::MidSequenceEpoch { at } => write!(
                f,
                "the reduction analysis needs a single-epoch run, but an epoch \
                 reset at t={at} precedes the last request"
            ),
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// Runs the full reduction analysis: off-line optimum via the O(mn) DP,
/// V-/H-reductions from the instance structure, bounds from Lemmas 7–8.
///
/// # Panics
///
/// Panics on a run [`try_analyze`] refuses.
pub fn analyze<S: Scalar>(inst: &Instance<S>, run: &OnlineRun<S>) -> ReductionReport<S> {
    match try_analyze(inst, run) {
        Ok(report) => report,
        Err(e) => panic!("analyze(): {e}"),
    }
}

/// [`analyze`] with a typed error for runs the chain cannot certify: the
/// chain is only sound for (effectively) single-epoch runs.
pub fn try_analyze<S: Scalar>(
    inst: &Instance<S>,
    run: &OnlineRun<S>,
) -> Result<ReductionReport<S>, AnalyzeError> {
    if inst.n() > 0 {
        let last = inst.t(inst.n());
        if let Some(b) = run.record.epoch_boundaries.iter().find(|&&b| b < last) {
            return Err(AnalyzeError::MidSequenceEpoch { at: b.to_f64() });
        }
    }
    let scan = mcc_model::Prescan::compute(inst);
    let cost = inst.cost();
    let lambda = cost.lambda;

    let mut h_reduction = S::ZERO;
    let mut n_prime = 0usize;
    let mut survivors: Vec<usize> = Vec::new();
    for i in 1..=inst.n() {
        match scan.sigma[i] {
            Some(sigma) if cost.caching(sigma) < lambda => {
                h_reduction = h_reduction + cost.caching(sigma);
            }
            _ => {
                n_prime += 1;
                survivors.push(i);
            }
        }
    }

    let mut v_reduction = S::ZERO;
    for i in 1..=inst.n() {
        let gap_cost = cost.caching(inst.delta_t(i - 1, i));
        if gap_cost > lambda {
            v_reduction = v_reduction + (gap_cost - lambda);
        }
    }

    // Equation (6): refined σ′ for surviving requests — the V-reduction of
    // the immediately preceding gap (which lies inside [t_{p(i)}, t_i])
    // shrinks σ_i; requests whose p(i) is the dummy keep "σ = ∞", encoded
    // as the λ bound itself.
    let sigma_prime_cost = survivors
        .iter()
        .map(|&i| match scan.sigma[i] {
            None => lambda, // dummy predecessor: b′_i = λ by definition
            Some(sigma) => {
                let gap_cost = cost.caching(inst.delta_t(i - 1, i));
                let clipped = if gap_cost > lambda {
                    gap_cost - lambda
                } else {
                    S::ZERO
                };
                cost.caching(sigma) - clipped
            }
        })
        .collect();

    let sc_cost = run.total_cost;
    let opt_cost = optimal_cost(inst);
    let np = S::from_f64(n_prime as f64);
    Ok(ReductionReport {
        sc_cost,
        opt_cost,
        n_prime,
        h_reduction,
        v_reduction,
        dt_reduced: sc_cost - v_reduction - h_reduction,
        opt_reduced: opt_cost - v_reduction - h_reduction,
        dt_bound: S::from_f64(3.0).mul(np).mul(lambda) + lambda,
        opt_bound: np.mul(lambda),
        sigma_prime_cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::executor::run_policy;
    use crate::online::sc::SpeculativeCaching;
    use mcc_model::Instance;

    fn report(compact: &str) -> ReductionReport<f64> {
        let inst = Instance::<f64>::from_compact(compact).unwrap();
        let run = run_policy(&mut SpeculativeCaching::paper(), &inst);
        analyze(&inst, &run)
    }

    #[test]
    fn chain_holds_on_fig6() {
        let r = report("m=4 mu=1 lambda=1 | s2@0.5 s3@0.8 s4@1.1 s1@1.4 s2@2.6 s2@3.2 s3@4.0");
        r.check_chain(1e-9).unwrap();
        assert!(r.ratio() <= 3.0);
        assert!((r.opt_cost - 8.9).abs() < 1e-9);
    }

    #[test]
    fn chain_holds_on_sparse_sequence() {
        // Huge gaps: V-reduction dominates.
        let r = report("m=2 mu=1 lambda=1 | s2@10 s1@20 s2@30");
        assert!(r.v_reduction > 0.0);
        r.check_chain(1e-9).unwrap();
    }

    #[test]
    fn chain_holds_on_dense_sequence() {
        // Tight same-server bursts: H-reduction dominates.
        let r = report("m=2 mu=1 lambda=1 | s1@0.1 s1@0.2 s1@0.3 s2@0.4 s2@0.5 s2@0.6");
        assert!(r.h_reduction > 0.0);
        r.check_chain(1e-9).unwrap();
    }

    #[test]
    fn n_prime_counts_surviving_requests() {
        // σ for the two same-server repeats is 0.1 < Δt = 1 → in SR; the
        // first requests on each server survive.
        let r = report("m=2 mu=1 lambda=1 | s2@1.0 s2@1.1 s1@2.0 s1@2.1");
        assert_eq!(r.n_prime, 2);
        assert!((r.h_reduction - 0.2).abs() < 1e-9);
    }

    #[test]
    fn tiny_epochs_are_not_competitive_globally() {
        // Two servers alternate requests at gaps ε = 0.01 ≪ Δt = 1 with
        // epoch resets after every transfer. Every reset deletes the other
        // side's copy, so every alternation is a miss: SC pays ≈ λ per
        // request. The global optimum replicates once and caches both
        // sides for ≈ λ + 2nεμ total. The ratio grows linearly in n —
        // the paper's "repeated on each epoch" composition does not bound
        // it. (This is why `analyze` rejects mid-sequence epochs.)
        // Keep the total horizon fixed (gap = 0.4/n) so the optimum stays
        // ≈ λ + 0.8μ while SC(epoch=1) pays ≈ λ per request: the ratio is
        // then genuinely linear in n.
        let build = |n: usize| {
            let gap = 0.4 / n as f64;
            let reqs: Vec<(usize, f64)> = (0..n).map(|k| (k % 2, gap * (k + 1) as f64)).collect();
            mcc_model::unit_instance(2, &reqs)
        };
        let ratio_at = |n: usize| {
            let inst = build(n);
            let run = run_policy(&mut SpeculativeCaching::with_epochs(1), &inst);
            run.total_cost / crate::offline::optimal_cost(&inst)
        };
        let r40 = ratio_at(40);
        assert!(
            r40 > 3.0,
            "epoch=1 should blow through the single-epoch bound (got {r40})"
        );
        let r80 = ratio_at(80);
        assert!(
            r80 > 1.7 * r40,
            "ratio must scale linearly with n: {r40} → {r80}"
        );
    }

    #[test]
    #[should_panic(expected = "single-epoch")]
    fn analyze_rejects_mid_sequence_epochs() {
        let reqs: Vec<(usize, f64)> = (0..10).map(|k| (k % 2, 0.01 * (k + 1) as f64)).collect();
        let inst = mcc_model::unit_instance(2, &reqs);
        let run = run_policy(&mut SpeculativeCaching::with_epochs(1), &inst);
        let _ = analyze(&inst, &run);
    }

    #[test]
    fn empty_sequence_ratio_is_one() {
        let r = report("m=2 mu=1 lambda=1 |");
        assert_eq!(r.ratio(), 1.0);
        assert_eq!(r.reduced_ratio(), 1.0);
        r.check_chain(1e-9).unwrap();
    }
}
