//! The O(mn) fast solver (Theorem 2) and the zero-allocation workspace
//! entry points.
//!
//! The paper's data structure: per-server request lists `Q_j` and a matrix
//! `A[n, m]` of pointers, where `A[i][j]` addresses the most recent request
//! on server `s^j` with logical index ≤ i. During the DP pass, request `i`
//! needs — for every server `j` — the unique interval on `j` that spans
//! `t_{p(i)}`; that is the *successor* of `A[p(i)][j]` in `Q_j`, found in
//! O(1). Pre-scan O(mn) time/space, DP pass O(m) per request: O(mn) total.
//!
//! # Workspaces
//!
//! Sweep-style callers (`mcc-simnet`, the benches) solve thousands of
//! same-shaped instances back to back; re-allocating the pre-scan, the
//! pointer matrix and the DP tables per solve dominated their profile. A
//! [`SolverWorkspace`] owns all of those buffers, and [`solve_fast_in`] /
//! [`solve_naive_in`] refill them in place: after a warm-up solve at the
//! largest shape, subsequent solves perform **zero heap allocations**
//! (asserted by the `alloc_free` integration test). The allocating
//! [`solve_fast`] API is a thin wrapper over a throwaway workspace.

use mcc_model::{Instance, Prescan, Scalar};
use mcc_obs::{Counter, Hist, Sink, Span};

use super::naive::WindowPivots;
use super::tables::{run_dp_into, DpSolution, PivotSource};

/// Sentinel for "no successor on this server" in the pointer matrix.
const NONE_IDX: u32 = u32::MAX;

/// The pointer structure of Theorem 2, stored successor-first: entry
/// `(i, j)` is the *logical index* of the first request on server `s^j`
/// with index > i (`NONE_IDX` if none).
///
/// The paper's `A[i][j]` addresses the last request on `s^j` with index
/// ≤ i, and the DP then takes that entry's successor in `Q_j`. Since the
/// successor is the only thing ever read, storing it directly drops the
/// per-candidate indirection through the `Q_j` lists: the pivot pass
/// becomes one contiguous row scan with a single `e(κ)` table load per
/// live candidate.
pub(crate) struct PointerMatrix {
    m: usize,
    succ: Vec<u32>,
    /// Scratch: the current row during the (descending) build — per-server
    /// next request seen so far. A field so rebuilds don't allocate.
    cursor: Vec<u32>,
}

impl PointerMatrix {
    pub(crate) fn new() -> Self {
        PointerMatrix {
            m: 0,
            succ: Vec::new(),
            cursor: Vec::new(),
        }
    }

    /// Builds the matrix in one O(mn) pre-scan (fresh storage).
    #[cfg(test)]
    pub(crate) fn build<S: Scalar>(inst: &Instance<S>) -> Self {
        let mut matrix = Self::new();
        matrix.build_in(inst);
        matrix
    }

    /// Rebuilds the matrix in place, reusing the buffer across solves.
    ///
    /// Adjacent rows differ in exactly one entry, but copying row to row
    /// would *read* the matrix back from memory — for large `n·m` that's
    /// streaming DRAM traffic on both sides. Instead each row is written
    /// once from the m-entry `cursor` array (descending `i`, so `cursor`
    /// holds each server's next request), which stays hot in L1: the build
    /// is write-only with respect to the matrix. Stale contents from a
    /// previous solve need no clearing, because every cell in
    /// `0..(n+1)·m` is overwritten.
    pub(crate) fn build_in<S: Scalar>(&mut self, inst: &Instance<S>) {
        let n = inst.n();
        let m = inst.servers();
        self.m = m;
        let need = (n + 1) * m;
        if self.succ.len() < need {
            self.succ.reserve(need - self.succ.len());
            self.succ.resize(need, NONE_IDX);
        } else {
            self.succ.truncate(need);
        }
        self.cursor.clear();
        self.cursor.resize(m, NONE_IDX);
        // Row n: nothing follows the last request.
        for i in (1..=n).rev() {
            self.succ[i * m..(i + 1) * m].copy_from_slice(&self.cursor);
            self.cursor[inst.server(i).index()] = i as u32;
        }
        self.succ[..m].copy_from_slice(&self.cursor);
    }

    /// First request on server `j` with logical index > i.
    #[cfg(test)]
    fn successor_after(&self, i: usize, j: usize) -> u32 {
        self.succ[i * self.m + j]
    }

    /// Matrix row `i`: per-server first request with logical index > i.
    #[inline]
    fn row(&self, i: usize) -> &[u32] {
        &self.succ[i * self.m..(i + 1) * self.m]
    }
}

/// Pivot enumeration via the pointer matrix: O(m) per request, O(mn) space.
struct MatrixPivots<'a> {
    matrix: &'a PointerMatrix,
}

impl PivotSource for MatrixPivots<'_> {
    fn for_each_pivot<F: FnMut(usize)>(&mut self, i: usize, p_i: usize, mut f: F) {
        // Own-server pivot: κ = p(i) itself (its cache trivially "spans"
        // t_{p(i)}; chaining extends the same server's cache).
        if p_i >= 1 {
            f(p_i);
        }
        // One contiguous row scan; `f` inlines here. Per server j, the
        // candidate is κ = succ(p_i, j), the first request on j after
        // p(i). κ < i filters everything at once: no-successor (the
        // sentinel is u32::MAX), the own server (its successor after p(i)
        // is i itself, by definition of p), and servers whose next request
        // comes after r_i. A surviving κ either had a predecessor ≤ p(i)
        // on j — then p(κ) ≤ p_i, and ≠ p_i since they sit on different
        // servers, so κ ∈ π(i) — or is j's first request ever, whose
        // D(κ) = +∞ excess can never win the minimum (allowed extras per
        // the PivotSource contract).
        for &kappa in self.matrix.row(p_i) {
            let kappa = kappa as usize;
            if kappa < i {
                f(kappa);
            }
        }
    }
}

/// Reusable storage for the off-line solvers: pre-scan buffers, the pointer
/// matrix and the DP output tables.
///
/// Create one per worker thread, warm it with a first solve, and every
/// subsequent [`solve_fast_in`] / [`solve_naive_in`] call on
/// instances of no larger shape performs zero heap allocations. Buffers
/// only ever grow; a workspace never shrinks its capacity.
///
/// ```
/// use mcc_core::offline::{solve_fast, solve_fast_in, SolverWorkspace};
/// use mcc_model::Instance;
///
/// let a = Instance::<f64>::from_compact("m=2 mu=1 lambda=1 | s2@0.5 s1@2.0").unwrap();
/// let b = Instance::<f64>::from_compact("m=3 mu=1 lambda=1 | s3@1.0 s3@1.2").unwrap();
/// let mut ws = SolverWorkspace::new();
/// assert_eq!(solve_fast_in(&a, &mut ws).optimal_cost(), solve_fast(&a).optimal_cost());
/// // Reuse across instances (of any shape) is safe; no state leaks.
/// assert_eq!(solve_fast_in(&b, &mut ws).optimal_cost(), solve_fast(&b).optimal_cost());
/// ```
pub struct SolverWorkspace<S> {
    scan: Prescan<S>,
    matrix: PointerMatrix,
    solution: DpSolution<S>,
}

impl<S: Scalar> Default for SolverWorkspace<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Scalar> SolverWorkspace<S> {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        SolverWorkspace {
            scan: Prescan::new(),
            matrix: PointerMatrix::new(),
            solution: DpSolution::empty(),
        }
    }

    /// The pre-scan of the most recent solve.
    pub fn prescan(&self) -> &Prescan<S> {
        &self.scan
    }

    /// The DP tables of the most recent solve.
    pub fn solution(&self) -> &DpSolution<S> {
        &self.solution
    }

    /// Extracts the DP tables, leaving empty ones behind (for the
    /// allocating wrapper APIs).
    fn take_solution(self) -> DpSolution<S> {
        self.solution
    }
}

/// Solves the off-line data-caching problem in O(mn) time and space
/// (Theorem 2), using the paper's pointer-matrix structure.
pub fn solve_fast<S: Scalar>(inst: &Instance<S>) -> DpSolution<S> {
    let mut ws = SolverWorkspace::new();
    solve_fast_in(inst, &mut ws);
    ws.take_solution()
}

/// [`solve_fast`] reusing a precomputed [`Prescan`].
pub fn solve_fast_with<S: Scalar>(inst: &Instance<S>, scan: &Prescan<S>) -> DpSolution<S> {
    let mut matrix = PointerMatrix::new();
    matrix.build_in(inst);
    let mut pivots = MatrixPivots { matrix: &matrix };
    let mut out = DpSolution::empty();
    run_dp_into(inst, scan, &mut pivots, &mut out);
    out
}

/// [`solve_fast`] into a reusable [`SolverWorkspace`]; returns the solved
/// tables (owned by the workspace). Zero heap allocations once the
/// workspace is warm at this shape.
pub fn solve_fast_in<'w, S: Scalar>(
    inst: &Instance<S>,
    ws: &'w mut SolverWorkspace<S>,
) -> &'w DpSolution<S> {
    ws.scan.recompute(inst);
    ws.matrix.build_in(inst);
    let mut pivots = MatrixPivots { matrix: &ws.matrix };
    run_dp_into(inst, &ws.scan, &mut pivots, &mut ws.solution);
    &ws.solution
}

/// [`super::solve_naive`] into a reusable [`SolverWorkspace`]: the
/// windowed sweep driven off the workspace's pre-scan and DP tables (the
/// pointer matrix stays untouched). This is the per-instance hot path:
/// the sweep beats the matrix pass at every measured shape (EXPERIMENTS.md
/// E1, E14). Zero heap allocations once warm.
///
/// Each call counts one [`Counter::SolveSweepDispatches`] and reports the
/// prescan and DP phases to `sink` (the whole solve lands in
/// [`Hist::SolveNanos`]). Against the no-op sink ([`mcc_obs::noop`]) no
/// clock is ever read; the sink never changes what is computed.
pub fn solve_naive_in<'w, S: Scalar>(
    inst: &Instance<S>,
    ws: &'w mut SolverWorkspace<S>,
    sink: &dyn Sink,
) -> &'w DpSolution<S> {
    sink.add(Counter::SolveSweepDispatches, 1);
    let _solve = Span::with_hist(sink, Counter::SolveNanos, Hist::SolveNanos);
    {
        let _p = Span::start(sink, Counter::SolvePrescanNanos);
        ws.scan.recompute(inst);
    }
    let _d = Span::start(sink, Counter::SolveDpNanos);
    let mut pivots = WindowPivots { p: &ws.scan.p };
    run_dp_into(inst, &ws.scan, &mut pivots, &mut ws.solution);
    &ws.solution
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::naive::solve_naive;

    fn fig6() -> Instance<f64> {
        Instance::from_compact(
            "m=4 mu=1 lambda=1 | s2@0.5 s3@0.8 s4@1.1 s1@1.4 s2@2.6 s2@3.2 s3@4.0",
        )
        .unwrap()
    }

    #[test]
    fn fig6_golden_optimum() {
        let sol = solve_fast(&fig6());
        assert!((sol.optimal_cost() - 8.9).abs() < 1e-9);
    }

    #[test]
    fn matches_naive_on_fig6_tables() {
        let inst = fig6();
        let fast = solve_fast(&inst);
        let naive = solve_naive(&inst);
        for i in 0..=inst.n() {
            assert_eq!(fast.c[i], naive.c[i], "C({i})");
            // D can be infinite; compare bit-identically via total order.
            assert!(fast.d[i] == naive.d[i] || (!fast.d[i].is_finite() && !naive.d[i].is_finite()));
        }
    }

    #[test]
    fn successor_matrix_positions() {
        // fig6 server lists: s1: [0, 4], s2: [1, 5, 6], s3: [2, 7], s4: [3].
        let inst = fig6();
        let m = PointerMatrix::build(&inst);
        // Successors of the boundary row.
        assert_eq!(m.successor_after(0, 0), 4);
        assert_eq!(m.successor_after(0, 1), 1);
        assert_eq!(m.successor_after(0, 2), 2);
        assert_eq!(m.successor_after(0, 3), 3);
        // After r_5: the third s^2 request and the last s^3 request remain.
        assert_eq!(m.successor_after(5, 1), 6);
        assert_eq!(m.successor_after(5, 2), 7);
        assert_eq!(m.successor_after(5, 0), NONE_IDX);
        assert_eq!(m.successor_after(5, 3), NONE_IDX);
        // Nothing follows the final request.
        for j in 0..4 {
            assert_eq!(m.successor_after(7, j), NONE_IDX);
        }
    }

    #[test]
    fn pointer_matrix_rebuild_reuses_dirty_buffer() {
        let big = fig6();
        let small = Instance::<f64>::from_compact("m=2 mu=1 lambda=1 | s2@0.5 s1@1.0").unwrap();
        let mut matrix = PointerMatrix::new();
        // Dirty the buffer at the large shape, then rebuild smaller, then
        // large again: entries must match a fresh build each time.
        matrix.build_in(&big);
        matrix.build_in(&small);
        let fresh_small = PointerMatrix::build(&small);
        assert_eq!(matrix.succ[..3 * 2], fresh_small.succ[..3 * 2]);
        matrix.build_in(&big);
        let fresh_big = PointerMatrix::build(&big);
        assert_eq!(matrix.succ[..8 * 4], fresh_big.succ[..8 * 4]);
    }

    #[test]
    fn workspace_solvers_match_allocating_solvers() {
        let inst = fig6();
        let small = Instance::<f64>::from_compact("m=2 mu=1 lambda=1 | s2@0.5 s1@1.0").unwrap();
        let naive = solve_naive(&inst);
        let mut ws = SolverWorkspace::new();
        // Interleave shapes and both passes on one warm workspace to shake
        // out any state leakage between them.
        for _ in 0..3 {
            let sol = solve_fast_in(&inst, &mut ws);
            assert!((sol.optimal_cost() - 8.9).abs() < 1e-9);
            let sol = solve_naive_in(&small, &mut ws, mcc_obs::noop());
            assert_eq!(sol.optimal_cost(), solve_fast(&small).optimal_cost());
            let sol = solve_naive_in(&inst, &mut ws, mcc_obs::noop());
            assert_eq!(sol.c, naive.c);
        }
    }

    #[test]
    fn single_server_pure_caching() {
        // Everything on the origin: the optimum is to hold the item through
        // the horizon, cost μ·t_n, no transfers.
        let inst =
            Instance::<f64>::from_compact("m=1 mu=2 lambda=1 | s1@1.0 s1@2.0 s1@5.0").unwrap();
        let sol = solve_fast(&inst);
        assert_eq!(sol.optimal_cost(), 10.0);
    }

    #[test]
    fn two_servers_ping_pong_prefers_transfers_when_caching_dear() {
        // With μ huge, holding between far-apart requests is worse than
        // transferring back and forth; every request after the first pays
        // roughly λ plus the minimal bridging hold.
        let inst =
            Instance::<f64>::from_compact("m=2 mu=10 lambda=1 | s2@1.0 s1@2.0 s2@3.0 s1@4.0")
                .unwrap();
        let fast = solve_fast(&inst).optimal_cost();
        let naive = solve_naive(&inst).optimal_cost();
        assert_eq!(fast, naive);
    }
}
