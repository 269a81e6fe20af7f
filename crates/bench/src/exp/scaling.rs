//! E1 — off-line runtime scaling: the paper's O(mn) pointer-matrix
//! algorithm against two reference points:
//!
//! * the Θ(n²) "straightforward implementation" the paper describes (and
//!   which stands in for the asymptotically slower exact predecessor
//!   algorithm — DESIGN.md substitution table);
//! * the windowed sweep — a reproduction finding: scanning only
//!   `(p(i), i)` telescopes to O(nm) total work, so the paper's
//!   complexity is achievable with no pointer matrix and O(n+m) memory,
//!   and in practice it is the *fastest* of the three.

use std::time::Instant;

use mcc_analysis::{fnum, loglog_slope, Section, Table};
use mcc_core::offline::{solve_fast, solve_fast_in, solve_naive, solve_quadratic, SolverWorkspace};
use mcc_workloads::{CommonParams, PoissonWorkload, Workload};

use super::Scale;

/// One measured point.
#[derive(Copy, Clone, Debug)]
pub struct Point {
    /// Requests.
    pub n: usize,
    /// Servers.
    pub m: usize,
    /// Paper's pointer-matrix solver (seconds).
    pub fast: f64,
    /// Pointer-matrix solver into a warm reusable workspace (seconds).
    pub workspace: f64,
    /// Windowed sweep (seconds).
    pub windowed: f64,
    /// Θ(n²) full scan (seconds; None when skipped for size).
    pub quadratic: Option<f64>,
}

fn time<F: FnMut()>(mut f: F) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64().max(1e-9)
}

/// Measures the grid and cross-checks agreement as it goes.
pub fn measure(scale: Scale) -> Vec<Point> {
    let n_grid: Vec<usize> = if scale.requests >= 1000 {
        vec![1_000, 2_000, 4_000, 8_000, 16_000, 32_000]
    } else {
        vec![50, 100, 200]
    };
    let m_grid: Vec<usize> = if scale.servers >= 16 {
        vec![4, 16, 64]
    } else {
        vec![2, 4]
    };
    let quad_cap = if scale.requests >= 1000 { 16_000 } else { 200 };

    let mut out = Vec::new();
    let mut ws = SolverWorkspace::new();
    for &m in &m_grid {
        for &n in &n_grid {
            let w = PoissonWorkload::uniform(
                CommonParams {
                    servers: m,
                    requests: n,
                    mu: 1.0,
                    lambda: 1.0,
                },
                1.0,
            );
            let inst = w.generate(42);
            let mut fast_cost = 0.0;
            let fast = time(|| fast_cost = solve_fast(&inst).optimal_cost());
            // Warm the workspace at this shape, then time the reused solve.
            let _ = solve_fast_in(&inst, &mut ws);
            let mut ws_cost = 0.0;
            let workspace = time(|| ws_cost = solve_fast_in(&inst, &mut ws).optimal_cost());
            let mut windowed_cost = 0.0;
            let windowed = time(|| windowed_cost = solve_naive(&inst).optimal_cost());
            assert!((fast_cost - ws_cost).abs() < 1e-6, "solver disagreement");
            assert!(
                (fast_cost - windowed_cost).abs() < 1e-6,
                "solver disagreement"
            );
            let quadratic = if n <= quad_cap {
                let mut quad_cost = 0.0;
                let secs = time(|| quad_cost = solve_quadratic(&inst).optimal_cost());
                assert!((fast_cost - quad_cost).abs() < 1e-6, "solver disagreement");
                Some(secs)
            } else {
                None
            };
            out.push(Point {
                n,
                m,
                fast,
                workspace,
                windowed,
                quadratic,
            });
        }
    }
    out
}

/// E1 section: the timing table plus fitted exponents.
pub fn section(scale: Scale) -> Section {
    let points = measure(scale);
    let mut t = Table::new(
        "Off-line solver runtime (seconds)",
        &[
            "m",
            "n",
            "fast (Thm. 2 matrix)",
            "fast (warm workspace)",
            "windowed sweep",
            "quadratic Θ(n²)",
            "quad/fast",
        ],
    );
    for p in &points {
        t.row(&[
            p.m.to_string(),
            p.n.to_string(),
            format!("{:.6}", p.fast),
            format!("{:.6}", p.workspace),
            format!("{:.6}", p.windowed),
            p.quadratic
                .map(|x| format!("{x:.6}"))
                .unwrap_or_else(|| "—".into()),
            p.quadratic
                .map(|x| fnum(x / p.fast))
                .unwrap_or_else(|| "—".into()),
        ]);
    }

    // Fit exponents in n at the largest m.
    let mmax = points.iter().map(|p| p.m).max().unwrap_or(0);
    let grab = |f: &dyn Fn(&Point) -> Option<f64>| -> Vec<(f64, f64)> {
        points
            .iter()
            .filter(|p| p.m == mmax)
            .filter_map(|p| f(p).map(|v| (p.n as f64, v)))
            .collect()
    };
    let fast_slope = loglog_slope(&grab(&|p| Some(p.fast)));
    let windowed_slope = loglog_slope(&grab(&|p| Some(p.windowed)));
    let quad_slope = loglog_slope(&grab(&|p| p.quadratic));

    let mut s = Section::new("E1", "Off-line runtime scaling (fast vs. baselines)");
    s.note(format!(
        "Fitted log-log time exponents in n at m = {mmax}: fast ≈ {}, windowed \
         sweep ≈ {}, quadratic ≈ {}. Two findings: (1) the paper's shape \
         reproduces — the Θ(n²) straightforward implementation falls behind \
         the O(mn) solvers at a rate growing with n (`quad/fast` column); \
         (2) a reproduction surprise — the windowed sweep, which scans only \
         `(p(i), i)` per request, telescopes to O(nm) total and beats the \
         pointer-matrix algorithm at every size we measured while using \
         O(n+m) memory instead of O(mn). The paper's complexity claim is \
         confirmed, but its data structure is not necessary to achieve it. \
         The `warm workspace` column re-runs the pointer-matrix solver into \
         a reused SolverWorkspace (zero allocations in steady state); the \
         gap to the `fast` column is pure allocation/first-touch overhead \
         (see BENCH_solver.json for the dedicated measurement).",
        fnum(fast_slope),
        fnum(windowed_slope),
        fnum(quad_slope),
    ));
    s.table(t);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_measurement_runs_and_solvers_agree() {
        let pts = measure(Scale::quick());
        assert_eq!(pts.len(), 6); // 2 m-values × 3 n-values
        assert!(pts
            .iter()
            .all(|p| p.fast > 0.0 && p.workspace > 0.0 && p.windowed > 0.0));
        assert!(pts.iter().all(|p| p.quadratic.is_some()));
    }

    #[test]
    fn section_reports_exponents() {
        let md = section(Scale::quick()).to_markdown();
        assert!(md.contains("Fitted log-log time exponents"));
        assert!(md.contains("quad/fast"));
    }
}
