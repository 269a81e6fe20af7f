//! The machine-readable solver perf trajectory: `BENCH_solver.json`.
//!
//! Measures the off-line solver variants head to head — the pinned seed
//! pipeline ([`super::baseline`]), the allocating pointer-matrix pass
//! [`solve_fast`] and windowed sweep [`solve_naive`], their warm
//! [`SolverWorkspace`] entry points and the batched kernel — in
//! ns/request over an E1-style grid,
//! times a parallel sweep in cells/sec, and snapshots peak RSS. The output
//! is a single JSON document with a versioned `schema` tag, so successive
//! commits can be diffed numerically (the "perf trajectory"). The headline
//! acceptance number compares the warm-workspace path against the seed's
//! allocating pipeline at the largest grid point. Schema documented in
//! EXPERIMENTS.md.

use std::time::Instant;

use mcc_core::offline::{
    solve_batch_in, solve_fast, solve_fast_in, solve_naive, solve_naive_in, BatchWorkspace,
    SolverWorkspace,
};
use mcc_core::online::{Follow, SpeculativeCaching};
use mcc_model::{Instance, Json};
use mcc_simnet::{factory, sweep, GridCell};
use mcc_workloads::{CommonParams, PoissonWorkload, Workload, ZipfWorkload};

use super::baseline::solve_baseline;
use super::Scale;

/// Minimum measured wall time per variant; reps repeat until reached.
const TARGET_SECS: f64 = 0.2;
/// The acceptance threshold: warm-workspace speedup over the seed's
/// allocating pipeline on the largest grid point.
const SPEEDUP_TARGET: f64 = 1.3;
/// The batch acceptance threshold: batched-kernel throughput over the
/// warm windowed sweep (`naive_workspace`) on the largest grid point.
pub const BATCH_SPEEDUP_TARGET: f64 = 2.0;
/// Instances per batched-kernel measurement (matches the sweep's
/// [`mcc_simnet::BATCH_UNITS`] chunk width).
pub const BATCH_K: usize = 8;

/// ns/request for every variant at one grid point.
#[derive(Copy, Clone, Debug)]
pub struct GridPoint {
    /// Requests.
    pub n: usize,
    /// Servers.
    pub m: usize,
    /// The pinned seed pipeline (allocating, see [`super::baseline`]).
    pub baseline: f64,
    /// Allocating pointer-matrix solver (current code, throwaway workspace).
    pub fast: f64,
    /// Pointer-matrix solver on a warm workspace.
    pub fast_workspace: f64,
    /// Allocating windowed sweep.
    pub naive: f64,
    /// Windowed sweep on a warm workspace ([`solve_naive_in`]): the
    /// per-instance solve the run pipeline falls back to.
    pub naive_workspace: f64,
    /// Batched SoA kernel on a warm [`BatchWorkspace`], ns/request
    /// amortized over [`BATCH_K`] instances per kernel call.
    pub batch: f64,
}

impl GridPoint {
    /// Warm-workspace speedup over the seed's allocating pipeline — the
    /// trajectory headline.
    pub fn speedup(&self) -> f64 {
        self.baseline / self.fast_workspace
    }

    /// Warm-workspace speedup over the *current* allocating path: isolates
    /// what buffer reuse alone buys on top of the algorithmic work.
    pub fn speedup_vs_fast(&self) -> f64 {
        self.fast / self.fast_workspace
    }

    /// Batched-kernel speedup over the per-instance warm sweep — the
    /// batch acceptance headline.
    pub fn speedup_batch_vs_sweep(&self) -> f64 {
        self.naive_workspace / self.batch
    }
}

/// Repeats `f` until [`TARGET_SECS`] of wall time accumulate (at least 3
/// reps), returning the *fastest* rep in ns per request. The minimum, not
/// the mean: a rep can only be slowed by interference (scheduler
/// preemption, frequency drift, co-tenants), never sped up, so the minimum
/// is the stable estimator of the code's own cost on shared hardware.
fn ns_per_request<F: FnMut()>(n: usize, mut f: F) -> f64 {
    // Warm-up rep (faults in fresh pages, primes branch predictors).
    f();
    let mut best = f64::INFINITY;
    let mut reps = 0u32;
    let t0 = Instant::now();
    loop {
        let rep = Instant::now();
        f();
        best = best.min(rep.elapsed().as_secs_f64());
        reps += 1;
        if reps >= 3 && t0.elapsed().as_secs_f64() >= TARGET_SECS {
            break;
        }
    }
    best * 1e9 / n.max(1) as f64
}

fn instance_seeded(n: usize, m: usize, seed: u64) -> Instance<f64> {
    PoissonWorkload::uniform(
        CommonParams {
            servers: m,
            requests: n,
            mu: 1.0,
            lambda: 1.0,
        },
        1.0,
    )
    .generate(seed)
}

fn instance(n: usize, m: usize) -> Instance<f64> {
    instance_seeded(n, m, 42)
}

/// Measures the batched kernel at one shape: [`BATCH_K`] distinct
/// instances staged and solved per kernel call, ns/request amortized over
/// all `BATCH_K · n` requests, every lane cross-checked against the
/// windowed-sweep reference.
fn measure_batch(n: usize, m: usize) -> f64 {
    let insts: Vec<Instance<f64>> = (0..BATCH_K)
        .map(|j| instance_seeded(n, m, 42 + j as u64))
        .collect();
    let refs: Vec<f64> = insts
        .iter()
        .map(|i| solve_naive(i).optimal_cost())
        .collect();
    let views: Vec<&Instance<f64>> = insts.iter().collect();
    let mut ws = BatchWorkspace::new();
    ns_per_request(n * BATCH_K, || {
        solve_batch_in(&views, &mut ws);
        for (k, &reference) in refs.iter().enumerate() {
            assert!(
                (ws.optimal_cost(k) - reference).abs() < 1e-6,
                "batch solver disagreement"
            );
        }
    })
}

/// Measures one grid point; every variant is cross-checked against the
/// others' optimum as it runs.
pub fn measure_point(n: usize, m: usize) -> GridPoint {
    let inst = instance(n, m);
    let reference = solve_naive(&inst).optimal_cost();
    let check = |cost: f64| {
        assert!((cost - reference).abs() < 1e-6, "solver disagreement");
    };

    let baseline = ns_per_request(n, || check(solve_baseline(&inst)));
    let fast = ns_per_request(n, || check(solve_fast(&inst).optimal_cost()));
    let naive = ns_per_request(n, || check(solve_naive(&inst).optimal_cost()));

    let mut ws = SolverWorkspace::new();
    let fast_workspace = ns_per_request(n, || check(solve_fast_in(&inst, &mut ws).optimal_cost()));
    let naive_workspace = ns_per_request(n, || {
        check(solve_naive_in(&inst, &mut ws, mcc_obs::noop()).optimal_cost())
    });
    let batch = measure_batch(n, m);

    GridPoint {
        n,
        m,
        baseline,
        fast,
        fast_workspace,
        naive,
        naive_workspace,
        batch,
    }
}

/// The measurement grid: the acceptance point `(n ≥ 10⁴, m ≥ 64)` last.
pub fn grid(scale: Scale) -> Vec<(usize, usize)> {
    if scale.requests >= 1000 {
        vec![(2_048, 16), (4_096, 16), (16_384, 64)]
    } else {
        vec![(512, 8)]
    }
}

/// The shape the `--check` re-measurement anchor runs at: large enough
/// that the window scan (not per-call overhead) dominates, so the batch
/// speedup is stable under scheduler noise, yet cheap enough for CI.
pub const QUICK_SHAPE: (usize, usize) = (1_024, 16);

/// The quick-shape batched-vs-sweep speedup: the cheap re-measurement
/// `--check` runs against the committed `quick` section. One shape, two
/// variants, single attempt (callers take the best of several).
///
/// Unlike the grid (two independent timing windows), the two variants are
/// timed in *alternating* reps inside one window: seconds-scale
/// interference (co-tenant bursts, frequency drift) then hits both sides
/// of the ratio alike instead of deflating whichever variant it landed
/// on, and the per-variant minimum still rejects per-rep jitter. Each
/// sweep rep solves the instance [`BATCH_K`] times so one rep of either
/// variant covers the same `BATCH_K · n` requests.
pub fn quick_batch_speedup() -> f64 {
    let (n, m) = QUICK_SHAPE;
    let inst = instance(n, m);
    let reference = solve_naive(&inst).optimal_cost();
    let insts: Vec<Instance<f64>> = (0..BATCH_K)
        .map(|j| instance_seeded(n, m, 42 + j as u64))
        .collect();
    let refs: Vec<f64> = insts
        .iter()
        .map(|i| solve_naive(i).optimal_cost())
        .collect();
    let views: Vec<&Instance<f64>> = insts.iter().collect();
    let mut ws = SolverWorkspace::new();
    let mut bws = BatchWorkspace::new();

    let mut sweep_rep = || {
        for _ in 0..BATCH_K {
            let cost = solve_naive_in(&inst, &mut ws, mcc_obs::noop()).optimal_cost();
            assert!((cost - reference).abs() < 1e-6);
        }
    };
    let mut batch_rep = || {
        solve_batch_in(&views, &mut bws);
        for (k, &r) in refs.iter().enumerate() {
            assert!(
                (bws.optimal_cost(k) - r).abs() < 1e-6,
                "batch solver disagreement"
            );
        }
    };

    // Warm-up both variants (pages, predictors, buffer high-water marks).
    sweep_rep();
    batch_rep();

    let mut best_sweep = f64::INFINITY;
    let mut best_batch = f64::INFINITY;
    let mut pairs = 0u32;
    let t0 = Instant::now();
    loop {
        let t = Instant::now();
        sweep_rep();
        best_sweep = best_sweep.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        batch_rep();
        best_batch = best_batch.min(t.elapsed().as_secs_f64());
        pairs += 1;
        if pairs >= 3 && t0.elapsed().as_secs_f64() >= 2.0 * TARGET_SECS {
            break;
        }
    }
    best_sweep / best_batch
}

/// Times one end-to-end parallel sweep; returns (cells, seeds, cells/sec).
pub fn sweep_rate(scale: Scale) -> (usize, u64, f64) {
    let sc = factory(SpeculativeCaching::<f64>::paper());
    let follow = factory(Follow::new());
    let params = CommonParams {
        servers: scale.servers,
        requests: scale.requests,
        mu: 1.0,
        lambda: 1.0,
    };
    let w1 = PoissonWorkload::uniform(params, 1.0);
    let w2 = ZipfWorkload::new(params, 1.0, 1.2);
    let cells: Vec<GridCell<'_>> = [
        ("sc", &sc, &w1 as &dyn Workload),
        ("sc", &sc, &w2),
        ("follow", &follow, &w1),
        ("follow", &follow, &w2),
    ]
    .into_iter()
    .map(|(name, policy, workload)| GridCell::new(name, policy, workload))
    .collect();
    let n_cells = cells.len();
    let t0 = Instant::now();
    let results = sweep(cells, 0..scale.seeds, 0);
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(results.len(), n_cells);
    (n_cells, scale.seeds, n_cells as f64 / secs)
}

/// Peak resident set size (`VmHWM`) in KiB from `/proc/self/status`, or
/// `None` off Linux.
pub fn peak_rss_kb() -> Option<i64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Runs the full measurement and assembles the JSON document.
pub fn report(scale: Scale) -> Json {
    let points: Vec<GridPoint> = grid(scale)
        .into_iter()
        .map(|(n, m)| measure_point(n, m))
        .collect();
    let last = points.last().expect("grid is never empty");
    let quick_speedup = quick_batch_speedup();
    let (cells, seeds, cells_per_sec) = sweep_rate(scale);

    let grid_json = Json::Arr(
        points
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("n".into(), Json::Int(p.n as i64)),
                    ("m".into(), Json::Int(p.m as i64)),
                    (
                        "ns_per_request".into(),
                        Json::Obj(vec![
                            ("baseline".into(), Json::Float(p.baseline)),
                            ("fast".into(), Json::Float(p.fast)),
                            ("fast_workspace".into(), Json::Float(p.fast_workspace)),
                            ("naive".into(), Json::Float(p.naive)),
                            ("naive_workspace".into(), Json::Float(p.naive_workspace)),
                            ("batch".into(), Json::Float(p.batch)),
                        ]),
                    ),
                    (
                        "speedup_workspace_vs_baseline".into(),
                        Json::Float(p.speedup()),
                    ),
                    (
                        "speedup_workspace_vs_fast".into(),
                        Json::Float(p.speedup_vs_fast()),
                    ),
                    (
                        "speedup_batch_vs_sweep".into(),
                        Json::Float(p.speedup_batch_vs_sweep()),
                    ),
                ])
            })
            .collect(),
    );

    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("grid".into(), grid_json),
        (
            "acceptance".into(),
            Json::Obj(vec![
                ("n".into(), Json::Int(last.n as i64)),
                ("m".into(), Json::Int(last.m as i64)),
                ("speedup".into(), Json::Float(last.speedup())),
                ("target".into(), Json::Float(SPEEDUP_TARGET)),
                ("met".into(), Json::Bool(last.speedup() >= SPEEDUP_TARGET)),
            ]),
        ),
        (
            "batch_acceptance".into(),
            Json::Obj(vec![
                ("n".into(), Json::Int(last.n as i64)),
                ("m".into(), Json::Int(last.m as i64)),
                ("k".into(), Json::Int(BATCH_K as i64)),
                ("speedup".into(), Json::Float(last.speedup_batch_vs_sweep())),
                ("target".into(), Json::Float(BATCH_SPEEDUP_TARGET)),
                (
                    "met".into(),
                    Json::Bool(last.speedup_batch_vs_sweep() >= BATCH_SPEEDUP_TARGET),
                ),
            ]),
        ),
        (
            "quick".into(),
            Json::Obj(vec![
                ("n".into(), Json::Int(QUICK_SHAPE.0 as i64)),
                ("m".into(), Json::Int(QUICK_SHAPE.1 as i64)),
                ("batch_speedup_vs_sweep".into(), Json::Float(quick_speedup)),
            ]),
        ),
        (
            "sweep".into(),
            Json::Obj(vec![
                ("cells".into(), Json::Int(cells as i64)),
                ("seeds".into(), Json::Int(seeds as i64)),
                ("cells_per_sec".into(), Json::Float(cells_per_sec)),
            ]),
        ),
        (
            "peak_rss_kb".into(),
            peak_rss_kb().map_or(Json::Null, Json::Int),
        ),
    ])
}

/// The schema tag of the document [`report`] writes.
pub const SCHEMA: &str = "bench-solver/4";

/// All ns/request keys a bench-solver/4 grid row must carry.
pub const NS_KEYS: [&str; 6] = [
    "baseline",
    "fast",
    "fast_workspace",
    "naive",
    "naive_workspace",
    "batch",
];

/// Structural validation of a committed `BENCH_solver.json`: schema tag,
/// grid rows with every ns/request key positive, both acceptance sections
/// and the quick re-measurement anchor. Returns a human-readable
/// description of the first problem found.
pub fn validate(doc: &Json) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(SCHEMA) => {}
        other => return Err(format!("schema is {other:?}, expected {SCHEMA}")),
    }
    let grid = doc
        .get("grid")
        .and_then(Json::as_arr)
        .ok_or("grid missing or not an array")?;
    if grid.is_empty() {
        return Err("grid is empty".into());
    }
    for (i, row) in grid.iter().enumerate() {
        for dim in ["n", "m"] {
            let v = row
                .get(dim)
                .and_then(Json::as_i64)
                .ok_or_else(|| format!("grid[{i}].{dim} missing"))?;
            if v <= 0 {
                return Err(format!("grid[{i}].{dim} = {v} not positive"));
            }
        }
        let ns = row
            .get("ns_per_request")
            .ok_or_else(|| format!("grid[{i}].ns_per_request missing"))?;
        for key in NS_KEYS {
            let v = ns
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("grid[{i}].ns_per_request.{key} missing"))?;
            if v.is_nan() || v <= 0.0 {
                return Err(format!("grid[{i}].ns_per_request.{key} = {v} not positive"));
            }
        }
        let speedup = row
            .get("speedup_batch_vs_sweep")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("grid[{i}].speedup_batch_vs_sweep missing"))?;
        if speedup.is_nan() || speedup <= 0.0 {
            return Err(format!("grid[{i}].speedup_batch_vs_sweep = {speedup}"));
        }
    }
    for section in ["acceptance", "batch_acceptance"] {
        let acc = doc
            .get(section)
            .ok_or_else(|| format!("{section} missing"))?;
        let speedup = acc
            .get("speedup")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{section}.speedup missing"))?;
        if speedup.is_nan() || speedup <= 0.0 {
            return Err(format!("{section}.speedup = {speedup} not positive"));
        }
        match acc.get("met") {
            Some(Json::Bool(_)) => {}
            _ => return Err(format!("{section}.met missing or not a bool")),
        }
    }
    let quick = doc
        .get("quick")
        .and_then(|q| q.get("batch_speedup_vs_sweep"))
        .and_then(Json::as_f64)
        .ok_or("quick.batch_speedup_vs_sweep missing")?;
    if quick.is_nan() || quick <= 0.0 {
        return Err(format!(
            "quick.batch_speedup_vs_sweep = {quick} not positive"
        ));
    }
    doc.get("sweep")
        .and_then(|s| s.get("cells_per_sec"))
        .and_then(Json::as_f64)
        .ok_or("sweep.cells_per_sec missing")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_the_documented_shape() {
        let doc = report(Scale::quick());
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let grid = doc.get("grid").and_then(Json::as_arr).unwrap();
        assert!(!grid.is_empty());
        let ns = grid[0].get("ns_per_request").unwrap();
        for key in NS_KEYS {
            assert!(ns.get(key).and_then(Json::as_f64).unwrap() > 0.0, "{key}");
        }
        let acc = doc.get("acceptance").unwrap();
        assert!(acc.get("speedup").and_then(Json::as_f64).unwrap() > 0.0);
        let batch_acc = doc.get("batch_acceptance").unwrap();
        assert!(batch_acc.get("speedup").and_then(Json::as_f64).unwrap() > 0.0);
        assert_eq!(
            batch_acc.get("k").and_then(Json::as_i64),
            Some(BATCH_K as i64)
        );
        assert!(
            doc.get("quick")
                .and_then(|q| q.get("batch_speedup_vs_sweep"))
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0
        );
        // The document the report emits is exactly what the validator
        // accepts — `--check` never rejects a freshly generated file.
        validate(&doc).unwrap();
        // Round-trips through the parser (the file is meant to be diffed
        // and re-read by tooling).
        let reparsed = Json::parse(&doc.to_string_pretty()).unwrap();
        assert_eq!(reparsed.to_string_compact(), doc.to_string_compact());
        validate(&reparsed).unwrap();
    }

    #[test]
    fn sweep_rate_is_positive() {
        let (cells, seeds, rate) = sweep_rate(Scale::quick());
        assert_eq!(cells, 4);
        assert_eq!(seeds, 4);
        assert!(rate > 0.0);
    }
}
