//! Writes the machine-readable solver perf trajectory to
//! `BENCH_solver.json` in the current directory (schema in
//! EXPERIMENTS.md). `--quick` shrinks the grid to test size; `--stdout`
//! prints instead of writing the file; `--check` is the CI gate — it
//! validates the committed `BENCH_solver.json` against the
//! `bench-solver/4` schema, requires the committed batch acceptance
//! (batched kernel ≥ 2x the per-instance warm windowed sweep at the
//! largest grid point) to hold, and re-measures the quick-shape batch speedup on the
//! current machine (fails when it regresses more than 10% below the
//! committed value).

use mcc_bench::exp::bench_solver;
use mcc_bench::exp::Scale;
use mcc_model::Json;

/// Relative regression budget for `--check`: the freshly measured quick
/// batch speedup may fall at most this far below the committed one.
const REGRESSION_BUDGET: f64 = 0.10;

fn check() -> Result<(), String> {
    let body = std::fs::read_to_string("BENCH_solver.json")
        .map_err(|e| format!("cannot read committed BENCH_solver.json: {e}"))?;
    let committed =
        Json::parse(&body).map_err(|e| format!("committed BENCH_solver.json: {e:?}"))?;
    bench_solver::validate(&committed).map_err(|e| format!("committed BENCH_solver.json: {e}"))?;

    // The committed trajectory must carry the batch acceptance: the batched
    // kernel beating the per-instance warm sweep by the pinned factor at the
    // largest grid point. A regenerated file that no longer meets it is a
    // kernel regression, caught here rather than by eyeballing the diff.
    let batch_acc = committed
        .get("batch_acceptance")
        .ok_or("committed batch_acceptance missing")?;
    let committed_speedup = batch_acc
        .get("speedup")
        .and_then(Json::as_f64)
        .ok_or("committed batch_acceptance.speedup missing")?;
    let met = matches!(batch_acc.get("met"), Some(Json::Bool(true)));
    eprintln!(
        "committed batch acceptance: {committed_speedup:.2}x (target {:.1}x, met {met})",
        bench_solver::BATCH_SPEEDUP_TARGET
    );
    if !met {
        return Err(format!(
            "committed batch acceptance not met: {committed_speedup:.2}x is below the {:.1}x \
             target",
            bench_solver::BATCH_SPEEDUP_TARGET
        ));
    }

    let committed_quick = committed
        .get("quick")
        .and_then(|q| q.get("batch_speedup_vs_sweep"))
        .and_then(Json::as_f64)
        .ok_or("committed quick.batch_speedup_vs_sweep missing")?;

    // Best of three attempts: interference deflates a measured speedup,
    // never inflates it, so the max is the noise-robust estimate — a real
    // regression drags every attempt down.
    let fresh = (0..3)
        .map(|_| bench_solver::quick_batch_speedup())
        .fold(f64::NEG_INFINITY, f64::max);
    let floor = committed_quick * (1.0 - REGRESSION_BUDGET);
    eprintln!(
        "quick batch speedup vs sweep: fresh {fresh:.2}x vs committed {committed_quick:.2}x \
         (floor {floor:.2}x)"
    );
    if fresh < floor {
        return Err(format!(
            "batched kernel regressed: fresh quick speedup {fresh:.2}x is more than 10% below \
             the committed {committed_quick:.2}x"
        ));
    }
    Ok(())
}

fn main() {
    if std::env::args().any(|a| a == "--check") {
        if let Err(e) = check() {
            eprintln!("bench_solver --check FAILED: {e}");
            std::process::exit(1);
        }
        eprintln!("bench_solver --check OK");
        return;
    }

    let doc = bench_solver::report(Scale::from_args());
    let body = doc.to_string_pretty();
    if std::env::args().any(|a| a == "--stdout") {
        println!("{body}");
        return;
    }
    let path = "BENCH_solver.json";
    std::fs::write(path, &body).expect("write BENCH_solver.json");
    let speedup = doc
        .get("acceptance")
        .and_then(|a| a.get("speedup"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN);
    let batch = doc
        .get("batch_acceptance")
        .and_then(|a| a.get("speedup"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN);
    eprintln!(
        "wrote {path} (warm workspace vs seed baseline: {speedup:.2}x, batch vs sweep: {batch:.2}x)"
    );
}
