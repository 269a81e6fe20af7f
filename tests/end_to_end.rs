//! Cross-crate integration: workloads → run pipeline → policies →
//! analysis → report files, exercising the whole pipeline the experiment
//! binaries use.

use mobile_cloud_cache::analysis::{render, Report, Section, Summary, Table};
use mobile_cloud_cache::prelude::*;
use mobile_cloud_cache::simnet::{factory, sweep, Breakdown, CopyTimeline, GridCell};
use mobile_cloud_cache::workloads::{trace, TraceWorkload};

#[test]
fn engine_policy_and_direct_execution_agree_everywhere() {
    let common = CommonParams {
        servers: 6,
        requests: 120,
        mu: 1.0,
        lambda: 1.0,
    };
    let sc = factory(SpeculativeCaching::<f64>::paper());
    let mut req = RunRequest::new(RunMode::Plain);
    let mut policy = req.policy(&sc);
    for w in standard_suite(common) {
        let inst = w.generate(5);
        let direct = run_policy(&mut SpeculativeCaching::paper(), &inst);
        let piped = req.run_seed(&mut policy, 5, &inst);
        assert!(
            (piped.online_cost - direct.total_cost).abs() < 1e-9,
            "run pipeline vs executor diverge on {}",
            w.name()
        );
        assert_eq!(piped.transfers, direct.transfers(), "{}", w.name());
        assert_eq!(piped.opt_cost, optimal_cost(&inst), "{}", w.name());
        assert_eq!(piped.audit_findings, 0, "{}", w.name());
        // Instrumentation is self-consistent.
        let breakdown = Breakdown::from_record(&direct.record, inst.cost());
        assert!((breakdown.total() - direct.total_cost).abs() < 1e-9);
        let timeline = CopyTimeline::from_record(&direct.record);
        assert!(timeline.peak() >= 1);
        assert!(timeline.peak() <= inst.servers());
    }
}

#[test]
fn parallel_sweep_full_pipeline() {
    let common = CommonParams {
        servers: 4,
        requests: 80,
        mu: 1.0,
        lambda: 1.0,
    };
    let workloads = standard_suite(common);
    let sc = factory(SpeculativeCaching::<f64>::paper());
    let follow = factory(Follow::new());
    let mut cells = Vec::new();
    for w in &workloads {
        cells.push(GridCell::new("sc", &sc, w.as_ref()));
        cells.push(GridCell::new("follow", &follow, w.as_ref()));
    }
    let results = sweep(cells, 0..3, 0);
    assert_eq!(results.len(), workloads.len() * 2);
    for cell in &results {
        assert_eq!(cell.results.len(), 3);
        let mut ratios = Summary::new();
        for r in &cell.results {
            assert!(r.online_cost >= r.opt_cost - 1e-9);
            ratios.push(r.ratio);
        }
        if cell.policy_name == "sc" {
            assert!(
                ratios.max() <= 3.05,
                "{}: {}",
                cell.workload_name,
                ratios.max()
            );
        }
    }
}

#[test]
fn report_pipeline_writes_files() {
    let dir = std::env::temp_dir().join("mcc-e2e-report");
    let _ = std::fs::remove_dir_all(&dir);

    let inst = unit_instance(3, &[(1, 0.5), (2, 1.0), (0, 1.6)]);
    let (sched, cost) = optimal_schedule(&inst);

    let mut section = Section::new("X1", "End-to-end smoke");
    section.note(format!("optimal cost {cost}"));
    section.block(render(&inst, &sched));
    let mut table = Table::new("Costs", &["what", "value"]);
    table.row(&["opt".into(), cost.to_string()]);
    section.table(table);

    let mut report = Report::new();
    report.push(section);
    let md = report.write_to(&dir, "E2E").unwrap();
    let body = std::fs::read_to_string(md).unwrap();
    assert!(body.contains("X1"));
    assert!(body.contains("```text"));
    assert!(dir.join("x1-costs.csv").exists());
}

#[test]
fn trace_files_feed_the_whole_stack() {
    let dir = std::env::temp_dir().join("mcc-e2e-trace");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");

    let original = PoissonWorkload::uniform(
        CommonParams {
            servers: 4,
            requests: 60,
            mu: 1.0,
            lambda: 0.5,
        },
        2.0,
    )
    .generate(9);
    trace::save_json(&original, &path).unwrap();

    let replayed = TraceWorkload::from_json(&path).unwrap();
    let inst = replayed.generate(123); // seed ignored for traces
    assert_eq!(inst, original);

    let run = run_policy(&mut SpeculativeCaching::paper(), &inst);
    let opt = optimal_cost(&inst);
    assert!(run.total_cost >= opt - 1e-9);
    assert!(run.total_cost <= 3.0 * opt + inst.cost().lambda + 1e-6);
}

#[test]
fn exact_scalar_pipeline_matches_f64() {
    // The same instance solved under f64 and exact fixed-point must agree
    // to fixed-point resolution (inputs on the micro grid).
    let inst64 = unit_instance(
        4,
        &[(1, 0.25), (2, 0.5), (3, 1.0), (0, 1.5), (1, 2.25), (2, 3.0)],
    );
    let fixed: Instance<Fixed> = inst64.map_scalar();
    let a = optimal_cost(&inst64);
    let b = optimal_cost(&fixed);
    assert!((a - b.to_f64()).abs() < 1e-6);
}
