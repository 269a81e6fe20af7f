//! An online data service: requests stream in live (nothing is known in
//! advance), a policy decides per request, and we audit the accumulated
//! schedule afterwards — including against baselines and the hindsight
//! optimum. Each policy replays the trace through `run_policy`, which
//! reveals one request at a time.
//!
//! ```sh
//! cargo run --example online_service
//! ```

use mobile_cloud_cache::analysis::{fnum, Table};
use mobile_cloud_cache::prelude::*;
use mobile_cloud_cache::simnet::{Breakdown, CopyTimeline};
use mobile_cloud_cache::workloads::BurstyWorkload;

fn main() {
    // Bursty sessions over 8 edge servers: users fire clusters of requests
    // from one location, then reappear elsewhere.
    let common = CommonParams {
        servers: 8,
        requests: 500,
        mu: 1.0,
        lambda: 2.0,
    };
    let workload = BurstyWorkload::new(common, 6.0, 0.1, 4.0);
    let trace = workload.generate(2024);

    let mut table = Table::new(
        "Online service audit (bursty sessions, λ/μ = 2)",
        &[
            "policy",
            "cost",
            "vs OPT",
            "transfers",
            "peak copies",
            "tail cost",
        ],
    );

    let opt = optimal_cost(&trace);
    let policies: Vec<Box<dyn OnlineDecider<f64>>> = vec![
        Box::new(SpeculativeCaching::paper()),
        Box::new(Follow::new()),
        Box::new(StayAtOrigin::new()),
        Box::new(KeepEverywhere::new()),
    ];
    for mut policy in policies {
        let run = run_policy(policy.as_mut(), &trace);
        let breakdown = Breakdown::from_record(&run.record, trace.cost());
        let timeline = CopyTimeline::from_record(&run.record);
        table.row(&[
            policy.name(),
            fnum(run.total_cost),
            format!("{}x", fnum(run.total_cost / opt)),
            run.transfers().to_string(),
            timeline.peak().to_string(),
            fnum(breakdown.speculative_tails),
        ]);
    }
    table.row(&[
        "OPT (hindsight)".into(),
        fnum(opt),
        "1x".into(),
        "—".into(),
        "—".into(),
        "0".into(),
    ]);

    println!("{}", table.to_markdown());
    println!(
        "Speculative caching keeps a copy alive Δt = λ/μ = {} after each \
         use: long enough to absorb a session burst, short enough not to \
         pay for idle replicas.",
        fnum(trace.cost().delta_t())
    );
}
