//! `mccbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! mccbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] --mcc PATH
//! ```
//!
//! Runs one workload, checks every output it produces, and prints one
//! JSON result line last on stdout. `--trace 0` reports the end-to-end
//! metrics of `BENCHMARK.json` (nothing is instrumented); `--trace 1`
//! runs the traced replica of the same workload and reports the
//! per-layer metrics instead. Human-readable detail goes to the lines
//! before the result. `README.md` beside this crate maps every metric to
//! the layer it times.

mod batch;
mod common;
mod serve;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use common::Outcome;

/// Seed used when `--seed` is absent; the batch workloads' recorded
/// digests are for this seed.
pub const DEFAULT_SEED: u64 = 2017;

/// The end-to-end metrics every untraced run reports, in order.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, in order. A layer the
/// workload does not run reads `0`.
const PER_LAYER: [(&str, &str); 32] = [
    ("wire.parse_ns", "ns/line"),
    ("engine.timers_ns", "ns/req"),
    ("engine.decide_ns", "ns/req"),
    ("engine.finish_ns", "ns/item"),
    ("wire.build_ns", "ns/line"),
    ("wire.format_ns", "ns/line"),
    ("daemon.read_ns", "ns/line"),
    ("daemon.write_ns", "ns/line"),
    ("engine.hit_frac", "frac"),
    ("engine.expirations", "count"),
    ("engine.copies_peak", "count"),
    ("wire.bytes_in", "B"),
    ("wire.bytes_out", "B"),
    ("daemon.flushes", "count"),
    ("workloads.generate_ns", "ns/unit"),
    ("offline.solve_ns", "ns/unit"),
    ("simnet.run_ns", "ns/unit"),
    ("fleet.simulate_ns", "ns/item"),
    ("audit.ns", "ns/unit"),
    ("capacity.ns", "ns/item"),
    ("capacity.events", "count"),
    ("capacity.evictions", "count"),
    ("fault.plan_ns", "ns/unit"),
    ("fault.run_ns", "ns/unit"),
    ("fault.crash_windows", "count"),
    ("fault.retries", "count"),
    ("fault.failovers", "count"),
    ("fault.transfer_ok_frac", "frac"),
    ("sweep.dispatch_wait_ns", "ns/unit"),
    ("sweep.worker_imbalance", "ratio"),
    ("trace.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Largest share of a traced run's wall its layers may leave unattributed.
const UNATTRIBUTED_LIMIT: f64 = 0.10;

/// Layer values a traced run measured, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Command-line settings shared by every workload.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub mcc: String,
}

impl Args {
    /// The measuring budget.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        mcc: String::new(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--mcc" => args.mcc = value.clone(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if args.mcc.is_empty() {
        return Err("--mcc PATH (the mcc binary) is required".into());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Outcome, String> {
    match (args.workload.as_str(), args.trace) {
        ("serve_pipe", false) => serve::pipe(args),
        ("serve_pipe", true) => serve::pipe_traced(args).map(layered),
        ("fleet_capacity", false) => batch::fleet(args),
        ("fleet_capacity", true) => batch::fleet_traced(args).map(layered),
        ("sweep_chaos", false) => batch::sweep(args),
        ("sweep_chaos", true) => batch::sweep_traced(args).map(layered),
        (other, _) => Err(format!(
            "unknown workload `{other}` (serve_pipe | fleet_capacity | sweep_chaos)"
        )),
    }
}

/// Fills a traced run's metrics from its layer map, in `PER_LAYER` order,
/// and applies the trace's own gate: a traced run whose unattributed
/// share of the wall exceeds [`UNATTRIBUTED_LIMIT`] in magnitude fails.
fn layered((mut out, layers): (Outcome, Layers)) -> Outcome {
    let unattributed = layers
        .get("trace.unattributed_frac")
        .copied()
        .unwrap_or(1.0);
    let over = unattributed.abs() > UNATTRIBUTED_LIMIT;
    if over {
        println!("trace gate: {unattributed:.3} of the traced wall unattributed (limit ±{UNATTRIBUTED_LIMIT})");
    }
    out.check(1, u64::from(over));
    for (name, unit) in PER_LAYER {
        out.metric(name, layers.get(name).copied().unwrap_or(0.0), unit);
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mccbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            let wanted: Vec<&str> = if args.trace {
                PER_LAYER.iter().map(|m| m.0).collect()
            } else {
                END_TO_END.iter().map(|m| m.0).collect()
            };
            let got: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
            assert_eq!(got, wanted, "metric list out of step with BENCHMARK.json");
            for &(name, value, unit) in &out.metrics {
                println!("{name:>24} = {value:.6} {unit}");
            }
            println!(
                "fail_frac = {} ({} failed of {} checked)",
                out.failed as f64 / out.attempted.max(1) as f64,
                out.failed,
                out.attempted
            );
            println!("{}", out.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mccbench: {}: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}
