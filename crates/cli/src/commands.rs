//! Command implementations (pure: input args → rendered output).

use std::fmt::Write as _;
use std::path::Path;

use mobile_cloud_cache::analysis::{fnum, render, render_metrics, Summary, Table};
use mobile_cloud_cache::fleet::EvictionPolicy;
use mobile_cloud_cache::online::{CrashWindow, FaultPlan};
use mobile_cloud_cache::prelude::{
    factory, optimal_cost, optimal_schedule, run_fleet, run_policy, serve_lines, solve_fast,
    sweep_with, try_analyze, validate, CommonParams, DaemonOptions, FaultSpec, FleetSpec,
    FleetWorkspace, Follow, GridCell, Instance, KeepEverywhere, MarkovWorkload, OnlineDecider,
    PoissonWorkload, PolicyFactory, Prescan, Registry, ServeConfig, ServeEngine, ServerId,
    SpeculativeCaching, StayAtOrigin, Workload,
};
use mobile_cloud_cache::serve::daemon::serve_tcp;
use mobile_cloud_cache::serve::wire::{request_line, WireRequest};
use mobile_cloud_cache::simnet::WallClock;
use mobile_cloud_cache::workloads::distributions::ParamDist;
use mobile_cloud_cache::workloads::{
    load_events, rescale_to_rate, trace, AdversarialScWorkload, BurstyWorkload, ZipfWorkload,
};

use crate::args::ParsedArgs;

/// Usage text.
pub fn help() -> String {
    "mcc — cost-driven mobile-cloud data caching (Wang et al., ICPP 2017)

USAGE:
  mcc solve    <trace> [--diagram] [--schedule]
  mcc online   <trace> [--policy P] [--diagram] [--analyze]
  mcc compare  <trace>
  mcc generate <family> [--servers N] [--requests N] [--mu X] [--lambda X]
               [--seed N] [--rate X] [--rho X] [--zipf S] [--gap G]
               [--out FILE | --json]
  mcc info     <trace>
  mcc classic  <trace> [--k N]
  mcc sweep    <family> [--seeds N] [--threads N] [--metrics FILE]
               [--metrics-report] [fault options] [generate options]
  mcc fleet    [--items N] [--servers N] [--requests N] [--rate X]
               [--mu-dist D] [--lambda-dist D] [--seed N] [--threads N]
               [--capacity N] [--eviction lru|none] [--eviction-price X]
               [--no-audit] [--metrics FILE] [--metrics-report]
  mcc serve    [--policy P] [--servers N] [--mu X] [--lambda X]
               [--max-items N] [--max-copies N] [--crash S:FROM:TO[,..]]
               [--listen ADDR] [--stats] [--metrics FILE]
  mcc load     <family> [--items N] [--seed N] [--target-rate X]
               [generate options]

TRACES:   a .json / .csv trace file, a compact-format text file, or an inline
          instance: -c \"m=2 mu=1 lambda=1 | s2@0.5 s1@2.0\"
POLICIES: sc | sc:alpha=A | sc:epoch=N | sc:randomized=SEED |
          follow | stay-at-origin | keep-everywhere
FAMILIES: poisson | zipf | markov | bursty | adversarial
METRICS:  --metrics FILE writes the versioned metrics/1 JSON snapshot of the
          sweep; --metrics-report appends the rendered text report
FAULTS:   any positive --crash-rate X, --burst-rate X, --partition-rate X, or
          --brownout-rate X enables the chaos layer; shaping knobs:
          --mean-downtime X --burst-coverage P --partition-mean X
          --brownout-mean X --brownout-factor F --fail-prob P
          --retry-budget N --backoff-base X --queue-cap N --mean-delay X
FLEET:    --items independent per-item SC instances, each drawing (μ, λ)
          from --mu-dist / --lambda-dist (`fixed:X`, `uniform:LO,HI`,
          `exp:MEAN`); --capacity N caps per-server slots (--eviction lru
          charges --eviction-price per eviction, --eviction none reports
          capacity violations); --no-audit selects the sim-only
          throughput regime (identical costs, no per-item verification)
SERVE:    reads serve/1 JSONL request lines from stdin (or a TCP client with
          --listen ADDR) and answers one decision line per request; --stats
          appends an engine-stats line at shutdown/EOF, --metrics FILE writes
          the metrics/1 snapshot, --crash injects offline windows whose
          requests queue and replay on recovery. `mcc load <family>` renders
          a multi-item workload as the matching request lines, so
          `mcc load poisson --items 50 | mcc serve --stats` is a one-liner
          daemon demo (--target-rate rescales the merged arrival rate)
"
    .to_string()
}

/// Loads the instance named by the operand / inline argument.
pub fn load_instance(args: &ParsedArgs) -> Result<Instance<f64>, String> {
    if let Some(inline) = &args.inline {
        return Instance::from_compact(inline).map_err(|e| e.to_string());
    }
    let path = args
        .operand
        .as_deref()
        .ok_or("missing trace (path or -c \"...\")")?;
    let p = Path::new(path);
    if !p.exists() {
        return Err(format!("no such trace file: {path}"));
    }
    if path.ends_with(".json") {
        trace::load_json(p).map_err(|e| e.to_string())
    } else if path.ends_with(".csv") {
        trace::load_csv(p).map_err(|e| e.to_string())
    } else {
        trace::load_compact(p).map_err(|e| e.to_string())
    }
}

/// Builds the policy named by `--policy`.
pub fn build_policy(spec: &str) -> Result<Box<dyn OnlineDecider<f64>>, String> {
    let (name, param) = match spec.split_once(':') {
        Some((n, p)) => (n, Some(p)),
        None => (spec, None),
    };
    match (name, param) {
        ("sc", None) => Ok(Box::new(SpeculativeCaching::paper())),
        ("sc", Some(p)) => {
            let (key, val) = p
                .split_once('=')
                .ok_or_else(|| format!("bad policy parameter `{p}` (want key=value)"))?;
            match key {
                "alpha" => {
                    let a: f64 = val.parse().map_err(|_| format!("bad alpha `{val}`"))?;
                    Ok(Box::new(SpeculativeCaching::with_options(a, None)))
                }
                "epoch" => {
                    let n: usize = val.parse().map_err(|_| format!("bad epoch `{val}`"))?;
                    Ok(Box::new(SpeculativeCaching::with_epochs(n)))
                }
                "randomized" => {
                    let seed: u64 = val.parse().map_err(|_| format!("bad seed `{val}`"))?;
                    Ok(Box::new(SpeculativeCaching::randomized(1.0, seed)))
                }
                other => Err(format!("unknown sc parameter `{other}`")),
            }
        }
        ("follow", None) => Ok(Box::new(Follow::new())),
        ("stay-at-origin", None) => Ok(Box::new(StayAtOrigin::new())),
        ("keep-everywhere", None) => Ok(Box::new(KeepEverywhere::new())),
        _ => Err(format!("unknown policy `{spec}`")),
    }
}

/// `mcc solve`.
pub fn solve(args: &ParsedArgs) -> Result<String, String> {
    let inst = load_instance(args)?;
    let (sched, cost) = optimal_schedule(&inst);
    let checked = validate(&inst, &sched)
        .map_err(|e| format!("internal error: optimal schedule failed validation: {e:?}"))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "optimal cost C(n) = {} (caching {}, transfers {} over {} moves)",
        fnum(cost),
        fnum(checked.caching),
        fnum(checked.transfer),
        sched.transfers.len()
    );
    if args.has_flag("schedule") {
        for h in &sched.caches {
            let _ = writeln!(out, "  H({}, {}, {})", h.server, fnum(h.from), fnum(h.to));
        }
        for t in &sched.transfers {
            let _ = writeln!(out, "  Tr({}, {}, {})", t.src, t.dst, fnum(t.at));
        }
    }
    if args.has_flag("diagram") {
        out.push_str(&render(&inst, &sched));
    }
    Ok(out)
}

/// `mcc online`.
pub fn online(args: &ParsedArgs) -> Result<String, String> {
    let inst = load_instance(args)?;
    let mut policy = build_policy(args.opt_or("policy", "sc"))?;
    let run = run_policy(policy.as_mut(), &inst);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: cost {} ({} transfers, {} cache hits)",
        run.policy,
        fnum(run.total_cost),
        run.transfers(),
        run.cache_hits()
    );
    if args.has_flag("analyze") {
        let report = try_analyze(&inst, &run).map_err(|e| format!("--analyze: {e}"))?;
        let _ = writeln!(out, "  off-line optimum: {}", fnum(report.opt_cost));
        let _ = writeln!(out, "  competitive ratio: {}", fnum(report.ratio()));
        let _ = writeln!(
            out,
            "  theorem chain: {}",
            match report.check_chain(1e-9) {
                Ok(()) => "verified (Π(SC) ≤ 3·Π(OPT) + λ)".to_string(),
                Err(e) => format!("VIOLATED — {e}"),
            }
        );
    }
    if args.has_flag("diagram") {
        out.push_str(&render(&inst, &run.schedule));
    }
    Ok(out)
}

/// `mcc compare`.
pub fn compare(args: &ParsedArgs) -> Result<String, String> {
    let inst = load_instance(args)?;
    let opt = optimal_cost(&inst);
    let mut table = Table::new(
        "Policies vs. hindsight optimum",
        &["policy", "cost", "vs OPT", "transfers", "hits"],
    );
    for spec in ["sc", "follow", "stay-at-origin", "keep-everywhere"] {
        let mut policy = build_policy(spec)?;
        let run = run_policy(policy.as_mut(), &inst);
        table.row(&[
            run.policy.clone(),
            fnum(run.total_cost),
            format!(
                "{}x",
                fnum(if opt > 0.0 { run.total_cost / opt } else { 1.0 })
            ),
            run.transfers().to_string(),
            run.cache_hits().to_string(),
        ]);
    }
    table.row(&["OPT".into(), fnum(opt), "1x".into(), "—".into(), "—".into()]);
    Ok(table.to_markdown())
}

/// `mcc generate`.
pub fn generate(args: &ParsedArgs) -> Result<String, String> {
    let workload = build_workload(args)?;
    let inst = workload.generate(args.num_or("seed", 0u64)?);
    match args.options.get("out") {
        Some(path) => {
            let p = Path::new(path);
            if path.ends_with(".json") {
                trace::save_json(&inst, p).map_err(|e| e.to_string())?;
            } else if path.ends_with(".csv") {
                trace::save_csv(&inst, p).map_err(|e| e.to_string())?;
            } else {
                trace::save_compact(&inst, p).map_err(|e| e.to_string())?;
            }
            Ok(format!(
                "wrote {} requests from {} to {path}\n",
                inst.n(),
                workload.name()
            ))
        }
        None if args.has_flag("json") => Ok(inst.to_json_string_pretty()),
        None => Ok(inst.to_compact() + "\n"),
    }
}

/// `mcc classic`: fixed-capacity policies (Belady/LRU/FIFO/LFU) priced
/// under the trace's (μ, λ), against the dynamic optimum.
pub fn classic(args: &ParsedArgs) -> Result<String, String> {
    use mobile_cloud_cache::classic::{
        classic_schedule, page_sequence, run_paging, Belady, Fifo, Lfu, Lru,
    };
    let inst = load_instance(args)?;
    let k: usize = args.num_or("k", inst.servers().min(4))?;
    if k == 0 || k > inst.servers() {
        return Err(format!("--k must be in 1..={}", inst.servers()));
    }
    let opt = optimal_cost(&inst);
    let seq = page_sequence(&inst);
    let mut table = Table::new(
        format!("Classic policies at k = {k} (cloud-priced)"),
        &[
            "policy",
            "faults",
            "hit ratio",
            "cloud cost",
            "vs dynamic OPT",
        ],
    );
    macro_rules! row {
        ($p:expr) => {{
            let mut policy = $p;
            let paging = run_paging(&mut policy, &seq, k);
            let sched = classic_schedule(&inst, &mut policy, k);
            let cost = validate(&inst, &sched)
                .map_err(|e| format!("internal error: bridged schedule invalid: {e:?}"))?
                .total;
            table.row(&[
                paging.policy.clone(),
                paging.faults.to_string(),
                fnum(paging.hit_ratio()),
                fnum(cost),
                format!("{}x", fnum(if opt > 0.0 { cost / opt } else { 1.0 })),
            ]);
        }};
    }
    row!(Belady::new());
    row!(Lru::new());
    row!(Fifo::new());
    row!(Lfu::new());
    table.row(&[
        "dynamic OPT".into(),
        "—".into(),
        "—".into(),
        fnum(opt),
        "1x".into(),
    ]);
    Ok(table.to_markdown())
}

/// Assembles the sweep's [`FaultSpec`] from the chaos-layer knobs.
/// Returns `None` (fault-free sweep) unless at least one fault *source*
/// — crashes, bursts, partitions, or brownouts — has a positive rate;
/// the remaining knobs only shape an already-enabled regime.
fn fault_spec_from_args(args: &ParsedArgs) -> Result<Option<FaultSpec>, String> {
    let base = FaultSpec::default();
    let rate = |key: &str, default: f64| -> Result<f64, String> {
        let v: f64 = args.num_or(key, default)?;
        if !v.is_finite() || v < 0.0 {
            return Err(format!("--{key} must be finite and non-negative"));
        }
        Ok(v)
    };
    let crash_rate = rate("crash-rate", 0.0)?;
    let burst_rate = rate("burst-rate", 0.0)?;
    let partition_rate = rate("partition-rate", 0.0)?;
    let brownout_rate = rate("brownout-rate", 0.0)?;
    if crash_rate + burst_rate + partition_rate + brownout_rate == 0.0 {
        return Ok(None);
    }
    let burst_coverage = rate("burst-coverage", base.burst_coverage)?;
    if burst_coverage > 1.0 {
        return Err("--burst-coverage must be a probability in [0, 1]".into());
    }
    let fail_prob = rate("fail-prob", base.fail_prob)?;
    if fail_prob >= 1.0 {
        return Err("--fail-prob must be a probability below 1".into());
    }
    let brownout_factor = rate("brownout-factor", base.brownout_factor)?;
    if brownout_factor < 1.0 {
        return Err("--brownout-factor must be at least 1".into());
    }
    Ok(Some(FaultSpec {
        seed: args.num_or("seed", 0u64)?,
        crash_rate,
        mean_downtime: rate("mean-downtime", base.mean_downtime)?,
        burst_rate,
        burst_coverage,
        partition_rate,
        partition_mean: rate("partition-mean", base.partition_mean)?,
        brownout_rate,
        brownout_mean: rate("brownout-mean", base.brownout_mean)?,
        brownout_factor,
        fail_prob,
        retry_budget: args.num_or("retry-budget", base.retry_budget)?,
        backoff_base: rate("backoff-base", base.backoff_base)?,
        queue_cap: args.num_or("queue-cap", base.queue_cap)?,
        mean_delay: rate("mean-delay", base.mean_delay)?,
        tolerant: true,
    }))
}

/// `mcc sweep`: run every built-in policy over `--seeds` seeds of a
/// workload family through the unified [`sweep_with`] run pipeline and
/// report mean/worst ratios against the optimum. `--threads` widens the
/// sweep, the chaos-layer knobs (`--crash-rate`, `--burst-rate`,
/// `--partition-rate`, `--brownout-rate`, plus shaping options — see
/// `fault_spec_from_args`) inject a fault regime (policies run wrapped
/// in the fault-tolerant layer), `--metrics FILE` exports the `metrics/1`
/// JSON snapshot and `--metrics-report` appends the rendered text report.
pub fn sweep(args: &ParsedArgs) -> Result<String, String> {
    let workload = build_workload(args)?;
    let seeds: u64 = args.num_or("seeds", 10u64)?;
    if seeds == 0 {
        return Err("--seeds must be at least 1".into());
    }
    let threads: usize = args.num_or("threads", 1usize)?;
    let faults = fault_spec_from_args(args)?;

    const SPECS: [&str; 4] = ["sc", "follow", "stay-at-origin", "keep-everywhere"];
    // Factories must be infallible, so each spec is validated up front;
    // the fallback inside the closure is unreachable after that check.
    let factories: Vec<PolicyFactory> = SPECS
        .iter()
        .map(|spec| -> Result<PolicyFactory, String> {
            build_policy(spec)?;
            let spec = spec.to_string();
            Ok(Box::new(move || {
                build_policy(&spec).unwrap_or_else(|_| Box::new(SpeculativeCaching::paper()))
            }))
        })
        .collect::<Result<_, _>>()?;
    let cells: Vec<GridCell<'_>> = SPECS
        .iter()
        .zip(&factories)
        .map(|(spec, f)| {
            let cell = GridCell::new(*spec, f, workload.as_ref());
            match faults {
                Some(fs) => cell.with_faults(fs),
                None => cell,
            }
        })
        .collect();

    let reg = Registry::new();
    let cell_results = sweep_with(cells, 0..seeds, threads, &reg);

    let mut table = Table::new(
        format!("{} × {seeds} seeds", workload.name()),
        &["policy", "mean ratio", "worst ratio", "mean cost"],
    );
    for cr in &cell_results {
        let mut ratios = Summary::new();
        let mut costs = Summary::new();
        for r in &cr.results {
            if r.opt_cost > 0.0 {
                ratios.push(r.online_cost / r.opt_cost);
            }
            costs.push(r.online_cost);
        }
        table.row(&[
            cr.policy_name.clone(),
            fnum(ratios.mean()),
            fnum(ratios.max()),
            fnum(costs.mean()),
        ]);
    }
    let mut out = table.to_markdown();

    if faults.is_some() {
        let _ = writeln!(out);
        for cr in &cell_results {
            let fs = cr.fault_stats();
            let _ = writeln!(
                out,
                "{}: {} retries, {} failovers, {} copies lost, {} audit findings",
                cr.policy_name,
                fs.retries,
                fs.failovers,
                fs.copies_lost,
                cr.total_audit_findings()
            );
            if fs.deferred > 0 || fs.reseeds > 0 || fs.budget_exhausted > 0 {
                let _ = writeln!(
                    out,
                    "  degraded mode: {} deferred ({} replayed, {} dropped), \
                     {} reseeds, {} budget exhaustions",
                    fs.deferred, fs.replayed, fs.dropped, fs.reseeds, fs.budget_exhausted
                );
            }
        }
    }
    if let Some(path) = args.options.get("metrics") {
        let doc = reg.snapshot().to_json();
        std::fs::write(path, doc.to_string_pretty())
            .map_err(|e| format!("--metrics {path}: {e}"))?;
        let _ = writeln!(out, "wrote metrics/1 snapshot to {path}");
    }
    if args.has_flag("metrics-report") {
        out.push('\n');
        out.push_str(&render_metrics(&reg.snapshot()));
    }
    Ok(out)
}

/// `mcc fleet`: simulate `--items` independent per-item SC instances
/// over the batched fleet layer and report the aggregate
/// [`mobile_cloud_cache::fleet::FleetSummary`]. Per-item `(μ, λ)` draw
/// from `--mu-dist` / `--lambda-dist` (`fixed:X`, `uniform:LO,HI`,
/// `exp:MEAN`; a plain `--mu X` / `--lambda X` is shorthand for
/// `fixed:X`). `--capacity N` runs the post-hoc capacity sweep with the
/// `--eviction` policy; `--no-audit` switches to the sim-only
/// throughput regime. `--metrics` / `--metrics-report` export the same
/// `metrics/1` snapshot the sweep command does.
pub fn fleet(args: &ParsedArgs) -> Result<String, String> {
    if args.operand.is_some() {
        return Err("`mcc fleet` takes no operand (it generates per-item traces itself)".into());
    }
    let dist = |key: &str, fixed_key: &str| -> Result<ParamDist, String> {
        match args.options.get(key) {
            Some(text) => ParamDist::parse(text).map_err(|e| format!("--{key}: {e}")),
            None => Ok(ParamDist::Fixed(args.num_or(fixed_key, 1.0f64)?)),
        }
    };
    let eviction = match args.opt_or("eviction", "none") {
        "none" => EvictionPolicy::None,
        "lru" => EvictionPolicy::Lru {
            price: args.num_or("eviction-price", 1.0f64)?,
        },
        other => return Err(format!("unknown eviction policy `{other}` (lru | none)")),
    };
    let spec = FleetSpec {
        items: args.num_or("items", 10_000usize)?,
        servers: args.num_or("servers", 8usize)?,
        requests_per_item: args.num_or("requests", 16usize)?,
        rate: args.num_or("rate", 1.0f64)?,
        mu: dist("mu-dist", "mu")?,
        lambda: dist("lambda-dist", "lambda")?,
        seed: args.num_or("seed", 0u64)?,
        capacity: match args.options.get("capacity") {
            Some(_) => Some(args.num_or("capacity", 0usize)?),
            None => None,
        },
        eviction,
        threads: args.num_or("threads", 1usize)?,
        audit: !args.has_flag("no-audit"),
    };
    let f: PolicyFactory = factory(SpeculativeCaching::<f64>::paper());
    let reg = Registry::new();
    let mut ws = FleetWorkspace::new();
    let sum = run_fleet(&spec, &f, &mut ws, &reg)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet: {} items × {} requests on {} servers ({} thread{})",
        sum.items,
        spec.requests_per_item,
        spec.servers,
        spec.threads,
        if spec.threads == 1 { "" } else { "s" }
    );
    let _ = writeln!(
        out,
        "  online cost Σ: {}  (OPT Σ: {})",
        fnum(sum.online_cost),
        fnum(sum.opt_cost)
    );
    let _ = writeln!(
        out,
        "  ratio: mean {}  worst {}",
        fnum(sum.mean_ratio),
        fnum(sum.max_ratio)
    );
    let snap = reg.snapshot();
    let cost_hist = snap.hist(mobile_cloud_cache::obs::Hist::FleetItemCostCenti);
    if cost_hist.count > 0 {
        let _ = writeln!(
            out,
            "  per-item cost: p99 {}  p999 {}  (from {} samples)",
            fnum(cost_hist.quantile(0.99) / 100.0),
            fnum(cost_hist.quantile(0.999) / 100.0),
            cost_hist.count
        );
    }
    let _ = writeln!(
        out,
        "  transfers: {}  audit findings: {}{}",
        sum.transfers,
        sum.audit_findings,
        if spec.audit { "" } else { " (audit off)" }
    );
    if let Some(cap) = spec.capacity {
        let _ = writeln!(
            out,
            "  capacity {cap}/server: occupancy peak {}, {} events",
            sum.occupancy_peak, sum.capacity_events
        );
        match spec.eviction {
            EvictionPolicy::Lru { price } => {
                let _ = writeln!(
                    out,
                    "  evictions: {} charged {} (price {} each) → total cost {}",
                    sum.evictions,
                    fnum(sum.eviction_cost),
                    fnum(price),
                    fnum(sum.total_cost())
                );
            }
            EvictionPolicy::None => {
                let _ = writeln!(out, "  capacity violations: {}", sum.capacity_violations);
            }
        }
    }
    if let Some(path) = args.options.get("metrics") {
        let doc = reg.snapshot().to_json();
        std::fs::write(path, doc.to_string_pretty())
            .map_err(|e| format!("--metrics {path}: {e}"))?;
        let _ = writeln!(out, "wrote metrics/1 snapshot to {path}");
    }
    if args.has_flag("metrics-report") {
        out.push('\n');
        out.push_str(&render_metrics(&reg.snapshot()));
    }
    Ok(out)
}

/// Parses `--crash S:FROM:TO[,S:FROM:TO...]` into a pure-outage
/// [`FaultPlan`] (no random call failures; the daemon's offline queue
/// buffers requests to crashed servers and replays them on recovery).
/// Server indexes are 0-based and must be below `servers` (a plan's
/// layout grows with the highest crashing server).
fn parse_crash_plan(spec: &str, servers: usize) -> Result<FaultPlan, String> {
    let mut windows = Vec::new();
    for part in spec.split(',') {
        let fields: Vec<&str> = part.split(':').collect();
        let [server, from, to] = fields.as_slice() else {
            return Err(format!("--crash: want S:FROM:TO, got `{part}`"));
        };
        let server: u32 = server
            .parse()
            .map_err(|_| format!("--crash: bad server `{server}`"))?;
        if server as usize >= servers {
            return Err(format!(
                "--crash: server {server} out of range (--servers {servers})"
            ));
        }
        let from: f64 = from
            .parse()
            .map_err(|_| format!("--crash: bad start `{from}`"))?;
        let to: f64 = to.parse().map_err(|_| format!("--crash: bad end `{to}`"))?;
        if !(from.is_finite() && to.is_finite() && from >= 0.0 && to > from) {
            return Err(format!(
                "--crash: window `{part}` must satisfy 0 <= FROM < TO"
            ));
        }
        windows.push(CrashWindow {
            server: ServerId(server),
            from,
            to,
        });
    }
    Ok(FaultPlan::new(windows, 0, 0.0, 0, 0.0))
}

/// The `mcc serve` loop over explicit IO (tests drive it with in-memory
/// buffers; [`serve`] passes stdin/stdout). Returns the rendered
/// run summary; response lines are written to `out` as they happen.
pub fn serve_loop<R: std::io::BufRead, W: std::io::Write>(
    args: &ParsedArgs,
    input: R,
    out: &mut W,
) -> Result<String, String> {
    let cost = mobile_cloud_cache::prelude::CostModel::new(
        args.num_or("mu", 1.0f64)?,
        args.num_or("lambda", 1.0f64)?,
    )
    .map_err(|e| e.to_string())?;
    let mut cfg = ServeConfig::new(args.num_or("servers", 8usize)?, cost).with_bounds(
        args.num_or("max-items", 1usize << 16)?,
        args.num_or("max-copies", 1usize << 20)?,
    );
    if let Some(spec) = args.options.get("crash") {
        let plan = parse_crash_plan(spec, cfg.servers)?;
        cfg = cfg.with_plan(plan);
    }
    // Validate the policy spec once up front, so a typo fails the whole
    // command instead of silently serving the fallback policy.
    let spec = args.opt_or("policy", "sc").to_string();
    build_policy(&spec)?;
    let f: PolicyFactory = Box::new(move || {
        build_policy(&spec).unwrap_or_else(|_| Box::new(SpeculativeCaching::paper()))
    });
    let reg = Registry::new();
    let mut engine = ServeEngine::new(cfg, f).with_sink(&reg);
    let opts = DaemonOptions {
        registry: Some(&reg),
        stats_on_exit: args.has_flag("stats"),
    };
    let clock = WallClock::new();
    let summary = match args.options.get("listen") {
        Some(addr) => {
            let listener =
                std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
            serve_tcp(&listener, &mut engine, &clock, &opts)?
        }
        None => serve_lines(&mut engine, &clock, input, out, &opts)?,
    };
    let mut text = String::new();
    let _ = writeln!(
        text,
        "serve: {} lines -> {} decisions, {} sheds, {} reports, {} replays, {} errors ({})",
        summary.lines,
        summary.decisions,
        summary.sheds,
        summary.reports,
        summary.replays,
        summary.errors,
        if summary.shutdown { "shutdown" } else { "eof" }
    );
    if let Some(path) = args.options.get("metrics") {
        let doc = reg.snapshot().to_json();
        std::fs::write(path, doc.to_string_pretty())
            .map_err(|e| format!("--metrics {path}: {e}"))?;
        let _ = writeln!(text, "wrote metrics/1 snapshot to {path}");
    }
    Ok(text)
}

/// `mcc serve`: the long-lived `serve/1` JSONL decision daemon.
/// Reads request lines from stdin and answers on stdout (one response
/// line per request; the answers to all the lines one read brought are
/// written and flushed together before the next read, so none waits on
/// input); `--listen ADDR` serves TCP connections instead, one at a
/// time, until a client sends `shutdown`.
pub fn serve(args: &ParsedArgs) -> Result<String, String> {
    if args.operand.is_some() || args.inline.is_some() {
        return Err("`mcc serve` reads serve/1 request lines from stdin (no trace operand)".into());
    }
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    serve_loop(args, stdin.lock(), &mut out)
}

/// `mcc load`: render a multi-item workload as `serve/1` request lines —
/// `--items` independent streams from the generate-style family (item
/// `k` seeded from a SplitMix64 scramble of `(--seed, k)`), merged onto
/// one global timeline, followed by a `finish` per item and a
/// `shutdown`. `--target-rate X` rescales the merged timeline to `X`
/// arrivals per unit time. Pipe straight into `mcc serve`.
pub fn load(args: &ParsedArgs) -> Result<String, String> {
    let workload = build_workload(args)?;
    let items = args.num_or("items", 4usize)?;
    if items == 0 {
        return Err("--items must be at least 1".into());
    }
    let seed = args.num_or("seed", 0u64)?;
    let mut events = load_events(workload.as_ref(), items, seed);
    if args.options.contains_key("target-rate") {
        let rate = args.num_or("target-rate", 0.0f64)?;
        if !(rate.is_finite() && rate > 0.0) {
            return Err("--target-rate must be a positive number".into());
        }
        rescale_to_rate(&mut events, rate);
    }
    let mut out = String::with_capacity(events.len() * 48);
    for e in &events {
        let line = request_line(&WireRequest::Req {
            item: e.item,
            server: e.server,
            t: Some(e.t),
        });
        out.push_str(&line.to_string_compact());
        out.push('\n');
    }
    for item in 0..items as u64 {
        out.push_str(&request_line(&WireRequest::Finish { item }).to_string_compact());
        out.push('\n');
    }
    out.push_str(&request_line(&WireRequest::Shutdown).to_string_compact());
    out.push('\n');
    Ok(out)
}

/// Builds the workload described by generate-style options.
fn build_workload(args: &ParsedArgs) -> Result<Box<dyn Workload>, String> {
    let family = args.operand.as_deref().ok_or("missing workload family")?;
    let common = CommonParams {
        servers: args.num_or("servers", 8usize)?,
        requests: args.num_or("requests", 200usize)?,
        mu: args.num_or("mu", 1.0f64)?,
        lambda: args.num_or("lambda", 1.0f64)?,
    };
    let rate = args.num_or("rate", 1.0f64)?;
    Ok(match family {
        "poisson" => Box::new(PoissonWorkload::uniform(common, rate)),
        "zipf" => Box::new(ZipfWorkload::new(
            common,
            rate,
            args.num_or("zipf", 1.1f64)?,
        )),
        "markov" => Box::new(MarkovWorkload::new(
            common,
            rate,
            args.num_or("rho", 0.93f64)?,
        )),
        "bursty" => Box::new(BurstyWorkload::new(common, 8.0, 0.05, 2.0)),
        "adversarial" => Box::new(AdversarialScWorkload::new(
            common,
            args.num_or("gap", 1.05f64)?,
        )),
        other => return Err(format!("unknown family `{other}`")),
    })
}

/// `mcc info`.
pub fn info(args: &ParsedArgs) -> Result<String, String> {
    let inst = load_instance(args)?;
    let scan = Prescan::compute(&inst);
    let sol = solve_fast(&inst);
    let mut per_server = vec![0usize; inst.servers()];
    for r in inst.requests() {
        per_server[r.server.index()] += 1;
    }
    let busiest = per_server.iter().enumerate().max_by_key(|&(_, c)| *c);
    let cheap_sigma = (1..=inst.n())
        .filter(
            |&i| matches!(scan.sigma[i], Some(s) if inst.cost().caching(s) < inst.cost().lambda),
        )
        .count();
    let mut out = String::new();
    let _ = writeln!(out, "servers (m):             {}", inst.servers());
    let _ = writeln!(out, "requests (n):            {}", inst.n());
    let _ = writeln!(out, "horizon (t_n):           {}", fnum(inst.horizon()));
    let _ = writeln!(
        out,
        "cost model:              mu = {}, lambda = {}, Δt = {}",
        fnum(inst.cost().mu),
        fnum(inst.cost().lambda),
        fnum(inst.cost().delta_t())
    );
    if let Some((j, c)) = busiest {
        let _ = writeln!(out, "busiest server:          s^{} ({} requests)", j + 1, c);
    }
    let _ = writeln!(out, "cache-friendly requests: {cheap_sigma} (μσ < λ)");
    let _ = writeln!(
        out,
        "running bound B_n:       {}",
        fnum(scan.total_lower_bound())
    );
    let _ = writeln!(out, "optimal cost C(n):       {}", fnum(sol.optimal_cost()));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn run_line(line: &str) -> Result<String, String> {
        crate::run(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    fn run_inline(cmd: &str, compact: &str, extra: &[&str]) -> Result<String, String> {
        let mut argv = vec![cmd.to_string(), "-c".to_string(), compact.to_string()];
        argv.extend(extra.iter().map(|s| s.to_string()));
        crate::run(&argv)
    }

    const FIG6: &str = "m=4 mu=1 lambda=1 | s2@0.5 s3@0.8 s4@1.1 s1@1.4 s2@2.6 s2@3.2 s3@4.0";

    /// Parses a `serve` argv and runs the loop over in-memory IO.
    fn serve_in_memory(line: &str, input: &str) -> (String, Vec<mobile_cloud_cache::model::Json>) {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let p = parse(&argv).unwrap();
        let mut out = Vec::new();
        let summary = serve_loop(&p, input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let docs = text
            .lines()
            .map(|l| mobile_cloud_cache::model::Json::parse(l).unwrap())
            .collect();
        (summary, docs)
    }

    #[test]
    fn load_renders_serve1_request_lines() {
        let out =
            run_line("load poisson --servers 4 --requests 6 --items 3 --seed 1 --target-rate 10")
                .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        // 3 items × 6 requests, one finish per item, one shutdown.
        assert_eq!(lines.len(), 3 * 6 + 3 + 1);
        assert!(lines[0].starts_with("{\"op\":\"req\""), "{}", lines[0]);
        assert!(lines[3 * 6].starts_with("{\"op\":\"finish\""));
        assert_eq!(lines[lines.len() - 1], "{\"op\":\"shutdown\"}");
        // Deterministic: same seed, same bytes.
        let again =
            run_line("load poisson --servers 4 --requests 6 --items 3 --seed 1 --target-rate 10")
                .unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn serve_smoke_a_thousand_requests() {
        // The documented pipeline `mcc load ... | mcc serve --stats`, in
        // memory: 20 items × 50 requests = 1000 decisions, a report per
        // item, a stats line, and a clean shutdown.
        let input = run_line("load poisson --servers 4 --requests 50 --items 20 --seed 7").unwrap();
        let (summary, docs) = serve_in_memory("serve --servers 4 --stats", &input);
        assert!(
            summary.contains("1021 lines -> 1000 decisions"),
            "{summary}"
        );
        assert!(summary.contains("20 reports"), "{summary}");
        assert!(summary.contains("0 errors (shutdown)"), "{summary}");
        assert_eq!(docs.len(), 1000 + 20 + 2); // decisions + reports + stats + bye
        for doc in &docs {
            mobile_cloud_cache::serve::wire::validate_response(doc).unwrap();
        }
        assert_eq!(
            docs[docs.len() - 1]
                .get("kind")
                .and_then(mobile_cloud_cache::model::Json::as_str),
            Some("bye")
        );
    }

    #[test]
    fn serve_crash_windows_defer_and_replay() {
        // Both servers down over [1, 2): the two mid-outage requests are
        // deferred into the offline queue and replayed on recovery.
        let input = concat!(
            "{\"op\":\"req\",\"item\":1,\"server\":1,\"t\":0.5}\n",
            "{\"op\":\"req\",\"item\":1,\"server\":1,\"t\":1.2}\n",
            "{\"op\":\"req\",\"item\":1,\"server\":0,\"t\":1.5}\n",
            "{\"op\":\"req\",\"item\":1,\"server\":1,\"t\":2.6}\n",
            "{\"op\":\"finish\",\"item\":1}\n",
            "{\"op\":\"shutdown\"}\n",
        );
        let (summary, docs) =
            serve_in_memory("serve --servers 2 --crash 0:1:2,1:1:2 --stats", input);
        assert!(summary.contains("2 replays"), "{summary}");
        let kinds: Vec<&str> = docs
            .iter()
            .filter_map(|d| {
                d.get("kind")
                    .and_then(mobile_cloud_cache::model::Json::as_str)
            })
            .collect();
        assert_eq!(kinds.iter().filter(|k| **k == "replayed").count(), 2);
        assert!(kinds.contains(&"report"));
    }

    #[test]
    fn serve_rejects_bad_specs_before_reading_input() {
        assert!(run_line("serve --crash nope").is_err());
        assert!(run_line("serve --crash 0:5:1").is_err());
        assert!(run_line("serve --servers 2 --crash 2:1:2").is_err());
        assert!(run_line("serve --crash 4000000000:1:2").is_err());
        assert!(run_line("serve --policy warp").is_err());
        assert!(run_line("serve trace.json").is_err());
        assert!(run_line("load --items 3").is_err()); // missing family
        assert!(run_line("load poisson --target-rate 0").is_err());
    }

    #[test]
    fn solve_reports_the_fig6_optimum() {
        let out = run_inline("solve", FIG6, &["--schedule"]).unwrap();
        assert!(out.contains("optimal cost C(n) = 8.9"), "{out}");
        assert!(out.contains("Tr("));
    }

    #[test]
    fn online_with_analysis() {
        let out = run_inline("online", FIG6, &["--analyze"]).unwrap();
        assert!(out.contains("sc: cost"), "{out}");
        assert!(out.contains("verified"), "{out}");
    }

    #[test]
    fn online_analysis_refuses_multi_epoch_runs() {
        // Epochs of three transfers reset SC mid-sequence, which voids the
        // Theorem 3 chain: a typed error (exit 2), not an abort.
        let dir = std::env::temp_dir().join("mcc-cli-epochs");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        let line = format!(
            "generate poisson --servers 8 --requests 400 --seed 77 --out {}",
            path.display()
        );
        run_line(&line).unwrap();
        let trace = path.display();
        let err = run_line(&format!("online {trace} --policy sc:epoch=3 --analyze")).unwrap_err();
        assert!(err.contains("single-epoch"), "{err}");
        // Without the analysis the same run still reports its cost.
        let out = run_line(&format!("online {trace} --policy sc:epoch=3")).unwrap();
        assert!(out.contains("cost"), "{out}");
    }

    #[test]
    fn online_policy_variants_parse() {
        for spec in [
            "sc:alpha=2",
            "sc:epoch=5",
            "sc:randomized=7",
            "follow",
            "keep-everywhere",
        ] {
            let out = run_inline("online", FIG6, &["--policy", spec]).unwrap();
            assert!(out.contains("cost"), "{spec}: {out}");
        }
        assert!(build_policy("sc:alpha=x").is_err());
        assert!(build_policy("nope").is_err());
    }

    #[test]
    fn compare_lists_all_policies() {
        let out = run_inline("compare", FIG6, &[]).unwrap();
        for p in ["sc", "follow", "stay-at-origin", "keep-everywhere", "OPT"] {
            assert!(out.contains(p), "{out}");
        }
    }

    #[test]
    fn generate_roundtrips_through_solve() {
        let out = run_line("generate poisson --servers 4 --requests 20 --seed 3").unwrap();
        let compact = out.trim();
        let solved = run_inline("solve", compact, &[]).unwrap();
        assert!(solved.contains("optimal cost"));
    }

    #[test]
    fn generate_writes_files() {
        let dir = std::env::temp_dir().join("mcc-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        let line = format!(
            "generate markov --servers 4 --requests 15 --rho 0.8 --out {}",
            path.display()
        );
        let out = run_line(&line).unwrap();
        assert!(out.contains("wrote 15 requests"));
        // And the written file loads back through `info`.
        let info = run_line(&format!("info {}", path.display())).unwrap();
        assert!(info.contains("requests (n):            15"), "{info}");
    }

    #[test]
    fn classic_prices_fixed_k_policies() {
        let out = run_inline("classic", FIG6, &["--k", "2"]).unwrap();
        for p in ["belady", "lru", "fifo", "lfu", "dynamic OPT"] {
            assert!(out.contains(p), "{out}");
        }
        assert!(out.contains("k = 2"));
        assert!(run_inline("classic", FIG6, &["--k", "9"]).is_err());
    }

    #[test]
    fn csv_traces_roundtrip_through_the_cli() {
        let dir = std::env::temp_dir().join("mcc-cli-csv");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let line = format!(
            "generate zipf --servers 5 --requests 25 --out {}",
            path.display()
        );
        run_line(&line).unwrap();
        let info = run_line(&format!("info {}", path.display())).unwrap();
        assert!(info.contains("requests (n):            25"), "{info}");
    }

    #[test]
    fn sweep_reports_policy_table() {
        let out = run_line("sweep markov --servers 4 --requests 40 --seeds 3 --rho 0.9").unwrap();
        for p in ["sc", "follow", "stay-at-origin", "keep-everywhere"] {
            assert!(out.contains(p), "{out}");
        }
        assert!(out.contains("markov(rho=0.9) × 3 seeds"), "{out}");
        assert!(run_line("sweep klingon").is_err());
        assert!(run_line("sweep poisson --seeds 0").is_err());
    }

    #[test]
    fn sweep_exports_and_renders_metrics() {
        let dir = std::env::temp_dir().join("mcc-cli-metrics");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.json");
        let line = format!(
            "sweep poisson --servers 4 --requests 30 --seeds 2 --metrics {} --metrics-report",
            path.display()
        );
        let out = run_line(&line).unwrap();
        assert!(out.contains("wrote metrics/1 snapshot"), "{out}");
        assert!(out.contains("== metrics/1 =="), "{out}");
        assert!(out.contains("off-line solver"), "{out}");
        assert!(out.contains("parallel sweep"), "{out}");
        // The exported file is a valid metrics/1 document.
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = mobile_cloud_cache::model::Json::parse(&text).unwrap();
        mobile_cloud_cache::obs::snapshot::validate(&doc).unwrap();
    }

    #[test]
    fn sweep_injects_faults_and_scales_threads() {
        let out = run_line(
            "sweep poisson --servers 4 --requests 40 --seeds 3 --threads 2 --crash-rate 0.5",
        )
        .unwrap();
        assert!(out.contains("audit findings"), "{out}");
        assert!(run_line("sweep poisson --crash-rate -1").is_err());
    }

    #[test]
    fn sweep_chaos_knobs_enable_and_shape_the_fault_layer() {
        // A partition-only regime enables the chaos layer without any
        // crashes; deep-chaos knobs all parse and thread through.
        let out = run_line(
            "sweep poisson --servers 4 --requests 40 --seeds 3 \
             --partition-rate 0.3 --partition-mean 0.8 --brownout-rate 0.2 \
             --brownout-factor 2.5 --burst-rate 0.1 --burst-coverage 0.6 \
             --crash-rate 0.4 --mean-downtime 1.5 --fail-prob 0.1 \
             --retry-budget 8 --backoff-base 0.05 --queue-cap 4 \
             --mean-delay 0.05 --metrics-report",
        )
        .unwrap();
        assert!(out.contains("audit findings"), "{out}");
        assert!(out.contains("fault layer"), "{out}");
        assert!(out.contains("partitions:"), "{out}");
        // Invalid shapes are rejected with the offending knob named.
        for bad in [
            "sweep poisson --burst-rate 0.1 --burst-coverage 1.5",
            "sweep poisson --crash-rate 0.1 --fail-prob 1.0",
            "sweep poisson --brownout-rate 0.1 --brownout-factor 0.5",
            "sweep poisson --partition-rate -2",
        ] {
            assert!(run_line(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn fleet_reports_summary_and_metrics() {
        let out = run_line(
            "fleet --items 64 --servers 4 --requests 8 --mu-dist uniform:0.5,2.0 \
             --lambda-dist exp:1.0 --seed 7 --threads 2 --metrics-report",
        )
        .unwrap();
        assert!(
            out.contains("fleet: 64 items × 8 requests on 4 servers"),
            "{out}"
        );
        assert!(out.contains("ratio: mean"), "{out}");
        assert!(out.contains("per-item cost: p99"), "{out}");
        assert!(out.contains("(from 64 samples)"), "{out}");
        assert!(out.contains("audit findings: 0"), "{out}");
        assert!(out.contains("fleet layer"), "{out}");
    }

    #[test]
    fn fleet_capacity_policies_and_no_audit() {
        // LRU eviction prices capacity pressure into the total.
        let lru = run_line(
            "fleet --items 64 --servers 4 --requests 8 --capacity 2 \
             --eviction lru --eviction-price 0.25",
        )
        .unwrap();
        assert!(lru.contains("capacity 2/server"), "{lru}");
        assert!(lru.contains("price 0.25 each"), "{lru}");
        // Eviction disabled: violations are reported instead.
        let none = run_line("fleet --items 64 --servers 4 --requests 8 --capacity 2").unwrap();
        assert!(none.contains("capacity violations:"), "{none}");
        // The sim-only regime keeps the cost lines bit-identical.
        let audited = run_line("fleet --items 64 --servers 4 --requests 8").unwrap();
        let quiet = run_line("fleet --items 64 --servers 4 --requests 8 --no-audit").unwrap();
        assert!(quiet.contains("(audit off)"), "{quiet}");
        let cost_line = |s: &str| {
            s.lines()
                .find(|l| l.contains("online cost"))
                .map(str::to_string)
        };
        assert_eq!(cost_line(&audited), cost_line(&quiet));
        // Bad shapes name the offending knob.
        assert!(run_line("fleet --eviction stack").is_err());
        assert!(run_line("fleet --mu-dist nope:1").is_err());
        assert!(run_line("fleet extra-operand").is_err());
    }

    #[test]
    fn info_reports_bounds() {
        let out = run_inline("info", FIG6, &[]).unwrap();
        assert!(out.contains("running bound B_n:       6.6"), "{out}");
        assert!(out.contains("optimal cost C(n):       8.9"), "{out}");
    }

    #[test]
    fn helpful_errors() {
        assert!(run_line("solve /no/such/file")
            .unwrap_err()
            .contains("no such trace"));
        assert!(run_line("generate klingon")
            .unwrap_err()
            .contains("unknown family"));
        let p = parse(&["online".to_string()]).unwrap();
        assert!(online(&p).is_err());
    }

    #[test]
    fn help_covers_every_command() {
        let h = help();
        for c in ["solve", "online", "compare", "generate", "info", "fleet"] {
            assert!(h.contains(c));
        }
    }
}
