//! The two in-process batch workloads, `fleet_capacity` and
//! `sweep_chaos`, and their traced runs.
//!
//! Each repetition runs the workload's job (the median job wall gives
//! `throughput_per_s`) and then the same fixed set of single requests,
//! each timed alone: small fleets for `fleet_capacity`, one SC unit at a
//! time for `sweep_chaos`. A request's latency is its fastest wall over
//! the run's repetitions — the work is identical each time, and a shared
//! host's interference only adds to it — and `latency_p50_us` is the
//! median of those over the requests.
//!
//! Outputs are checked three ways: every repetition of a seeded job or
//! request must reproduce the first one's digest with zero audit
//! findings (a timed SC unit must equal the sweep's result for its
//! seed); a small job at [`DEFAULT_SEED`] must reproduce a digest
//! recorded here, on one thread and on two; and every fleet item must
//! satisfy the competitive bound `SC ≤ 3·OPT + λ_item` that
//! `mcc online --analyze` prints.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;

use mcc_core::offline::BatchWorkspace;
use mcc_core::online::{FaultPlan, Follow, KeepEverywhere, SpeculativeCaching, StayAtOrigin};
use mcc_fleet::{run_fleet, EvictionPolicy, FleetSpec, FleetSummary, FleetWorkspace};
use mcc_model::Instance;
use mcc_obs::{Counter, Registry};
use mcc_simnet::{
    factory, sweep_with, CellResult, FaultSpec, GridCell, PlanScratch, PolicyFactory, RunMode,
    RunRequest, SeedResult,
};
use mcc_workloads::distributions::ParamDist;
use mcc_workloads::{CommonParams, InstanceBuf, PoissonWorkload, Workload};

use crate::common::{
    median, nanos, peak_rss_mb, repeat_for, secs, Digest, Lap, Outcome, SETUP_REPS,
};
use crate::{Args, Layers, DEFAULT_SEED};

/// Items in the seeded fleet job.
const FLEET_ITEMS: usize = 200_000;
/// Items in the fixed-seed fleet digest check.
const FLEET_CHECK_ITEMS: usize = 4_096;
/// Recorded digest of the [`FLEET_CHECK_ITEMS`] fleet at [`DEFAULT_SEED`].
const FLEET_CHECK_DIGEST: u64 = 0x656d_adbb_4783_cc01;
/// Worker threads of both batch workloads.
const THREADS: usize = 2;
/// Items in each small fleet request the latency probe times.
const PROBE_ITEMS: usize = 4_096;
/// Small fleet requests timed after each job, seeded `seed + 1 ..=
/// seed + PROBE_CALLS`.
const PROBE_CALLS: u64 = 16;
/// Worker threads of the small requests. One: a request split over both
/// cores of a small shared host waits for whichever worker the host
/// preempted, so its wall would time the host rather than the request.
const PROBE_THREADS: usize = 1;
/// Rounds of the traced runs' on/off jobs; each layer difference is
/// taken between the medians of its jobs.
const ONOFF_ROUNDS: usize = 3;
/// Items per chunk of the traced generate + solve pass (the fleet's
/// staging width).
const CHUNK: usize = 64;
/// Seeds per sweep job (× 4 policies = units).
const SWEEP_SEEDS: u64 = 32;
/// Seeds of the fixed-seed sweep digest check.
const SWEEP_CHECK_SEEDS: u64 = 8;
/// Recorded digest of the [`SWEEP_CHECK_SEEDS`] sweep at [`DEFAULT_SEED`].
const SWEEP_CHECK_DIGEST: u64 = 0xf2f6_7eb5_fd34_7a7f;

/// The fleet job: 8 servers, 16 requests per item, μ ~ U(0.5, 2),
/// λ ~ Exp(1), 4,096 slots per server with LRU eviction at 0.25, the
/// streaming audit on, two threads.
fn fleet_spec(seed: u64, items: usize) -> FleetSpec {
    FleetSpec {
        items,
        servers: 8,
        requests_per_item: 16,
        rate: 1.0,
        mu: ParamDist::Uniform { lo: 0.5, hi: 2.0 },
        lambda: ParamDist::Exp { mean: 1.0 },
        seed,
        capacity: Some(4_096),
        eviction: EvictionPolicy::Lru { price: 0.25 },
        threads: THREADS,
        audit: true,
    }
}

fn sc() -> PolicyFactory {
    factory(SpeculativeCaching::<f64>::paper())
}

/// Digest of a fleet run: every item's costs, transfers, findings and
/// evictions, then the capacity totals.
fn fleet_digest(ws: &FleetWorkspace, sum: &FleetSummary) -> u64 {
    let st = ws.states();
    let mut d = Digest::new();
    for j in 0..st.len() {
        d.float(st.online_cost[j]);
        d.float(st.opt_cost[j]);
        d.word(u64::from(st.transfers[j]));
        d.word(u64::from(st.audit_findings[j]));
        d.word(u64::from(st.evictions[j]));
    }
    d.word(sum.evictions);
    d.word(sum.capacity_events);
    d.word(sum.occupancy_peak as u64);
    d.value()
}

/// Items of the last run breaking `SC ≤ 3·OPT + λ_item`.
fn bound_violations(ws: &FleetWorkspace) -> u64 {
    let st = ws.states();
    (0..st.len())
        .filter(|&j| {
            let bound = 3.0 * st.opt_cost[j] + st.lambda[j];
            st.online_cost[j] > bound + 1e-9 * bound.abs().max(1.0)
        })
        .count() as u64
}

/// Runs the fixed-seed fleet on one and on two threads and counts the
/// runs whose digest differs from [`FLEET_CHECK_DIGEST`].
fn fleet_fixed_check(out: &mut Outcome) -> Result<(), String> {
    for threads in [1, THREADS] {
        let spec = FleetSpec {
            threads,
            ..fleet_spec(DEFAULT_SEED, FLEET_CHECK_ITEMS)
        };
        let mut ws = FleetWorkspace::new();
        let sum = run_fleet(&spec, &sc(), &mut ws, &Registry::new())?;
        let got = fleet_digest(&ws, &sum);
        if got != FLEET_CHECK_DIGEST {
            println!("fleet_capacity: fixed-seed digest {got:#018x} on {threads} thread(s), recorded {FLEET_CHECK_DIGEST:#018x}");
        }
        out.check(1, u64::from(got != FLEET_CHECK_DIGEST));
    }
    Ok(())
}

/// One timed fleet job on a warm workspace.
struct FleetRep {
    wall_s: f64,
    digest: u64,
    findings: u64,
    violations: u64,
}

fn fleet_rep(
    spec: &FleetSpec,
    f: &PolicyFactory,
    ws: &mut FleetWorkspace,
) -> Result<FleetRep, String> {
    let reg = Registry::new();
    let t0 = Instant::now();
    let sum = run_fleet(spec, f, ws, &reg)?;
    let wall_s = secs(t0);
    Ok(FleetRep {
        wall_s,
        digest: fleet_digest(ws, &sum),
        findings: sum.audit_findings,
        violations: bound_violations(ws),
    })
}

/// Set-up, [`SETUP_REPS`] times: fresh workspaces for the job and for
/// the small requests, each warmed by its first (cold) run. Returns the
/// last warm pair and the median seconds.
fn fleet_setup(
    spec: &FleetSpec,
    probe: &FleetSpec,
    f: &PolicyFactory,
) -> Result<(FleetWorkspace, FleetWorkspace, f64), String> {
    let mut times = Vec::new();
    let mut warm = None;
    for _ in 0..SETUP_REPS {
        drop(warm.take());
        let t0 = Instant::now();
        let mut ws = FleetWorkspace::new();
        run_fleet(spec, f, &mut ws, &Registry::new())?;
        let mut probe_ws = FleetWorkspace::new();
        run_fleet(probe, f, &mut probe_ws, &Registry::new())?;
        times.push(secs(t0));
        warm = Some((ws, probe_ws));
    }
    let (ws, probe_ws) = warm.ok_or("no set-up ran")?;
    Ok((ws, probe_ws, median(&times)))
}

/// Checks repetitions of one job or request against the first one:
/// same digest, no audit findings, no bound violations.
fn check_fleet_reps<'a>(
    out: &mut Outcome,
    reps: impl IntoIterator<Item = &'a FleetRep>,
    items: usize,
) {
    let mut first = None;
    for r in reps {
        let first = *first.get_or_insert(r.digest);
        out.check(1, u64::from(r.digest != first));
        out.check(items as u64, r.findings + r.violations);
    }
}

/// `fleet_capacity`, untraced. Each repetition is one job of
/// [`FLEET_ITEMS`] items, then [`PROBE_CALLS`] requests of
/// [`PROBE_ITEMS`] items, each on [`PROBE_THREADS`] thread and a
/// workspace of their own.
pub fn fleet(args: &Args) -> Result<Outcome, String> {
    let spec = fleet_spec(args.seed, FLEET_ITEMS);
    let probes: Vec<FleetSpec> = (1..=PROBE_CALLS)
        .map(|k| FleetSpec {
            threads: PROBE_THREADS,
            ..fleet_spec(args.seed.wrapping_add(k), PROBE_ITEMS)
        })
        .collect();
    let f = sc();
    let (mut ws, mut probe_ws, setup_s) = fleet_setup(&spec, &probes[0], &f)?;
    let reps = repeat_for(args.budget(), 3, || -> Result<_, String> {
        let job = fleet_rep(&spec, &f, &mut ws)?;
        let small: Vec<FleetRep> = probes
            .iter()
            .map(|p| fleet_rep(p, &f, &mut probe_ws))
            .collect::<Result<_, _>>()?;
        Ok((job, small))
    });
    let (jobs, smalls): (Vec<FleetRep>, Vec<Vec<FleetRep>>) = reps
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .unzip();
    let mut out = Outcome::default();
    check_fleet_reps(&mut out, &jobs, FLEET_ITEMS);
    for k in 0..probes.len() {
        check_fleet_reps(&mut out, smalls.iter().map(|s| &s[k]), PROBE_ITEMS);
    }
    fleet_fixed_check(&mut out)?;
    let walls: Vec<f64> = jobs.iter().map(|r| r.wall_s).collect();
    let fastest: Vec<f64> = (0..probes.len())
        .map(|k| {
            smalls
                .iter()
                .map(|s| s[k].wall_s)
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let all: Vec<f64> = smalls.iter().flatten().map(|r| r.wall_s).collect();
    println!(
        "fleet_capacity: {} jobs of {FLEET_ITEMS} items, job wall median {:.3} s; \
         {} requests of {PROBE_ITEMS} items × {} repetitions, wall median {:.3} ms \
         (fastest per request, then median: {:.3} ms)",
        jobs.len(),
        median(&walls),
        probes.len(),
        smalls.len(),
        median(&all) * 1e3,
        median(&fastest) * 1e3
    );
    out.metric("setup_s", setup_s, "s");
    out.metric(
        "throughput_per_s",
        FLEET_ITEMS as f64 / median(&walls),
        "1/s",
    );
    out.metric("latency_p50_us", median(&fastest) * 1e6, "us");
    out.metric("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0), "MB");
    Ok(out)
}

/// Per-thread self time of the traced generate + solve pass.
#[derive(Default)]
struct GenSolve {
    generate_ns: u64,
    solve_ns: u64,
    opt: Vec<f64>,
}

/// Generates the fleet's items `lo..hi` exactly as `run_fleet` does and
/// solves them through a [`BatchWorkspace`] in [`CHUNK`]-item chunks,
/// timing `generate_into` and push + solve apart.
fn gen_solve(spec: &FleetSpec, lo: usize, hi: usize) -> GenSolve {
    let mut g = GenSolve::default();
    let mut bufs: Vec<InstanceBuf> = (0..CHUNK).map(|_| InstanceBuf::new()).collect();
    let mut batch = BatchWorkspace::<f64>::new();
    let mut lap = Lap::start();
    for start in (lo..hi).step_by(CHUNK) {
        let end = (start + CHUNK).min(hi);
        lap.skip();
        for (buf, item) in bufs.iter_mut().zip(start..end) {
            let (mu, lambda) = spec.item_params(item as u64);
            let w = PoissonWorkload::uniform(
                CommonParams {
                    servers: spec.servers,
                    requests: spec.requests_per_item,
                    mu,
                    lambda,
                },
                spec.rate,
            );
            Workload::generate_into(&w, spec.trace_seed(item as u64), buf);
        }
        g.generate_ns += lap.take();
        batch.clear();
        for buf in &bufs[..end - start] {
            batch.push(buf.instance());
        }
        batch.solve();
        g.solve_ns += lap.take();
        g.opt
            .extend((0..end - start).map(|k| batch.optimal_cost(k)));
    }
    g
}

/// `fleet_capacity`, traced. Generation and the off-line solve are timed
/// directly ([`gen_solve`], split across the job's two threads); the
/// layers `run_fleet` has no entry point for are differences between
/// jobs that switch them on and off, [`ONOFF_ROUNDS`] rounds of each in
/// turn: simulation (audit and capacity off, minus generate and solve),
/// audit (on minus off) and capacity (on minus off). A difference below
/// zero fails the run: the jobs were noisier than the layer.
///
/// These layers add up to the full job by construction, so the
/// unattributed share is taken where an independent clock exists: it is
/// the part of the capacity difference outside the program's own
/// capacity-sweep span (`fleet_capacity_nanos`), i.e. the workers'
/// harvest of residency events plus job-to-job noise. It can fall below
/// zero; the gate applies to its magnitude.
pub fn fleet_traced(args: &Args) -> Result<(Outcome, Layers), String> {
    let full = fleet_spec(args.seed, FLEET_ITEMS);
    let f = sc();
    let mut ws = FleetWorkspace::new();
    run_fleet(&full, &f, &mut ws, &Registry::new())?;
    let mut out = Outcome::default();
    let base = fleet_rep(&full, &f, &mut ws)?;

    let half = FLEET_ITEMS.div_ceil(THREADS);
    let t0 = Instant::now();
    let parts: Vec<GenSolve> = thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|k| {
                let spec = &full;
                scope.spawn(move || gen_solve(spec, k * half, ((k + 1) * half).min(FLEET_ITEMS)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generate/solve thread panicked"))
            .collect()
    });
    let gs_wall = nanos(t0.elapsed());
    let gen = parts.iter().map(|p| p.generate_ns).sum::<u64>() as f64 / THREADS as f64;
    let solve = parts.iter().map(|p| p.solve_ns).sum::<u64>() as f64 / THREADS as f64;

    let job = |spec: FleetSpec,
               ws: &mut FleetWorkspace|
     -> Result<(f64, FleetSummary, Registry), String> {
        let reg = Registry::new();
        let t0 = Instant::now();
        let sum = run_fleet(&spec, &f, ws, &reg)?;
        Ok((nanos(t0.elapsed()) as f64, sum, reg))
    };
    // Plain, audited, full: the last job run is a full one.
    let specs = [
        FleetSpec {
            audit: false,
            capacity: None,
            eviction: EvictionPolicy::None,
            ..full
        },
        FleetSpec {
            capacity: None,
            eviction: EvictionPolicy::None,
            ..full
        },
        full,
    ];
    let mut walls: [Vec<f64>; 3] = Default::default();
    let mut cap_spans = Vec::new();
    let mut sums = Vec::new();
    for _ in 0..ONOFF_ROUNDS {
        for (spec, wall) in specs.iter().zip(&mut walls) {
            let (ns, sum, reg) = job(*spec, &mut ws)?;
            wall.push(ns);
            if spec.capacity.is_some() {
                cap_spans.push(reg.snapshot().counter(Counter::FleetCapacityNanos) as f64);
            }
            sums.push(sum);
        }
    }
    let [plain, audited, traced] = walls.map(|w| median(&w));
    let cap_span = median(&cap_spans);
    let sum = sums.pop().ok_or("no traced job ran")?;

    // Every job computes the same costs, and the generate + solve pass
    // the same optima item by item.
    let same = |a: &FleetSummary| a.online_cost == sum.online_cost && a.opt_cost == sum.opt_cost;
    out.check(
        sums.len() as u64,
        sums.iter().filter(|a| !same(a)).count() as u64,
    );
    let opt = parts.iter().flat_map(|p| &p.opt);
    let wrong = opt
        .zip(&ws.states().opt_cost)
        .filter(|(a, b)| a != b)
        .count();
    out.check(FLEET_ITEMS as u64, wrong as u64);
    out.check(1, u64::from(fleet_digest(&ws, &sum) != base.digest));
    out.check(
        FLEET_ITEMS as u64,
        sum.audit_findings + bound_violations(&ws) + base.findings,
    );

    let n = FLEET_ITEMS as f64;
    let mut layers = Layers::new();
    layers.insert("workloads.generate_ns", gen / n);
    layers.insert("offline.solve_ns", solve / n);
    let diffs = [
        ("fleet.simulate_ns", plain - gen - solve),
        ("audit.ns", audited - plain),
        ("capacity.ns", traced - audited),
    ];
    for (name, ns) in diffs {
        if ns < 0.0 {
            println!(
                "fleet_capacity traced: {name} came out negative ({:.0} ns/item)",
                ns / n
            );
        }
        out.check(1, u64::from(ns < 0.0));
        layers.insert(name, ns / n);
    }
    layers.insert("capacity.events", sum.capacity_events as f64);
    layers.insert("capacity.evictions", sum.evictions as f64);
    layers.insert(
        "trace.unattributed_frac",
        1.0 - (audited + cap_span) / traced,
    );
    layers.insert("trace.overhead_frac", traced / (base.wall_s * 1e9) - 1.0);
    println!(
        "fleet_capacity traced: generate+solve pass {:.3} s; job medians over {ONOFF_ROUNDS} rounds: \
         plain {:.3} s, audited {:.3} s, full {:.3} s (capacity sweep span {:.3} s); \
         untraced full job {:.3} s",
        gs_wall as f64 / 1e9,
        plain / 1e9,
        audited / 1e9,
        traced / 1e9,
        cap_span / 1e9,
        base.wall_s
    );
    Ok((out, layers))
}

/// The sweep's fault regime: crash rate 0.1, every other field at its
/// default, policies wrapped tolerant.
fn fault_spec(seed: u64) -> FaultSpec {
    FaultSpec {
        seed,
        crash_rate: 0.1,
        ..FaultSpec::default()
    }
}

fn sweep_workload() -> PoissonWorkload {
    PoissonWorkload::uniform(
        CommonParams {
            servers: 16,
            requests: 2_000,
            mu: 1.0,
            lambda: 1.0,
        },
        1.0,
    )
}

/// The four policies `mcc sweep` runs, in its order.
fn sweep_policies() -> Vec<(&'static str, PolicyFactory)> {
    vec![
        ("sc", sc()),
        ("follow", factory(Follow::new())),
        ("stay-at-origin", factory(StayAtOrigin::new())),
        ("keep-everywhere", factory(KeepEverywhere::new())),
    ]
}

/// `count` consecutive run seeds derived from the benchmark seed.
fn sweep_seeds(seed: u64, count: u64) -> std::ops::Range<u64> {
    let base = seed.wrapping_mul(SWEEP_SEEDS);
    base..base + count
}

fn fold_result(d: &mut Digest, r: &SeedResult) {
    d.word(r.seed);
    d.float(r.online_cost);
    d.float(r.opt_cost);
    d.word(r.transfers as u64);
    d.word(r.audit_findings as u64);
    if let Some(fo) = &r.fault {
        d.word(fo.crashes as u64);
        d.word(fo.stats.retries as u64);
        d.word(fo.stats.failovers as u64);
        d.word(fo.stats.copies_lost as u64);
    }
}

fn sweep_digest(cells: &[CellResult]) -> u64 {
    let mut d = Digest::new();
    for c in cells {
        for r in &c.results {
            fold_result(&mut d, r);
        }
    }
    d.value()
}

/// One `sweep_with` job over `seeds`, as `mcc sweep poisson --servers 16
/// --requests 2000 --crash-rate 0.1 --threads N` runs it.
fn sweep_job(
    policies: &[(&'static str, PolicyFactory)],
    w: &PoissonWorkload,
    faults: FaultSpec,
    seeds: std::ops::Range<u64>,
    threads: usize,
) -> Vec<CellResult> {
    let cells: Vec<GridCell<'_>> = policies
        .iter()
        .map(|(name, f)| GridCell::new(*name, f, w).with_faults(faults))
        .collect();
    sweep_with(cells, seeds, threads, &Registry::new())
}

/// Runs the fixed-seed sweep on `threads` threads and counts a failure
/// if its digest differs from [`SWEEP_CHECK_DIGEST`].
fn sweep_fixed_check(
    out: &mut Outcome,
    policies: &[(&'static str, PolicyFactory)],
    w: &PoissonWorkload,
    threads: usize,
) {
    let seeds = sweep_seeds(DEFAULT_SEED, SWEEP_CHECK_SEEDS);
    let cells = sweep_job(policies, w, fault_spec(DEFAULT_SEED), seeds, threads);
    let got = sweep_digest(&cells);
    if got != SWEEP_CHECK_DIGEST {
        println!("sweep_chaos: fixed-seed digest {got:#018x} on {threads} thread(s), recorded {SWEEP_CHECK_DIGEST:#018x}");
    }
    out.check(1, u64::from(got != SWEEP_CHECK_DIGEST));
}

fn units() -> usize {
    4 * SWEEP_SEEDS as usize
}

/// Digest of one unit's result.
fn unit_digest(r: &SeedResult) -> u64 {
    let mut d = Digest::new();
    fold_result(&mut d, r);
    d.value()
}

/// `sweep_chaos`, untraced. Each set-up builds the policies, the
/// workload and the single-unit runner, and warms up with the fixed-seed
/// check job. Each repetition is one sweep job on [`THREADS`] threads,
/// then every SC unit of the job alone on this thread
/// (`RunRequest::run_units` with one seed, as a sweep worker runs it).
pub fn sweep(args: &Args) -> Result<Outcome, String> {
    let faults = fault_spec(args.seed);
    let seeds: Vec<u64> = sweep_seeds(args.seed, SWEEP_SEEDS).collect();
    let mut out = Outcome::default();
    let mut times = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let policies = sweep_policies();
        let w = sweep_workload();
        let req = RunRequest::new(RunMode::Faulty(faults));
        let policy = req.policy(&policies[0].1);
        sweep_fixed_check(&mut out, &policies, &w, THREADS);
        times.push(secs(t0));
        ready = Some((policies, w, req, policy));
    }
    let setup_s = median(&times);
    let (policies, w, mut req, mut policy) = ready.ok_or("no set-up ran")?;
    let mut unit_out = Vec::with_capacity(1);
    let reps = repeat_for(args.budget(), 3, || {
        let t0 = Instant::now();
        let cells = sweep_job(
            &policies,
            &w,
            faults,
            sweep_seeds(args.seed, SWEEP_SEEDS),
            THREADS,
        );
        let wall = secs(t0);
        let alone: Vec<(f64, u64)> = seeds
            .iter()
            .map(|&seed| {
                unit_out.clear();
                let t0 = Instant::now();
                req.run_units(&mut policy, &w, &[seed], &mut unit_out);
                let wall = secs(t0);
                (wall, unit_out.first().map_or(0, unit_digest))
            })
            .collect();
        (wall, cells, alone)
    });
    let first = sweep_digest(&reps[0].1);
    for (_, cells, alone) in &reps {
        out.check(1, u64::from(sweep_digest(cells) != first));
        let findings: usize = cells.iter().map(CellResult::total_audit_findings).sum();
        out.check(units() as u64, findings as u64);
        // The SC cell comes first, its results in seed order.
        let wrong = cells[0]
            .results
            .iter()
            .zip(alone)
            .filter(|(r, a)| unit_digest(r) != a.1)
            .count();
        out.check(seeds.len() as u64, wrong as u64);
    }
    sweep_fixed_check(&mut out, &policies, &w, 1);
    let walls: Vec<f64> = reps.iter().map(|r| r.0).collect();
    let fastest: Vec<f64> = (0..seeds.len())
        .map(|i| reps.iter().map(|r| r.2[i].0).fold(f64::INFINITY, f64::min))
        .collect();
    let all: Vec<f64> = reps.iter().flat_map(|r| r.2.iter().map(|a| a.0)).collect();
    println!(
        "sweep_chaos: {} jobs of {} units, job wall median {:.3} s; {} SC units alone × {} \
         repetitions, wall median {:.3} ms (fastest per unit, then median: {:.3} ms)",
        reps.len(),
        units(),
        median(&walls),
        seeds.len(),
        reps.len(),
        median(&all) * 1e3,
        median(&fastest) * 1e3
    );
    out.metric("setup_s", setup_s, "s");
    out.metric("throughput_per_s", units() as f64 / median(&walls), "1/s");
    out.metric("latency_p50_us", median(&fastest) * 1e6, "us");
    out.metric("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0), "MB");
    Ok(out)
}

/// One replica worker's self time.
#[derive(Default)]
struct Worker {
    busy_ns: u64,
    dispatch_ns: u64,
    generate_ns: u64,
    plan_ns: u64,
    run_ns: u64,
    results: Vec<(usize, SeedResult)>,
}

/// One worker of the traced sweep replica: grabs chunks of units off the
/// shared counter as `sweep_with` does, and per unit times
/// `generate_into`, `FaultSpec::plan_for_into` and
/// `RunRequest::run_seed_with_plan` (the fault-wrapped policy run, its
/// audit and the unit's off-line optimum).
fn replica_worker(
    policies: &[(&'static str, PolicyFactory)],
    w: &PoissonWorkload,
    faults: FaultSpec,
    seeds: &[u64],
    chunk: usize,
    next: &AtomicUsize,
) -> Worker {
    let units = policies.len() * seeds.len();
    let mut wk = Worker::default();
    let mut req = RunRequest::new(RunMode::Faulty(faults));
    let mut buf = InstanceBuf::new();
    let mut plan = FaultPlan::none();
    let mut scratch = PlanScratch::default();
    let mut current = None;
    let t0 = Instant::now();
    let mut lap = Lap::start();
    loop {
        lap.skip();
        let start = next.fetch_add(chunk, Ordering::Relaxed);
        wk.dispatch_ns += lap.take();
        if start >= units {
            break;
        }
        for unit in start..(start + chunk).min(units) {
            let (cell, seed) = (unit / seeds.len(), seeds[unit % seeds.len()]);
            let policy = match &mut current {
                Some((idx, p)) if *idx == cell => p,
                slot => &mut slot.insert((cell, req.policy(&policies[cell].1))).1,
            };
            lap.skip();
            let inst = Workload::generate_into(w, seed, &mut buf);
            wk.generate_ns += lap.take();
            faults.plan_for_into(
                seed,
                inst.servers(),
                inst.horizon(),
                &mut plan,
                &mut scratch,
            );
            wk.plan_ns += lap.take();
            let r = req.run_seed_with_plan(policy, seed, inst, &plan);
            wk.run_ns += lap.take();
            wk.results.push((unit, r));
        }
    }
    wk.busy_ns = nanos(t0.elapsed());
    wk
}

/// Nanoseconds per unit of one pass of `run_seed` on one thread over
/// every policy and `seeds`, under `mode`, with the audit on or off.
fn unit_pass(
    policies: &[(&'static str, PolicyFactory)],
    insts: &[(u64, Instance<f64>)],
    mode: RunMode,
    audit: bool,
) -> f64 {
    let req = RunRequest::new(mode);
    let mut req = if audit {
        req.with_streaming_audit()
    } else {
        req.without_audit()
    };
    let t0 = Instant::now();
    for (_, f) in policies {
        let mut policy = req.policy(f);
        for (seed, inst) in insts {
            std::hint::black_box(req.run_seed(&mut policy, *seed, inst));
        }
    }
    nanos(t0.elapsed()) as f64 / (policies.len() * insts.len()) as f64
}

/// `sweep_chaos`, traced: a two-worker replica of `sweep_with` built from
/// the public per-unit calls gives self time per layer, dispatch wait and
/// worker balance, and must reproduce the sweep's results bit for bit.
/// The layers inside `run_seed` come from one-thread passes over the same
/// units: the off-line solve through a [`BatchWorkspace`], the audit
/// (audited minus unaudited) and the fault wrapper (faulty minus plain,
/// audit off), each pass run [`ONOFF_ROUNDS`] times in turn and its
/// median taken. A difference below zero fails the run.
pub fn sweep_traced(args: &Args) -> Result<(Outcome, Layers), String> {
    let faults = fault_spec(args.seed);
    let policies = sweep_policies();
    let w = sweep_workload();
    let seeds: Vec<u64> = sweep_seeds(args.seed, SWEEP_SEEDS).collect();
    sweep_job(
        &policies,
        &w,
        faults,
        sweep_seeds(args.seed, SWEEP_CHECK_SEEDS),
        THREADS,
    );
    let t0 = Instant::now();
    let base = sweep_job(
        &policies,
        &w,
        faults,
        sweep_seeds(args.seed, SWEEP_SEEDS),
        THREADS,
    );
    let base_s = secs(t0);

    let n = units();
    let chunk = (n / THREADS / 8).max(1);
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let workers: Vec<Worker> = thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (policies, w, seeds, next) = (&policies, &w, &seeds, &next);
                scope.spawn(move || replica_worker(policies, w, faults, seeds, chunk, next))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replica worker panicked"))
            .collect()
    });
    let wall = nanos(t0.elapsed()) as f64;

    let mut results: Vec<(usize, SeedResult)> = workers
        .iter()
        .flat_map(|wk| wk.results.iter().cloned())
        .collect();
    results.sort_by_key(|r| r.0);
    let mut d = Digest::new();
    for (_, r) in &results {
        fold_result(&mut d, r);
    }
    let mut out = Outcome::default();
    out.check(
        1,
        u64::from(d.value() != sweep_digest(&base) || results.len() != n),
    );
    let findings: usize = results.iter().map(|r| r.1.audit_findings).sum();
    out.check(n as u64, findings as u64);

    // The one-thread passes run over the first SWEEP_CHECK_SEEDS seeds.
    let insts: Vec<(u64, Instance<f64>)> = seeds
        .iter()
        .take(SWEEP_CHECK_SEEDS as usize)
        .map(|&s| (s, w.generate(s)))
        .collect();
    let mut batch = BatchWorkspace::<f64>::new();
    let t0 = Instant::now();
    for (_, inst) in &insts {
        batch.push(inst);
    }
    batch.solve();
    let solve = nanos(t0.elapsed()) as f64 / insts.len() as f64;
    let passes = [
        (RunMode::Faulty(faults), true),
        (RunMode::Faulty(faults), false),
        (RunMode::Plain, false),
    ];
    let mut pass_ns: [Vec<f64>; 3] = Default::default();
    for _ in 0..ONOFF_ROUNDS {
        for (&(mode, audit), ns) in passes.iter().zip(&mut pass_ns) {
            ns.push(unit_pass(&policies, &insts, mode, audit));
        }
    }
    let [faulty_audited, faulty, plain] = pass_ns.map(|v| median(&v));

    let sum = |f: fn(&Worker) -> u64| workers.iter().map(f).sum::<u64>() as f64;
    let attributed = sum(|wk| wk.dispatch_ns + wk.generate_ns + wk.plan_ns + wk.run_ns);
    let busy_max = workers.iter().map(|wk| wk.busy_ns).max().unwrap_or(0) as f64;
    let busy_mean = sum(|wk| wk.busy_ns) / workers.len() as f64;
    let fold = |f: fn(&SeedResult) -> usize| results.iter().map(|r| f(&r.1)).sum::<usize>() as f64;
    let retries = fold(|r| r.fault.as_ref().map_or(0, |fo| fo.stats.retries));
    let transfers = fold(|r| r.transfers);

    let per = |ns: f64| ns / n as f64;
    let mut layers = Layers::new();
    layers.insert("workloads.generate_ns", per(sum(|wk| wk.generate_ns)));
    layers.insert("fault.plan_ns", per(sum(|wk| wk.plan_ns)));
    layers.insert("simnet.run_ns", per(sum(|wk| wk.run_ns)));
    layers.insert("sweep.dispatch_wait_ns", per(sum(|wk| wk.dispatch_ns)));
    layers.insert("sweep.worker_imbalance", busy_max / busy_mean);
    layers.insert("offline.solve_ns", solve);
    for (name, ns) in [
        ("audit.ns", faulty_audited - faulty),
        ("fault.run_ns", faulty - plain),
    ] {
        if ns < 0.0 {
            println!("sweep_chaos traced: {name} came out negative ({ns:.0} ns/unit)");
        }
        out.check(1, u64::from(ns < 0.0));
        layers.insert(name, ns);
    }
    layers.insert(
        "fault.crash_windows",
        fold(|r| r.fault.as_ref().map_or(0, |fo| fo.crashes)),
    );
    layers.insert("fault.retries", retries);
    layers.insert(
        "fault.failovers",
        fold(|r| r.fault.as_ref().map_or(0, |fo| fo.stats.failovers)),
    );
    layers.insert(
        "fault.transfer_ok_frac",
        transfers / (transfers + retries).max(1.0),
    );
    layers.insert(
        "trace.unattributed_frac",
        1.0 - attributed / (THREADS as f64 * wall),
    );
    layers.insert("trace.overhead_frac", wall / (base_s * 1e9) - 1.0);
    println!(
        "sweep_chaos traced: replica wall {:.3} s beside untraced sweep_with wall {base_s:.3} s",
        wall / 1e9
    );
    Ok((out, layers))
}
