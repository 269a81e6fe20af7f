//! The benchmark harness behind `BENCH_{solver,sweep,fleet,serve}.json`
//! and the `bench` binary (schema `bench/1`, EXPERIMENTS.md E14).
//!
//! Every suite times live code only and writes one document:
//!
//! * `suite`, `scale` (`full` or `quick`) and `shape` — what ran;
//! * `rate` — the suite's end-to-end rate and its unit: batched-kernel
//!   requests/s (`solver`), seed units/s through the parallel sweep
//!   (`sweep`), items/s through `run_fleet` (`fleet`), and `serve/1`
//!   decisions/s from request bytes in to response bytes out (`serve`);
//! * `quantiles` — where the suite has a distribution: decision latency
//!   for `serve`, per-item cost for `fleet`;
//! * `rows` — per-shape detail (grid points, sizes, thread counts);
//! * `gates` — the committed reading of every regression gate;
//! * `hw_threads` and `peak_rss_kb` (this process's `VmHWM`; the binary
//!   runs each suite in a process of its own).
//!
//! **Gates.** A gate reading is the median of per-pair ratios, its two
//! sides timed in alternating reps, so interference that outlasts a pair
//! slows both sides alike; each gate's pairs come in slices spread over
//! the suite's whole measurement. Every suite has a `calibrated_rate`
//! gate: its quick pass paired with a calibration kernel that uses no
//! crate of this repository, read as quick-pass units done per kernel
//! rep. A slower or busier host slows both sides; a slower suite moves
//! the ratio. The other gates pair two live configurations (batched vs.
//! per-instance solver, 8 threads vs. 1, metrics on vs. off, SC at 256
//! servers vs. 8) or read a latency quantile. The full run records every
//! reading with the same function `--check` re-measures with, and one
//! gate function judges them all.

use std::hint::black_box;
use std::time::Instant;

use mcc_core::offline::{
    solve_batch_in, solve_fast, solve_fast_in, solve_naive, solve_naive_in, BatchWorkspace,
    SolverWorkspace,
};
use mcc_core::online::{run_policy_record, FaultPlan, Runtime, SpeculativeCaching};
use mcc_fleet::{run_fleet, EvictionPolicy, FleetSpec, FleetWorkspace};
use mcc_model::{CostModel, Instance, Json};
use mcc_obs::{noop, Hist, HistSnapshot, Registry};
use mcc_serve::wire::request_line;
use mcc_serve::{serve_lines, DaemonOptions, ServeConfig, ServeEngine, WireRequest};
use mcc_simnet::{
    factory, sweep, FaultSpec, GridCell, PlanScratch, PolicyFactory, RunMode, RunRequest, SimClock,
};
use mcc_workloads::distributions::ParamDist;
use mcc_workloads::{load_events, CommonParams, InstanceBuf, PoissonWorkload, Workload};

use super::Scale;

/// The schema tag of every document.
const SCHEMA: &str = "bench/1";
/// Minimum wall time of one report measurement; reps repeat until reached.
const REPORT_SECS: f64 = 0.3;
/// Minimum wall time one gate is measured for.
const GATE_SECS: f64 = 1.5;
/// Slices each gate's time is cut into (see [`measure`]).
const ROUNDS: usize = 3;
/// Minimum pairs one gate is measured for.
const MIN_PAIRS: usize = 5;
/// Thread counts of the scaling rows.
const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Thread count of the efficiency gates.
const GATE_THREADS: usize = 8;
/// Floor of the efficiency gates: 8-thread speedup over one thread,
/// divided by `min(8, hw_threads)`. A sweep that serializes on a lock
/// reads near `1/threads`.
const EFFICIENCY_FLOOR: f64 = 0.35;
/// The name of every suite's calibrated-rate gate.
const CALIBRATED: &str = "calibrated_rate";

/// One benchmark suite.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Suite {
    /// The off-line solvers.
    Solver,
    /// The sweep pipeline.
    Sweep,
    /// The fleet simulator.
    Fleet,
    /// The `serve/1` daemon loop.
    Serve,
}

impl Suite {
    /// Every suite, in the order the binary runs them.
    pub const ALL: [Suite; 4] = [Suite::Solver, Suite::Sweep, Suite::Fleet, Suite::Serve];

    /// The suite's name on the command line and in its document.
    pub fn name(self) -> &'static str {
        match self {
            Suite::Solver => "solver",
            Suite::Sweep => "sweep",
            Suite::Fleet => "fleet",
            Suite::Serve => "serve",
        }
    }

    /// The suite named `name`, if any.
    pub fn parse(name: &str) -> Option<Suite> {
        Suite::ALL.into_iter().find(|s| s.name() == name)
    }

    /// The committed document's file name.
    pub fn file(self) -> String {
        format!("BENCH_{}.json", self.name())
    }

    /// How far the calibrated rate may fall below its committed value.
    /// A serve pass runs microsecond decisions through the wire layers,
    /// where only a hot-path regression moves it by a quarter.
    fn budget(self) -> f64 {
        match self {
            Suite::Serve => 0.25,
            _ => 0.10,
        }
    }
}

/// What a gate reading must satisfy.
#[derive(Copy, Clone, Debug, PartialEq)]
enum Limit {
    /// At most this fraction below the committed reading.
    Budget(f64),
    /// At or above this value.
    Min(f64),
    /// At or below this value.
    Max(f64),
}

/// One gate's samples (per-pair ratios, or one quantile).
#[derive(Debug)]
struct Reading {
    /// The gate's name in the document.
    name: &'static str,
    /// What the median must satisfy.
    limit: Limit,
    /// The samples the median is taken over.
    samples: Vec<f64>,
}

/// The median of `xs` (NaN when empty).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The shared regression gate: the median of `samples` against `limit`.
/// A [`Limit::Budget`] compares with `committed`, the reading the
/// committed document recorded. Fails on no samples, on a sample that is
/// not a finite positive number and on a missing committed value.
/// Returns the median.
fn judge(samples: &[f64], limit: Limit, committed: Option<f64>) -> Result<f64, String> {
    if samples.is_empty() {
        return Err("no samples".into());
    }
    if let Some(bad) = samples.iter().find(|x| !(x.is_finite() && **x > 0.0)) {
        return Err(format!("sample {bad} is not a finite positive number"));
    }
    let mid = median(samples);
    let ok = match limit {
        Limit::Budget(budget) => {
            let c = committed
                .filter(|c| c.is_finite() && *c > 0.0)
                .ok_or("no committed reading to compare with")?;
            mid >= c * (1.0 - budget)
        }
        Limit::Min(floor) => mid >= floor,
        Limit::Max(ceiling) => mid <= ceiling,
    };
    if ok {
        Ok(mid)
    } else {
        Err(format!(
            "median {mid:.4} breaks {}",
            describe(limit, committed)
        ))
    }
}

fn describe(limit: Limit, committed: Option<f64>) -> String {
    match (limit, committed) {
        (Limit::Budget(b), Some(c)) => format!(
            "floor {:.4} (committed {c:.4} less {:.0}%)",
            c * (1.0 - b),
            b * 100.0
        ),
        (Limit::Budget(b), None) => format!("a {:.0}% budget", b * 100.0),
        (Limit::Min(x), _) => format!("floor {x:.4}"),
        (Limit::Max(x), _) => format!("ceiling {x:.4}"),
    }
}

/// Words the calibration kernel fills and sorts.
const KERNEL_WORDS: usize = 1 << 15;

/// The calibration kernel: an xorshift fill of 32Ki words, a sort and a
/// dependent `f64` chain over the sorted words — integer, memory and
/// floating-point work in about a millisecond. It calls no crate of this
/// repository, so no change to the code under test can move it.
fn calibration_kernel(buf: &mut Vec<u64>) -> f64 {
    buf.clear();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..KERNEL_WORDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        buf.push(x);
    }
    buf.sort_unstable();
    buf.iter()
        .fold(1.0, |acc, &w| acc * 0.999_999 + (w >> 40) as f64 * 1e-9)
}

fn secs(f: &mut impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// A gate under measurement: each call of `pair` times one rep of each
/// of the gate's two sides and returns the pair's reading.
struct Probe<'a> {
    name: &'static str,
    limit: Limit,
    pair: Box<dyn FnMut() -> f64 + 'a>,
}

/// One pair: times `a`, then `b`, and returns `time(a) / time(b)`.
fn pair<'a>(mut a: impl FnMut() + 'a, mut b: impl FnMut() + 'a) -> impl FnMut() -> f64 + 'a {
    move || {
        let ta = secs(&mut a);
        ta / secs(&mut b).max(1e-12)
    }
}

/// Measures one suite's gates: [`ROUNDS`] rounds in which each probe in
/// turn runs one warm-up pair and then pairs for `GATE_SECS / ROUNDS`
/// (at least [`MIN_PAIRS`] in all). Spread over the whole measurement, a
/// spell of co-tenant load shorter than it touches only part of each
/// gate's pairs, so it moves the median less. Within a slice the two sides
/// strictly alternate, so every rep of one side starts from the cache
/// state the other side left; a side that sometimes ran twice in a row
/// would split the ratios into a warm and a cold cluster, and the median
/// would jump between them from run to run.
fn measure(mut probes: Vec<Probe<'_>>) -> Vec<Reading> {
    let mut samples = vec![Vec::new(); probes.len()];
    for round in 1..=ROUNDS {
        for (p, s) in probes.iter_mut().zip(&mut samples) {
            (p.pair)();
            let t0 = Instant::now();
            while t0.elapsed().as_secs_f64() < GATE_SECS / ROUNDS as f64
                || (round == ROUNDS && s.len() < MIN_PAIRS)
            {
                s.push((p.pair)());
            }
        }
    }
    probes
        .into_iter()
        .zip(samples)
        .map(|(p, samples)| Reading {
            name: p.name,
            limit: p.limit,
            samples,
        })
        .collect()
}

/// The `calibrated_rate` probe of `suite`: `pass` (which does `units` of
/// the suite's work) paired with `reps` back-to-back calibration kernel
/// reps, read as units done per kernel rep. A pass that lasts several
/// kernel reps is paired with about as many, so interference shorter
/// than a pair has the same odds of landing on either side. The count is
/// fixed rather than measured: the first rep after a pass runs with a
/// cold cache, so a count that came out differently from run to run
/// would itself move the reading.
fn calibrated<'a>(suite: Suite, units: usize, reps: usize, pass: impl FnMut() + 'a) -> Probe<'a> {
    let mut buf = Vec::with_capacity(KERNEL_WORDS);
    let kernels = move || {
        for _ in 0..reps {
            black_box(calibration_kernel(&mut buf));
        }
    };
    let mut ratio = pair(kernels, pass);
    Probe {
        name: CALIBRATED,
        limit: Limit::Budget(suite.budget()),
        pair: Box::new(move || ratio() * units as f64 / reps as f64),
    }
}

/// Parallel efficiency: a speedup over one thread divided by the best
/// the hardware allows at `threads`. One core at parity reads 1.0; eight
/// cores need a true 8x for the same 1.0.
fn efficiency(speedup: f64, threads: usize) -> f64 {
    speedup / threads.min(hw_threads()) as f64
}

/// The efficiency probe: `one` (1 thread) paired with `eight`
/// ([`GATE_THREADS`] threads).
fn efficiency_probe<'a>(one: impl FnMut() + 'a, eight: impl FnMut() + 'a) -> Probe<'a> {
    let mut ratio = pair(one, eight);
    Probe {
        name: "efficiency_8t",
        limit: Limit::Min(EFFICIENCY_FLOOR),
        pair: Box::new(move || efficiency(ratio(), GATE_THREADS)),
    }
}

/// Runs `pass` once to warm up, then until [`REPORT_SECS`] accumulate (at
/// least two reps), and returns the fastest rep in seconds: interference
/// only ever slows a rep down.
fn best_secs(mut pass: impl FnMut()) -> f64 {
    pass();
    let mut best = f64::INFINITY;
    let mut reps = 0;
    let t0 = Instant::now();
    while reps < 2 || t0.elapsed().as_secs_f64() < REPORT_SECS {
        best = best.min(secs(&mut pass));
        reps += 1;
    }
    best.max(1e-12)
}

/// Hardware threads visible to this process (1 when unknown).
fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Peak resident set size (`VmHWM`) in KiB, or `None` off Linux.
fn peak_rss_kb() -> Option<i64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn int(x: usize) -> Json {
    Json::Int(x as i64)
}

fn text(s: &str) -> Json {
    Json::Str(s.into())
}

/// `p50`/`p99`/`p999` of `h`, each divided by `per_unit`.
fn quantiles(h: &HistSnapshot, unit: &str, per_unit: f64) -> Json {
    obj(vec![
        ("unit", text(unit)),
        ("samples", Json::Int(h.count as i64)),
        ("p50", Json::Float(h.quantile(0.50) / per_unit)),
        ("p99", Json::Float(h.quantile(0.99) / per_unit)),
        ("p999", Json::Float(h.quantile(0.999) / per_unit)),
    ])
}

fn sc() -> PolicyFactory {
    factory(SpeculativeCaching::<f64>::paper())
}

fn poisson(servers: usize, requests: usize) -> PoissonWorkload {
    let common = CommonParams {
        servers,
        requests,
        mu: 1.0,
        lambda: 1.0,
    };
    PoissonWorkload::uniform(common, 1.0)
}

/// One suite's measurements at report scale.
struct Measured {
    shape: Vec<(&'static str, Json)>,
    unit: &'static str,
    rate: f64,
    quantiles: Option<Json>,
    rows: Vec<Json>,
}

/// Instances per batched-kernel call (the sweep's chunk width).
const BATCH_K: usize = 8;
/// The quick shape `(n, m)` of the solver gates.
const SOLVER_QUICK: (usize, usize) = (1_024, 16);
/// The largest grid point, where the batch must beat the sweep.
const SOLVER_ACCEPT: (usize, usize) = (16_384, 64);
/// The batched kernel's floor over the warm windowed sweep there.
const BATCH_SPEEDUP_FLOOR: f64 = 2.0;

/// [`BATCH_K`] Poisson instances of one shape and their optima.
struct SolverSet {
    insts: Vec<Instance<f64>>,
    optima: Vec<f64>,
}

impl SolverSet {
    fn new((n, m): (usize, usize)) -> Self {
        let w = poisson(m, n);
        let insts: Vec<_> = (0..BATCH_K as u64).map(|j| w.generate(42 + j)).collect();
        let optima = insts
            .iter()
            .map(|i| solve_naive(i).optimal_cost())
            .collect();
        SolverSet { insts, optima }
    }

    fn requests(&self) -> usize {
        self.insts.iter().map(Instance::n).sum()
    }

    /// Solves every instance with `solve`, checking each optimum.
    fn each(&self, mut solve: impl FnMut(&Instance<f64>) -> f64) {
        for (inst, &opt) in self.insts.iter().zip(&self.optima) {
            assert!((solve(inst) - opt).abs() < 1e-6, "solver disagreement");
        }
    }

    /// Solves every instance in one batched-kernel call, checking each
    /// optimum.
    fn batch(&self, ws: &mut BatchWorkspace<f64>) {
        let views: Vec<&Instance<f64>> = self.insts.iter().collect();
        let ws = solve_batch_in(&views, ws);
        for (k, &opt) in self.optima.iter().enumerate() {
            assert!(
                (ws.optimal_cost(k) - opt).abs() < 1e-6,
                "batch solver disagreement"
            );
        }
    }

    /// Per-pair speedup of the batched kernel over the warm windowed
    /// sweep on the same instances.
    fn batch_vs_sweep(&self, name: &'static str, limit: Limit) -> Probe<'_> {
        let mut sws = SolverWorkspace::new();
        let mut bws = BatchWorkspace::new();
        let sweep = move || self.each(|i| solve_naive_in(i, &mut sws, noop()).optimal_cost());
        Probe {
            name,
            limit,
            pair: Box::new(pair(sweep, move || self.batch(&mut bws))),
        }
    }
}

fn solver_readings() -> Vec<Reading> {
    let quick = SolverSet::new(SOLVER_QUICK);
    let accept = SolverSet::new(SOLVER_ACCEPT);
    let mut ws = BatchWorkspace::new();
    measure(vec![
        calibrated(Suite::Solver, quick.requests(), 1, || quick.batch(&mut ws)),
        quick.batch_vs_sweep("batch_vs_sweep_quick", Limit::Budget(0.10)),
        accept.batch_vs_sweep("batch_vs_sweep_16384x64", Limit::Min(BATCH_SPEEDUP_FLOOR)),
    ])
}

/// ns/request of every live solver entry point at each grid point.
fn solver_report(quick: bool) -> Measured {
    let grid = if quick {
        vec![(512, 8)]
    } else {
        vec![(2_048, 16), (4_096, 16), SOLVER_ACCEPT]
    };
    let mut rows = Vec::new();
    let mut batch_ns = f64::NAN;
    for &(n, m) in &grid {
        let set = SolverSet::new((n, m));
        let ns = |secs: f64| secs * 1e9 / set.requests() as f64;
        let mut sws = SolverWorkspace::new();
        let mut bws = BatchWorkspace::new();
        let fast = ns(best_secs(|| set.each(|i| solve_fast(i).optimal_cost())));
        let fast_ws = ns(best_secs(|| {
            set.each(|i| solve_fast_in(i, &mut sws).optimal_cost())
        }));
        let naive = ns(best_secs(|| set.each(|i| solve_naive(i).optimal_cost())));
        let naive_ws = ns(best_secs(|| {
            set.each(|i| solve_naive_in(i, &mut sws, noop()).optimal_cost())
        }));
        batch_ns = ns(best_secs(|| set.batch(&mut bws)));
        rows.push(obj(vec![
            ("n", int(n)),
            ("m", int(m)),
            ("fast_ns", Json::Float(fast)),
            ("fast_workspace_ns", Json::Float(fast_ws)),
            ("naive_ns", Json::Float(naive)),
            ("naive_workspace_ns", Json::Float(naive_ws)),
            ("batch_ns", Json::Float(batch_ns)),
            ("batch_vs_naive_workspace", Json::Float(naive_ws / batch_ns)),
        ]));
    }
    let (n, m) = grid[grid.len() - 1];
    Measured {
        shape: vec![
            ("n", int(n)),
            ("m", int(m)),
            ("k", int(BATCH_K)),
            ("workload", text("poisson, unit costs, seeds 42..50")),
        ],
        unit: "requests/s",
        rate: 1e9 / batch_ns,
        quantiles: None,
        rows,
    }
}

/// The fault regime of the sweep's fault cells.
fn fault_spec(tolerant: bool) -> FaultSpec {
    FaultSpec {
        seed: 7,
        crash_rate: 0.4,
        mean_downtime: 2.0,
        tolerant,
        ..FaultSpec::default()
    }
}

/// Seed units in one pass: three cells per seed.
fn sweep_units(scale: Scale) -> usize {
    3 * scale.seeds as usize
}

/// One sweep at `scale` on `threads` threads: SC healthy, fault-tolerant
/// and fault-oblivious on every seed.
fn sweep_pass(f: &PolicyFactory, scale: Scale, threads: usize) {
    let w = poisson(scale.servers, scale.requests);
    let cells = vec![
        GridCell::new("sc", f, &w),
        GridCell::new("sc+ft", f, &w).with_faults(fault_spec(true)),
        GridCell::new("sc-oblivious", f, &w).with_faults(fault_spec(false)),
    ];
    black_box(sweep(cells, 0..scale.seeds, threads));
}

/// The same three cells single-threaded through one warm [`RunRequest`].
fn run_pass(f: &PolicyFactory, w: &dyn Workload, seeds: u64, req: &mut RunRequest<'_>) {
    for faults in [None, Some(fault_spec(true)), Some(fault_spec(false))] {
        req.set_mode(RunMode::from_faults(faults));
        black_box(req.run_cell(f, w, 0..seeds));
    }
}

/// Shape of the metrics-overhead gate's pair: the `sweep_chaos` unit
/// (m = 16, n = 2,000), two seeds per cell. At the quick shape a pass
/// lasts microseconds, and timer noise spread the per-pair ratios over
/// 0.94–1.03 around the 0.97 floor.
const METRICS_SCALE: Scale = Scale {
    seeds: 2,
    requests: 2_000,
    servers: 16,
};

/// Requests per trace of the SC replay gate and full-scale rows.
const SC_REQUESTS: usize = 100_000;
/// Requests per trace of the quick SC replay rows.
const SC_QUICK_REQUESTS: usize = 10_000;
/// Server counts of the SC replay rows.
const SC_SERVERS: [usize; 4] = [2, 8, 64, 256];
/// Ceiling of the SC replay gate: ns/request at m = 256 over m = 8. A
/// Poisson rate of 1 against `Δt = 1` keeps a handful of copies live
/// whatever `m`, so a replay whose per-request work follows the live
/// copies reads near 1; one that scans every server per request reads
/// ~4.
const SC_SCALING_CEILING: f64 = 2.0;

/// Speculative Caching replaying one Poisson trace through
/// [`run_policy_record`] with a warm policy and runtime: the decision
/// path alone, without audit, faults or sweep dispatch.
struct ScReplay {
    inst: Instance<f64>,
    sc: SpeculativeCaching<f64>,
    rt: Runtime<f64>,
}

impl ScReplay {
    fn new(servers: usize, requests: usize) -> Self {
        ScReplay {
            inst: poisson(servers, requests).generate(7),
            sc: SpeculativeCaching::paper(),
            rt: Runtime::new(servers),
        }
    }

    fn run(&mut self) {
        black_box(run_policy_record(&mut self.sc, &self.inst, &mut self.rt).0);
    }

    /// Fastest-rep ns/request.
    fn ns_per_request(&mut self) -> f64 {
        best_secs(|| self.run()) * 1e9 / self.inst.n() as f64
    }
}

/// The `sweep_chaos` unit's trace shape (m = 16, n = 2,000), over the
/// seeds one fault-plan pass expands.
const CHAOS_SCALE: Scale = Scale {
    seeds: 8,
    requests: 2_000,
    servers: 16,
};

/// Ceiling of the fault-plan gate: plan expansion time over trace
/// generation time on the `sweep_chaos` unit. Over five alternating
/// `--check` runs on a 2-vCPU host, plans that also merged their ~2,900
/// crash windows into global onset and recovery orders read 8.70–8.78,
/// and the by-server layout alone reads 2.84–2.89.
const FAULT_PLAN_CEILING: f64 = 5.0;

/// The `sweep_chaos` unit's two set-up steps over the same seeds:
/// generating each trace, and expanding its fault plan (crash rate 0.1,
/// the default knobs) into warm buffers.
struct ChaosSetup {
    w: PoissonWorkload,
    spec: FaultSpec,
    buf: InstanceBuf,
    plan: FaultPlan,
    scratch: PlanScratch,
    /// Each seed's trace horizon, the span its plan covers.
    horizons: Vec<f64>,
}

impl ChaosSetup {
    fn new() -> Self {
        let w = poisson(CHAOS_SCALE.servers, CHAOS_SCALE.requests);
        let mut buf = InstanceBuf::new();
        let horizons = (0..CHAOS_SCALE.seeds)
            .map(|seed| w.generate_into(seed, &mut buf).horizon())
            .collect();
        ChaosSetup {
            w,
            spec: FaultSpec {
                seed: 7,
                crash_rate: 0.1,
                ..FaultSpec::default()
            },
            buf,
            plan: FaultPlan::none(),
            scratch: PlanScratch::default(),
            horizons,
        }
    }

    fn generate(&mut self) {
        for seed in 0..CHAOS_SCALE.seeds {
            black_box(self.w.generate_into(seed, &mut self.buf).n());
        }
    }

    /// Expands every seed's plan.
    fn plan(&mut self) {
        for (seed, &horizon) in self.horizons.iter().enumerate() {
            self.spec.plan_for_into(
                seed as u64,
                CHAOS_SCALE.servers,
                horizon,
                &mut self.plan,
                &mut self.scratch,
            );
            black_box(self.plan.crashes().len());
        }
    }
}

fn sweep_readings() -> Vec<Reading> {
    let f = sc();
    let (mut wide, mut narrow) = (
        ScReplay::new(256, SC_REQUESTS),
        ScReplay::new(8, SC_REQUESTS),
    );
    let quick = Scale::quick();
    let w = poisson(quick.servers, quick.requests);
    let mut req = RunRequest::new(RunMode::Plain);
    let metrics_w = poisson(METRICS_SCALE.servers, METRICS_SCALE.requests);
    let reg = Registry::new();
    let mut off = RunRequest::new(RunMode::Plain);
    let mut on = RunRequest::new(RunMode::Plain).with_sink(&reg);
    let (mut planner, mut generator) = (ChaosSetup::new(), ChaosSetup::new());
    measure(vec![
        calibrated(Suite::Sweep, sweep_units(quick), 1, || {
            run_pass(&f, &w, quick.seeds, &mut req)
        }),
        efficiency_probe(
            || sweep_pass(&f, Scale::gate(), 1),
            || sweep_pass(&f, Scale::gate(), GATE_THREADS),
        ),
        // Metrics-on throughput over metrics-off: a live registry may
        // cost at most 3% on the single-threaded hot path.
        Probe {
            name: "metrics_on_vs_off",
            limit: Limit::Min(0.97),
            pair: Box::new(pair(
                || run_pass(&f, &metrics_w, METRICS_SCALE.seeds, &mut off),
                || run_pass(&f, &metrics_w, METRICS_SCALE.seeds, &mut on),
            )),
        },
        // SC's per-request cost must follow the live copies, not `m`.
        Probe {
            name: "sc_m256_vs_m8",
            limit: Limit::Max(SC_SCALING_CEILING),
            pair: Box::new(pair(|| wide.run(), || narrow.run())),
        },
        // A unit's fault plan must cost a few of its traces, not a
        // global sort of its crash windows.
        Probe {
            name: "fault_plan_vs_generate",
            limit: Limit::Max(FAULT_PLAN_CEILING),
            pair: Box::new(pair(|| planner.plan(), || generator.generate())),
        },
    ])
}

/// Units/s of the parallel sweep at each thread count.
fn sweep_report(quick: bool) -> Measured {
    let scale = if quick { Scale::quick() } else { Scale::full() };
    let f = sc();
    let units = sweep_units(scale) as f64;
    let rates: Vec<f64> = THREADS
        .iter()
        .map(|&t| units / best_secs(|| sweep_pass(&f, scale, t)))
        .collect();
    let mut rows: Vec<Json> = THREADS
        .iter()
        .zip(&rates)
        .map(|(&t, &rate)| {
            obj(vec![
                ("threads", int(t)),
                ("units_per_s", Json::Float(rate)),
                ("speedup_vs_1t", Json::Float(rate / rates[0])),
                ("efficiency", Json::Float(efficiency(rate / rates[0], t))),
            ])
        })
        .collect();
    let n = if quick {
        SC_QUICK_REQUESTS
    } else {
        SC_REQUESTS
    };
    for m in SC_SERVERS {
        rows.push(obj(vec![
            ("policy", text("sc")),
            ("m", int(m)),
            ("n", int(n)),
            (
                "ns_per_request",
                Json::Float(ScReplay::new(m, n).ns_per_request()),
            ),
        ]));
    }
    Measured {
        shape: vec![
            ("n", int(scale.requests)),
            ("m", int(scale.servers)),
            ("seeds", Json::Int(scale.seeds as i64)),
            ("cells", text("sc, sc+ft, sc-oblivious (crash rate 0.4)")),
            (
                "sc_replay",
                text("poisson rate 1, unit costs, seed 7, m 2/8/64/256"),
            ),
        ],
        unit: "units/s",
        rate: rates[0],
        quantiles: None,
        rows,
    }
}

/// Items in the fleet's quick report.
const FLEET_QUICK_ITEMS: usize = 2_048;
/// Items in each pass of the fleet's gates: per-shard work dominates
/// thread spawns on a multicore runner, and one pass lasts about eight
/// calibration kernel reps.
const FLEET_GATE_ITEMS: usize = 16_384;

/// The reference fleet: heterogeneous per-item costs on short traces.
fn fleet_spec(items: usize, threads: usize) -> FleetSpec {
    FleetSpec {
        items,
        servers: 8,
        requests_per_item: 2,
        rate: 1.0,
        mu: ParamDist::Uniform { lo: 0.5, hi: 2.0 },
        lambda: ParamDist::Exp { mean: 1.0 },
        seed: 2017,
        threads,
        ..FleetSpec::default()
    }
}

fn fleet_pass(spec: &FleetSpec, f: &PolicyFactory, ws: &mut FleetWorkspace) {
    black_box(run_fleet(spec, f, ws, noop()).expect("bench spec is valid"));
}

fn fleet_readings() -> Vec<Reading> {
    let f = sc();
    let (one, eight) = (
        fleet_spec(FLEET_GATE_ITEMS, 1),
        fleet_spec(FLEET_GATE_ITEMS, GATE_THREADS),
    );
    let (mut ws, mut ws1, mut ws8) = (
        FleetWorkspace::new(),
        FleetWorkspace::new(),
        FleetWorkspace::new(),
    );
    measure(vec![
        calibrated(Suite::Fleet, FLEET_GATE_ITEMS, 8, || {
            fleet_pass(&one, &f, &mut ws)
        }),
        efficiency_probe(
            || fleet_pass(&one, &f, &mut ws1),
            || fleet_pass(&eight, &f, &mut ws8),
        ),
    ])
}

/// Items/s by fleet size (audited and sim-only), by thread count, and
/// under a slot budget; the per-item cost quantiles of one audited pass.
fn fleet_report(quick: bool) -> Measured {
    let (sizes, items) = if quick {
        ([256, 1_024, 4_096], FLEET_QUICK_ITEMS)
    } else {
        ([100_000, 1_000_000, 4_000_000], 1_000_000)
    };
    let f = sc();
    let mut ws = FleetWorkspace::new();
    let mut rate =
        |spec: &FleetSpec| spec.items as f64 / best_secs(|| fleet_pass(spec, &f, &mut ws));
    let mut rows = Vec::new();
    for n in sizes {
        let audited = rate(&fleet_spec(n, 1));
        let sim_only = rate(&FleetSpec {
            audit: false,
            ..fleet_spec(n, 1)
        });
        rows.push(obj(vec![
            ("items", int(n)),
            ("threads", int(1)),
            ("items_per_s", Json::Float(audited)),
            ("sim_only_items_per_s", Json::Float(sim_only)),
        ]));
    }
    let by_threads: Vec<f64> = THREADS
        .iter()
        .map(|&t| rate(&fleet_spec(items, t)))
        .collect();
    for (&t, &r) in THREADS.iter().zip(&by_threads) {
        rows.push(obj(vec![
            ("items", int(items)),
            ("threads", int(t)),
            ("items_per_s", Json::Float(r)),
            ("efficiency", Json::Float(efficiency(r / by_threads[0], t))),
        ]));
    }
    let capped = FleetSpec {
        capacity: Some((items / 64).max(1)),
        eviction: EvictionPolicy::Lru { price: 0.25 },
        ..fleet_spec(items, 1)
    };
    let capped_rate = rate(&capped);
    let sum = run_fleet(&capped, &f, &mut ws, noop()).expect("bench spec is valid");
    rows.push(obj(vec![
        ("items", int(items)),
        ("threads", int(1)),
        ("capacity", int(capped.capacity.unwrap_or(0))),
        ("lru_price", Json::Float(0.25)),
        ("items_per_s", Json::Float(capped_rate)),
        ("evictions", Json::Int(sum.evictions as i64)),
        ("occupancy_peak", int(sum.occupancy_peak)),
        ("capacity_events", Json::Int(sum.capacity_events as i64)),
    ]));
    let reg = Registry::new();
    let base = fleet_spec(items, 1);
    run_fleet(&base, &f, &mut ws, &reg).expect("bench spec is valid");
    Measured {
        shape: vec![
            ("items", int(items)),
            ("servers", int(base.servers)),
            ("requests_per_item", int(base.requests_per_item)),
            ("mu", text("uniform:0.5,2.0")),
            ("lambda", text("exp:1.0")),
            ("seed", Json::Int(base.seed as i64)),
        ],
        unit: "items/s",
        rate: by_threads[0],
        quantiles: Some(quantiles(
            reg.snapshot().hist(Hist::FleetItemCostCenti),
            "cost",
            100.0,
        )),
        rows,
    }
}

/// Requests per item in every serve stream.
const REQUESTS_PER_ITEM: usize = 16;
/// Servers in every serve stream.
const SERVE_SERVERS: usize = 8;
/// Items in the serve suite's calibrated pass: a few milliseconds of
/// decisions, so one gate window holds many pairs.
const SERVE_GATE_ITEMS: usize = 256;
/// The decision-latency ceiling, µs. The measured p99 is a few µs, so
/// only an algorithmic slip in the decision path (a scan, an allocation
/// storm) breaches it, not machine noise.
const P99_CEILING_US: f64 = 250.0;

/// The `serve/1` request bytes of `items` Poisson items merged on one
/// timeline (what `mcc load poisson --seed 2017` writes), then one
/// `finish` line per item.
fn serve_input(items: usize) -> Vec<u8> {
    let mut out = String::new();
    let w = poisson(SERVE_SERVERS, REQUESTS_PER_ITEM);
    let reqs = load_events(&w, items, 2017)
        .into_iter()
        .map(|e| WireRequest::Req {
            item: e.item,
            server: e.server,
            t: Some(e.t),
        });
    for req in reqs.chain((0..items as u64).map(|item| WireRequest::Finish { item })) {
        request_line(&req).write_compact(&mut out);
        out.push('\n');
    }
    out.into_bytes()
}

/// One daemon session over `input`: a fresh engine reporting into `reg`,
/// every line through [`serve_lines`], every response into `out`.
fn serve_pass(input: &[u8], items: usize, reg: &Registry, out: &mut Vec<u8>) {
    let cfg = ServeConfig::new(SERVE_SERVERS, CostModel::unit()).with_bounds(
        items.saturating_mul(2).max(1),
        items.saturating_mul(64).max(1),
    );
    let mut engine = ServeEngine::new(cfg, sc()).with_sink(reg);
    let opts = DaemonOptions {
        registry: None,
        stats_on_exit: false,
    };
    out.clear();
    let s = serve_lines(&mut engine, &SimClock::new(), input, out, &opts)
        .expect("in-memory IO cannot fail");
    assert!(
        s.decisions == (items * REQUESTS_PER_ITEM) as u64 && s.sheds == 0 && s.errors == 0,
        "the bench stream must be served whole: {s:?}"
    );
}

fn serve_readings() -> Vec<Reading> {
    let input = serve_input(SERVE_GATE_ITEMS);
    let reg = Registry::new();
    let mut out = Vec::new();
    // One pass of 4096 decisions lasts about eight kernel reps.
    let mut readings = measure(vec![calibrated(
        Suite::Serve,
        SERVE_GATE_ITEMS * REQUESTS_PER_ITEM,
        8,
        || serve_pass(&input, SERVE_GATE_ITEMS, &reg, &mut out),
    )]);
    let p99 = reg.snapshot().hist(Hist::ServeDecisionNanos).quantile(0.99) / 1_000.0;
    readings.push(Reading {
        name: "decision_p99_us",
        limit: Limit::Max(P99_CEILING_US),
        samples: vec![p99],
    });
    readings
}

/// Decisions/s and decision-latency quantiles by stream size.
fn serve_report(quick: bool) -> Measured {
    let sizes = if quick {
        [64, 256, 1_024]
    } else {
        [4_096, 16_384, 65_536]
    };
    let mut rows = Vec::new();
    let mut last = (0.0, None);
    let mut out = Vec::new();
    for items in sizes {
        let input = serve_input(items);
        let reg = Registry::new();
        let rate = (items * REQUESTS_PER_ITEM) as f64
            / best_secs(|| serve_pass(&input, items, &reg, &mut out));
        let snap = reg.snapshot();
        let q = quantiles(snap.hist(Hist::ServeDecisionNanos), "us", 1_000.0);
        rows.push(obj(vec![
            ("items", int(items)),
            ("requests", int(items * REQUESTS_PER_ITEM)),
            ("input_bytes", int(input.len())),
            ("decisions_per_s", Json::Float(rate)),
            ("p50_us", q.get("p50").cloned().unwrap_or(Json::Null)),
            ("p99_us", q.get("p99").cloned().unwrap_or(Json::Null)),
        ]));
        last = (rate, Some(q));
    }
    Measured {
        shape: vec![
            ("items", int(sizes[2])),
            ("servers", int(SERVE_SERVERS)),
            ("requests_per_item", int(REQUESTS_PER_ITEM)),
            ("workload", text("poisson, unit costs, seed 2017")),
            ("policy", text("sc")),
            (
                "path",
                text("serve/1 request bytes -> serve_lines -> response bytes"),
            ),
        ],
        unit: "decisions/s",
        rate: last.0,
        quantiles: last.1,
        rows,
    }
}

/// Measures every gate of `suite`. The full run records these readings;
/// `--check` re-measures them and judges each against the record.
fn readings(suite: Suite) -> Vec<Reading> {
    match suite {
        Suite::Solver => solver_readings(),
        Suite::Sweep => sweep_readings(),
        Suite::Fleet => fleet_readings(),
        Suite::Serve => serve_readings(),
    }
}

/// Runs `suite` at full or quick scale and assembles its document.
pub fn report(suite: Suite, quick: bool) -> Json {
    // Gates first: `--check` measures them in a fresh process, and a
    // pass's speed depends on where the allocator placed its buffers,
    // which the report's large runs would change.
    let gates: Vec<Json> = readings(suite)
        .iter()
        .map(|r| {
            let (key, limit) = match r.limit {
                Limit::Budget(x) => ("budget", x),
                Limit::Min(x) => ("min", x),
                Limit::Max(x) => ("max", x),
            };
            obj(vec![
                ("name", text(r.name)),
                ("value", Json::Float(median(&r.samples))),
                ("samples", int(r.samples.len())),
                (key, Json::Float(limit)),
            ])
        })
        .collect();
    let m = match suite {
        Suite::Solver => solver_report(quick),
        Suite::Sweep => sweep_report(quick),
        Suite::Fleet => fleet_report(quick),
        Suite::Serve => serve_report(quick),
    };
    let mut fields = vec![
        ("schema", text(SCHEMA)),
        ("suite", text(suite.name())),
        ("scale", text(if quick { "quick" } else { "full" })),
        ("shape", obj(m.shape)),
        (
            "rate",
            obj(vec![("unit", text(m.unit)), ("value", Json::Float(m.rate))]),
        ),
    ];
    fields.extend(m.quantiles.map(|q| ("quantiles", q)));
    fields.extend([
        ("rows", Json::Arr(m.rows)),
        ("gates", Json::Arr(gates)),
        ("hw_threads", int(hw_threads())),
        ("peak_rss_kb", peak_rss_kb().map_or(Json::Null, Json::Int)),
    ]);
    obj(fields)
}

fn positive(v: Option<&Json>, what: &str) -> Result<f64, String> {
    v.and_then(Json::as_f64)
        .filter(|x| x.is_finite() && *x > 0.0)
        .ok_or_else(|| format!("{what} must be a finite positive number"))
}

fn non_empty<'a>(v: Option<&'a Json>, what: &str) -> Result<&'a str, String> {
    v.and_then(Json::as_str)
        .filter(|s| !s.is_empty())
        .ok_or_else(|| format!("{what} must be a non-empty string"))
}

/// Checks that `doc` is a well-formed `bench/1` document of `suite`.
/// Returns the first problem found.
fn validate(doc: &Json, suite: Suite) -> Result<(), String> {
    let field = |key: &str| doc.get(key).ok_or_else(|| format!("{key} missing"));
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("schema must be {SCHEMA}"));
    }
    if field("suite")?.as_str() != Some(suite.name()) {
        return Err(format!("suite must be {}", suite.name()));
    }
    if !matches!(field("scale")?.as_str(), Some("quick" | "full")) {
        return Err("scale must be quick or full".into());
    }
    if !matches!(field("shape")?, Json::Obj(f) if !f.is_empty()) {
        return Err("shape must be a non-empty object".into());
    }
    let rate = field("rate")?;
    non_empty(rate.get("unit"), "rate.unit")?;
    positive(rate.get("value"), "rate.value")?;
    if let Some(q) = doc.get("quantiles") {
        non_empty(q.get("unit"), "quantiles.unit")?;
        positive(q.get("samples"), "quantiles.samples")?;
        let [p50, p99, p999] =
            ["p50", "p99", "p999"].map(|k| q.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN));
        if !(0.0 <= p50 && p50 <= p99 && p99 <= p999 && p999.is_finite()) {
            return Err("quantiles must be finite, non-negative and ordered".into());
        }
    }
    let rows = field("rows")?.as_arr().ok_or("rows must be an array")?;
    for (i, row) in rows.iter().enumerate() {
        let Json::Obj(cols) = row else {
            return Err(format!("rows[{i}] must be an object"));
        };
        for (k, v) in cols {
            if v.as_f64().is_some_and(|x| !(x.is_finite() && x >= 0.0)) {
                return Err(format!("rows[{i}].{k} must be finite and non-negative"));
            }
        }
    }
    let gates = field("gates")?.as_arr().ok_or("gates must be an array")?;
    if gates.is_empty() {
        return Err("gates must not be empty".into());
    }
    for g in gates {
        let name = non_empty(g.get("name"), "gates[].name")?;
        positive(g.get("value"), &format!("gates.{name}.value"))?;
        let limits: Vec<&str> = ["budget", "min", "max"]
            .into_iter()
            .filter(|k| g.get(k).is_some())
            .collect();
        let [limit] = limits[..] else {
            return Err(format!("gates.{name} must carry one of budget, min, max"));
        };
        let x = positive(g.get(limit), &format!("gates.{name}.{limit}"))?;
        if limit == "budget" && x >= 1.0 {
            return Err(format!("gates.{name}.budget must be below 1"));
        }
    }
    if field("hw_threads")?.as_i64().unwrap_or(0) <= 0 {
        return Err("hw_threads must be a positive integer".into());
    }
    match field("peak_rss_kb")? {
        Json::Null => Ok(()),
        Json::Int(kb) if *kb > 0 => Ok(()),
        _ => Err("peak_rss_kb must be a positive integer or null".into()),
    }
}

/// The `--check` gate of `suite`: validates the committed document in
/// the working directory, re-measures every reading and judges it.
/// Prints one line per gate to stderr.
pub fn check(suite: Suite) -> Result<(), String> {
    let path = suite.file();
    let body =
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read committed {path}: {e}"))?;
    let doc = Json::parse(&body).map_err(|e| format!("committed {path}: {e:?}"))?;
    validate(&doc, suite).map_err(|e| format!("committed {path}: {e}"))?;
    let committed = |name: &str| {
        doc.get("gates")?
            .as_arr()?
            .iter()
            .find(|g| g.get("name").and_then(Json::as_str) == Some(name))?
            .get("value")?
            .as_f64()
    };
    let mut failed = Vec::new();
    for r in readings(suite) {
        let c = committed(r.name);
        let mut sorted = r.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let quartile = |q: usize| {
            sorted
                .get(sorted.len() * q / 4)
                .copied()
                .unwrap_or(f64::NAN)
        };
        let spread = format!(
            "{} samples, quartiles {:.4}..{:.4}",
            sorted.len(),
            quartile(1),
            quartile(3)
        );
        match judge(&r.samples, r.limit, c) {
            Ok(mid) => eprintln!(
                "{} {}: {mid:.4} ok, {}; {spread}",
                suite.name(),
                r.name,
                describe(r.limit, c)
            ),
            Err(e) => {
                eprintln!("{} {}: FAILED, {e}; {spread}", suite.name(), r.name);
                failed.push(r.name);
            }
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("{} failed", failed.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_the_budget_to_the_median() {
        let budget = Limit::Budget(0.10);
        let around = |mid: f64| vec![0.2, mid, mid, mid, 5.0];
        assert!(judge(&around(0.89), budget, Some(1.0)).is_err());
        assert_eq!(judge(&around(0.91), budget, Some(1.0)), Ok(0.91));
        // One slow or fast pair does not move the median.
        assert!(judge(&[0.91, 0.5, 0.92], budget, Some(1.0)).is_ok());
        // NaN, zero, negative or missing samples and a missing committed
        // reading all fail.
        assert!(judge(&[0.95, f64::NAN, 0.95], budget, Some(1.0)).is_err());
        assert!(judge(&[0.95, 0.0, 0.95], budget, Some(1.0)).is_err());
        assert!(judge(&[0.95, -1.0, 0.95], budget, Some(1.0)).is_err());
        assert!(judge(&[], budget, Some(1.0)).is_err());
        assert!(judge(&[0.95], budget, None).is_err());
        assert!(judge(&[0.95], budget, Some(f64::NAN)).is_err());
        // Absolute limits ignore the committed reading.
        assert!(judge(&[0.36, 0.34, 0.4], Limit::Min(0.35), None).is_ok());
        assert!(judge(&[0.34, 0.34, 0.4], Limit::Min(0.35), None).is_err());
        assert!(judge(&[200.0], Limit::Max(250.0), None).is_ok());
        assert!(judge(&[300.0], Limit::Max(250.0), None).is_err());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    /// A minimal well-formed `sweep` document.
    fn doc() -> Json {
        obj(vec![
            ("schema", text(SCHEMA)),
            ("suite", text("sweep")),
            ("scale", text("quick")),
            ("shape", obj(vec![("n", int(60))])),
            (
                "rate",
                obj(vec![("unit", text("units/s")), ("value", Json::Float(9.5))]),
            ),
            (
                "quantiles",
                obj(vec![
                    ("unit", text("us")),
                    ("samples", int(10)),
                    ("p50", Json::Float(1.0)),
                    ("p99", Json::Float(2.0)),
                    ("p999", Json::Float(3.0)),
                ]),
            ),
            ("rows", Json::Arr(vec![obj(vec![("threads", int(1))])])),
            (
                "gates",
                Json::Arr(vec![obj(vec![
                    ("name", text(CALIBRATED)),
                    ("value", Json::Float(1.5)),
                    ("budget", Json::Float(0.1)),
                ])]),
            ),
            ("hw_threads", int(2)),
            ("peak_rss_kb", Json::Int(1_000)),
        ])
    }

    /// `doc()` with `path` set to `value` (or removed when `None`).
    fn with(path: &[&str], value: Option<Json>) -> Json {
        fn edit(j: &mut Json, path: &[&str], value: Option<Json>) {
            let Json::Obj(fields) = j else {
                panic!("not an object")
            };
            let at = fields.iter().position(|(k, _)| k == path[0]);
            match (path.len(), at, value) {
                (1, Some(i), None) => {
                    fields.remove(i);
                }
                (1, Some(i), Some(v)) => fields[i].1 = v,
                (_, Some(i), value) => edit(&mut fields[i].1, &path[1..], value),
                _ => panic!("no field {}", path[0]),
            }
        }
        let mut d = doc();
        edit(&mut d, path, value);
        d
    }

    #[test]
    fn validate_rejects_broken_documents() {
        validate(&doc(), Suite::Sweep).unwrap();
        assert!(validate(&doc(), Suite::Fleet).is_err(), "wrong suite");
        let quantile_free = with(&["quantiles"], None);
        validate(&quantile_free, Suite::Sweep).unwrap();
        let broken = [
            with(&["schema"], Some(text("bench-sweep/2"))),
            with(&["rate"], None),
            with(&["shape"], None),
            with(&["peak_rss_kb"], None),
            with(&["rate", "value"], None),
            with(&["rate", "value"], Some(Json::Float(f64::NAN))),
            with(&["rate", "value"], Some(Json::Float(f64::INFINITY))),
            with(&["rate", "value"], Some(Json::Float(-1.0))),
            with(&["rate", "value"], Some(Json::Float(0.0))),
            with(&["quantiles", "p50"], Some(Json::Float(2.5))),
            with(&["quantiles", "p999"], Some(Json::Float(f64::INFINITY))),
            with(&["quantiles", "samples"], Some(int(0))),
            with(&["gates"], Some(Json::Arr(Vec::new()))),
            with(
                &["rows"],
                Some(Json::Arr(vec![obj(vec![("x", Json::Float(-2.0))])])),
            ),
            with(&["hw_threads"], Some(int(0))),
        ];
        for (i, d) in broken.iter().enumerate() {
            assert!(
                validate(d, Suite::Sweep).is_err(),
                "case {i} must be rejected"
            );
        }
        let gate = |fields: Vec<(&str, Json)>| with(&["gates"], Some(Json::Arr(vec![obj(fields)])));
        for bad in [
            vec![("name", text("g")), ("value", Json::Float(1.0))],
            vec![
                ("name", text("g")),
                ("value", Json::Float(1.0)),
                ("min", Json::Float(0.5)),
                ("max", Json::Float(2.0)),
            ],
            vec![
                ("name", text("g")),
                ("value", Json::Float(1.0)),
                ("budget", Json::Float(1.5)),
            ],
            vec![
                ("name", text("g")),
                ("value", Json::Float(0.0)),
                ("min", Json::Float(0.5)),
            ],
        ] {
            assert!(validate(&gate(bad), Suite::Sweep).is_err());
        }
    }

    #[test]
    fn efficiency_divides_by_the_usable_threads() {
        assert_eq!(efficiency(1.0, 1), 1.0);
        // Parity at 8 threads is perfect on one core, 1/8 on eight.
        let usable = 8.min(hw_threads()) as f64;
        assert_eq!(efficiency(1.0, 8), 1.0 / usable);
    }

    /// Every suite's `--quick` document passes the validator and
    /// round-trips through the parser, and each suite measured what it
    /// claims to.
    #[test]
    fn every_quick_report_validates() {
        for suite in Suite::ALL {
            let d = report(suite, true);
            validate(&d, suite).unwrap_or_else(|e| panic!("{}: {e}", suite.name()));
            let reparsed = Json::parse(&d.to_string_pretty()).unwrap();
            assert_eq!(reparsed.to_string_compact(), d.to_string_compact());
            let gates = d.get("gates").and_then(Json::as_arr).unwrap();
            assert_eq!(
                gates[0].get("name").and_then(Json::as_str),
                Some(CALIBRATED)
            );
            let rows = d.get("rows").and_then(Json::as_arr).unwrap();
            match suite {
                Suite::Fleet => {
                    // The slot budget forces evictions and holds the peak.
                    let capped = rows.iter().find(|r| r.get("capacity").is_some()).unwrap();
                    let cap = capped.get("capacity").and_then(Json::as_i64).unwrap();
                    assert!(capped.get("evictions").and_then(Json::as_i64).unwrap() > 0);
                    assert!(capped.get("occupancy_peak").and_then(Json::as_i64).unwrap() <= cap);
                    // One cost sample per item of the audited pass.
                    let q = d.get("quantiles").unwrap();
                    assert_eq!(
                        q.get("samples").and_then(Json::as_i64),
                        Some(FLEET_QUICK_ITEMS as i64)
                    );
                }
                Suite::Serve => {
                    // Warm-up plus at least two reps of every decision.
                    let items = d.get("shape").and_then(|s| s.get("items"));
                    let decisions = items.and_then(Json::as_i64).unwrap() * 16;
                    let q = d.get("quantiles").unwrap();
                    let samples = q.get("samples").and_then(Json::as_i64).unwrap();
                    assert!(samples >= 3 * decisions, "{samples} samples");
                }
                Suite::Sweep => {
                    assert!(d.get("quantiles").is_none());
                    // One SC replay row per server count.
                    let sc: Vec<i64> = rows
                        .iter()
                        .filter(|r| r.get("ns_per_request").is_some())
                        .filter_map(|r| r.get("m").and_then(Json::as_i64))
                        .collect();
                    assert_eq!(sc, SC_SERVERS.map(|m| m as i64));
                }
                Suite::Solver => assert!(d.get("quantiles").is_none()),
            }
        }
    }
}
