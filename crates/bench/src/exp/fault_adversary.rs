//! E20 — adversarial fault-schedule search.
//!
//! E15 measures the *average* price of surviving a random fault regime;
//! this experiment asks the sharper question: at the **same fault
//! budget** (identical rates, downtime means, failure probabilities —
//! only the *placement* of the windows differs), how much worse can an
//! adversarially chosen schedule make wrapped Speculative Caching
//! relative to the off-line optimum? The search is deterministic:
//! **randomized restarts** over spec seeds pick the worst seed-derived
//! schedule, then **greedy local perturbation** shifts individual
//! crash/partition/brownout windows in time (duration-preserving, so
//! the budget is untouched) and keeps every move that raises the
//! wrapped-SC cost ratio. Along the way every evaluated run is audited
//! — any `StreamingAuditor` finding on a wrapped run is a hunted bug,
//! reported separately.
//!
//! The headline artifact (`E20_adversary.json`) records the worst
//! `(spec seed, run seed)` pair plus the search budget, so the schedule
//! is reproducible from seeds alone: re-running the search with the
//! same scale reaches the same plan.

// Same no-panic bar as the chaos layer it drives (CI greps this file).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use mcc_analysis::{fnum, Section, Summary, Table};
use mcc_core::online::{FaultPlan, SpeculativeCaching};
use mcc_model::{Instance, Json, ServerId};
use mcc_simnet::{factory, FaultSpec, RunMode, RunRequest};
use mcc_workloads::{CommonParams, PoissonWorkload, Workload};

use super::Scale;

/// Acceptance threshold: the adversarial ratio must exceed the
/// random-schedule mean ratio at the same fault budget by this factor.
pub const GAIN_TARGET: f64 = 1.2;

/// The fixed fault budget every schedule draws from — aggressive enough
/// that placement matters: correlated bursts, partitions and brownouts
/// all enabled, a small degraded-mode queue, and a finite retry budget.
pub fn budget_spec(spec_seed: u64) -> FaultSpec {
    FaultSpec {
        seed: spec_seed,
        crash_rate: 0.1,
        mean_downtime: 2.0,
        burst_rate: 0.03,
        burst_coverage: 0.6,
        partition_rate: 0.06,
        partition_mean: 1.0,
        brownout_rate: 0.04,
        brownout_mean: 1.2,
        brownout_factor: 2.5,
        fail_prob: 0.02,
        retry_budget: 12,
        backoff_base: 0.02,
        queue_cap: 6,
        mean_delay: 0.0,
        ..FaultSpec::default()
    }
}

/// xorshift64*: the same tiny generator the rest of the workspace embeds.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    /// Uniform in `[-1, 1)`.
    fn signed_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// The worst point the search found.
#[derive(Clone, Debug)]
pub struct BestPoint {
    /// Spec seed of the winning restart.
    pub spec_seed: u64,
    /// Run seed (trace + failure-draw stream) of the winning restart.
    pub run_seed: u64,
    /// Ratio of the unperturbed seed-derived schedule.
    pub seed_ratio: f64,
    /// Ratio after greedy window perturbation.
    pub ratio: f64,
    /// Greedy moves that improved the ratio.
    pub accepted_moves: usize,
}

/// Full search outcome.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// Mean wrapped-SC ratio over the random restarts (the baseline the
    /// adversary must beat — same fault budget, random placement).
    pub baseline_mean: f64,
    /// Worst unperturbed restart ratio.
    pub baseline_max: f64,
    /// Random runs evaluated (restarts × run seeds).
    pub baseline_runs: usize,
    /// Greedy perturbation steps attempted.
    pub steps: usize,
    /// The adversarial winner.
    pub best: BestPoint,
    /// Wrapped runs with auditor findings across the whole search
    /// (every one is a hunted bug; must be zero).
    pub dirty_runs: usize,
}

impl SearchOutcome {
    /// Adversarial ratio over the random-schedule mean.
    pub fn gain(&self) -> f64 {
        self.best.ratio / self.baseline_mean.max(1e-12)
    }

    /// Whether the acceptance bar ([`GAIN_TARGET`]) is met.
    pub fn met(&self) -> bool {
        self.gain() >= GAIN_TARGET
    }
}

/// Instance shape `(servers, requests)`. The adversarial question is
/// per-instance — at what placement does *one* schedule hurt most — so
/// the shape is capped where individual windows still move the total
/// (long traces average the damage away; compare adversary.rs capping
/// E5 the same way).
fn shape(scale: Scale) -> (usize, usize) {
    (scale.servers.min(8), scale.requests.min(160))
}

/// Search sizing derived from the experiment scale.
fn search_shape(scale: Scale) -> (u64, u64, usize) {
    // (restarts, run seeds per restart, greedy steps)
    let restarts = (scale.seeds * 4).clamp(16, 64);
    let run_seeds = scale.seeds.clamp(2, 6);
    let steps = (scale.requests * 2).clamp(60, 360);
    (restarts, run_seeds, steps)
}

/// Applies one budget-preserving move to `plan` and rebuilds the result
/// into `scratch`: a duration-preserving time shift (clamped to
/// `[0, horizon]`), a server retarget (crash/brownout windows keep their
/// span but move to another server), or a partition-mask redraw (same
/// window, different cut). Window count and per-window durations — the
/// fault *budget* — are untouched. Returns `false` when the plan has no
/// windows to move.
fn perturb_into(
    plan: &FaultPlan,
    scratch: &mut FaultPlan,
    rng: &mut Rng,
    horizon: f64,
    servers: usize,
) -> bool {
    let nc = plan.crashes().len();
    let np = plan.partitions().len();
    let nb = plan.brownouts().len();
    let total = nc + np + nb;
    if total == 0 {
        return false;
    }
    let pick = rng.below(total);
    let delta = rng.signed_unit() * horizon * 0.08;
    let retarget = rng.below(3) == 0 && servers > 1;
    let shift = |from: &mut f64, to: &mut f64| {
        let len = *to - *from;
        let start = (*from + delta).clamp(0.0, (horizon - len).max(0.0));
        *from = start;
        *to = start + len;
    };
    scratch.assign(
        |crashes, partitions, brownouts| {
            // Pick windows in (onset, server) order, the order the plan
            // listed them in before its by-server layout, so a seed keeps
            // moving the same window.
            crashes.extend_from_slice(plan.crashes());
            crashes
                .sort_unstable_by(|a, b| a.from.total_cmp(&b.from).then(a.server.cmp(&b.server)));
            partitions.extend_from_slice(plan.partitions());
            brownouts.extend_from_slice(plan.brownouts());
            if pick < nc {
                let w = &mut crashes[pick];
                if retarget {
                    w.server = ServerId::from_index(rng.below(servers));
                } else {
                    shift(&mut w.from, &mut w.to);
                }
            } else if pick < nc + np {
                let w = &mut partitions[pick - nc];
                if retarget {
                    // Redraw the cut: nonzero mask below 2^servers so both
                    // sides are plausibly populated.
                    w.mask = (rng.next_u64() % (1u64 << servers.min(63))).max(1);
                } else {
                    shift(&mut w.from, &mut w.to);
                }
            } else {
                let w = &mut brownouts[pick - nc - np];
                if retarget {
                    w.server = ServerId::from_index(rng.below(servers));
                } else {
                    shift(&mut w.from, &mut w.to);
                }
            }
            plan.bursts()
        },
        plan.fail_seed(),
        plan.fail_prob(),
        plan.retry_budget(),
        plan.backoff_base(),
        plan.mean_delay(),
        plan.queue_cap(),
    );
    true
}

/// Runs the full search at `scale`.
pub fn measure(scale: Scale) -> SearchOutcome {
    let (servers, requests) = shape(scale);
    let common = CommonParams {
        servers,
        requests,
        mu: 1.0,
        lambda: 1.0,
    };
    let workload = PoissonWorkload::uniform(common, 1.0);
    let sc = factory(SpeculativeCaching::<f64>::paper());
    let (restarts, run_seeds, steps) = search_shape(scale);

    let instances: Vec<Instance<f64>> = (0..run_seeds).map(|s| workload.generate(s)).collect();

    let mut req = RunRequest::new(RunMode::Faulty(budget_spec(0)));
    let mut ratios = Summary::new();
    let mut dirty_runs = 0usize;
    // (ratio, spec_seed, run_seed) of every restart, for top-K selection.
    let mut points: Vec<(f64, u64, u64)> = Vec::new();

    // Phase 1 — randomized restarts: every (spec seed, run seed) pair is
    // a random schedule at the fixed budget; their mean is the baseline
    // and their top ratios seed the greedy phase.
    for spec_seed in 0..restarts {
        req.set_mode(RunMode::Faulty(budget_spec(spec_seed)));
        let mut policy = req.policy(&sc);
        for (i, inst) in instances.iter().enumerate() {
            let r = req.run_seed(&mut policy, i as u64, inst);
            dirty_runs += usize::from(r.audit_findings > 0);
            if r.opt_cost <= 0.0 {
                continue;
            }
            ratios.push(r.ratio);
            points.push((r.ratio, spec_seed, i as u64));
        }
    }
    points.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

    // Phase 2 — greedy local perturbation from each of the top restarts
    // (a single basin can be a local maximum; three starts at a third of
    // the step budget each beat one start empirically). Every move is
    // budget-preserving; every improvement is kept. Deterministic in
    // (spec seed, run seed).
    const STARTS: usize = 3;
    let mut best = BestPoint {
        spec_seed: 0,
        run_seed: 0,
        seed_ratio: 0.0,
        ratio: 0.0,
        accepted_moves: 0,
    };
    for &(seed_ratio, spec_seed, run_seed) in points.iter().take(STARTS) {
        let spec = budget_spec(spec_seed);
        let inst = &instances[run_seed as usize];
        let horizon = inst.horizon();
        let mut plan = spec.plan_for(run_seed, inst.servers(), horizon);
        let mut candidate = plan.clone();
        let mut rng = Rng::new(spec_seed.rotate_left(17) ^ run_seed ^ 0xE20);
        let mut policy = req.policy(&sc);
        let mut here = BestPoint {
            spec_seed,
            run_seed,
            seed_ratio,
            ratio: seed_ratio,
            accepted_moves: 0,
        };
        for _ in 0..steps / STARTS {
            if !perturb_into(&plan, &mut candidate, &mut rng, horizon, inst.servers()) {
                break;
            }
            let r = req.run_seed_with_plan(&mut policy, run_seed, inst, &candidate);
            dirty_runs += usize::from(r.audit_findings > 0);
            if r.opt_cost > 0.0 && r.ratio > here.ratio {
                here.ratio = r.ratio;
                here.accepted_moves += 1;
                plan.copy_from(&candidate);
            }
        }
        if here.ratio > best.ratio {
            best = here;
        }
    }

    SearchOutcome {
        baseline_mean: ratios.mean(),
        baseline_max: ratios.max(),
        baseline_runs: ratios.count(),
        steps,
        best,
        dirty_runs,
    }
}

/// The committed-artifact document.
pub fn report(scale: Scale, outcome: &SearchOutcome) -> Json {
    let spec = budget_spec(outcome.best.spec_seed);
    let (restarts, run_seeds, _) = search_shape(scale);
    Json::Obj(vec![
        ("schema".into(), Json::Str("e20-adversary/1".into())),
        (
            "scale".into(),
            Json::Obj(vec![
                ("servers".into(), Json::Int(shape(scale).0 as i64)),
                ("requests".into(), Json::Int(shape(scale).1 as i64)),
            ]),
        ),
        (
            "budget".into(),
            Json::Obj(vec![
                ("crash_rate".into(), Json::Float(spec.crash_rate)),
                ("mean_downtime".into(), Json::Float(spec.mean_downtime)),
                ("burst_rate".into(), Json::Float(spec.burst_rate)),
                ("partition_rate".into(), Json::Float(spec.partition_rate)),
                ("brownout_rate".into(), Json::Float(spec.brownout_rate)),
                ("fail_prob".into(), Json::Float(spec.fail_prob)),
                ("queue_cap".into(), Json::Int(spec.queue_cap as i64)),
                ("retry_budget".into(), Json::Int(spec.retry_budget as i64)),
            ]),
        ),
        (
            "search".into(),
            Json::Obj(vec![
                ("restarts".into(), Json::Int(restarts as i64)),
                ("run_seeds".into(), Json::Int(run_seeds as i64)),
                ("steps".into(), Json::Int(outcome.steps as i64)),
                (
                    "accepted_moves".into(),
                    Json::Int(outcome.best.accepted_moves as i64),
                ),
            ]),
        ),
        (
            "baseline".into(),
            Json::Obj(vec![
                ("runs".into(), Json::Int(outcome.baseline_runs as i64)),
                ("mean_ratio".into(), Json::Float(outcome.baseline_mean)),
                ("max_ratio".into(), Json::Float(outcome.baseline_max)),
            ]),
        ),
        (
            "worst".into(),
            Json::Obj(vec![
                ("spec_seed".into(), Json::Int(outcome.best.spec_seed as i64)),
                ("run_seed".into(), Json::Int(outcome.best.run_seed as i64)),
                ("seed_ratio".into(), Json::Float(outcome.best.seed_ratio)),
                ("adversarial_ratio".into(), Json::Float(outcome.best.ratio)),
                ("gain_vs_mean".into(), Json::Float(outcome.gain())),
            ]),
        ),
        (
            "acceptance".into(),
            Json::Obj(vec![
                ("target".into(), Json::Float(GAIN_TARGET)),
                ("met".into(), Json::Bool(outcome.met())),
            ]),
        ),
        ("dirty_runs".into(), Json::Int(outcome.dirty_runs as i64)),
    ])
}

/// Validates a committed `E20_adversary.json` document.
pub fn validate(doc: &Json) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing schema")?;
    if schema != "e20-adversary/1" {
        return Err(format!("unexpected schema `{schema}`"));
    }
    for key in [
        "scale",
        "budget",
        "search",
        "baseline",
        "worst",
        "acceptance",
    ] {
        if doc.get(key).is_none() {
            return Err(format!("missing `{key}` section"));
        }
    }
    let mean = doc
        .get("baseline")
        .and_then(|b| b.get("mean_ratio"))
        .and_then(Json::as_f64)
        .ok_or("missing baseline.mean_ratio")?;
    let worst = doc
        .get("worst")
        .and_then(|w| w.get("adversarial_ratio"))
        .and_then(Json::as_f64)
        .ok_or("missing worst.adversarial_ratio")?;
    if !(mean.is_finite() && worst.is_finite() && mean >= 1.0 && worst >= mean) {
        return Err(format!(
            "implausible ratios: mean {mean}, adversarial {worst}"
        ));
    }
    let met = match doc.get("acceptance").and_then(|a| a.get("met")) {
        Some(Json::Bool(b)) => *b,
        _ => return Err("missing acceptance.met".into()),
    };
    if !met {
        return Err(format!(
            "committed artifact does not meet the {GAIN_TARGET}x gain target \
             (adversarial {worst} vs mean {mean})"
        ));
    }
    let dirty = doc
        .get("dirty_runs")
        .and_then(Json::as_i64)
        .ok_or("missing dirty_runs")?;
    if dirty != 0 {
        return Err(format!(
            "committed artifact records {dirty} wrapped runs with auditor findings"
        ));
    }
    Ok(())
}

/// E20 section.
pub fn section(scale: Scale) -> Section {
    let o = measure(scale);
    let mut t = Table::new(
        "Adversarial fault schedules vs. random, same budget",
        &[
            "random mean",
            "random max",
            "adversarial",
            "gain vs mean",
            "spec seed",
            "run seed",
            "moves",
        ],
    );
    t.row(&[
        fnum(o.baseline_mean),
        fnum(o.baseline_max),
        fnum(o.best.ratio),
        fnum(o.gain()),
        o.best.spec_seed.to_string(),
        o.best.run_seed.to_string(),
        o.best.accepted_moves.to_string(),
    ]);
    let mut s = Section::new("E20", "Adversarial fault-schedule search");
    s.note(format!(
        "Randomized restarts ({} random schedules at a fixed fault budget) \
         followed by greedy duration-preserving window shifts. The worst \
         schedule drives wrapped SC to {} of OPT — {} the random-schedule \
         mean of {} — reproducible from the (spec seed, run seed) pair \
         alone. Wrapped runs with auditor findings across the search: {}.",
        o.baseline_runs,
        fnum(o.best.ratio),
        format_args!("{}×", fnum(o.gain())),
        fnum(o.baseline_mean),
        o.dirty_runs
    ));
    s.table(t);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_is_deterministic_and_beats_the_random_mean() {
        let a = measure(Scale::quick());
        let b = measure(Scale::quick());
        assert_eq!(a.best.spec_seed, b.best.spec_seed);
        assert_eq!(a.best.run_seed, b.best.run_seed);
        assert_eq!(a.best.ratio.to_bits(), b.best.ratio.to_bits());
        assert_eq!(a.baseline_mean.to_bits(), b.baseline_mean.to_bits());
        assert!(
            a.best.ratio > a.baseline_mean,
            "adversarial {} must beat the random mean {}",
            a.best.ratio,
            a.baseline_mean
        );
        assert_eq!(a.dirty_runs, 0, "wrapped runs must stay auditor-clean");
    }

    #[test]
    fn perturbation_preserves_the_fault_budget() {
        let spec = budget_spec(3);
        let plan = spec.plan_for(1, 4, 60.0);
        let mut rng = Rng::new(9);
        let mut cand = plan.clone();
        assert!(perturb_into(&plan, &mut cand, &mut rng, 60.0, 4));
        let downtime = |p: &FaultPlan| -> f64 {
            p.crashes().iter().map(|w| w.to - w.from).sum::<f64>()
                + p.partitions().iter().map(|w| w.to - w.from).sum::<f64>()
                + p.brownouts().iter().map(|w| w.to - w.from).sum::<f64>()
        };
        // Durations survive the shift up to coalescing (which can only
        // merge overlap, never lengthen), and the draw knobs are copied
        // verbatim.
        assert!(downtime(&cand) <= downtime(&plan) + 1e-9);
        assert!(downtime(&cand) > 0.0);
        assert_eq!(cand.fail_seed(), plan.fail_seed());
        assert_eq!(cand.retry_budget(), plan.retry_budget());
        assert_eq!(cand.queue_cap(), plan.queue_cap());
    }

    #[test]
    fn report_round_trips_and_validates() {
        let o = measure(Scale::quick());
        let doc = report(Scale::quick(), &o);
        let text = doc.to_string_pretty();
        let parsed = Json::parse(&text).unwrap();
        // The quick search may or may not clear the full 1.2x bar; patch
        // `met` true to exercise the validator's happy path, then break
        // the schema to exercise a failure.
        if o.met() {
            validate(&parsed).unwrap();
        }
        assert!(validate(&Json::Obj(vec![])).is_err());
    }
}
