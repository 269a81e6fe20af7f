//! Theorem-shaped property tests for the online side.
//!
//! For random request sequences:
//! * Speculative Caching produces referee-feasible schedules;
//! * `Π(DT) = Π(SC)` (Definition 10 is cost-preserving);
//! * every inequality in the Theorem 3 chain holds in its corrected form
//!   (`Π(SC) ≤ 3·Π(OPT) + λ`; see `mcc_core::online::reduction` docs);
//! * Lemma 5 (single spanning cache across expensive gaps) and Lemma 6
//!   (`H(s_i, t_{p(i)}, t_i)` present for cheap server intervals) hold
//!   structurally for the reconstructed optimal schedule;
//! * the baselines are feasible and never beat the off-line optimum;
//! * Speculative Caching's compact live-copy list decides, records and
//!   arms timers exactly like a reference that scans every server, bare
//!   and under the fault-tolerant wrapper, in `f64` and `Fixed`.

use mcc_core::offline::{optimal_schedule, reconstruct, solve_fast_with};
use mcc_core::online::{
    analyze, double_transfer, finalize_record, run_policy, stats_from_record, BrownoutWindow,
    CrashWindow, FaultPlan, FaultTolerant, Follow, KeepEverywhere, OnlineDecider, PartitionWindow,
    Runtime, SpeculativeCaching, StayAtOrigin,
};
use mcc_model::{
    validate_with, CostModel, Fixed, Instance, Prescan, Request, Scalar, ServerId, ValidateOptions,
};
use proptest::prelude::*;

fn random_instance() -> impl Strategy<Value = Instance<f64>> {
    (1usize..=6, 0usize..=60).prop_flat_map(|(m, n)| {
        let servers = proptest::collection::vec(0..m, n);
        let gaps = proptest::collection::vec(0.01f64..4.0, n);
        let mu = 0.2f64..3.0;
        let lambda = 0.2f64..3.0;
        (Just(m), servers, gaps, mu, lambda).prop_map(|(m, servers, gaps, mu, lambda)| {
            let mut t = 0.0;
            let requests: Vec<Request<f64>> = servers
                .into_iter()
                .zip(gaps)
                .map(|(s, gap)| {
                    t += gap;
                    Request::new(mcc_model::ServerId::from_index(s), t)
                })
                .collect();
            Instance::new(m, mcc_model::CostModel::new(mu, lambda).unwrap(), requests).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// SC is feasible and DT preserves its cost — for the single-epoch
    /// algorithm *and* all epoch variants. The Theorem 3 chain is checked
    /// for the single-epoch run only: epoch resets void the guarantee
    /// against the global optimum (the constructive counterexample lives
    /// in `mcc_core::online::reduction::tests`).
    #[test]
    fn sc_chain_holds(inst in random_instance(), epoch in prop_oneof![
        Just(None), Just(Some(1usize)), Just(Some(3usize)), Just(Some(10usize))
    ]) {
        let mut sc = match epoch {
            None => SpeculativeCaching::paper(),
            Some(n) => SpeculativeCaching::with_epochs(n),
        };
        let run = run_policy(&mut sc, &inst);
        validate_with(&inst, &run.schedule, ValidateOptions { tol: 1e-9 })
            .map_err(|e| TestCaseError::fail(format!("SC infeasible: {e:?} on {}", inst.to_compact())))?;

        let dt = double_transfer(&run.record, inst.cost());
        prop_assert!(
            dt.cost(inst.cost()).approx_eq(run.total_cost, 1e-9),
            "Π(DT) = {} != Π(SC) = {} on {}", dt.cost(inst.cost()), run.total_cost, inst.to_compact()
        );
        // Every DT edge weight ≤ 2λ (α = 1).
        prop_assert!(dt.max_transfer_weight(inst.cost()) <= 2.0 * inst.cost().lambda + 1e-9);

        if epoch.is_none() {
            let report = analyze(&inst, &run);
            report.check_chain(1e-7)
                .map_err(|e| TestCaseError::fail(format!("{e} on {}", inst.to_compact())))?;
        }
    }

    /// Lemma 6: for every request with μσ_i < λ, the reconstructed optimal
    /// schedule contains the cache H(s_i, t_{p(i)}, t_i).
    #[test]
    fn lemma6_short_intervals_are_cached_in_opt(inst in random_instance()) {
        let scan = Prescan::compute(&inst);
        let sol = solve_fast_with(&inst, &scan);
        let sched = reconstruct(&inst, &scan, &sol);
        for i in 1..=inst.n() {
            if let (Some(p_i), Some(sigma)) = (scan.p[i], scan.sigma[i]) {
                if inst.cost().caching(sigma) < inst.cost().lambda {
                    let (from, to) = (inst.t(p_i), inst.t(i));
                    let covered = sched.caches.iter().any(|h| {
                        h.server == inst.server(i)
                            && h.from <= from + 1e-12
                            && h.to + 1e-12 >= to
                    });
                    prop_assert!(
                        covered,
                        "Lemma 6 fails at r_{i} on {}", inst.to_compact()
                    );
                }
            }
        }
    }

    /// Lemma 5: across every gap with μδt > λ, the reconstructed optimal
    /// schedule keeps exactly one live copy.
    #[test]
    fn lemma5_single_copy_across_expensive_gaps(inst in random_instance()) {
        let (sched, _) = optimal_schedule(&inst);
        for i in 1..=inst.n() {
            let gap = inst.delta_t(i - 1, i);
            if inst.cost().caching(gap) > inst.cost().lambda {
                let mid = inst.t(i - 1) + gap / 2.0;
                prop_assert_eq!(
                    sched.copies_at(mid),
                    1,
                    "Lemma 5 fails in gap before r_{} on {}", i, inst.to_compact()
                );
            }
        }
    }

    /// Baselines are feasible and OPT really is a lower bound for all
    /// online policies (including SC).
    #[test]
    fn no_online_policy_beats_opt(inst in random_instance()) {
        let opt = mcc_core::offline::optimal_cost(&inst);
        let policies: Vec<Box<dyn OnlineDecider<f64>>> = vec![
            Box::new(SpeculativeCaching::paper()),
            Box::new(SpeculativeCaching::with_options(0.5, None)),
            Box::new(SpeculativeCaching::with_options(2.0, Some(4))),
            Box::new(Follow::new()),
            Box::new(StayAtOrigin::new()),
            Box::new(KeepEverywhere::new()),
        ];
        for mut p in policies {
            let run = run_policy(p.as_mut(), &inst);
            validate_with(&inst, &run.schedule, ValidateOptions { tol: 1e-9 })
                .map_err(|e| TestCaseError::fail(format!(
                    "{} infeasible: {e:?} on {}", run.policy, inst.to_compact()
                )))?;
            prop_assert!(
                run.total_cost >= opt - 1e-7,
                "{} undercuts OPT ({} < {}) on {}", run.policy, run.total_cost, opt, inst.to_compact()
            );
        }
    }
}

/// The reference Speculative Caching: the algorithm with its believed
/// copies in a per-server `Vec<Option<S>>` column, every query a scan
/// over all `m` servers. [`SpeculativeCaching`] keeps a compact list of
/// the live copies instead; the oracle tests below pin the two together
/// decision for decision, record for record.
mod scan_sc {
    use mcc_core::online::{CopyOps, Decision, OnlineDecider, ServeAction};
    use mcc_model::{CostModel, Request, Scalar, ServerId};

    #[derive(Copy, Clone, Debug, PartialEq, Eq)]
    enum Role {
        Used,
        Target,
    }

    pub struct ScanSc<S> {
        alpha: f64,
        epoch_size: Option<usize>,
        /// xorshift64* state of the randomized variant.
        rng: Option<u64>,
        window: S,
        expiry: Vec<Option<S>>,
        role: Vec<Role>,
        prev_server: ServerId,
        transfers_in_epoch: usize,
    }

    impl<S: Scalar> ScanSc<S> {
        /// Window `α·Δt`, optional epochs, and a seed for the randomized
        /// variant (`None`: the deterministic window).
        pub fn new(alpha: f64, epoch_size: Option<usize>, seed: Option<u64>) -> Self {
            ScanSc {
                alpha,
                epoch_size,
                rng: seed.map(|s| s.max(1)),
                window: S::ZERO,
                expiry: Vec::new(),
                role: Vec::new(),
                prev_server: ServerId::ORIGIN,
                transfers_in_epoch: 0,
            }
        }

        fn next_window(&mut self) -> S {
            let Some(state) = &mut self.rng else {
                return self.window;
            };
            let mut x = *state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            *state = x;
            let u = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
            let frac = (1.0 + u * (std::f64::consts::E - 1.0)).ln().max(0.01);
            S::from_f64(frac).mul(self.window)
        }

        fn process_expiries(&mut self, rt: &mut dyn CopyOps<S>, until: S) {
            loop {
                let live = self.expiry.iter().flatten().count();
                let mut tau = until;
                for e in self.expiry.iter().flatten() {
                    if *e < tau {
                        tau = *e;
                    }
                }
                if tau >= until || live == 1 {
                    return;
                }
                let lapsing: Vec<usize> = (0..self.expiry.len())
                    .filter(|&j| self.expiry[j] == Some(tau))
                    .collect();
                if lapsing.len() >= 2 && live == lapsing.len() {
                    let keep = lapsing
                        .iter()
                        .copied()
                        .find(|&j| self.role[j] == Role::Target)
                        .unwrap_or(lapsing[0]);
                    for &j in &lapsing {
                        if j != keep {
                            self.drop_copy(rt, j, tau);
                        }
                    }
                    let w = self.next_window();
                    self.expiry[keep] = Some(tau + w);
                } else {
                    let mut remaining = live;
                    for &j in &lapsing {
                        if remaining == 1 {
                            let w = self.next_window();
                            self.expiry[j] = Some(tau + w);
                            break;
                        }
                        self.drop_copy(rt, j, tau);
                        remaining -= 1;
                    }
                }
            }
        }

        fn drop_copy(&mut self, rt: &mut dyn CopyOps<S>, idx: usize, at: S) {
            rt.close(ServerId::from_index(idx), at);
            self.expiry[idx] = None;
        }
    }

    impl<S: Scalar> OnlineDecider<S> for ScanSc<S> {
        fn name(&self) -> String {
            let alpha = self.alpha;
            if self.rng.is_some() {
                return format!("sc-randomized(alpha={alpha})");
            }
            match self.epoch_size {
                Some(n) if alpha == 1.0 => format!("sc(epoch={n})"),
                Some(n) => format!("sc(alpha={alpha},epoch={n})"),
                None if alpha == 1.0 => "sc".into(),
                None => format!("sc(alpha={alpha})"),
            }
        }

        fn reset(&mut self, servers: usize, cost: &CostModel<S>) {
            self.window = S::from_f64(self.alpha).mul(cost.delta_t());
            self.expiry.clear();
            self.expiry.resize(servers, None);
            self.role.clear();
            self.role.resize(servers, Role::Used);
            let w0 = self.next_window();
            self.expiry[ServerId::ORIGIN.index()] = Some(w0);
            self.prev_server = ServerId::ORIGIN;
            self.transfers_in_epoch = 0;
        }

        fn observe(&mut self, req: Request<S>, rt: &mut dyn CopyOps<S>) -> Decision<S> {
            let (t, server) = (req.time, req.server);
            self.process_expiries(rt, t);
            let idx = server.index();
            let action = if self.expiry[idx].is_some() {
                rt.touch(server, t);
                let w = self.next_window();
                self.expiry[idx] = Some(t + w);
                self.role[idx] = Role::Used;
                ServeAction::Cache
            } else {
                let src = if self.prev_server != server && rt.is_open(self.prev_server) {
                    self.prev_server
                } else {
                    let best = (0..self.expiry.len())
                        .filter(|&j| self.expiry[j].is_some() && j != idx)
                        .max_by(|&a, &b| self.expiry[a].partial_cmp(&self.expiry[b]).unwrap())
                        .unwrap();
                    ServerId::from_index(best)
                };
                rt.transfer(src, server, t);
                let w_src = self.next_window();
                self.expiry[src.index()] = Some(t + w_src);
                self.role[src.index()] = Role::Used;
                let w_dst = self.next_window();
                self.expiry[idx] = Some(t + w_dst);
                self.role[idx] = Role::Target;
                self.transfers_in_epoch += 1;
                if self.epoch_size == Some(self.transfers_in_epoch) {
                    for j in 0..self.expiry.len() {
                        if j != idx && self.expiry[j].is_some() {
                            self.drop_copy(rt, j, t);
                        }
                    }
                    self.transfers_in_epoch = 0;
                    rt.begin_epoch(t);
                }
                ServeAction::Transfer { from: src }
            };
            self.prev_server = server;
            Decision::new(req, action)
        }

        fn expire(&mut self, now: S, rt: &mut dyn CopyOps<S>) {
            self.process_expiries(rt, now);
        }

        fn next_expiry(&self) -> Option<S> {
            let live = self.expiry.iter().flatten().count();
            let mut min: Option<S> = None;
            for e in self.expiry.iter().flatten() {
                if min.is_none_or(|m| *e < m) {
                    min = Some(*e);
                }
            }
            if live >= 2 {
                min
            } else {
                None
            }
        }

        fn close_time(&self, _server: ServerId, last_touch: S, _horizon: S) -> S {
            last_touch + self.window
        }
    }
}

/// Which Speculative Caching variant an oracle script runs.
#[derive(Copy, Clone, Debug)]
enum ScVariant {
    /// `α` and an optional epoch size.
    Fixed(f64, Option<usize>),
    /// The randomized window with `α` and a seed.
    Randomized(f64, u64),
}

impl ScVariant {
    fn build<S: Scalar>(self) -> (SpeculativeCaching<S>, scan_sc::ScanSc<S>) {
        match self {
            ScVariant::Fixed(alpha, epochs) => (
                SpeculativeCaching::with_options(alpha, epochs),
                scan_sc::ScanSc::new(alpha, epochs, None),
            ),
            ScVariant::Randomized(alpha, seed) => (
                SpeculativeCaching::randomized(alpha, seed),
                scan_sc::ScanSc::new(alpha, None, Some(seed)),
            ),
        }
    }
}

/// A request script for the oracle tests: one request per step, each
/// optionally preceded by an eager sweep.
#[derive(Clone, Debug)]
struct Script {
    servers: usize,
    mu: f64,
    lambda: f64,
    variant: ScVariant,
    /// `(server, gap since the previous request, sweep)`; sweep 0 is
    /// none, 1 sweeps at the request's own time (what a timer wheel that
    /// fires before the request does), 2 at the gap's midpoint.
    steps: Vec<(usize, f64, u8)>,
}

/// A gap between requests: on a 1/8 grid (so requests land on expiry
/// instants and refreshes coincide) or drawn from a continuum.
fn gap() -> impl Strategy<Value = f64> {
    prop_oneof![(1u32..=12).prop_map(|k| k as f64 / 8.0), 0.001f64..2.0]
}

fn oracle_script() -> impl Strategy<Value = Script> {
    let servers = prop_oneof![Just(1usize), Just(2), Just(3), Just(16), Just(64)];
    let variant = prop_oneof![
        Just(ScVariant::Fixed(1.0, None)),
        Just(ScVariant::Fixed(1.0, Some(1))),
        Just(ScVariant::Fixed(1.0, Some(3))),
        Just(ScVariant::Fixed(0.5, None)),
        Just(ScVariant::Fixed(2.0, Some(4))),
        (0u64..1_000).prop_map(|seed| ScVariant::Randomized(1.0, seed)),
        (0u64..1_000).prop_map(|seed| ScVariant::Randomized(0.5, seed)),
    ];
    // Windows Δt = λ/μ from 1/4 to 16: long windows against short gaps
    // keep dozens of copies live at m = 64.
    let mu = prop_oneof![Just(1.0), Just(0.25), Just(2.0)];
    let lambda = prop_oneof![Just(1.0), Just(4.0), Just(0.5)];
    // Half the scripts draw from at most four servers, so hits and
    // revisits stay common at m = 64.
    let hot = prop_oneof![Just(usize::MAX), Just(4usize)];
    (servers, 0usize..=80, variant, mu, lambda, hot).prop_flat_map(
        |(servers, n, variant, mu, lambda, hot)| {
            let step = (0..servers.min(hot), gap(), 0u8..3);
            proptest::collection::vec(step, n).prop_map(move |steps| Script {
                servers,
                mu,
                lambda,
                variant,
                steps,
            })
        },
    )
}

/// Raw fault windows for an oracle script, mapped onto its servers by
/// [`FaultParts::plan`].
#[derive(Clone, Debug)]
struct FaultParts {
    /// `(server, (from, length))`.
    crashes: Vec<(usize, (f64, f64))>,
    /// Correlated bursts: `(member mask, (from, length))`; bit `i`
    /// crashes server `i` over the window.
    bursts: Vec<(u64, (f64, f64))>,
    /// `(side mask, (from, length))`.
    partitions: Vec<(u64, (f64, f64))>,
    /// `(server, (from, length), factor)`.
    brownouts: Vec<(usize, (f64, f64), f64)>,
    /// Fail seed, fail probability, retry budget, backoff base, mean delay
    /// and queue cap.
    knobs: (u64, f64, u32, f64, f64, u32),
}

impl FaultParts {
    fn plan(&self, servers: usize) -> FaultPlan {
        let (fail_seed, fail_prob, retry_budget, backoff, delay, queue_cap) = self.knobs;
        let server = |s: usize| ServerId::from_index(s % servers);
        let mut plan = FaultPlan::none();
        plan.assign(
            |crashes, partitions, brownouts| {
                for &(s, (from, len)) in &self.crashes {
                    crashes.push(CrashWindow {
                        server: server(s),
                        from,
                        to: from + len,
                    });
                }
                for &(mask, (from, len)) in &self.bursts {
                    for s in (0..servers.min(64)).filter(|s| (mask >> s) & 1 == 1) {
                        crashes.push(CrashWindow {
                            server: server(s),
                            from,
                            to: from + len,
                        });
                    }
                }
                for &(mask, (from, len)) in &self.partitions {
                    partitions.push(PartitionWindow {
                        from,
                        to: from + len,
                        mask,
                    });
                }
                for &(s, (from, len), factor) in &self.brownouts {
                    brownouts.push(BrownoutWindow {
                        server: server(s),
                        from,
                        to: from + len,
                        factor,
                    });
                }
                self.bursts.len() as u32
            },
            fail_seed,
            fail_prob,
            retry_budget,
            backoff,
            delay,
            queue_cap,
        );
        plan
    }
}

/// Crashes, bursts (up to the whole cluster, so total outages happen),
/// partitions and brownouts over the first ~40 time units of a script,
/// with transfer failures, backoff, delays and a small degraded-mode
/// queue.
fn fault_parts() -> impl Strategy<Value = FaultParts> {
    let window = || (0.0f64..40.0, 0.05f64..6.0);
    (0usize..8, 0usize..3, 0usize..3, 0usize..3).prop_flat_map(move |(c, b, p, w)| {
        (
            proptest::collection::vec((0usize..64, window()), c),
            proptest::collection::vec((0u64..u64::MAX, window()), b),
            proptest::collection::vec((0u64..u64::MAX, window()), p),
            proptest::collection::vec((0usize..64, window(), 1.01f64..4.0), w),
            (
                0u64..u64::MAX,
                0.0f64..0.3,
                0u32..8,
                0.0f64..0.2,
                0.0f64..0.5,
                0u32..8,
            ),
        )
            .prop_map(
                |(crashes, bursts, partitions, brownouts, knobs)| FaultParts {
                    crashes,
                    bursts,
                    partitions,
                    brownouts,
                    knobs,
                },
            )
    })
}

/// Drives `new` and `old` through `script` in lockstep, each on a runtime
/// of its own, and fails at the first divergence: in a decision, the next
/// expiry deadline, the copy records so far (in opening order, each open
/// copy's with its last touch, each closed one's with its close, so every
/// expiration is compared), the transfers, the epoch boundaries, or
/// whatever `same` compares; and finally in the finalized record.
fn lockstep<S, A, B>(
    new: &mut A,
    old: &mut B,
    script: &Script,
    same: impl Fn(&A, &B) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError>
where
    S: Scalar,
    A: OnlineDecider<S>,
    B: OnlineDecider<S>,
{
    let m = script.servers;
    let cost = CostModel::new(S::from_f64(script.mu), S::from_f64(script.lambda)).unwrap();
    new.reset(m, &cost);
    old.reset(m, &cost);
    prop_assert_eq!(new.name(), old.name());
    let (mut rt_new, mut rt_old) = (Runtime::new(m), Runtime::new(m));
    let agree = |new: &A, old: &B, rt_new: &Runtime<S>, rt_old: &Runtime<S>, at: &str| {
        prop_assert_eq!(new.next_expiry(), old.next_expiry(), "{}", at);
        let (a, b) = (rt_new.record(), rt_old.record());
        prop_assert_eq!(&a.records, &b.records, "{}", at);
        prop_assert_eq!(&a.transfers, &b.transfers, "{}", at);
        prop_assert_eq!(&a.epoch_boundaries, &b.epoch_boundaries, "{}", at);
        prop_assert_eq!(rt_new.live_copies(), rt_old.live_copies(), "{}", at);
        same(new, old)
    };
    agree(new, old, &rt_new, &rt_old, "after reset")?;
    let mut t = 0.0f64;
    for (i, &(server, gap, sweep)) in script.steps.iter().enumerate() {
        let before = t;
        t += gap;
        let now = S::from_f64(t);
        let sweep_at = match sweep {
            1 => Some(now),
            2 => Some(S::from_f64(before + gap / 2.0)),
            _ => None,
        };
        if let Some(at) = sweep_at {
            new.expire(at, &mut rt_new);
            old.expire(at, &mut rt_old);
            agree(
                new,
                old,
                &rt_new,
                &rt_old,
                &format!("sweep before step {i}"),
            )?;
        }
        let req = Request::new(ServerId::from_index(server), now);
        let (a, b) = (new.observe(req, &mut rt_new), old.observe(req, &mut rt_old));
        prop_assert_eq!(a, b, "step {}", i);
        agree(new, old, &rt_new, &rt_old, &format!("step {i}"))?;
    }
    new.on_finish();
    old.on_finish();
    let n = script.steps.len();
    let horizon = S::from_f64(t);
    let a = finalize_record(&*new, &mut rt_new, n, horizon).clone();
    let b = finalize_record(&*old, &mut rt_old, n, horizon);
    prop_assert_eq!(&a.records, &b.records, "finalized");
    prop_assert_eq!(&a.transfers, &b.transfers, "finalized");
    prop_assert_eq!(&a.epoch_boundaries, &b.epoch_boundaries, "finalized");
    prop_assert_eq!(
        stats_from_record(&a, &cost, 0, 0),
        stats_from_record(b, &cost, 0, 0)
    );
    same(new, old)
}

/// The compact live-copy list against the per-server scan: bare, and
/// wrapped in [`FaultTolerant`] under a random fault plan, whose crashes,
/// repairs and failovers make SC's belief diverge from reality and send
/// misses down the latest-expiry fallback.
fn sc_matches_scan<S: Scalar>(script: &Script, faults: &FaultParts) -> Result<(), TestCaseError> {
    let (mut new, mut old) = script.variant.build::<S>();
    lockstep(&mut new, &mut old, script, |_, _| Ok(()))?;
    let plan = faults.plan(script.servers);
    let (new, old) = script.variant.build::<S>();
    let mut new = FaultTolerant::new(new, plan.clone());
    let mut old = FaultTolerant::new(old, plan);
    lockstep(&mut new, &mut old, script, |a, b| {
        prop_assert_eq!(a.stats(), b.stats());
        Ok(())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `f64` times: continuous gaps make most expiries distinct.
    #[test]
    fn sc_live_list_matches_the_scan_f64(script in oracle_script(), faults in fault_parts()) {
        sc_matches_scan::<f64>(&script, &faults)?;
    }

    /// `Fixed` times: exact sums make transfer pairs and grid-aligned
    /// refreshes lapse together, exercising every tie-break.
    #[test]
    fn sc_live_list_matches_the_scan_fixed(script in oracle_script(), faults in fault_parts()) {
        sc_matches_scan::<Fixed>(&script, &faults)?;
    }
}
