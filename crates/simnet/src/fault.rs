//! Seed-driven fault-plan generation.
//!
//! A [`FaultSpec`] describes a fault *regime* — independent crash rate and
//! outage length, correlated crash-burst rate and coverage, partition and
//! brownout rates, transfer-failure probability with a per-run retry
//! budget; [`FaultSpec::plan_for`] expands it into a concrete,
//! deterministic [`FaultPlan`] for one `(spec seed, run seed)` pair — the
//! same pair always yields the same plan, which is what makes faulty
//! sweeps bit-identical across thread counts. Each fault class draws from
//! its own salted RNG stream, so turning a class on never perturbs the
//! draws of another.
//!
//! There is **no availability cap**: plans may down every server at once
//! (correlated bursts exist precisely to model that), and a single-server
//! cluster crashes like any other. The fault-tolerant wrapper survives
//! total outages with its degraded-mode queue (requests buffered up to the
//! plan's bound, dropped with accounting past it, replayed at first
//! recovery) rather than relying on a surviving server.

use mcc_core::online::{BrownoutWindow, CrashWindow, FaultPlan, PartitionWindow};
use mcc_model::ServerId;

/// A fault regime, expanded per run seed into a [`FaultPlan`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// Base seed, mixed with each run seed.
    pub seed: u64,
    /// Expected independent crashes per server per unit time.
    pub crash_rate: f64,
    /// Mean outage duration (exponential).
    pub mean_downtime: f64,
    /// Expected correlated crash bursts per unit time (`0` disables). One
    /// burst downs a sampled group of servers for one shared outage —
    /// rack/zone failure.
    pub burst_rate: f64,
    /// Probability each server joins a given burst (at least one always
    /// does).
    pub burst_coverage: f64,
    /// Expected network partitions per unit time (`0` disables).
    pub partition_rate: f64,
    /// Mean partition duration (exponential).
    pub partition_mean: f64,
    /// Expected brownouts per unit time across the cluster (`0` disables).
    pub brownout_rate: f64,
    /// Mean brownout duration (exponential).
    pub brownout_mean: f64,
    /// Cost multiplier of a browned-out server (`> 1` to have any effect).
    pub brownout_factor: f64,
    /// Per-attempt transfer failure probability.
    pub fail_prob: f64,
    /// Per-run budget of failed transfer attempts (replaces the old flat
    /// per-transfer cap).
    pub retry_budget: u32,
    /// First-retry backoff wait; doubles per attempt, with deterministic
    /// jitter. `0` disables backoff waits.
    pub backoff_base: f64,
    /// Degraded-mode queue bound: total-outage deferrals past it drop.
    pub queue_cap: u32,
    /// Mean transfer delay (exponential); `0` disables delays.
    pub mean_delay: f64,
    /// Run policies wrapped in the fault-tolerant layer (`false` runs them
    /// oblivious, for measuring how badly unprotected policies break).
    pub tolerant: bool,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 0,
            crash_rate: 0.02,
            mean_downtime: 1.0,
            burst_rate: 0.0,
            burst_coverage: 0.5,
            partition_rate: 0.0,
            partition_mean: 1.0,
            brownout_rate: 0.0,
            brownout_mean: 2.0,
            brownout_factor: 3.0,
            fail_prob: 0.05,
            retry_budget: 64,
            backoff_base: 0.0,
            queue_cap: 64,
            mean_delay: 0.0,
            tolerant: true,
        }
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
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
    /// Exponential with the given mean (strictly positive).
    fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln().min(-f64::MIN_POSITIVE)
    }
}

/// Per-class RNG stream salts: distinct odd constants keep the fault
/// classes' draws independent of each other.
const SALT_CRASH: u64 = 0x94D0_49BB_1331_11EB;
const SALT_BURST: u64 = 0x2545_F491_4F6C_DD1D;
const SALT_PARTITION: u64 = 0xD6E8_FEB8_6659_FD93;
const SALT_BROWNOUT: u64 = 0xA076_1D64_78BD_642F;

/// The warm-buffer argument of [`FaultSpec::plan_for_into`]. Expansion
/// writes every window straight into the plan's own buffers, so this
/// holds nothing; it keeps the call shape of callers that pass one.
#[derive(Default, Debug)]
pub struct PlanScratch {}

impl FaultSpec {
    /// A spec that injects nothing (plans come out trivial).
    pub fn none() -> Self {
        FaultSpec {
            crash_rate: 0.0,
            fail_prob: 0.0,
            mean_delay: 0.0,
            ..FaultSpec::default()
        }
    }

    /// Expands the regime into the concrete plan for one run.
    ///
    /// Deterministic in `(self.seed, run_seed, servers, horizon)`.
    /// Independent crash windows are sampled per server as a Poisson
    /// process of outage starts with exponential outage lengths over
    /// `[0, horizon]`; bursts, partitions and brownouts are Poisson event
    /// streams of their own, each from its own salted RNG.
    pub fn plan_for(&self, run_seed: u64, servers: usize, horizon: f64) -> FaultPlan {
        let mut plan = FaultPlan::none();
        self.plan_for_into(
            run_seed,
            servers,
            horizon,
            &mut plan,
            &mut PlanScratch::default(),
        );
        plan
    }

    /// [`Self::plan_for`] into caller-owned storage: same draws, same
    /// resulting plan, zero allocations once `plan` is warm. The windows
    /// are drawn straight into the plan's buffers and indexed there (the
    /// scratch argument holds nothing). This is what keeps per-seed fault
    /// expansion off the heap in the sweep hot path.
    pub fn plan_for_into(
        &self,
        run_seed: u64,
        servers: usize,
        horizon: f64,
        plan: &mut FaultPlan,
        _scratch: &mut PlanScratch,
    ) {
        let mixed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(run_seed)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        plan.assign(
            |windows, partitions, brownouts| {
                self.draw_windows(mixed, servers, horizon, windows, partitions, brownouts)
            },
            mixed ^ 0xD6E8_FEB8_6659_FD93,
            self.fail_prob,
            self.retry_budget,
            self.backoff_base,
            self.mean_delay,
            self.queue_cap,
        );
    }

    /// Samples the raw windows of every fault class for the mixed seed,
    /// in a fixed draw order, straight into the plan's buffers; returns
    /// the number of correlated bursts expanded.
    fn draw_windows(
        &self,
        mixed: u64,
        servers: usize,
        horizon: f64,
        windows: &mut Vec<CrashWindow>,
        partitions: &mut Vec<PartitionWindow>,
        brownouts: &mut Vec<BrownoutWindow>,
    ) -> u32 {
        let mut bursts = 0u32;
        let live = servers > 0 && horizon > 0.0;
        if live && self.crash_rate > 0.0 && self.mean_downtime > 0.0 {
            let mean_gap = 1.0 / self.crash_rate;
            for s in 0..servers {
                let mut rng = Rng::new(mixed.wrapping_add((s as u64 + 1).wrapping_mul(SALT_CRASH)));
                let mut t = rng.exp(mean_gap);
                while t < horizon {
                    let down = rng.exp(self.mean_downtime);
                    windows.push(CrashWindow {
                        server: ServerId::from_index(s),
                        from: t,
                        to: t + down,
                    });
                    t = t + down + rng.exp(mean_gap);
                }
            }
        }
        if live && self.burst_rate > 0.0 && self.mean_downtime > 0.0 {
            let mut rng = Rng::new(mixed.wrapping_mul(SALT_BURST).wrapping_add(SALT_BURST));
            let mut t = rng.exp(1.0 / self.burst_rate);
            while t < horizon {
                let down = rng.exp(self.mean_downtime);
                let mut hit_any = false;
                let forced = (rng.next_u64() % servers as u64) as usize;
                for s in 0..servers {
                    let hit = rng.unit() < self.burst_coverage;
                    if hit || s == forced {
                        // The forced pick keeps every burst non-empty
                        // without re-rolling (draw counts stay fixed, so
                        // later events are unaffected by earlier outcomes).
                        windows.push(CrashWindow {
                            server: ServerId::from_index(s),
                            from: t,
                            to: t + down,
                        });
                        hit_any = true;
                    }
                }
                if hit_any {
                    bursts += 1;
                }
                t = t + down + rng.exp(1.0 / self.burst_rate);
            }
        }
        if live && servers > 1 && self.partition_rate > 0.0 && self.partition_mean > 0.0 {
            let mut rng = Rng::new(
                mixed
                    .wrapping_mul(SALT_PARTITION)
                    .wrapping_add(SALT_PARTITION),
            );
            let mut t = rng.exp(1.0 / self.partition_rate);
            while t < horizon {
                let span = rng.exp(self.partition_mean);
                let mask = rng.next_u64();
                let used = if servers >= 64 {
                    u64::MAX
                } else {
                    (1u64 << servers) - 1
                };
                // Degenerate masks (everyone on one side) partition
                // nothing; skip them rather than re-rolling.
                if mask & used != 0 && (mask & used) != used {
                    partitions.push(PartitionWindow {
                        from: t,
                        to: t + span,
                        mask,
                    });
                }
                t = t + span + rng.exp(1.0 / self.partition_rate);
            }
        }
        if live
            && self.brownout_rate > 0.0
            && self.brownout_mean > 0.0
            && self.brownout_factor > 1.0
        {
            let mut rng = Rng::new(
                mixed
                    .wrapping_mul(SALT_BROWNOUT)
                    .wrapping_add(SALT_BROWNOUT),
            );
            let mut t = rng.exp(1.0 / self.brownout_rate);
            while t < horizon {
                let span = rng.exp(self.brownout_mean);
                let server = (rng.next_u64() % servers as u64) as usize;
                brownouts.push(BrownoutWindow {
                    server: ServerId::from_index(server),
                    from: t,
                    to: t + span,
                    factor: self.brownout_factor,
                });
                t += rng.exp(1.0 / self.brownout_rate);
            }
        }
        bursts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_seed_pair() {
        let spec = FaultSpec {
            seed: 9,
            crash_rate: 0.3,
            burst_rate: 0.1,
            partition_rate: 0.1,
            brownout_rate: 0.1,
            ..FaultSpec::default()
        };
        let a = spec.plan_for(4, 8, 50.0);
        let b = spec.plan_for(4, 8, 50.0);
        assert_eq!(a, b);
        let c = spec.plan_for(5, 8, 50.0);
        assert_ne!(a, c, "different run seeds draw different plans");
    }

    #[test]
    fn fault_classes_draw_from_independent_streams() {
        // Enabling bursts/partitions/brownouts must not change the
        // independent crash draws of the same seed pair.
        let base = FaultSpec {
            seed: 3,
            crash_rate: 0.4,
            ..FaultSpec::default()
        };
        let rich = FaultSpec {
            burst_rate: 0.2,
            partition_rate: 0.2,
            brownout_rate: 0.3,
            ..base
        };
        let a = base.plan_for(7, 5, 40.0);
        let b = rich.plan_for(7, 5, 40.0);
        // Span coverage, not verbatim equality: the plan coalesces
        // overlapping same-server windows, so a burst landing on top of a
        // base crash widens it — but never shrinks or moves it.
        for w in a.crashes() {
            assert!(
                b.crashes()
                    .iter()
                    .any(|v| v.server == w.server && v.from <= w.from && w.to <= v.to),
                "independent crash {w:?} not covered by the rich plan"
            );
        }
        assert!(b.partitions().len() + b.brownouts().len() > 0);
    }

    #[test]
    fn bursts_down_server_groups_with_shared_windows() {
        let spec = FaultSpec {
            seed: 11,
            crash_rate: 0.0,
            burst_rate: 0.2,
            burst_coverage: 0.6,
            mean_downtime: 2.0,
            ..FaultSpec::default()
        };
        let plan = spec.plan_for(1, 6, 60.0);
        assert!(plan.bursts() > 0, "burst rate 0.2 over 60 units fires");
        assert!(plan.has_crashes());
        // Every crash window comes from a burst: windows sharing a start
        // share the burst's downtime, and each burst downs ≥ 1 server.
        for w in plan.crashes() {
            let group: Vec<_> = plan.crashes().iter().filter(|v| v.from == w.from).collect();
            assert!(!group.is_empty());
            assert!(
                group.iter().all(|v| v.to == w.to),
                "burst members share the outage window"
            );
        }
    }

    #[test]
    fn partitions_have_two_nonempty_sides() {
        let spec = FaultSpec {
            seed: 5,
            crash_rate: 0.0,
            partition_rate: 0.3,
            partition_mean: 2.0,
            ..FaultSpec::default()
        };
        let servers = 6;
        let plan = spec.plan_for(2, servers, 80.0);
        assert!(!plan.partitions().is_empty());
        let used = (1u64 << servers) - 1;
        for w in plan.partitions() {
            assert!(w.mask & used != 0 && (w.mask & used) != used);
            assert!(w.to > w.from);
        }
        // Single-server clusters cannot partition.
        assert!(spec.plan_for(2, 1, 80.0).partitions().is_empty());
    }

    #[test]
    fn total_outages_are_generated_uncapped() {
        // A pathologically crashy regime must now be able to down the
        // whole cluster at once (the old m − 1 cap is gone).
        let spec = FaultSpec {
            seed: 3,
            crash_rate: 2.0,
            mean_downtime: 5.0,
            ..FaultSpec::default()
        };
        let mut saw_total = false;
        for servers in [2usize, 3] {
            for run_seed in 0..8u64 {
                let plan = spec.plan_for(run_seed, servers, 40.0);
                let mut out = Vec::new();
                plan.total_outages_into(servers, &mut out);
                saw_total |= !out.is_empty();
            }
        }
        assert!(saw_total, "rate 2.0 / downtime 5.0 overlaps everything");
    }

    #[test]
    fn single_server_clusters_crash_too() {
        let spec = FaultSpec {
            seed: 1,
            crash_rate: 0.5,
            ..FaultSpec::default()
        };
        assert!(
            spec.plan_for(0, 1, 100.0).has_crashes(),
            "m = 1 crashes are legal now: the queue survives them"
        );
    }

    #[test]
    fn plan_for_into_reuses_buffers_and_matches_plan_for() {
        let spec = FaultSpec {
            seed: 9,
            crash_rate: 0.5,
            burst_rate: 0.1,
            partition_rate: 0.15,
            brownout_rate: 0.2,
            ..FaultSpec::default()
        };
        let mut plan = FaultPlan::none();
        let mut scratch = PlanScratch::default();
        for run_seed in 0..6u64 {
            spec.plan_for_into(run_seed, 8, 50.0, &mut plan, &mut scratch);
            assert_eq!(plan, spec.plan_for(run_seed, 8, 50.0));
        }
    }

    #[test]
    fn zero_rates_yield_trivial_plans() {
        let spec = FaultSpec {
            crash_rate: 0.0,
            fail_prob: 0.0,
            mean_delay: 0.0,
            ..FaultSpec::default()
        };
        assert!(!spec.plan_for(0, 4, 100.0).has_crashes());
        assert!(FaultSpec::none().plan_for(0, 8, 100.0).is_trivial());
    }
}
