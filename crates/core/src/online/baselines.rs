//! Online baseline policies the evaluation compares Speculative Caching
//! against.
//!
//! None of these exist in the paper (its comparison is purely analytic);
//! they are the natural straw men a systems evaluation needs:
//!
//! * [`Follow`] — one migrating copy, no speculation: every remote request
//!   transfers the copy over and deletes the source. The classic
//!   "ski-rental always-rent" extreme.
//! * [`StayAtOrigin`] — the copy never moves; every remote request pays a
//!   transfer out of the origin. The "never move" extreme.
//! * [`KeepEverywhere`] — copies are never deleted: each server's first
//!   request installs a permanent replica. The "always-buy" extreme.
//!
//! Together with the `α`-parameterized window of
//! [`SpeculativeCaching`](super::sc::SpeculativeCaching) these span the
//! policy space the E3/E8 experiments sweep. None of the baselines keeps
//! TTL state, so each takes the trait's default `expire` and
//! `next_expiry`: the daemon never arms a timer for them.

use mcc_model::{CostModel, Request, Scalar, ServerId};

use super::decider::{Decision, OnlineDecider, ServeAction};
use super::tracker::CopyOps;

/// Single migrating copy: the data follows the request stream.
#[derive(Clone, Debug, Default)]
pub struct Follow {
    holder: ServerId,
}

impl Follow {
    /// Creates the policy.
    pub fn new() -> Self {
        Follow {
            holder: ServerId::ORIGIN,
        }
    }
}

impl<S: Scalar> OnlineDecider<S> for Follow {
    fn name(&self) -> String {
        "follow".into()
    }

    fn reset(&mut self, _servers: usize, _cost: &CostModel<S>) {
        self.holder = ServerId::ORIGIN;
    }

    fn observe(&mut self, req: Request<S>, rt: &mut dyn CopyOps<S>) -> Decision<S> {
        let (t, server) = (req.time, req.server);
        let action = if server == self.holder {
            rt.touch(server, t);
            ServeAction::Cache
        } else {
            let from = self.holder;
            rt.transfer(from, server, t);
            rt.close(from, t);
            self.holder = server;
            ServeAction::Transfer { from }
        };
        Decision::new(req, action)
    }
}

/// The copy stays home: remote requests are served by transfers out of the
/// origin, local requests by the origin's cache.
#[derive(Clone, Debug, Default)]
pub struct StayAtOrigin;

impl StayAtOrigin {
    /// Creates the policy.
    pub fn new() -> Self {
        StayAtOrigin
    }
}

impl<S: Scalar> OnlineDecider<S> for StayAtOrigin {
    fn name(&self) -> String {
        "stay-at-origin".into()
    }

    fn reset(&mut self, _servers: usize, _cost: &CostModel<S>) {}

    fn observe(&mut self, req: Request<S>, rt: &mut dyn CopyOps<S>) -> Decision<S> {
        let (t, server) = (req.time, req.server);
        let action = if server == ServerId::ORIGIN {
            rt.touch(server, t);
            ServeAction::Cache
        } else {
            rt.transfer(ServerId::ORIGIN, server, t);
            // The delivered copy serves the request instant and is dropped.
            rt.close(server, t);
            ServeAction::Transfer {
                from: ServerId::ORIGIN,
            }
        };
        Decision::new(req, action)
    }
}

/// Full replication: every server that ever requests keeps a permanent
/// replica (fed from the most recently used live copy).
#[derive(Clone, Debug, Default)]
pub struct KeepEverywhere {
    last_used: ServerId,
}

impl KeepEverywhere {
    /// Creates the policy.
    pub fn new() -> Self {
        KeepEverywhere {
            last_used: ServerId::ORIGIN,
        }
    }
}

impl<S: Scalar> OnlineDecider<S> for KeepEverywhere {
    fn name(&self) -> String {
        "keep-everywhere".into()
    }

    fn reset(&mut self, _servers: usize, _cost: &CostModel<S>) {
        self.last_used = ServerId::ORIGIN;
    }

    fn observe(&mut self, req: Request<S>, rt: &mut dyn CopyOps<S>) -> Decision<S> {
        let (t, server) = (req.time, req.server);
        let action = if rt.is_open(server) {
            rt.touch(server, t);
            ServeAction::Cache
        } else {
            let from = self.last_used;
            rt.transfer(from, server, t);
            ServeAction::Transfer { from }
        };
        self.last_used = server;
        Decision::new(req, action)
    }

    fn close_time(&self, _server: ServerId, last_touch: S, horizon: S) -> S {
        // Replicas persist through the service horizon.
        last_touch.max2(horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::executor::run_policy;
    use mcc_model::Instance;

    fn inst() -> Instance<f64> {
        Instance::from_compact("m=3 mu=1 lambda=1 | s2@1.0 s2@2.0 s1@3.0 s3@4.0").unwrap()
    }

    #[test]
    fn follow_migrates_one_copy() {
        let run = run_policy(&mut Follow::new(), &inst());
        // s1[0,1] →T s2[1,2,3) →T s1[3] →T... : transfers at 1.0, 3.0, 4.0.
        assert_eq!(run.transfers(), 3);
        assert_eq!(run.cache_hits(), 1);
        // Caching: 1 + 2 + 1 (s^3 closes instantly) = 4; transfers 3.
        assert_eq!(run.total_cost, 7.0);
        // Never more than one live copy.
        for h in &run.schedule.caches {
            for g in &run.schedule.caches {
                if h != g {
                    assert!(
                        h.to <= g.from || g.to <= h.from,
                        "overlapping copies in follow"
                    );
                }
            }
        }
    }

    #[test]
    fn stay_at_origin_transfers_every_remote_request() {
        let run = run_policy(&mut StayAtOrigin::new(), &inst());
        assert_eq!(run.transfers(), 3);
        assert_eq!(run.cache_hits(), 1);
        // Origin holds [0, 4]: caching 4, transfers 3.
        assert_eq!(run.total_cost, 7.0);
        assert_eq!(run.schedule.caches.len(), 1);
    }

    #[test]
    fn keep_everywhere_installs_permanent_replicas() {
        let run = run_policy(&mut KeepEverywhere::new(), &inst());
        // Transfers only on first touch of s^2 and s^3.
        assert_eq!(run.transfers(), 2);
        assert_eq!(run.cache_hits(), 2);
        // All three replicas persist to the horizon t = 4:
        // s^1 [0,4] + s^2 [1,4] + s^3 [4,4] = 7, transfers 2 → 9.
        assert_eq!(run.total_cost, 9.0);
    }

    #[test]
    fn all_baselines_validate_on_a_bigger_mix() {
        let inst = Instance::<f64>::from_compact(
            "m=4 mu=2 lambda=3 | s2@0.5 s3@0.8 s4@1.1 s1@1.4 s2@2.6 s2@3.2 s3@4.0 s4@4.1 s1@5.0",
        )
        .unwrap();
        // run_policy validates in debug builds; just exercise them all.
        run_policy(&mut Follow::new(), &inst);
        run_policy(&mut StayAtOrigin::new(), &inst);
        run_policy(&mut KeepEverywhere::new(), &inst);
    }
}
