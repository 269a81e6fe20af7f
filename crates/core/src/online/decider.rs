//! The online-decider abstraction: one request in, one [`Decision`] out.
//!
//! An online decider sees requests one at a time (nothing about the
//! future) and drives the copy state through [`CopyOps`]: touching live
//! copies, creating copies by transfer, and deleting copies. One trait,
//! [`OnlineDecider`], carries the whole per-request decision step, so the
//! same decision core drives both regimes:
//!
//! * **batch replay** — [`crate::online::run_policy`] and
//!   [`crate::online::run_policy_record`] are thin drivers that feed a
//!   materialized request sequence through [`OnlineDecider::observe`] and
//!   assemble the resulting schedule;
//! * **live serving** — a long-lived daemon (`mcc-serve`) feeds requests
//!   as they arrive, uses [`OnlineDecider::next_expiry`] to schedule its
//!   TTL timer wheel, and sweeps lapsed speculative copies between
//!   requests with [`OnlineDecider::expire`].
//!
//! `observe` is the one required decision method. `expire` defaults to a
//! no-op and `next_expiry` to no deadline: a decider without TTL state
//! (the baselines) then expires nothing, and one that does expire lazily
//! inside `observe` — exactly the batch-replay behavior. Speculative
//! Caching and the fault-tolerant wrapper override them.

use mcc_model::{CostModel, Request, Scalar, ServerId};

use super::tracker::CopyOps;

/// How a request was served.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ServeAction {
    /// By the live copy already on the requesting server.
    Cache,
    /// By a transfer from another server's live copy.
    Transfer {
        /// The source server.
        from: ServerId,
    },
    /// Not served now: buffered in a degraded-mode offline queue (total
    /// outage or partition isolation) for replay at first recovery — or
    /// dropped with explicit accounting if the queue bound is hit. Only the
    /// fault-tolerant wrapper emits this.
    Deferred,
}

/// The answer to one observed request: the serve action, with the
/// request echoed so the decision is self-describing on a wire.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Decision<S> {
    /// The request's time.
    pub t: S,
    /// The requesting server.
    pub server: ServerId,
    /// How the request was served.
    pub action: ServeAction,
}

impl<S: Scalar> Decision<S> {
    /// Builds the decision for `req` answered with `action`.
    #[inline]
    pub fn new(req: Request<S>, action: ServeAction) -> Self {
        Decision {
            t: req.time,
            server: req.server,
            action,
        }
    }
}

/// An online caching policy as an incremental decider: the per-request
/// decision step shared by batch replay and the live daemon.
///
/// Implementations must be *online* (decisions depend only on requests
/// seen so far) and, for a given request stream, must behave identically
/// whether expirations are swept eagerly (`expire` between requests, as
/// the daemon's timer wheel does) or lazily (inside `observe`, as batch
/// replay does) — the serve-vs-replay equivalence property the `mcc-serve`
/// proptests pin down.
pub trait OnlineDecider<S: Scalar> {
    /// Human-readable policy name for reports.
    fn name(&self) -> String;

    /// Re-initializes internal state for a fresh run.
    fn reset(&mut self, servers: usize, cost: &CostModel<S>);

    /// Serves one request, mutating the copy state through `rt`. Must keep
    /// at least one copy live and must actually serve the request (touch
    /// the local copy or transfer to it), unless the fault-tolerant
    /// wrapper defers it.
    fn observe(&mut self, req: Request<S>, rt: &mut dyn CopyOps<S>) -> Decision<S>;

    /// Sweeps every speculative-copy expiration strictly before `now`.
    /// Default: no-op (expirations, if any, happen lazily in `observe`).
    fn expire(&mut self, _now: S, _rt: &mut dyn CopyOps<S>) {}

    /// The earliest pending copy-expiration deadline, if the decider
    /// tracks any — the daemon's timer wheel re-arms from this after
    /// every observe/expire. `None` means "no timer needed": either the
    /// decider has no TTL state, or (fault-tolerant wrapper) deadlines
    /// can only be resolved in request order.
    fn next_expiry(&self) -> Option<S> {
        None
    }

    /// Close time for a copy still live when the sequence ends (its last
    /// useful touch is given). Defaults to no tail.
    fn close_time(&self, _server: ServerId, last_touch: S, _horizon: S) -> S {
        last_touch
    }

    /// Called once by the executor after the last request and before
    /// finalization. Defaults to a no-op; the fault-tolerant wrapper drains
    /// its degraded-mode queue here so end-of-run deferrals are still
    /// replayed (and costed) rather than silently lost.
    fn on_finish(&mut self) {}
}

impl<S: Scalar, P: OnlineDecider<S> + ?Sized> OnlineDecider<S> for Box<P> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn reset(&mut self, servers: usize, cost: &CostModel<S>) {
        (**self).reset(servers, cost)
    }
    fn observe(&mut self, req: Request<S>, rt: &mut dyn CopyOps<S>) -> Decision<S> {
        (**self).observe(req, rt)
    }
    fn expire(&mut self, now: S, rt: &mut dyn CopyOps<S>) {
        (**self).expire(now, rt)
    }
    fn next_expiry(&self) -> Option<S> {
        (**self).next_expiry()
    }
    fn close_time(&self, server: ServerId, last_touch: S, horizon: S) -> S {
        (**self).close_time(server, last_touch, horizon)
    }
    fn on_finish(&mut self) {
        (**self).on_finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal decider relying on every default.
    struct Pin;
    impl OnlineDecider<f64> for Pin {
        fn name(&self) -> String {
            "pin".into()
        }
        fn reset(&mut self, _servers: usize, _cost: &CostModel<f64>) {}
        fn observe(&mut self, req: Request<f64>, rt: &mut dyn CopyOps<f64>) -> Decision<f64> {
            let action = if rt.is_open(req.server) {
                rt.touch(req.server, req.time);
                ServeAction::Cache
            } else {
                rt.transfer(ServerId::ORIGIN, req.server, req.time);
                ServeAction::Transfer {
                    from: ServerId::ORIGIN,
                }
            };
            Decision::new(req, action)
        }
    }

    #[test]
    fn observe_echoes_the_request() {
        let mut rt = crate::online::tracker::Runtime::new(2);
        rt.reset(2);
        let mut p = Pin;
        let d = p.observe(Request::at(0, 1.0), &mut rt);
        assert_eq!(d.action, ServeAction::Cache);
        assert_eq!(d.server, ServerId(0));
        assert_eq!(d.t, 1.0);
        assert_eq!(p.next_expiry(), None);
    }

    #[test]
    fn trait_is_object_safe_and_boxes_delegate() {
        let mut rt = crate::online::tracker::Runtime::new(2);
        rt.reset(2);
        let mut p: Box<dyn OnlineDecider<f64>> = Box::new(Pin);
        p.reset(2, &CostModel::unit());
        assert_eq!(p.name(), "pin");
        let d = p.observe(Request::at(1, 0.5), &mut rt);
        assert_eq!(d.action, ServeAction::Transfer { from: ServerId(0) });
        p.expire(9.0, &mut rt);
        assert_eq!(p.next_expiry(), None);
        // The default close time adds no tail.
        assert_eq!(p.close_time(ServerId(0), 3.0, 9.0), 3.0);
        p.on_finish();
    }
}
