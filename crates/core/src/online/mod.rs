//! Online algorithms for the data-caching problem (Section V).
//!
//! * [`SpeculativeCaching`] — the paper's 3-competitive algorithm: copies
//!   stay speculatively alive for `Δt = λ/μ` after each use; misses are
//!   served from the previous request's server; optional epochs.
//! * [`baselines`] — `Follow`, `StayAtOrigin`, `KeepEverywhere`.
//! * [`double_transfer`] — the cost-preserving DT rewrite (Definition 10).
//! * [`reduction::analyze`] — V-/H-reductions and every inequality in the
//!   Theorem 3 chain, computable for any concrete run.
//! * [`run_policy`] — the strictly-online executor producing a validated
//!   [`mcc_model::Schedule`].
//! * [`decider`] — [`OnlineDecider`], the one policy trait (one request
//!   in, one [`Decision`] out, TTL deadlines exposed for a timer wheel):
//!   the decision core shared by batch replay and the `mcc-serve` daemon.
//!   Every policy above implements it, and [`FaultTolerant`] wraps any
//!   implementation in the chaos layer.

pub mod baselines;
pub mod decider;
pub mod dt;
pub mod executor;
pub mod fault;
pub mod reduction;
pub mod sc;
pub mod tracker;

pub use baselines::{Follow, KeepEverywhere, StayAtOrigin};
pub use decider::{Decision, OnlineDecider, ServeAction};
pub use dt::{double_transfer, DtCache, DtSchedule, DtTransfer};
pub use executor::{
    finalize_record, run_policy, run_policy_record, stats_from_record, OnlineRun, RunFold, RunStats,
};
pub use fault::{
    brownout_surcharge, BrownoutFold, BrownoutWindow, CrashWindow, FaultPlan, FaultStats,
    FaultTolerant, PartitionWindow, RetryDraw,
};
pub use reduction::{analyze, ReductionReport};
pub use sc::SpeculativeCaching;
pub use tracker::{
    sort_tie_runs, CopyOps, CopyRecord, RecordFold, RunRecord, Runtime, TransferRecord,
};
