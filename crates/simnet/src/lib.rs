//! # mcc-simnet — the batch run pipeline
//!
//! The execution environment the online experiments run on: the
//! [`RunRequest`] front door that drives any
//! [`mcc_core::online::OnlineDecider`] over generated or replayed
//! instances and prices each run against the off-line optimum,
//! post-hoc instrumentation (live-copy timelines, cost attribution), a
//! deterministic parallel sweep runner for (policy × workload × seed)
//! grids, seed-driven fault injection ([`fault`]), and an always-on
//! schedule auditor ([`streaming`], checked against the replay in
//! [`audit`]) that verifies every run against the model invariants (and
//! the fault plan, when there is one). Live arrivals are the serving
//! daemon's job (`mcc-serve`).
//!
//! Simulation inputs are user-reachable (traces, CLI parameters), so this
//! crate's non-test code must not panic on them: the unwrap/expect lints
//! below are promoted to errors by CI's `-D warnings`.

#![forbid(unsafe_code)]
// `!(a > b)` is used deliberately where NaN must be rejected alongside
// ordinary failures; `a <= b` would silently accept NaN.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod audit;
pub mod clock;
pub mod fault;
pub mod metrics;
pub mod parallel;
pub mod planned;
pub mod runner;
pub mod streaming;

pub use audit::{AuditFinding, AuditReport, ScheduleAuditor};
pub use clock::{SimClock, TimeSource, WallClock};
pub use fault::{FaultSpec, PlanScratch};
pub use metrics::{Breakdown, CopyTimeline, FaultBreakdown};
pub use parallel::{sweep, sweep_with, CellResult, GridCell};
pub use planned::{
    execute_plan, execute_plan_under_faults, plan_and_execute, FaultyPlannedOutcome, PlannedOutcome,
};
pub use runner::{
    factory, fold_fault_stats, FaultOutcome, PolicyFactory, RunMode, RunPolicy, RunRequest,
    RunWorkspace, SeedResult, UnitSource, BATCH_UNITS,
};
pub use streaming::{AuditScratch, StreamingAuditor};
