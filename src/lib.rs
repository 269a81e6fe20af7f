//! # mobile-cloud-cache
//!
//! A production-quality Rust implementation of *“Data Caching in Next
//! Generation Mobile Cloud Services, Online vs. Off-line”* (Wang, He, Fan,
//! Xu, Culberson, Horton — ICPP 2017): cost-driven caching of a shared
//! data item in a fully connected cloud, where the knobs are a caching
//! rate `μ` and a transfer charge `λ` instead of a fixed cache capacity.
//!
//! ## What's inside
//!
//! * **Off-line**: the optimal `O(mn)` dynamic program — given the full
//!   (trajectory-predicted) request sequence, compute the cheapest set of
//!   caches, migrations and replications ([`offline`]).
//! * **Online**: the 3-competitive *Speculative Caching* algorithm — keep
//!   each copy alive `Δt = λ/μ` past its last use ([`online`]).
//! * **Substrates**: the problem model with an independent schedule
//!   referee ([`model`]), the batch run pipeline with parallel sweeps,
//!   fault injection and plan-and-repair execution ([`simnet`]), mobile-trajectory
//!   workload generators with a learned location predictor
//!   ([`workloads`]), classic capacity-based caching for the Table I
//!   comparison ([`classic`]), the heterogeneous-cost extension
//!   ([`hetero`]), the fleet layer scaling the pipeline to millions of
//!   independent items with capacity-constrained servers ([`fleet`]),
//!   the real-time serving daemon answering live placement requests over
//!   the incremental decision API ([`serve`]), and analysis/reporting
//!   tools ([`analysis`]).
//!
//! ## Quickstart
//!
//! ```
//! use mobile_cloud_cache::prelude::*;
//!
//! // Four servers, μ = λ = 1, the paper's Fig. 6 request sequence.
//! let inst = Instance::<f64>::from_compact(
//!     "m=4 mu=1 lambda=1 | s2@0.5 s3@0.8 s4@1.1 s1@1.4 s2@2.6 s2@3.2 s3@4.0",
//! )
//! .unwrap();
//!
//! // Off-line optimum (knowing the whole trajectory):
//! let (schedule, cost) = optimal_schedule(&inst);
//! assert!((cost - 8.9).abs() < 1e-9);
//! assert!(validate(&inst, &schedule).is_ok());
//!
//! // Online (no future knowledge), provably ≤ 3·OPT + λ:
//! let run = run_policy(&mut SpeculativeCaching::paper(), &inst);
//! assert!(run.total_cost <= 3.0 * cost + 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mcc_analysis as analysis;
pub use mcc_classic as classic;
pub use mcc_core::hetero;
pub use mcc_core::offline;
pub use mcc_core::online;
pub use mcc_fleet as fleet;
pub use mcc_model as model;
pub use mcc_obs as obs;
pub use mcc_serve as serve;
pub use mcc_simnet as simnet;
pub use mcc_workloads as workloads;

/// The most common imports in one place.
///
/// This is the supported surface for downstream code (`examples/`, the
/// `mcc` CLI): instance construction, the off-line solvers, the online
/// policies, the unified [`RunRequest`](mcc_simnet::RunRequest) run
/// pipeline, and the `metrics/1` observability types. Anything deeper
/// (solver workspaces, engine internals) is reachable through the
/// module re-exports above but is not covered by the same stability
/// expectations.
pub mod prelude {
    pub use mcc_core::offline::{optimal_cost, optimal_schedule, solve_fast, DpSolution};
    pub use mcc_core::online::{
        analyze, double_transfer, run_policy, Decision, Follow, KeepEverywhere, OnlineDecider,
        OnlineRun, SpeculativeCaching, StayAtOrigin,
    };
    pub use mcc_fleet::{run_fleet, EvictionPolicy, FleetSpec, FleetSummary, FleetWorkspace};
    pub use mcc_model::{
        unit_instance, validate, CostModel, Fixed, Instance, InstanceBuilder, Prescan, Request,
        Scalar, Schedule, ServerId,
    };
    pub use mcc_obs::{MetricsSnapshot, Registry, Sink};
    pub use mcc_serve::{
        serve_lines, DaemonOptions, ServeConfig, ServeEngine, ServeReply, ShedReason,
    };
    pub use mcc_simnet::{
        factory, fold_fault_stats, sweep, sweep_with, CellResult, FaultSpec, GridCell,
        PolicyFactory, RunMode, RunPolicy, RunRequest, RunWorkspace, SeedResult,
    };
    pub use mcc_workloads::{
        standard_suite, CommonParams, MarkovWorkload, PoissonWorkload, Workload,
    };
}
