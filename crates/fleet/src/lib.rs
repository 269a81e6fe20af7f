//! # mcc-fleet — millions of independent cached items per box
//!
//! The paper models one shared data item migrating across `m` servers;
//! production mobile clouds cache *fleets* of items over the same
//! substrate. This crate scales the single-item pipeline to millions of
//! per-item SC instances per process:
//!
//! * **Per-item parameters.** Every item draws its own `(μ, λ)` from
//!   [`mcc_workloads::distributions::ParamDist`] distributions,
//!   deterministically per `(fleet seed, item index)`, and generates its
//!   own Poisson trace.
//! * **SoA item state.** Results live in [`ItemStates`] — structure-of-
//!   arrays columns (μ, λ, online cost, OPT, ratio, transfers, audit
//!   findings, evictions), one row per item — reused run to run.
//! * **Sharded batched simulation.** Items are partitioned into
//!   contiguous shards across disjoint-ownership workers (the PR-4 sweep
//!   idiom: no locks, no shared mutable state) and staged through the
//!   batched [`mcc_simnet::RunRequest::run_units_src`] path in
//!   `BATCH_UNITS` chunks, so the per-item hot path is zero-allocation
//!   once warm and bit-identical across 1/2/8 threads.
//! * **Capacity-constrained servers.** Per-server slot budgets make the
//!   fleet more than K independent replays: items compete for slots, an
//!   LRU/landlord eviction policy (priced as its own cost class, like
//!   brownouts) charges evictions into the cost model, and with eviction
//!   disabled the sweep reports typed
//!   [`mcc_simnet::AuditFinding::CapacityViolation`] findings instead.
//!   Each worker harvests its shard's copy residencies as one 32-byte
//!   interval each and sorts them by start on its own thread; the sweep
//!   merges those runs per server and frees slots from a 16-byte-per-
//!   interval ends lane, so the capacity phase adds about 19 bytes per
//!   capacity event (two per interval) to the fleet's peak memory.
//!
//! Entry point: [`run_fleet`] with a reusable [`FleetWorkspace`]. See
//! DESIGN.md §12 for the architecture and EXPERIMENTS.md E21 for the
//! scaling experiment; `BENCH_fleet.json` records throughput by fleet
//! size and thread count, and CI gates its calibrated rate and 8-thread
//! efficiency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod capacity;
pub mod sim;
pub mod spec;
pub mod state;

pub use sim::{run_fleet, FleetWorkspace};
pub use spec::{EvictionPolicy, FleetSpec};
pub use state::{FleetSummary, ItemStates};
