//! Metric identifiers: every counter, gauge and histogram the pipeline
//! can emit, as dense enums usable as array indices.
//!
//! The set is closed on purpose: a fixed universe lets [`crate::Registry`]
//! pre-size flat atomic arrays (no map lookups, no allocation on the
//! record path) and keeps the `metrics/1` snapshot schema stable — a new
//! metric is an additive schema change, never a runtime surprise.

/// Monotone counters, grouped by pipeline layer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    // --- off-line solver ------------------------------------------------
    /// Per-instance windowed-sweep solves (`solve_naive_in`); batched
    /// solves count under [`Counter::SolveBatchInstances`] instead.
    SolveSweepDispatches,
    /// Nanoseconds spent in the prescan phase (CSR build + bounds).
    SolvePrescanNanos,
    /// Nanoseconds spent in the DP recurrence itself.
    SolveDpNanos,
    /// Nanoseconds spent in whole off-line solves (all phases).
    SolveNanos,
    // --- online executor ------------------------------------------------
    /// Completed policy runs.
    Runs,
    /// Requests served across all runs.
    Requests,
    /// Requests served by extending a live copy (no transfer issued).
    Extensions,
    /// Transfers issued by the online policy.
    Transfers,
    /// Caching cost (`μ` side: useful intervals + speculative tails), in
    /// micro-cost units.
    CachingCostMicros,
    /// Transfer cost (`λ` side), in micro-cost units.
    TransferCostMicros,
    /// Auditor findings across all runs (`0` = every run clean).
    AuditFindings,
    // --- fault layer (folded from `FaultStats`) -------------------------
    /// Failed transfer attempts that were retried.
    FaultRetries,
    /// Serves/transfers rerouted after the believed source was lost.
    FaultFailovers,
    /// Emergency re-replications and crash-time evacuations.
    FaultEvacuations,
    /// Live copies destroyed by crashes.
    FaultCopiesLost,
    /// Requests served by a remote read because the server was down.
    FaultDownServes,
    /// Transfers absorbed by an already-live destination replica.
    FaultAdoptedReplicas,
    /// Crash windows injected across all runs.
    FaultCrashWindows,
    /// `λ` surcharge paid for failed attempts, in micro-cost units.
    FaultRetryCostMicros,
    /// Correlated crash-burst windows injected across all runs.
    FaultBurstWindows,
    /// Network-partition windows injected across all runs.
    FaultPartitionWindows,
    /// Brownout windows injected across all runs.
    FaultBrownoutWindows,
    /// Requests deferred into the degraded-mode queue.
    FaultDeferred,
    /// Deferred requests replayed at recovery (or run end).
    FaultReplayed,
    /// Deferred requests dropped at the queue bound.
    FaultDropped,
    /// Deferrals caused by an active partition (no reachable live copy).
    FaultPartitionDeferrals,
    /// Copies re-materialized from durable storage after total outages.
    FaultReseeds,
    /// Transfers forced through after the retry budget ran dry.
    FaultBudgetExhausted,
    /// `λ` surcharge paid replaying deferred requests, in micro-cost units.
    FaultReplayCostMicros,
    /// `λ` surcharge paid re-seeding after outages, in micro-cost units.
    FaultReseedCostMicros,
    /// Brownout `μ/λ` surcharge across all runs, in micro-cost units.
    FaultBrownoutCostMicros,
    // --- parallel sweep -------------------------------------------------
    /// Worker threads launched across all sweeps.
    SweepWorkers,
    /// Seed-units completed across all sweeps.
    SweepUnits,
    /// Chunk grabs off the atomic dispatcher.
    SweepChunkGrabs,
    /// Nanoseconds workers spent acquiring chunks from the dispatcher.
    SweepDispatchWaitNanos,
    // --- batched solver ---------------------------------------------------
    /// `BatchWorkspace::solve_obs` calls (one per filled batch, any size).
    SolveBatchDispatches,
    /// Instances solved through the batched kernel.
    SolveBatchInstances,
    /// Nanoseconds spent staging batches (generate + SoA prescan fill).
    SolveBatchStageNanos,
    /// Nanoseconds spent in the batched DP kernel (all lanes).
    SolveBatchDpNanos,
    // --- fleet layer ------------------------------------------------------
    /// Items simulated across all fleet runs.
    FleetItems,
    /// Nanoseconds spent in the per-item simulation phase (all shards).
    FleetSimNanos,
    /// Nanoseconds spent in the capacity/eviction sweep phase.
    FleetCapacityNanos,
    /// Residency events processed by the capacity sweep.
    FleetCapacityEvents,
    /// Evictions performed by the capacity sweep.
    FleetEvictions,
    /// Eviction surcharge paid into the cost model, in micro-cost units.
    FleetEvictionCostMicros,
    /// Over-capacity admissions observed with eviction disabled.
    FleetCapacityViolations,
    // --- serve daemon -----------------------------------------------------
    /// Requests answered by the serve engine (decisions issued).
    ServeRequests,
    /// Requests refused by the serve engine's admission bounds.
    ServeSheds,
    /// Requests deferred into the serve engine's offline queue.
    ServeDeferred,
    /// Offline-queued requests replayed after recovery.
    ServeReplayed,
    /// Timers fired by the serve engine's sweeps.
    ServeExpirations,
    /// Items finalized (finished) by the serve engine.
    ServeItemsFinished,
}

/// Last-write / high-water gauges.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Worker threads of the most demanding sweep (high-water).
    SweepThreads,
    /// Seed-units of the largest sweep grid (high-water).
    SweepGridUnits,
    /// Hardware threads visible to the process.
    HwThreads,
    /// Items of the largest fleet run (high-water).
    FleetSize,
    /// Per-server capacity slots of the largest fleet run (high-water).
    FleetCapacitySlots,
    /// Highest server occupancy any fleet capacity sweep reached.
    FleetOccupancyPeak,
    /// Bytes the largest capacity harvest held: every residency interval
    /// plus the sweep's largest per-server ends lane (high-water).
    FleetCapacityHarvestBytes,
    /// Most items the serve engine tracked at once (high-water).
    ServeItemsPeak,
    /// Most live copies the serve engine tracked at once (high-water).
    ServeCopiesPeak,
}

/// Fixed-bucket (power-of-two) histograms.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Wall time of one seed-unit, nanoseconds.
    UnitNanos,
    /// Wall time of one off-line solve, nanoseconds.
    SolveNanos,
    /// Seed-units one worker completed in one sweep.
    WorkerUnits,
    /// Per-run competitive ratio, in hundredths (`ratio × 100`).
    RatioCenti,
    /// Wall time of one batched DP kernel pass (all lanes), nanoseconds.
    BatchSolveNanos,
    /// Peak degraded-mode queue depth of one faulty run.
    FaultQueuePeak,
    /// Backoff wait accrued by one faulty run, micro-time units.
    FaultBackoffWaitMicros,
    /// Per-item online cost of one fleet item, in hundredths.
    FleetItemCostCenti,
    /// Peak occupancy one server reached during a fleet capacity sweep.
    FleetServerOccupancyPeak,
    /// Wall time of one serve-engine decision, nanoseconds.
    ServeDecisionNanos,
}

impl Counter {
    /// Number of counters (array sizing).
    pub const COUNT: usize = Counter::ServeItemsFinished as usize + 1;

    /// Every counter, in index order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::SolveSweepDispatches,
        Counter::SolvePrescanNanos,
        Counter::SolveDpNanos,
        Counter::SolveNanos,
        Counter::Runs,
        Counter::Requests,
        Counter::Extensions,
        Counter::Transfers,
        Counter::CachingCostMicros,
        Counter::TransferCostMicros,
        Counter::AuditFindings,
        Counter::FaultRetries,
        Counter::FaultFailovers,
        Counter::FaultEvacuations,
        Counter::FaultCopiesLost,
        Counter::FaultDownServes,
        Counter::FaultAdoptedReplicas,
        Counter::FaultCrashWindows,
        Counter::FaultRetryCostMicros,
        Counter::FaultBurstWindows,
        Counter::FaultPartitionWindows,
        Counter::FaultBrownoutWindows,
        Counter::FaultDeferred,
        Counter::FaultReplayed,
        Counter::FaultDropped,
        Counter::FaultPartitionDeferrals,
        Counter::FaultReseeds,
        Counter::FaultBudgetExhausted,
        Counter::FaultReplayCostMicros,
        Counter::FaultReseedCostMicros,
        Counter::FaultBrownoutCostMicros,
        Counter::SweepWorkers,
        Counter::SweepUnits,
        Counter::SweepChunkGrabs,
        Counter::SweepDispatchWaitNanos,
        Counter::SolveBatchDispatches,
        Counter::SolveBatchInstances,
        Counter::SolveBatchStageNanos,
        Counter::SolveBatchDpNanos,
        Counter::FleetItems,
        Counter::FleetSimNanos,
        Counter::FleetCapacityNanos,
        Counter::FleetCapacityEvents,
        Counter::FleetEvictions,
        Counter::FleetEvictionCostMicros,
        Counter::FleetCapacityViolations,
        Counter::ServeRequests,
        Counter::ServeSheds,
        Counter::ServeDeferred,
        Counter::ServeReplayed,
        Counter::ServeExpirations,
        Counter::ServeItemsFinished,
    ];

    /// Stable snake_case snapshot key.
    pub fn name(self) -> &'static str {
        match self {
            Counter::SolveSweepDispatches => "solve_sweep_dispatches",
            Counter::SolvePrescanNanos => "solve_prescan_nanos",
            Counter::SolveDpNanos => "solve_dp_nanos",
            Counter::SolveNanos => "solve_total_nanos",
            Counter::Runs => "runs",
            Counter::Requests => "requests",
            Counter::Extensions => "extensions",
            Counter::Transfers => "transfers",
            Counter::CachingCostMicros => "caching_cost_micros",
            Counter::TransferCostMicros => "transfer_cost_micros",
            Counter::AuditFindings => "audit_findings",
            Counter::FaultRetries => "fault_retries",
            Counter::FaultFailovers => "fault_failovers",
            Counter::FaultEvacuations => "fault_evacuations",
            Counter::FaultCopiesLost => "fault_copies_lost",
            Counter::FaultDownServes => "fault_down_serves",
            Counter::FaultAdoptedReplicas => "fault_adopted_replicas",
            Counter::FaultCrashWindows => "fault_crash_windows",
            Counter::FaultRetryCostMicros => "fault_retry_cost_micros",
            Counter::FaultBurstWindows => "fault_burst_windows",
            Counter::FaultPartitionWindows => "fault_partition_windows",
            Counter::FaultBrownoutWindows => "fault_brownout_windows",
            Counter::FaultDeferred => "fault_deferred",
            Counter::FaultReplayed => "fault_replayed",
            Counter::FaultDropped => "fault_dropped",
            Counter::FaultPartitionDeferrals => "fault_partition_deferrals",
            Counter::FaultReseeds => "fault_reseeds",
            Counter::FaultBudgetExhausted => "fault_budget_exhausted",
            Counter::FaultReplayCostMicros => "fault_replay_cost_micros",
            Counter::FaultReseedCostMicros => "fault_reseed_cost_micros",
            Counter::FaultBrownoutCostMicros => "fault_brownout_cost_micros",
            Counter::SweepWorkers => "sweep_workers",
            Counter::SweepUnits => "sweep_units",
            Counter::SweepChunkGrabs => "sweep_chunk_grabs",
            Counter::SweepDispatchWaitNanos => "sweep_dispatch_wait_nanos",
            Counter::SolveBatchDispatches => "solve_batch_dispatches",
            Counter::SolveBatchInstances => "solve_batch_instances",
            Counter::SolveBatchStageNanos => "solve_batch_stage_nanos",
            Counter::SolveBatchDpNanos => "solve_batch_dp_nanos",
            Counter::FleetItems => "fleet_items",
            Counter::FleetSimNanos => "fleet_sim_nanos",
            Counter::FleetCapacityNanos => "fleet_capacity_nanos",
            Counter::FleetCapacityEvents => "fleet_capacity_events",
            Counter::FleetEvictions => "fleet_evictions",
            Counter::FleetEvictionCostMicros => "fleet_eviction_cost_micros",
            Counter::FleetCapacityViolations => "fleet_capacity_violations",
            Counter::ServeRequests => "serve_requests",
            Counter::ServeSheds => "serve_sheds",
            Counter::ServeDeferred => "serve_deferred",
            Counter::ServeReplayed => "serve_replayed",
            Counter::ServeExpirations => "serve_expirations",
            Counter::ServeItemsFinished => "serve_items_finished",
        }
    }
}

impl Gauge {
    /// Number of gauges (array sizing).
    pub const COUNT: usize = Gauge::ServeCopiesPeak as usize + 1;

    /// Every gauge, in index order.
    pub const ALL: [Gauge; Gauge::COUNT] = [
        Gauge::SweepThreads,
        Gauge::SweepGridUnits,
        Gauge::HwThreads,
        Gauge::FleetSize,
        Gauge::FleetCapacitySlots,
        Gauge::FleetOccupancyPeak,
        Gauge::FleetCapacityHarvestBytes,
        Gauge::ServeItemsPeak,
        Gauge::ServeCopiesPeak,
    ];

    /// Stable snake_case snapshot key.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::SweepThreads => "sweep_threads",
            Gauge::SweepGridUnits => "sweep_grid_units",
            Gauge::HwThreads => "hw_threads",
            Gauge::FleetSize => "fleet_size",
            Gauge::FleetCapacitySlots => "fleet_capacity_slots",
            Gauge::FleetOccupancyPeak => "fleet_occupancy_peak",
            Gauge::FleetCapacityHarvestBytes => "fleet_capacity_harvest_bytes",
            Gauge::ServeItemsPeak => "serve_items_peak",
            Gauge::ServeCopiesPeak => "serve_copies_peak",
        }
    }
}

impl Hist {
    /// Number of histograms (array sizing).
    pub const COUNT: usize = Hist::ServeDecisionNanos as usize + 1;

    /// Every histogram, in index order.
    pub const ALL: [Hist; Hist::COUNT] = [
        Hist::UnitNanos,
        Hist::SolveNanos,
        Hist::WorkerUnits,
        Hist::RatioCenti,
        Hist::BatchSolveNanos,
        Hist::FaultQueuePeak,
        Hist::FaultBackoffWaitMicros,
        Hist::FleetItemCostCenti,
        Hist::FleetServerOccupancyPeak,
        Hist::ServeDecisionNanos,
    ];

    /// Stable snake_case snapshot key.
    pub fn name(self) -> &'static str {
        match self {
            Hist::UnitNanos => "unit_nanos",
            Hist::SolveNanos => "solve_nanos",
            Hist::WorkerUnits => "worker_units",
            Hist::RatioCenti => "ratio_centi",
            Hist::BatchSolveNanos => "batch_solve_nanos",
            Hist::FaultQueuePeak => "fault_queue_peak",
            Hist::FaultBackoffWaitMicros => "fault_backoff_wait_micros",
            Hist::FleetItemCostCenti => "fleet_item_cost_centi",
            Hist::FleetServerOccupancyPeak => "fleet_server_occupancy_peak",
            Hist::ServeDecisionNanos => "serve_decision_nanos",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn all_lists_are_dense_and_in_index_order() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(*g as usize, i);
        }
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i);
        }
    }

    #[test]
    fn names_are_unique() {
        let names: BTreeSet<&str> = Counter::ALL
            .iter()
            .map(|c| c.name())
            .chain(Gauge::ALL.iter().map(|g| g.name()))
            .chain(Hist::ALL.iter().map(|h| h.name()))
            .collect();
        assert_eq!(names.len(), Counter::COUNT + Gauge::COUNT + Hist::COUNT);
    }
}
