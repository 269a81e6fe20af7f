//! Text rendering of an `mcc-obs` `metrics/1` snapshot.
//!
//! One layer per section — off-line solver, online executor, fault
//! layer, parallel sweep — plus a histogram digest with power-of-two
//! bucket sparklines. Sections whose counters are all zero are omitted,
//! so a fault-free single-thread run renders a short report.

use std::fmt::Write as _;

use mcc_obs::{Counter, Gauge, Hist, HistSnapshot, MetricsSnapshot};

use crate::bars::sparkline;
use crate::table::fnum;

/// Milliseconds from a nanosecond counter.
fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// Cost units from a micro-cost counter.
fn cost(micros: u64) -> f64 {
    micros as f64 / 1e6
}

/// `value (share%)` of a total, guarding the empty total.
fn share(part: u64, total: u64) -> String {
    if total == 0 {
        format!("{part}")
    } else {
        format!("{part} ({}%)", fnum(part as f64 * 100.0 / total as f64))
    }
}

fn hist_line(out: &mut String, label: &str, h: &HistSnapshot, unit: &str) {
    if h.count == 0 {
        return;
    }
    let buckets: Vec<f64> = h.buckets.iter().map(|&b| b as f64).collect();
    let _ = writeln!(
        out,
        "  {label:<12} n={:<8} mean={:<10} {}",
        h.count,
        format!("{}{unit}", fnum(h.mean())),
        sparkline(&buckets)
    );
}

/// Renders a [`MetricsSnapshot`] as a human-readable text report (the
/// `mcc sweep --metrics-report` output).
pub fn render_metrics(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== metrics/1 ==");

    // --- off-line solver ----------------------------------------------
    let windowed = snap.counter(Counter::SolveSweepDispatches);
    let batched = snap.counter(Counter::SolveBatchInstances);
    let solves = windowed + batched;
    if solves > 0 {
        let _ = writeln!(out, "off-line solver");
        let _ = writeln!(
            out,
            "  solves: {solves}  (windowed {}, batched {})",
            share(windowed, solves),
            share(batched, solves)
        );
        let total = snap.counter(Counter::SolveNanos);
        if total > 0 {
            let _ = writeln!(
                out,
                "  time: {}ms total — prescan {}ms, dp {}ms",
                fnum(ms(total)),
                fnum(ms(snap.counter(Counter::SolvePrescanNanos))),
                fnum(ms(snap.counter(Counter::SolveDpNanos)))
            );
        }
        let dispatches = snap.counter(Counter::SolveBatchDispatches);
        if dispatches > 0 {
            let _ = writeln!(
                out,
                "  batches: {dispatches}  stage {}ms  batch dp {}ms",
                fnum(ms(snap.counter(Counter::SolveBatchStageNanos))),
                fnum(ms(snap.counter(Counter::SolveBatchDpNanos)))
            );
        }
    }

    // --- online executor ----------------------------------------------
    let runs = snap.counter(Counter::Runs);
    if runs > 0 {
        let requests = snap.counter(Counter::Requests);
        let transfers = snap.counter(Counter::Transfers);
        let caching = snap.counter(Counter::CachingCostMicros);
        let transfer_cost = snap.counter(Counter::TransferCostMicros);
        let _ = writeln!(out, "online executor");
        let _ = writeln!(
            out,
            "  runs: {runs}  requests: {requests}  transfers: {}  extensions: {}",
            share(transfers, requests),
            share(snap.counter(Counter::Extensions), requests)
        );
        let _ = writeln!(
            out,
            "  cost split: caching (μ) {}  transfers (λ) {}",
            fnum(cost(caching)),
            fnum(cost(transfer_cost))
        );
        let _ = writeln!(
            out,
            "  audit findings: {}",
            snap.counter(Counter::AuditFindings)
        );
    }

    // --- fault layer ---------------------------------------------------
    let crash_windows = snap.counter(Counter::FaultCrashWindows);
    let fault_activity = crash_windows
        + snap.counter(Counter::FaultRetries)
        + snap.counter(Counter::FaultFailovers)
        + snap.counter(Counter::FaultEvacuations)
        + snap.counter(Counter::FaultCopiesLost)
        + snap.counter(Counter::FaultDownServes)
        + snap.counter(Counter::FaultBurstWindows)
        + snap.counter(Counter::FaultPartitionWindows)
        + snap.counter(Counter::FaultBrownoutWindows)
        + snap.counter(Counter::FaultDeferred);
    if fault_activity > 0 {
        let _ = writeln!(out, "fault layer");
        let _ = writeln!(
            out,
            "  crash windows: {crash_windows} (bursts: {})  partitions: {}  brownouts: {}",
            snap.counter(Counter::FaultBurstWindows),
            snap.counter(Counter::FaultPartitionWindows),
            snap.counter(Counter::FaultBrownoutWindows)
        );
        let _ = writeln!(
            out,
            "  copies lost: {}  down-serves: {}  reseeds: {}",
            snap.counter(Counter::FaultCopiesLost),
            snap.counter(Counter::FaultDownServes),
            snap.counter(Counter::FaultReseeds)
        );
        let _ = writeln!(
            out,
            "  retries: {}  failovers: {}  evacuations: {}  adopted replicas: {}  \
             budget exhaustions: {}",
            snap.counter(Counter::FaultRetries),
            snap.counter(Counter::FaultFailovers),
            snap.counter(Counter::FaultEvacuations),
            snap.counter(Counter::FaultAdoptedReplicas),
            snap.counter(Counter::FaultBudgetExhausted)
        );
        let deferred = snap.counter(Counter::FaultDeferred);
        if deferred > 0 {
            let _ = writeln!(
                out,
                "  degraded queue: deferred {deferred}  replayed {}  dropped {}  \
                 partition deferrals {}",
                snap.counter(Counter::FaultReplayed),
                snap.counter(Counter::FaultDropped),
                snap.counter(Counter::FaultPartitionDeferrals)
            );
        }
        let _ = writeln!(
            out,
            "  surcharges (λ): retry {}  replay {}  reseed {}  brownout (μ excess) {}",
            fnum(cost(snap.counter(Counter::FaultRetryCostMicros))),
            fnum(cost(snap.counter(Counter::FaultReplayCostMicros))),
            fnum(cost(snap.counter(Counter::FaultReseedCostMicros))),
            fnum(cost(snap.counter(Counter::FaultBrownoutCostMicros)))
        );
    }

    // --- parallel sweep ------------------------------------------------
    let workers = snap.counter(Counter::SweepWorkers);
    if workers > 0 {
        let _ = writeln!(out, "parallel sweep");
        let _ = writeln!(
            out,
            "  workers: {workers}  units: {}  chunk grabs: {}  dispatch wait: {}ms",
            snap.counter(Counter::SweepUnits),
            snap.counter(Counter::SweepChunkGrabs),
            fnum(ms(snap.counter(Counter::SweepDispatchWaitNanos)))
        );
        let _ = writeln!(
            out,
            "  threads: {} (of {} hw)  grid units: {}",
            snap.gauge(Gauge::SweepThreads),
            snap.gauge(Gauge::HwThreads),
            snap.gauge(Gauge::SweepGridUnits)
        );
    }

    // --- fleet layer ---------------------------------------------------
    let fleet_items = snap.counter(Counter::FleetItems);
    if fleet_items > 0 {
        let _ = writeln!(out, "fleet layer");
        let _ = writeln!(
            out,
            "  items: {fleet_items}  (largest fleet: {})  sim {}ms  capacity sweep {}ms",
            snap.gauge(Gauge::FleetSize),
            fnum(ms(snap.counter(Counter::FleetSimNanos))),
            fnum(ms(snap.counter(Counter::FleetCapacityNanos)))
        );
        let events = snap.counter(Counter::FleetCapacityEvents);
        if events > 0 || snap.gauge(Gauge::FleetCapacitySlots) > 0 {
            let _ = writeln!(
                out,
                "  capacity: {} slots/server  events: {events}  occupancy peak: {}  harvest: {} B",
                snap.gauge(Gauge::FleetCapacitySlots),
                snap.gauge(Gauge::FleetOccupancyPeak),
                snap.gauge(Gauge::FleetCapacityHarvestBytes)
            );
            let _ = writeln!(
                out,
                "  evictions: {}  eviction cost (λ): {}  violations: {}",
                snap.counter(Counter::FleetEvictions),
                fnum(cost(snap.counter(Counter::FleetEvictionCostMicros))),
                snap.counter(Counter::FleetCapacityViolations)
            );
        }
    }

    // --- histograms ----------------------------------------------------
    if Hist::ALL.iter().any(|&h| snap.hist(h).count > 0) {
        let _ = writeln!(out, "histograms (power-of-two buckets)");
        hist_line(&mut out, "unit", snap.hist(Hist::UnitNanos), "ns");
        hist_line(&mut out, "solve", snap.hist(Hist::SolveNanos), "ns");
        hist_line(
            &mut out,
            "batch solve",
            snap.hist(Hist::BatchSolveNanos),
            "ns",
        );
        hist_line(&mut out, "worker units", snap.hist(Hist::WorkerUnits), "");
        hist_line(&mut out, "ratio ×100", snap.hist(Hist::RatioCenti), "");
        hist_line(&mut out, "queue peak", snap.hist(Hist::FaultQueuePeak), "");
        hist_line(
            &mut out,
            "backoff wait",
            snap.hist(Hist::FaultBackoffWaitMicros),
            "µs",
        );
        hist_line(
            &mut out,
            "item cost ×100",
            snap.hist(Hist::FleetItemCostCenti),
            "",
        );
        hist_line(
            &mut out,
            "srv occupancy",
            snap.hist(Hist::FleetServerOccupancyPeak),
            "",
        );
    }

    // --- raw dump ------------------------------------------------------
    // Every nonzero metric by its registry id. The narrative sections
    // above curate; this section guarantees nothing recorded can hide —
    // a regression test renders a fully-populated snapshot and asserts
    // every registered id appears.
    let any_raw = Counter::ALL.iter().any(|&c| snap.counter(c) > 0)
        || Gauge::ALL.iter().any(|&g| snap.gauge(g) > 0)
        || Hist::ALL.iter().any(|&h| snap.hist(h).count > 0);
    if any_raw {
        let _ = writeln!(out, "raw (nonzero)");
        for &c in &Counter::ALL {
            let v = snap.counter(c);
            if v > 0 {
                let _ = writeln!(out, "  {} = {v}", c.name());
            }
        }
        for &g in &Gauge::ALL {
            let v = snap.gauge(g);
            if v > 0 {
                let _ = writeln!(out, "  {} = {v}", g.name());
            }
        }
        for &h in &Hist::ALL {
            let s = snap.hist(h);
            if s.count > 0 {
                let _ = writeln!(
                    out,
                    "  {} : n={} mean={} sum={}",
                    h.name(),
                    s.count,
                    fnum(s.mean()),
                    s.sum
                );
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_obs::{Registry, Sink};

    #[test]
    fn empty_snapshot_renders_header_only() {
        let out = render_metrics(&Registry::new().snapshot());
        assert!(out.starts_with("== metrics/1 =="));
        assert!(!out.contains("online executor"));
        assert!(!out.contains("fault layer"));
    }

    #[test]
    fn populated_sections_appear() {
        let reg = Registry::new();
        reg.add(Counter::Runs, 4);
        reg.add(Counter::Requests, 120);
        reg.add(Counter::Transfers, 30);
        reg.add(Counter::Extensions, 90);
        reg.add(Counter::SolveSweepDispatches, 4);
        reg.add(Counter::SolveBatchInstances, 12);
        reg.add(Counter::SolveBatchDispatches, 2);
        reg.add(Counter::SolveBatchStageNanos, 1_000_000);
        reg.add(Counter::SolveBatchDpNanos, 2_000_000);
        reg.add(Counter::SolveNanos, 8_000_000);
        reg.add(Counter::FaultCrashWindows, 2);
        reg.add(Counter::FaultBurstWindows, 1);
        reg.add(Counter::FaultPartitionWindows, 3);
        reg.add(Counter::FaultDeferred, 5);
        reg.add(Counter::FaultReplayed, 4);
        reg.add(Counter::FaultDropped, 1);
        reg.add(Counter::SweepWorkers, 2);
        reg.gauge_max(Gauge::SweepThreads, 2);
        reg.observe(Hist::RatioCenti, 150);
        reg.observe(Hist::RatioCenti, 300);
        reg.observe(Hist::FaultQueuePeak, 3);
        reg.observe(Hist::FaultBackoffWaitMicros, 50_000);
        let out = render_metrics(&reg.snapshot());
        for section in [
            "off-line solver",
            "online executor",
            "fault layer",
            "parallel sweep",
            "histograms",
        ] {
            assert!(out.contains(section), "missing `{section}` in:\n{out}");
        }
        assert!(out.contains("transfers: 30 (25%)"), "{out}");
        assert!(
            out.contains("crash windows: 2 (bursts: 1)  partitions: 3  brownouts: 0"),
            "{out}"
        );
        assert!(
            out.contains("degraded queue: deferred 5  replayed 4  dropped 1"),
            "{out}"
        );
        assert!(out.contains("queue peak"), "{out}");
        assert!(out.contains("backoff wait"), "{out}");
        assert!(out.contains("8ms total"), "{out}");
        assert!(out.contains("batched 12 (75%)"), "{out}");
        assert!(out.contains("batches: 2  stage 1ms  batch dp 2ms"), "{out}");
    }

    /// Every metric id registered in mcc-obs must surface somewhere in the
    /// text report.  The raw-dump section guarantees this even for metrics
    /// that have no dedicated narrative line yet; this test keeps the report
    /// from silently dropping newly added counters/gauges/histograms.
    #[test]
    fn every_registered_metric_id_appears_when_populated() {
        let reg = Registry::new();
        for &c in &Counter::ALL {
            reg.add(c, 7);
        }
        for &g in &Gauge::ALL {
            reg.gauge_max(g, 5);
        }
        for &h in &Hist::ALL {
            reg.observe(h, 100);
        }
        let out = render_metrics(&reg.snapshot());
        for &c in &Counter::ALL {
            assert!(
                out.contains(c.name()),
                "counter `{}` missing in:\n{out}",
                c.name()
            );
        }
        for &g in &Gauge::ALL {
            assert!(
                out.contains(g.name()),
                "gauge `{}` missing in:\n{out}",
                g.name()
            );
        }
        for &h in &Hist::ALL {
            assert!(
                out.contains(h.name()),
                "hist `{}` missing in:\n{out}",
                h.name()
            );
        }
        assert!(out.contains("fleet layer"), "{out}");
        assert!(out.contains("raw (nonzero)"), "{out}");
    }

    #[test]
    fn fleet_section_renders_capacity_block() {
        let reg = Registry::new();
        reg.add(Counter::FleetItems, 1_000_000);
        reg.add(Counter::FleetSimNanos, 360_000_000);
        reg.add(Counter::FleetCapacityNanos, 40_000_000);
        reg.add(Counter::FleetCapacityEvents, 12_345);
        reg.add(Counter::FleetEvictions, 678);
        reg.add(Counter::FleetEvictionCostMicros, 9_000_000);
        reg.add(Counter::FleetCapacityViolations, 0);
        reg.gauge_max(Gauge::FleetSize, 1_000_000);
        reg.gauge_max(Gauge::FleetCapacitySlots, 64);
        reg.gauge_max(Gauge::FleetOccupancyPeak, 61);
        reg.gauge_max(Gauge::FleetCapacityHarvestBytes, 296_288);
        reg.observe(Hist::FleetItemCostCenti, 250);
        reg.observe(Hist::FleetServerOccupancyPeak, 61);
        let out = render_metrics(&reg.snapshot());
        assert!(out.contains("fleet layer"), "{out}");
        assert!(out.contains("item cost ×100"), "{out}");
        assert!(out.contains("srv occupancy"), "{out}");
        assert!(out.contains("evictions: 678"), "{out}");
        assert!(out.contains("harvest: 296288 B"), "{out}");
    }
}
