//! The machine-readable daemon decision-latency trajectory:
//! `BENCH_serve.json`.
//!
//! Measures [`mcc_serve::ServeEngine`] — the core behind `mcc serve` —
//! on the multi-item merged timeline the load generator produces: every
//! request goes through `observe` (timer-wheel sweep, refresh token,
//! decision, sink) and every item is closed with `finish`. Two numbers
//! matter for a daemon and both come from the same passes:
//!
//! * **throughput** — decisions/sec over the whole stream, engine built
//!   fresh per pass (construction is part of serving a connection);
//! * **decision latency** — per-`observe` wall time in nanoseconds, as
//!   recorded by the engine itself into the `serve_decision_nanos`
//!   histogram (the same histogram `mcc serve --metrics` exports), with
//!   p50/p99/p999 reported in **microseconds**.
//!
//! The acceptance gate is the latency claim from the issue: p99 decision
//! latency at the reference scale must sit under [`P99_BUDGET_US`] —
//! a deliberately generous budget (the observed p99 is ~1µs; the budget
//! exists to catch an accidental O(n) slip in the hot path, not to
//! assert a hero number on shared hardware). `bench_serve --check`
//! additionally anchors throughput on the committed `quick` value with a
//! regression budget, mirroring `bench_fleet --check`.
//!
//! Document schema: `bench-serve/1`.

use std::time::Instant;

use mcc_model::Json;
use mcc_obs::{Hist, Registry};
use mcc_serve::{ServeConfig, ServeEngine, ServeReply};
use mcc_simnet::{factory, PolicyFactory};
use mcc_workloads::{load_events, CommonParams, LoadEvent, PoissonWorkload};

use super::bench_solver::peak_rss_kb;

/// Minimum measured wall time per variant; reps repeat until reached.
const TARGET_SECS: f64 = 0.3;
/// Requests per item in every measured stream.
const REQUESTS_PER_ITEM: usize = 16;
/// Servers in every measured stream.
const SERVERS: usize = 8;
/// The acceptance gate: p99 decision latency in microseconds. Generous
/// on purpose — the measured p99 is ~1µs, so only an algorithmic
/// regression in the per-decision path (a linear scan, an accidental
/// allocation storm) can breach it, not machine noise.
pub const P99_BUDGET_US: f64 = 250.0;

/// Serve-benchmark sizing.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ServeScale {
    /// Item counts for the throughput/latency rows (×`REQUESTS_PER_ITEM`
    /// requests each).
    pub rows: [usize; 3],
    /// Item count the acceptance latency gate is measured at.
    pub accept_items: usize,
}

impl ServeScale {
    /// Test-sized: completes in seconds, used by tests and the CI
    /// `--check` re-measure.
    pub fn quick() -> Self {
        ServeScale {
            rows: [64, 256, 1_024],
            accept_items: 1_024,
        }
    }

    /// Report-sized: what the binary runs by default (the largest row is
    /// ~1M decisions per pass).
    pub fn full() -> Self {
        ServeScale {
            rows: [4_096, 16_384, 65_536],
            accept_items: 65_536,
        }
    }

    /// Picks the scale from process arguments (`--quick` anywhere
    /// selects the test size).
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            ServeScale::quick()
        } else {
            ServeScale::full()
        }
    }
}

/// The merged multi-item request stream every measurement serves:
/// Poisson arrivals, unit costs, item `k` seeded from `(2017, k)`.
fn stream(items: usize) -> Vec<LoadEvent> {
    let common = CommonParams {
        servers: SERVERS,
        requests: REQUESTS_PER_ITEM,
        mu: 1.0,
        lambda: 1.0,
    };
    let w = PoissonWorkload::uniform(common, 1.0);
    load_events(&w, items, 2017)
}

fn sc() -> PolicyFactory {
    factory(mcc_core::online::SpeculativeCaching::<f64>::paper())
}

/// One full serving pass: fresh engine, every event through `observe`,
/// every item closed. Panics on a shed — the bench stream must fit the
/// admission bounds, anything else is a harness bug.
fn pass(events: &[LoadEvent], items: usize, reg: &Registry) {
    let cfg = ServeConfig::new(SERVERS, mcc_model::CostModel::unit()).with_bounds(
        items.saturating_mul(2).max(1),
        items.saturating_mul(64).max(1),
    );
    let mut engine = ServeEngine::new(cfg, sc()).with_sink(reg);
    for e in events {
        match engine.observe(e.item, e.server, e.t) {
            ServeReply::Decision(d) => {
                std::hint::black_box(d.latency_ns);
            }
            ServeReply::Shed { item, reason } => {
                panic!("bench stream shed item {item}: {}", reason.name())
            }
        }
    }
    std::hint::black_box(engine.finish_all());
}

/// Measured result of serving the `items`-item stream repeatedly.
#[derive(Copy, Clone, Debug)]
pub struct ServeRate {
    /// Decisions served per second (best rep).
    pub decisions_per_sec: f64,
    /// p50 decision latency, µs (accumulated over all reps).
    pub p50_us: f64,
    /// p99 decision latency, µs.
    pub p99_us: f64,
    /// p999 decision latency, µs.
    pub p999_us: f64,
    /// Mean decision latency, µs.
    pub mean_us: f64,
    /// Latency samples behind the percentiles.
    pub samples: u64,
}

/// Serves the `items`-item stream until `TARGET_SECS` accumulate (at
/// least 2 reps after a warm-up) and reports best-rep throughput plus
/// latency percentiles from the engine's own histogram. The warm-up rep
/// feeds the histogram too — per-decision latency does not depend on
/// cache warmth of the bench loop, and more samples sharpen the tail.
pub fn serve_rate(items: usize) -> ServeRate {
    let events = stream(items);
    let decisions = events.len() as f64;
    let reg = Registry::new();
    pass(&events, items, &reg); // warm-up
    let mut best = f64::INFINITY;
    let mut reps = 0u32;
    let t0 = Instant::now();
    loop {
        let rep = Instant::now();
        pass(&events, items, &reg);
        best = best.min(rep.elapsed().as_secs_f64());
        reps += 1;
        if reps >= 2 && t0.elapsed().as_secs_f64() >= TARGET_SECS {
            break;
        }
    }
    let snap = reg.snapshot();
    let h = snap.hist(Hist::ServeDecisionNanos);
    ServeRate {
        decisions_per_sec: decisions / best.max(1e-9),
        p50_us: h.quantile(0.50) / 1_000.0,
        p99_us: h.quantile(0.99) / 1_000.0,
        p999_us: h.quantile(0.999) / 1_000.0,
        mean_us: h.mean() / 1_000.0,
        samples: h.count,
    }
}

/// Re-measures the quick-scale throughput anchor for the CI gate.
pub fn quick_rate() -> f64 {
    serve_rate(ServeScale::quick().accept_items).decisions_per_sec
}

fn rate_row(items: usize, r: &ServeRate) -> Json {
    Json::Obj(vec![
        ("items".into(), Json::Int(items as i64)),
        (
            "requests".into(),
            Json::Int((items * REQUESTS_PER_ITEM) as i64),
        ),
        ("decisions_per_sec".into(), Json::Float(r.decisions_per_sec)),
        ("p50_us".into(), Json::Float(r.p50_us)),
        ("p99_us".into(), Json::Float(r.p99_us)),
        ("p999_us".into(), Json::Float(r.p999_us)),
    ])
}

/// Runs the full measurement and assembles the JSON document. The
/// `quick` section is always measured at [`ServeScale::quick`], whatever
/// the main grid — it is the hardware-relative anchor CI re-measures.
pub fn report(scale: ServeScale) -> Json {
    let rows: Vec<(usize, ServeRate)> = scale
        .rows
        .iter()
        .map(|&items| (items, serve_rate(items)))
        .collect();
    let accept = rows
        .iter()
        .find(|&&(items, _)| items == scale.accept_items)
        .map(|&(_, r)| r)
        .unwrap_or_else(|| serve_rate(scale.accept_items));
    let quick = if scale == ServeScale::quick() {
        accept.decisions_per_sec
    } else {
        quick_rate()
    };

    Json::Obj(vec![
        ("schema".into(), Json::Str("bench-serve/1".into())),
        (
            "workload".into(),
            Json::Obj(vec![
                ("family".into(), Json::Str("poisson".into())),
                ("servers".into(), Json::Int(SERVERS as i64)),
                (
                    "requests_per_item".into(),
                    Json::Int(REQUESTS_PER_ITEM as i64),
                ),
                ("mu".into(), Json::Float(1.0)),
                ("lambda".into(), Json::Float(1.0)),
                ("seed".into(), Json::Int(2017)),
                ("policy".into(), Json::Str("sc".into())),
            ]),
        ),
        (
            "rows".into(),
            Json::Arr(rows.iter().map(|(i, r)| rate_row(*i, r)).collect()),
        ),
        (
            "latency".into(),
            Json::Obj(vec![
                ("items".into(), Json::Int(scale.accept_items as i64)),
                ("samples".into(), Json::Int(accept.samples as i64)),
                ("mean_us".into(), Json::Float(accept.mean_us)),
                ("p50_us".into(), Json::Float(accept.p50_us)),
                ("p99_us".into(), Json::Float(accept.p99_us)),
                ("p999_us".into(), Json::Float(accept.p999_us)),
            ]),
        ),
        (
            "acceptance".into(),
            Json::Obj(vec![
                ("items".into(), Json::Int(scale.accept_items as i64)),
                ("p99_us".into(), Json::Float(accept.p99_us)),
                ("budget_us".into(), Json::Float(P99_BUDGET_US)),
                ("met".into(), Json::Bool(accept.p99_us <= P99_BUDGET_US)),
                (
                    "decisions_per_sec".into(),
                    Json::Float(accept.decisions_per_sec),
                ),
            ]),
        ),
        (
            "quick".into(),
            Json::Obj(vec![("decisions_per_sec".into(), Json::Float(quick))]),
        ),
        (
            "peak_rss_kb".into(),
            peak_rss_kb().map_or(Json::Null, Json::Int),
        ),
    ])
}

/// Validates the documented shape of a `bench-serve/1` document;
/// returns the error description on mismatch.
pub fn validate(doc: &Json) -> Result<(), String> {
    if doc.get("schema").and_then(Json::as_str) != Some("bench-serve/1") {
        return Err("schema must be \"bench-serve/1\"".into());
    }
    for key in ["servers", "requests_per_item"] {
        let v = doc
            .get("workload")
            .and_then(|w| w.get(key))
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("workload.{key} must be an integer"))?;
        if v <= 0 {
            return Err(format!("workload.{key} must be positive"));
        }
    }
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("rows must be an array")?;
    if rows.is_empty() {
        return Err("rows must not be empty".into());
    }
    for row in rows {
        if row.get("items").and_then(Json::as_i64).unwrap_or(0) <= 0 {
            return Err("rows[].items must be positive".into());
        }
        if row
            .get("decisions_per_sec")
            .and_then(Json::as_f64)
            .unwrap_or(-1.0)
            <= 0.0
        {
            return Err("rows[].decisions_per_sec must be positive".into());
        }
        for key in ["p50_us", "p99_us", "p999_us"] {
            let v = row.get(key).and_then(Json::as_f64).unwrap_or(-1.0);
            if v.is_nan() || v < 0.0 {
                return Err(format!("rows[].{key} must be non-negative"));
            }
        }
    }
    let lat = doc.get("latency").ok_or("latency section missing")?;
    if lat.get("samples").and_then(Json::as_i64).unwrap_or(0) <= 0 {
        return Err("latency.samples must be positive".into());
    }
    for key in ["mean_us", "p50_us", "p99_us", "p999_us"] {
        let v = lat.get(key).and_then(Json::as_f64).unwrap_or(-1.0);
        if v.is_nan() || v < 0.0 {
            return Err(format!("latency.{key} must be non-negative"));
        }
    }
    // Percentiles must be ordered — a shuffled document is corrupt.
    let (p50, p99, p999) = (
        lat.get("p50_us").and_then(Json::as_f64).unwrap_or(-1.0),
        lat.get("p99_us").and_then(Json::as_f64).unwrap_or(-1.0),
        lat.get("p999_us").and_then(Json::as_f64).unwrap_or(-1.0),
    );
    if !(p50 <= p99 && p99 <= p999) {
        return Err("latency percentiles must be non-decreasing".into());
    }
    let acc = doc.get("acceptance").ok_or("acceptance section missing")?;
    for key in ["p99_us", "budget_us", "decisions_per_sec"] {
        let v = acc.get(key).and_then(Json::as_f64).unwrap_or(-1.0);
        if v.is_nan() || v <= 0.0 {
            return Err(format!("acceptance.{key} must be positive"));
        }
    }
    match acc.get("met") {
        Some(Json::Bool(_)) => {}
        _ => return Err("acceptance.met must be a bool".into()),
    }
    let q = doc
        .get("quick")
        .and_then(|q| q.get("decisions_per_sec"))
        .and_then(Json::as_f64)
        .unwrap_or(-1.0);
    if q.is_nan() || q <= 0.0 {
        return Err("quick.decisions_per_sec must be positive".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_rate_populates_the_latency_histogram() {
        let r = serve_rate(64);
        // At least warm-up + 2 reps over 64 items × 16 requests.
        assert!(r.samples >= 3 * 64 * 16, "samples = {}", r.samples);
        assert!(r.decisions_per_sec > 0.0);
        assert!(r.p50_us <= r.p99_us && r.p99_us <= r.p999_us);
        assert!(r.p999_us > 0.0);
    }

    #[test]
    fn report_has_the_documented_shape() {
        let doc = report(ServeScale::quick());
        validate(&doc).unwrap();
        let reparsed = Json::parse(&doc.to_string_pretty()).unwrap();
        assert_eq!(reparsed.to_string_compact(), doc.to_string_compact());
    }

    #[test]
    fn validate_rejects_wrong_schema() {
        let doc = Json::Obj(vec![("schema".into(), Json::Str("bench-serve/0".into()))]);
        assert!(validate(&doc).is_err());
        let fleet = Json::Obj(vec![("schema".into(), Json::Str("bench-fleet/1".into()))]);
        assert!(validate(&fleet).is_err());
    }

    /// Mutates one spot of a valid document and expects rejection.
    fn rejects_mutation(mutate: impl FnOnce(&mut Json), why: &str) {
        let mut doc = report(ServeScale::quick());
        mutate(&mut doc);
        assert!(validate(&doc).is_err(), "must reject: {why}");
    }

    fn set(doc: &mut Json, path: &[&str], value: Json) {
        fn obj_mut<'a>(j: &'a mut Json, key: &str) -> &'a mut Json {
            match j {
                Json::Obj(fields) => fields
                    .iter_mut()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v)
                    .expect("key present"),
                _ => panic!("not an object"),
            }
        }
        let mut cur = doc;
        for key in &path[..path.len() - 1] {
            cur = obj_mut(cur, key);
        }
        *obj_mut(cur, path[path.len() - 1]) = value;
    }

    #[test]
    fn validate_rejects_broken_documents() {
        rejects_mutation(
            |doc| set(doc, &["rows"], Json::Arr(Vec::new())),
            "empty rows",
        );
        rejects_mutation(
            |doc| set(doc, &["latency", "p99_us"], Json::Float(f64::NAN)),
            "NaN latency percentile",
        );
        rejects_mutation(
            |doc| {
                set(doc, &["latency", "p50_us"], Json::Float(9.0));
                set(doc, &["latency", "p99_us"], Json::Float(1.0));
            },
            "shuffled percentiles",
        );
        rejects_mutation(
            |doc| set(doc, &["acceptance", "met"], Json::Int(1)),
            "non-bool acceptance.met",
        );
        rejects_mutation(
            |doc| set(doc, &["acceptance", "p99_us"], Json::Float(0.0)),
            "non-positive acceptance p99",
        );
        rejects_mutation(
            |doc| set(doc, &["quick", "decisions_per_sec"], Json::Float(0.0)),
            "non-positive quick anchor",
        );
        rejects_mutation(
            |doc| {
                if let Json::Obj(fields) = doc {
                    fields.retain(|(k, _)| k != "latency");
                }
            },
            "missing latency section",
        );
    }
}
