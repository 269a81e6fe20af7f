//! The sink contract: where instrumented code reports events.
//!
//! Every method has an empty `#[inline]` default body, so the no-op sink
//! is literally the trait's defaults — an instrumentation point against
//! [`NoopSink`] is one indirect call that immediately returns, cheap
//! enough to leave in the sweep hot path unconditionally (the
//! `bench sweep --check` overhead gate holds the live sink within 3% of
//! no-op; no-op itself is within noise of uninstrumented code).
//!
//! Implementations must not allocate in the record methods: the run
//! pipeline's zero-allocation guarantee (`tests/alloc_free.rs` in
//! `mcc-simnet`) holds with a **live** sink attached.

use std::time::Instant;

use crate::metric::{Counter, Gauge, Hist};

/// Receiver for metric events. All methods default to no-ops.
pub trait Sink: Sync {
    /// Whether anyone is listening. Instrumented code uses this to skip
    /// work that only produces metric inputs (clock reads, cost splits);
    /// it must never change what the pipeline computes.
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    /// Adds `n` to a counter.
    #[inline]
    fn add(&self, _c: Counter, _n: u64) {}

    /// Adds a non-negative cost to a counter, in micro-cost units
    /// (`cost × 10⁶`, saturating).
    #[inline]
    fn add_cost(&self, _c: Counter, _cost: f64) {}

    /// Raises a gauge to `v` if `v` is higher (high-water semantics).
    #[inline]
    fn gauge_max(&self, _g: Gauge, _v: u64) {}

    /// Records one observation into a histogram.
    #[inline]
    fn observe(&self, _h: Hist, _v: u64) {}
}

/// The zero-cost sink: every method is the trait's empty default.
#[derive(Copy, Clone, Debug, Default)]
pub struct NoopSink;

impl Sink for NoopSink {}

static NOOP: NoopSink = NoopSink;

/// The shared no-op sink (what un-instrumented entry points pass down).
pub fn noop() -> &'static NoopSink {
    &NOOP
}

/// A scoped timer: measures wall time from construction to drop and
/// folds it into a nanosecond counter (and optionally a histogram).
///
/// The clock is read only when the sink is [`Sink::enabled`] — against
/// [`NoopSink`] a span is two branch-on-false checks and no syscalls.
pub struct Span<'a> {
    sink: &'a dyn Sink,
    counter: Counter,
    hist: Option<Hist>,
    start: Option<Instant>,
}

impl<'a> Span<'a> {
    /// Starts a span feeding `counter` (total nanos) on drop.
    pub fn start(sink: &'a dyn Sink, counter: Counter) -> Self {
        Span {
            sink,
            counter,
            hist: None,
            start: sink.enabled().then(Instant::now),
        }
    }

    /// Starts a span that also records each duration into `hist`.
    pub fn with_hist(sink: &'a dyn Sink, counter: Counter, hist: Hist) -> Self {
        Span {
            sink,
            counter,
            hist: Some(hist),
            start: sink.enabled().then(Instant::now),
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.sink.add(self.counter, nanos);
            if let Some(h) = self.hist {
                self.sink.observe(h, nanos);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn noop_sink_is_disabled_and_inert() {
        let s = noop();
        assert!(!s.enabled());
        s.add(Counter::Runs, 5);
        s.add_cost(Counter::CachingCostMicros, 1.5);
        s.gauge_max(Gauge::SweepThreads, 8);
        s.observe(Hist::UnitNanos, 100);
        // Spans against a no-op sink never read the clock.
        let span = Span::start(s, Counter::SolveDpNanos);
        assert!(span.start.is_none());
    }

    #[test]
    fn span_feeds_counter_and_histogram_when_live() {
        let reg = Registry::new();
        {
            let _s = Span::with_hist(&reg, Counter::SolveDpNanos, Hist::SolveNanos);
            std::hint::black_box(1 + 1);
        }
        let snap = reg.snapshot();
        assert!(snap.counter(Counter::SolveDpNanos) > 0);
        assert_eq!(snap.hist(Hist::SolveNanos).count, 1);
    }
}
