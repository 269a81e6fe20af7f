//! Pieces every workload shares: the run outcome and its one-line JSON
//! rendering, order statistics, peak-memory probes, and the span clock
//! of the traced runs.

use std::time::{Duration, Instant};

use mcc_model::Json;

/// Runs of the set-up phase per benchmark run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// What one benchmark run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Checked operations (request lines, items, units, digests).
    pub attempted: u64,
    /// Checked operations whose output was missing or wrong.
    pub failed: u64,
    /// `(name, value, unit)`, in the order `BENCHMARK.json` lists them.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Adds `n` checked operations, `bad` of them failed.
    pub fn check(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Records one metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                let v = Json::Obj(vec![
                    ("value".into(), Json::Float(value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]);
                (name.to_string(), v)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Int(self.attempted.max(1) as i64)),
            ("failed".into(), Json::Int(self.failed as i64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_string_compact()
    }
}

/// Median of `v` (mean of the middle pair for even lengths); `0` if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of an already sorted slice; `0` if empty.
pub fn quantile_sorted(s: &[u64], q: f64) -> u64 {
    if s.is_empty() {
        return 0;
    }
    let rank = (q * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// Peak resident set (`VmHWM`) of process `pid`, MiB; `None` if the
/// process has gone or the kernel does not report it.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Nanoseconds in `d`, saturating.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Repeats `body` until `budget` has passed (at least `min_reps` times)
/// and returns each repetition's result.
pub fn repeat_for<T>(budget: Duration, min_reps: usize, mut body: impl FnMut() -> T) -> Vec<T> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || t0.elapsed() < budget {
        out.push(body());
    }
    out
}

/// A span clock for the traced runs: [`Lap::take`] returns the
/// nanoseconds since the previous mark and sets a new one, so adjacent
/// calls are timed with one clock read each; [`Lap::skip`] sets a mark
/// without attributing the interval to any layer (it stays unattributed).
pub struct Lap {
    last: Instant,
}

impl Lap {
    /// A clock marked now.
    pub fn start() -> Self {
        Lap {
            last: Instant::now(),
        }
    }

    /// Nanoseconds since the previous mark; marks now.
    #[inline]
    pub fn take(&mut self) -> u64 {
        let now = Instant::now();
        let d = nanos(now - self.last);
        self.last = now;
        d
    }

    /// Marks now without attributing the interval.
    #[inline]
    pub fn skip(&mut self) {
        self.last = Instant::now();
    }
}

/// FNV-1a over 64-bit words: the digests the batch workloads compare.
pub struct Digest(u64);

impl Digest {
    /// The FNV offset basis.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one word.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds the bits of a float.
    pub fn float(&mut self, f: f64) {
        self.word(f.to_bits());
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}
