//! The daemon workload, `serve_pipe`, and its traced replica.
//!
//! `serve_pipe` feeds the real `mcc serve` a `serve/1` stream rendered
//! here from the seed (the daemon sees only the lines) over OS pipes, as
//! `mcc load … | mcc serve` does, and checks every response against an
//! in-process [`ServeEngine`] run over the same events. Each pass starts
//! a fresh daemon and runs three phases:
//!
//! 1. saturated: one writer thread pushes every `req` line but the last
//!    [`PROBE_LINES`] into the child's stdin while one reader thread
//!    drains its stdout; `throughput_per_s` is these decisions over the
//!    phase's wall;
//! 2. closed loop: the last [`PROBE_LINES`] `req` lines go in bursts of
//!    [`BURST`], each burst written at once after every answer to the
//!    previous one has been read; `latency_p50_us` is the median time from
//!    writing a burst to reading its last answer;
//! 3. every `finish` line, then `shutdown`.
//!
//! The traced run replays the daemon's `serve_lines` loop in-process
//! through the same public calls (`parse_request`, `ServeEngine::tick`,
//! `observe`, `finish`, the `wire` response builders, `to_string_compact`,
//! write + flush), timing each call; see [`replica_loop`].

use std::io::{BufRead, BufReader, LineWriter, Read, Write};
use std::ops::Range;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use mcc_core::online::{ServeAction, SpeculativeCaching};
use mcc_model::{CostModel, Json};
use mcc_serve::wire::{
    bye_response, decision_response, error_response, report_response, request_line, shed_response,
    stats_response,
};
use mcc_serve::{
    parse_request, validate_response, EngineStats, ItemReport, ServeConfig, ServeEngine,
    ServeReply, WireRequest,
};
use mcc_simnet::factory;
use mcc_workloads::{load_events, CommonParams, PoissonWorkload};

use crate::common::{
    median, nanos, peak_rss_mb, quantile_sorted, repeat_for, secs, Lap, Outcome, SETUP_REPS,
};
use crate::{Args, Layers};

/// Servers in the stream (`mcc serve --servers 8`).
const SERVERS: usize = 8;
/// Items in the stream.
const ITEMS: usize = 16_384;
/// Requests per item.
const REQUESTS: usize = 16;
/// Trailing `req` lines each pass sends closed loop.
const PROBE_LINES: usize = 4_096;
/// Lines per closed-loop burst. A single line's round trip is mostly the
/// two wake-ups between the processes, whose cost on a VM changes with
/// the host's load (trial runs on a shared 2-vCPU VM read 10 µs in one
/// set and 22 µs in the next); a burst makes the daemon's own work the
/// larger part while keeping it far below a pipe's capacity.
const BURST: usize = 64;
/// Bytes per read of the response readers.
const READ_CHUNK: usize = 256 * 1024;
/// Pause of a saturated-phase reader after a read that found the pipe
/// nearly empty.
const READ_IDLE: Duration = Duration::from_micros(500);
/// Bytes per write of the saturated-phase writers.
const WRITE_CHUNK: usize = 64 * 1024;
/// The line that stops the daemon.
const SHUTDOWN: &[u8] = b"{\"op\":\"shutdown\"}\n";

/// A response the daemon must produce for one input line.
#[derive(Clone, Copy)]
enum Expect {
    Decision {
        item: u64,
        server: u32,
        action: ServeAction,
    },
    Report(ItemReport),
}

/// A rendered `serve/1` stream (request lines, then one `finish` per
/// item; no `shutdown`) with the responses it must get.
struct Stream {
    input: Vec<u8>,
    /// Byte offset just past each line's newline.
    ends: Vec<usize>,
    /// Number of `req` lines (they come first).
    reqs: usize,
    expected: Vec<Expect>,
}

impl Stream {
    /// Renders [`ITEMS`] Poisson items of [`REQUESTS`] requests each,
    /// seeded from `seed`, and runs the in-process reference engine over
    /// them.
    fn build(seed: u64) -> Result<Stream, String> {
        let w = PoissonWorkload::uniform(
            CommonParams {
                servers: SERVERS,
                requests: REQUESTS,
                mu: 1.0,
                lambda: 1.0,
            },
            1.0,
        );
        let events = load_events(&w, ITEMS, seed);
        let mut input = Vec::with_capacity(events.len() * 64);
        let mut ends = Vec::with_capacity(events.len() + ITEMS);
        let mut line = |req: WireRequest, input: &mut Vec<u8>| {
            input.extend_from_slice(request_line(&req).to_string_compact().as_bytes());
            input.push(b'\n');
            ends.push(input.len());
        };
        for e in &events {
            let req = WireRequest::Req {
                item: e.item,
                server: e.server,
                t: Some(e.t),
            };
            line(req, &mut input);
        }
        for item in 0..ITEMS as u64 {
            line(WireRequest::Finish { item }, &mut input);
        }

        let mut engine = reference_engine();
        let mut expected = Vec::with_capacity(ends.len());
        for e in &events {
            match engine.observe(e.item, e.server, e.t) {
                ServeReply::Decision(d) => expected.push(Expect::Decision {
                    item: d.item,
                    server: d.server.0,
                    action: d.action,
                }),
                ServeReply::Shed { item, reason } => {
                    return Err(format!("reference shed item {item}: {}", reason.name()))
                }
            }
        }
        for item in 0..ITEMS as u64 {
            let report = engine
                .finish(item)
                .ok_or_else(|| format!("reference lost item {item}"))?;
            expected.push(Expect::Report(report));
        }
        if events.len() <= PROBE_LINES {
            return Err("stream shorter than its closed-loop phase".into());
        }
        Ok(Stream {
            input,
            ends,
            reqs: events.len(),
            expected,
        })
    }

    fn lines(&self) -> usize {
        self.ends.len()
    }

    /// The `req` lines of the saturated phase.
    fn saturated(&self) -> Range<usize> {
        0..self.reqs - PROBE_LINES
    }

    /// Byte range of lines `r`.
    fn span(&self, r: Range<usize>) -> &[u8] {
        let start = if r.start == 0 {
            0
        } else {
            self.ends[r.start - 1]
        };
        &self.input[start..self.ends[r.end - 1]]
    }
}

/// The engine `mcc serve --servers 8` builds: paper SC, unit costs,
/// default growth bounds.
fn reference_engine() -> ServeEngine<'static> {
    let cfg = ServeConfig::new(SERVERS, CostModel::unit());
    ServeEngine::new(cfg, factory(SpeculativeCaching::<f64>::paper()))
}

/// Counts the responses in `out` (one per line, in order) that are
/// missing, malformed, or differ from `expected` (`latency_ns` is not
/// compared). Lines past `expected` are not examined.
fn count_failures(out: &[u8], expected: &[Expect]) -> u64 {
    let mut lines = out.split(|&b| b == b'\n');
    expected
        .iter()
        .filter(|exp| !lines.next().is_some_and(|line| response_ok(line, exp)))
        .count() as u64
}

fn response_ok(line: &[u8], exp: &Expect) -> bool {
    let Some(doc) = std::str::from_utf8(line)
        .ok()
        .and_then(|text| Json::parse(text).ok())
    else {
        return false;
    };
    if validate_response(&doc).is_err() {
        return false;
    }
    let int = |k: &str| doc.get(k).and_then(Json::as_i64);
    let text = |k: &str| doc.get(k).and_then(Json::as_str);
    match *exp {
        Expect::Decision {
            item,
            server,
            action,
        } => {
            let action_ok = match action {
                ServeAction::Cache => text("action") == Some("cache"),
                ServeAction::Deferred => text("action") == Some("deferred"),
                ServeAction::Transfer { from } => {
                    text("action") == Some("transfer") && int("from") == Some(i64::from(from.0))
                }
            };
            text("kind") == Some("decision")
                && int("item") == Some(item as i64)
                && int("server") == Some(i64::from(server))
                && action_ok
        }
        Expect::Report(r) => {
            text("kind") == Some("report")
                && int("item") == Some(r.item as i64)
                && doc.get("online_cost").and_then(Json::as_f64) == Some(r.online_cost)
                && int("transfers") == Some(r.transfers as i64)
                && int("cache_hits") == Some(r.cache_hits as i64)
        }
    }
}

/// Reads until `want` more lines have arrived, appending them to `out`,
/// and returns when the read that completed them returned. A read that
/// found little waiting is followed by [`READ_IDLE`], so the daemon fills
/// the pipe instead of waking the reader for every line.
fn read_lines<R: BufRead>(src: &mut R, want: usize, out: &mut Vec<u8>) -> Result<Instant, String> {
    let mut got = 0;
    loop {
        let buf = src.fill_buf().map_err(|e| format!("read: {e}"))?;
        let now = Instant::now();
        let n = buf.len();
        if n == 0 {
            return Err(format!("output closed after {got} of {want} lines"));
        }
        got += buf.iter().filter(|&&b| b == b'\n').count();
        out.extend_from_slice(buf);
        src.consume(n);
        if got >= want {
            return Ok(now);
        }
        if n < READ_CHUNK / 4 {
            thread::sleep(READ_IDLE);
        }
    }
}

/// Writes `bytes` in [`WRITE_CHUNK`] pieces.
fn write_chunked<W: Write>(dst: &mut W, bytes: &[u8]) -> std::io::Result<()> {
    bytes.chunks(WRITE_CHUNK).try_for_each(|c| dst.write_all(c))
}

fn spawn_daemon(mcc: &str) -> Result<Child, String> {
    Command::new(mcc)
        .args(["serve", "--servers", &SERVERS.to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {mcc}: {e}"))
}

/// Stops a child that a failed pass left running.
fn reap(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// The daemon's pipes as a pass drives them.
struct Pipes {
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Pipes {
    /// Writes `lines` from this thread while another reads their answers
    /// into `out`; returns the wall from the first write to the read that
    /// brought the last answer.
    fn saturate(
        &mut self,
        s: &Stream,
        lines: Range<usize>,
        out: &mut Vec<u8>,
    ) -> Result<Duration, String> {
        let want = lines.len();
        let stdout = &mut self.stdout;
        let t0 = Instant::now();
        let (written, read) = thread::scope(|scope| {
            let reader = scope.spawn(move || read_lines(stdout, want, out));
            let written = write_chunked(&mut self.stdin, s.span(lines));
            (written, reader.join().expect("reader thread panicked"))
        });
        written.map_err(|e| format!("write: {e}"))?;
        Ok(read? - t0)
    }

    /// Sends `lines` in bursts of [`BURST`], each in one write after every
    /// answer to the previous burst was read into `out`; returns each
    /// burst's time from its write to its last answer, nanoseconds.
    fn closed_loop(
        &mut self,
        s: &Stream,
        lines: Range<usize>,
        out: &mut Vec<u8>,
    ) -> Result<Vec<u64>, String> {
        let mut rtt = Vec::with_capacity(lines.len() / BURST + 1);
        for start in lines.clone().step_by(BURST) {
            let burst = start..(start + BURST).min(lines.end);
            let t0 = Instant::now();
            self.stdin
                .write_all(s.span(burst.clone()))
                .map_err(|e| format!("write: {e}"))?;
            for _ in burst {
                let n = self
                    .stdout
                    .read_until(b'\n', out)
                    .map_err(|e| format!("read: {e}"))?;
                if n == 0 {
                    return Err("output closed in the closed-loop phase".into());
                }
            }
            rtt.push(nanos(t0.elapsed()));
        }
        Ok(rtt)
    }
}

/// One `serve_pipe` pass on a fresh `mcc serve`.
struct PipePass {
    /// Wall of the saturated phase.
    wall_s: f64,
    decisions_per_s: f64,
    /// Burst round trips of the closed-loop phase, nanoseconds.
    rtt: Vec<u64>,
    rss_mb: f64,
    failed: u64,
}

fn pipe_pass(mcc: &str, s: &Stream) -> Result<PipePass, String> {
    let mut child = spawn_daemon(mcc)?;
    let result = pipe_pass_on(&mut child, s);
    if result.is_err() {
        reap(&mut child);
    }
    result
}

fn pipe_pass_on(child: &mut Child, s: &Stream) -> Result<PipePass, String> {
    let mut p = Pipes {
        stdin: child.stdin.take().ok_or("no stdin")?,
        stdout: BufReader::with_capacity(READ_CHUNK, child.stdout.take().ok_or("no stdout")?),
    };
    let pid = child.id().to_string();
    let mut out = Vec::with_capacity(s.input.len() * 2);
    let sat = s.saturated();
    let wall = p.saturate(s, sat.clone(), &mut out)?;
    let rtt = p.closed_loop(s, sat.end..s.reqs, &mut out)?;
    p.saturate(s, s.reqs..s.lines(), &mut out)?;
    // The daemon holds its peak once every answer is out; sample it
    // before `shutdown` lets it exit.
    let rss_mb = peak_rss_mb(&pid).unwrap_or(0.0);
    p.stdin
        .write_all(SHUTDOWN)
        .map_err(|e| format!("write: {e}"))?;
    drop(p.stdin);
    p.stdout
        .read_to_end(&mut out)
        .map_err(|e| format!("read: {e}"))?;
    let status = child.wait().map_err(|e| format!("wait: {e}"))?;
    if !status.success() {
        return Err(format!("mcc serve exited with {status}"));
    }
    let mut failed = count_failures(&out, &s.expected);
    let bye = out.split(|&b| b == b'\n').nth(s.lines());
    if bye.is_none_or(|l| !l.starts_with(b"{\"schema\":\"serve/1\",\"kind\":\"bye\"")) {
        failed += 1;
    }
    let wall_s = wall.as_secs_f64();
    Ok(PipePass {
        wall_s,
        decisions_per_s: sat.len() as f64 / wall_s,
        rtt,
        rss_mb,
        failed,
    })
}

/// Starts `mcc serve`, has it answer one `stats` line, and stops it: the
/// daemon half of the set-up time.
fn probe_daemon(mcc: &str) -> Result<(), String> {
    let mut child = spawn_daemon(mcc)?;
    let result = (|| -> Result<(), String> {
        let mut stdin = child.stdin.take().ok_or("no stdin")?;
        let mut reader = BufReader::new(child.stdout.take().ok_or("no stdout")?);
        stdin
            .write_all(b"{\"op\":\"stats\"}\n")
            .and_then(|()| stdin.write_all(SHUTDOWN))
            .map_err(|e| format!("probe write: {e}"))?;
        let mut line = String::new();
        reader.read_line(&mut line).map_err(|e| e.to_string())?;
        if !line.contains("\"kind\":\"stats\"") {
            return Err(format!("probe answered {line:?}"));
        }
        drop(stdin);
        let mut rest = Vec::new();
        let _ = reader.read_to_end(&mut rest);
        Ok(())
    })();
    match result {
        Ok(()) => {
            let status = child.wait().map_err(|e| e.to_string())?;
            if status.success() {
                Ok(())
            } else {
                Err(format!("probe daemon exited with {status}"))
            }
        }
        Err(e) => {
            reap(&mut child);
            Err(e)
        }
    }
}

/// Set-up, [`SETUP_REPS`] times: render the stream, run the reference,
/// start a daemon and have it answer. Returns the last stream and the
/// median set-up seconds.
fn setup(args: &Args) -> Result<(Stream, f64), String> {
    let mut times = Vec::new();
    let mut stream = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let s = Stream::build(args.seed)?;
        probe_daemon(&args.mcc)?;
        times.push(secs(t0));
        stream = Some(s);
    }
    Ok((stream.ok_or("no set-up ran")?, median(&times)))
}

/// `serve_pipe`, untraced.
pub fn pipe(args: &Args) -> Result<Outcome, String> {
    let (s, setup_s) = setup(args)?;
    let passes = repeat_for(args.budget(), 3, || pipe_pass(&args.mcc, &s));
    let passes: Vec<PipePass> = passes.into_iter().collect::<Result<_, _>>()?;
    let mut out = Outcome::default();
    for p in &passes {
        out.check(s.lines() as u64 + 1, p.failed);
    }
    let col = |f: fn(&PipePass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let mut rtt: Vec<u64> = passes.iter().flat_map(|p| p.rtt.iter().copied()).collect();
    rtt.sort_unstable();
    let us = |q: f64| quantile_sorted(&rtt, q) as f64 / 1e3;
    println!(
        "serve_pipe: {} passes of {} lines ({} req + {} finish); saturated phase {} req, \
         wall median {:.3} s; closed-loop round trip of a {BURST}-line burst over {} samples: \
         p50 {:.1} us, p90 {:.1} us",
        passes.len(),
        s.lines(),
        s.reqs,
        s.lines() - s.reqs,
        s.saturated().len(),
        col(|p| p.wall_s),
        rtt.len(),
        us(0.50),
        us(0.90)
    );
    out.metric("setup_s", setup_s, "s");
    out.metric("throughput_per_s", col(|p| p.decisions_per_s), "1/s");
    out.metric("latency_p50_us", us(0.50), "us");
    out.metric("peak_rss_mb", col(|p| p.rss_mb), "MB");
    Ok(out)
}

/// Per-call self time and work counts of one replayed serving loop.
#[derive(Default)]
struct Replica {
    wall_ns: u64,
    /// Wall up to the answer to the line numbered `mark` (1-based).
    mark_ns: u64,
    read_ns: u64,
    parse_ns: u64,
    timers_ns: u64,
    decide_ns: u64,
    finish_ns: u64,
    build_ns: u64,
    format_ns: u64,
    write_ns: u64,
    lines: u64,
    reqs: u64,
    finishes: u64,
    bytes_in: u64,
    bytes_out: u64,
    flushes: u64,
}

impl Replica {
    fn attributed(&self) -> u64 {
        self.read_ns
            + self.parse_ns
            + self.timers_ns
            + self.decide_ns
            + self.finish_ns
            + self.build_ns
            + self.format_ns
            + self.write_ns
    }

    fn layers(&self, stats: EngineStats, layers: &mut Layers) {
        let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
        layers.insert("daemon.read_ns", per(self.read_ns, self.lines));
        layers.insert("wire.parse_ns", per(self.parse_ns, self.lines));
        layers.insert("engine.timers_ns", per(self.timers_ns, self.reqs));
        layers.insert("engine.decide_ns", per(self.decide_ns, self.reqs));
        layers.insert("engine.finish_ns", per(self.finish_ns, self.finishes));
        layers.insert("wire.build_ns", per(self.build_ns, self.lines));
        layers.insert("wire.format_ns", per(self.format_ns, self.lines));
        layers.insert("daemon.write_ns", per(self.write_ns, self.lines));
        layers.insert(
            "engine.hit_frac",
            stats.cache_hits as f64 / stats.requests.max(1) as f64,
        );
        layers.insert("engine.expirations", stats.expirations as f64);
        layers.insert("engine.copies_peak", stats.copies_peak as f64);
        layers.insert("wire.bytes_in", self.bytes_in as f64);
        layers.insert("wire.bytes_out", self.bytes_out as f64);
        layers.insert("daemon.flushes", self.flushes as f64);
        layers.insert(
            "trace.unattributed_frac",
            1.0 - self.attributed() as f64 / self.wall_ns.max(1) as f64,
        );
    }
}

/// Writes one response line and flushes, as the daemon's `emit` does.
fn emit<W: Write>(out: &mut W, line: &str, r: &mut Replica) -> Result<(), String> {
    writeln!(out, "{line}").map_err(|e| format!("write: {e}"))?;
    out.flush().map_err(|e| format!("flush: {e}"))?;
    r.bytes_out += line.len() as u64 + 1;
    r.flushes += 1;
    Ok(())
}

/// The daemon's `serve_lines` loop rebuilt from the same public calls,
/// each timed: read a line, `parse_request`, `tick(t)` then `observe`
/// (or `finish`), build the response, `to_string_compact`, write and
/// flush. `tick(t)` just before `observe` moves the timer sweep out of
/// `observe` without changing any decision (sweep timing is proptested
/// unobservable). Stops at `shutdown` or EOF. Notes the wall up to the
/// answer to line `mark`.
fn replica_loop<R: BufRead, W: Write>(
    engine: &mut ServeEngine<'_>,
    input: R,
    out: &mut W,
    mark: u64,
) -> Result<Replica, String> {
    let mut r = Replica::default();
    let t0 = Instant::now();
    let mut lap = Lap::start();
    let mut lines = input.lines();
    loop {
        lap.skip();
        let Some(line) = lines.next() else { break };
        r.read_ns += lap.take();
        let line = line.map_err(|e| format!("read: {e}"))?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        r.lines += 1;
        r.bytes_in += line.len() as u64 + 1;
        let req = parse_request(trimmed);
        r.parse_ns += lap.take();
        let doc = match req {
            Ok(WireRequest::Req { item, server, t }) => {
                r.reqs += 1;
                let t = t.unwrap_or(0.0);
                engine.tick(t);
                r.timers_ns += lap.take();
                let reply = engine.observe(item, server, t);
                r.decide_ns += lap.take();
                match reply {
                    ServeReply::Decision(d) => decision_response(&d),
                    ServeReply::Shed { item, reason } => shed_response(item, reason),
                }
            }
            Ok(WireRequest::Finish { item }) => {
                r.finishes += 1;
                let report = engine.finish(item);
                r.finish_ns += lap.take();
                match report {
                    Some(report) => report_response(&report),
                    None => error_response("finish: item not tracked"),
                }
            }
            Ok(WireRequest::Shutdown) => {
                emit(out, &bye_response().to_string_compact(), &mut r)?;
                r.write_ns += lap.take();
                break;
            }
            Ok(WireRequest::Stats) => stats_response(&engine.stats()),
            Ok(WireRequest::Metrics) => error_response("metrics: no registry attached"),
            Err(detail) => error_response(&detail),
        };
        r.build_ns += lap.take();
        let text = doc.to_string_compact();
        r.format_ns += lap.take();
        emit(out, &text, &mut r)?;
        r.write_ns += lap.take();
        if r.lines == mark {
            r.mark_ns = nanos(t0.elapsed());
            lap.skip();
        }
        // Freeing each layer's allocations is that layer's work.
        drop(doc);
        r.build_ns += lap.take();
        drop(text);
        r.format_ns += lap.take();
        drop(line);
        r.read_ns += lap.take();
        for note in engine.take_replayed() {
            let text = mcc_serve::wire::replayed_response(&note).to_string_compact();
            emit(out, &text, &mut r)?;
        }
    }
    r.wall_ns = nanos(t0.elapsed());
    Ok(r)
}

/// `serve_pipe`, traced: the replica reads the stream from one OS pipe
/// (fed by a writer thread) and answers into another (drained by a
/// reader thread), so `daemon.read_ns` and `daemon.write_ns` include the
/// real syscalls. One untraced `mcc serve` pass gives the overhead base:
/// its saturated-phase wall against the replica's wall over the same
/// lines.
pub fn pipe_traced(args: &Args) -> Result<(Outcome, Layers), String> {
    let s = Stream::build(args.seed)?;
    let base = pipe_pass(&args.mcc, &s)?;
    let (in_rx, mut in_tx) = std::io::pipe().map_err(|e| e.to_string())?;
    let (out_rx, out_tx) = std::io::pipe().map_err(|e| e.to_string())?;
    let mut engine = reference_engine();
    let (input, n) = (&s.input, s.lines());
    let mark = s.saturated().len() as u64;
    let mut out = Vec::with_capacity(s.input.len() * 2);
    let replica = thread::scope(|scope| {
        let feeder = scope.spawn(move || {
            write_chunked(&mut in_tx, input)?;
            in_tx.write_all(SHUTDOWN)
        });
        // Drained like the untraced pass drains `mcc serve`; the answers
        // end with `bye`.
        let out = &mut out;
        let drainer = scope.spawn(move || {
            read_lines(
                &mut BufReader::with_capacity(READ_CHUNK, out_rx),
                n + 1,
                out,
            )
        });
        // `mcc serve` reads a locked stdin (an 8 KiB buffer) and writes a
        // line-buffered stdout.
        let mut writer = LineWriter::new(out_tx);
        let replica = replica_loop(
            &mut engine,
            BufReader::with_capacity(8192, in_rx),
            &mut writer,
            mark,
        );
        drop(writer);
        let fed = feeder.join().expect("feeder thread panicked");
        let drained = drainer.join().expect("drainer thread panicked");
        replica.and_then(|r| {
            fed.map_err(|e| e.to_string())?;
            drained.map(|_| r)
        })
    })?;
    let mut outcome = Outcome::default();
    outcome.check(
        s.lines() as u64,
        count_failures(&out, &s.expected) + base.failed,
    );
    let mut layers = Layers::new();
    replica.layers(engine.stats(), &mut layers);
    let traced_s = replica.mark_ns as f64 / 1e9;
    layers.insert("trace.overhead_frac", traced_s / base.wall_s - 1.0);
    println!(
        "serve_pipe traced: replica wall {traced_s:.3} s beside untraced mcc serve wall {:.3} s \
         over the first {mark} req lines; {:.1}% of the replica wall unattributed",
        base.wall_s,
        100.0 * layers["trace.unattributed_frac"]
    );
    Ok((outcome, layers))
}
