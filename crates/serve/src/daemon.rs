//! Daemon transports: a JSONL loop over any `BufRead`/`Write` pair
//! (stdin/stdout in production, in-memory buffers in tests) and a
//! blocking TCP listener that runs the same loop per connection.
//!
//! The loop is a thin shell around [`ServeEngine`]. It takes whatever
//! input the reader already holds (one `fill_buf`), answers every
//! complete line in it — [`parse_request`], act, render exactly one
//! response line (plus any pending [`ReplayNote`](crate::ReplayNote)s as
//! `replayed` lines) straight into one reused output buffer — and then
//! writes and flushes that buffer once, before the next read that may
//! block. So a burst of lines costs one write, and no answer waits on a
//! read: a client that sends one line at a time gets each answer as
//! soon as it is rendered. A partial line at the end of the input is
//! carried over to the next read.
//!
//! Malformed lines — bad JSON, JSON nested past
//! [`mcc_model::MAX_JSON_DEPTH`], bytes that are not UTF-8, lines longer
//! than [`MAX_LINE_BYTES`] — get an `error` response and the loop keeps
//! serving: a daemon must not die because one client sent garbage. An
//! over-long line is answered as soon as it passes the cap, and the rest
//! of it is dropped as it arrives, so a client that never sends a
//! newline cannot grow the daemon's memory. The loop ends at EOF or an
//! explicit `shutdown` op (answered with `bye`). Over TCP a failed read
//! or write ends only that connection.
//!
//! Time stamping: a `req` line carrying `t` uses it verbatim (simulated
//! event time). A `req` without `t` is stamped with
//! `max(clock.now(), high-water)` — the [`TimeSource`] supplies "now"
//! (wall seconds since start, or a test-controlled [`SimClock`]), and
//! the high-water clamp keeps wall-stamped events from regressing
//! behind explicit event times, which the engine would shed.
//!
//! [`SimClock`]: mcc_simnet::SimClock

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

use mcc_obs::Registry;
use mcc_simnet::TimeSource;

use crate::engine::{ServeEngine, ServeReply};
use crate::wire::{parse_request, Response, WireRequest};

/// Longest request line the daemon accepts, in bytes without the
/// newline. A longer line gets one `error` response; its bytes are
/// dropped through the next newline without being buffered. Real
/// request lines are under 100 bytes; the cap sits well above the
/// hostile lines the parser must still see and name (a 300k-deep
/// nest is answered "nesting deeper than 128 levels").
pub const MAX_LINE_BYTES: usize = 512 * 1024;

/// Knobs for one serving loop.
#[derive(Clone, Copy, Default)]
pub struct DaemonOptions<'r> {
    /// Registry behind the `metrics` op (absent → the op answers with an
    /// `error` line saying metrics are not enabled).
    pub registry: Option<&'r Registry>,
    /// Emit a final `stats` line (before `bye` / at EOF).
    pub stats_on_exit: bool,
}

/// What one serving loop did.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DaemonSummary {
    /// Non-empty input lines consumed.
    pub lines: u64,
    /// Decision lines emitted.
    pub decisions: u64,
    /// Shed lines emitted.
    pub sheds: u64,
    /// Report lines emitted.
    pub reports: u64,
    /// Replayed lines emitted.
    pub replays: u64,
    /// Error lines emitted.
    pub errors: u64,
    /// Ended by an explicit `shutdown` op (vs EOF).
    pub shutdown: bool,
}

/// One serving loop's state between reads: the engine it drives, the
/// time high-water mark, and the responses not yet written.
struct Session<'s, 'e> {
    engine: &'s mut ServeEngine<'e>,
    clock: &'s dyn TimeSource,
    opts: &'s DaemonOptions<'s>,
    summary: DaemonSummary,
    high_water: f64,
    out: String,
}

impl Session<'_, '_> {
    /// Renders one response into the output buffer and counts it.
    fn emit(&mut self, r: Response<'_>) {
        let n = &mut self.summary;
        match r {
            Response::Decision(_) => n.decisions += 1,
            Response::Shed { .. } => n.sheds += 1,
            Response::Replayed(_) => n.replays += 1,
            Response::Report(_) => n.reports += 1,
            Response::Error(_) => n.errors += 1,
            Response::Stats(_) | Response::Metrics(_) | Response::Bye => {}
        }
        r.write_line(&mut self.out);
    }

    fn stats(&mut self) {
        self.emit(Response::Stats(self.engine.stats()));
    }

    /// Answers a line longer than [`MAX_LINE_BYTES`].
    fn too_long(&mut self) {
        self.summary.lines += 1;
        self.emit(Response::Error(&format!(
            "line longer than {MAX_LINE_BYTES} bytes"
        )));
    }

    /// Answers one complete line (newline stripped, at most
    /// [`MAX_LINE_BYTES`]); `shutdown` sets `summary.shutdown`.
    fn line(&mut self, raw: &[u8]) {
        let Ok(line) = std::str::from_utf8(raw) else {
            self.summary.lines += 1;
            self.emit(Response::Error("line is not valid UTF-8"));
            return;
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return;
        }
        self.summary.lines += 1;
        match parse_request(trimmed) {
            Err(detail) => self.emit(Response::Error(&detail)),
            Ok(WireRequest::Req { item, server, t }) => {
                let t = t.unwrap_or_else(|| self.clock.now()).max(self.high_water);
                self.high_water = t;
                match self.engine.observe(item, server, t) {
                    ServeReply::Decision(d) => self.emit(Response::Decision(d)),
                    ServeReply::Shed { item, reason } => self.emit(Response::Shed { item, reason }),
                }
                for note in self.engine.take_replayed() {
                    self.emit(Response::Replayed(note));
                }
            }
            Ok(WireRequest::Finish { item }) => match self.engine.finish(item) {
                Some(report) => self.emit(Response::Report(report)),
                None => self.emit(Response::Error("finish: item not tracked")),
            },
            Ok(WireRequest::Stats) => self.stats(),
            Ok(WireRequest::Metrics) => match self.opts.registry {
                Some(reg) => self.emit(Response::Metrics(reg.snapshot().to_json())),
                None => self.emit(Response::Error("metrics: no registry attached")),
            },
            Ok(WireRequest::Shutdown) => {
                self.summary.shutdown = true;
                if self.opts.stats_on_exit {
                    self.stats();
                }
                self.emit(Response::Bye);
            }
        }
    }

    /// Writes and flushes the buffered responses, if any.
    fn flush<W: Write>(&mut self, out: &mut W) -> Result<(), String> {
        if self.out.is_empty() {
            return Ok(());
        }
        out.write_all(self.out.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        out.flush().map_err(|e| format!("flush: {e}"))?;
        self.out.clear();
        Ok(())
    }
}

/// Runs the JSONL serving loop until EOF or `shutdown`. Every input
/// line gets exactly one response line; offline-queue recoveries ride
/// along as extra `replayed` lines. Responses to all the complete lines
/// one read returned leave in one write + flush, made before the next
/// read. IO errors (not client errors) abort the loop with `Err`.
pub fn serve_lines<R: BufRead, W: Write>(
    engine: &mut ServeEngine<'_>,
    clock: &dyn TimeSource,
    mut input: R,
    out: &mut W,
    opts: &DaemonOptions<'_>,
) -> Result<DaemonSummary, String> {
    let mut s = Session {
        engine,
        clock,
        opts,
        summary: DaemonSummary::default(),
        high_water: 0.0,
        out: String::new(),
    };
    // The start of a line that the last read cut off, and whether the
    // line now arriving already passed the cap (its rest is dropped).
    let mut partial = Vec::new();
    let mut dropping = false;
    while !s.summary.shutdown {
        s.flush(out)?;
        let chunk = input.fill_buf().map_err(|e| format!("read: {e}"))?;
        if chunk.is_empty() {
            // EOF: a last line without a newline is still a line.
            if !partial.is_empty() {
                s.line(&partial);
            }
            break;
        }
        let mut used = 0;
        while used < chunk.len() && !s.summary.shutdown {
            let rest = &chunk[used..];
            let (piece, ended) = match rest.iter().position(|&b| b == b'\n') {
                Some(nl) => (&rest[..nl], true),
                None => (rest, false),
            };
            used += piece.len() + usize::from(ended);
            if dropping {
                dropping = !ended;
            } else if partial.len() + piece.len() > MAX_LINE_BYTES {
                partial.clear();
                s.too_long();
                dropping = !ended;
            } else if !ended {
                partial.extend_from_slice(piece);
            } else if partial.is_empty() {
                s.line(piece);
            } else {
                partial.extend_from_slice(piece);
                s.line(&partial);
                partial.clear();
            }
        }
        input.consume(used);
    }
    if !s.summary.shutdown && s.opts.stats_on_exit {
        s.stats();
    }
    s.flush(out)?;
    Ok(s.summary)
}

/// Serves connections accepted on `listener` one at a time, each through
/// [`serve_lines`], until a client sends `shutdown`. Returns the
/// summaries aggregated across connections. A connection whose read or
/// write fails ends alone: the error goes to stderr, that connection's
/// counts are dropped, and the next client is served. Only a failed
/// `accept` ends the loop with `Err`.
pub fn serve_tcp(
    listener: &TcpListener,
    engine: &mut ServeEngine<'_>,
    clock: &dyn TimeSource,
    opts: &DaemonOptions<'_>,
) -> Result<DaemonSummary, String> {
    let mut total = DaemonSummary::default();
    for stream in listener.incoming() {
        let stream = stream.map_err(|e| format!("accept: {e}"))?;
        let s = match serve_connection(stream, engine, clock, opts) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("serve: connection dropped: {e}");
                continue;
            }
        };
        total.lines += s.lines;
        total.decisions += s.decisions;
        total.sheds += s.sheds;
        total.reports += s.reports;
        total.replays += s.replays;
        total.errors += s.errors;
        if s.shutdown {
            total.shutdown = true;
            return Ok(total);
        }
    }
    Ok(total)
}

/// One TCP client through [`serve_lines`]. [`serve_lines`] gathers the
/// responses to each read's lines and hands them to the socket in one
/// write; `TCP_NODELAY` then sends them at once instead of holding them
/// for the client's delayed ACK (about 40 ms per closed-loop request on
/// Linux).
fn serve_connection(
    stream: TcpStream,
    engine: &mut ServeEngine<'_>,
    clock: &dyn TimeSource,
    opts: &DaemonOptions<'_>,
) -> Result<DaemonSummary, String> {
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
    serve_lines(engine, clock, reader, &mut &stream, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use crate::wire::validate_response;
    use mcc_core::online::SpeculativeCaching;
    use mcc_model::{CostModel, Json};
    use mcc_simnet::{factory, SimClock};

    fn run(input: &str, opts: &DaemonOptions<'_>) -> (DaemonSummary, Vec<Json>) {
        let cfg = ServeConfig::new(4, CostModel::unit());
        let mut engine = ServeEngine::new(cfg, factory(SpeculativeCaching::paper()));
        let clock = SimClock::default();
        let mut out = Vec::new();
        let summary =
            serve_lines(&mut engine, &clock, input.as_bytes(), &mut out, opts).expect("io");
        let text = String::from_utf8(out).expect("utf8");
        let docs = text
            .lines()
            .map(|l| Json::parse(l).expect("response json"))
            .collect();
        (summary, docs)
    }

    #[test]
    fn one_response_line_per_request_line() {
        let input = concat!(
            "{\"op\":\"req\",\"item\":1,\"server\":1,\"t\":0.5}\n",
            "\n",
            "{\"op\":\"req\",\"item\":1,\"server\":1,\"t\":1.0}\n",
            "{\"op\":\"stats\"}\n",
            "{\"op\":\"finish\",\"item\":1}\n",
            "{\"op\":\"shutdown\"}\n",
        );
        let (summary, docs) = run(input, &DaemonOptions::default());
        assert_eq!(summary.lines, 5);
        assert_eq!(summary.decisions, 2);
        assert_eq!(summary.reports, 1);
        assert!(summary.shutdown);
        assert_eq!(docs.len(), 5);
        for doc in &docs {
            validate_response(doc).expect("valid serve/1 line");
        }
        let kinds: Vec<&str> = docs
            .iter()
            .map(|d| d.get("kind").and_then(Json::as_str).expect("kind"))
            .collect();
        assert_eq!(kinds, ["decision", "decision", "stats", "report", "bye"]);
    }

    #[test]
    fn garbage_lines_do_not_kill_the_loop() {
        let input = "nonsense\n{\"op\":\"req\",\"item\":1,\"server\":0,\"t\":1.0}\n";
        let (summary, docs) = run(input, &DaemonOptions::default());
        assert_eq!(summary.errors, 1);
        assert_eq!(summary.decisions, 1);
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0].get("kind").and_then(Json::as_str), Some("error"));
    }

    #[test]
    fn hostile_lines_get_one_error_each_and_the_loop_keeps_serving() {
        // 300k open brackets overflow an uncapped recursive parser's
        // stack; bytes 0xff 0xfe are not UTF-8.
        let mut input = "[".repeat(300_000).into_bytes();
        input
            .extend_from_slice(b"\n\xff\xfe\n{\"op\":\"req\",\"item\":1,\"server\":1,\"t\":1.0}\n");
        let cfg = ServeConfig::new(4, CostModel::unit());
        let mut engine = ServeEngine::new(cfg, factory(SpeculativeCaching::paper()));
        let mut out = Vec::new();
        let opts = DaemonOptions::default();
        let summary = serve_lines(
            &mut engine,
            &SimClock::default(),
            &input[..],
            &mut out,
            &opts,
        )
        .expect("client errors are not IO errors");
        assert_eq!(
            (summary.lines, summary.errors, summary.decisions),
            (3, 2, 1)
        );
        let text = String::from_utf8(out).expect("utf8");
        let kinds: Vec<String> = text
            .lines()
            .map(|l| {
                let doc = Json::parse(l).expect("response json");
                validate_response(&doc).expect("valid serve/1 line");
                doc.get("kind")
                    .and_then(Json::as_str)
                    .expect("kind")
                    .to_string()
            })
            .collect();
        assert_eq!(kinds, ["error", "error", "decision"]);
        assert!(text.contains("nesting deeper than 128"), "{text}");
        assert!(text.contains("not valid UTF-8"), "{text}");
    }

    #[test]
    fn a_failed_tcp_connection_does_not_stop_the_listener() {
        use std::io::{BufRead, Read};

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let cfg = ServeConfig::new(4, CostModel::unit());
            let mut engine = ServeEngine::new(cfg, factory(SpeculativeCaching::paper()));
            serve_tcp(
                &listener,
                &mut engine,
                &SimClock::default(),
                &DaemonOptions::default(),
            )
        });
        // First client: a non-UTF-8 line gets an error line, then the
        // client vanishes without reading the rest.
        {
            let mut c = TcpStream::connect(addr).expect("connect 1");
            c.write_all(b"\xff\xfe\n").expect("send");
            let mut line = String::new();
            BufReader::new(&c).read_line(&mut line).expect("error line");
            assert!(line.contains("\"kind\":\"error\""), "{line}");
        }
        // Second client: a connection reset mid-stream (abortive close
        // with unread data) must not stop the listener either.
        {
            let c = TcpStream::connect(addr).expect("connect 2");
            (&c).write_all(b"{\"op\":\"stats\"}\n").expect("send");
            drop(c);
        }
        // Third client is still served.
        let mut c = TcpStream::connect(addr).expect("connect 3");
        c.write_all(b"{\"op\":\"req\",\"item\":1,\"server\":1,\"t\":1.0}\n{\"op\":\"shutdown\"}\n")
            .expect("send");
        let mut text = String::new();
        c.read_to_string(&mut text).expect("responses");
        assert!(text.contains("\"kind\":\"decision\""), "{text}");
        assert!(text.contains("\"kind\":\"bye\""), "{text}");
        let total = server
            .join()
            .expect("server thread")
            .expect("listener survives");
        assert!(total.shutdown);
        assert!(total.decisions >= 1);
    }

    #[test]
    fn unstamped_requests_never_regress_behind_event_time() {
        // Explicit t=5, then a t-less line: the SimClock says 0 but the
        // high-water clamp stamps it at 5, so the engine serves it.
        let input = concat!(
            "{\"op\":\"req\",\"item\":1,\"server\":1,\"t\":5.0}\n",
            "{\"op\":\"req\",\"item\":1,\"server\":1}\n",
        );
        let (summary, docs) = run(input, &DaemonOptions::default());
        assert_eq!(summary.decisions, 2);
        assert_eq!(summary.sheds, 0);
        assert_eq!(docs[1].get("t").and_then(Json::as_f64), Some(5.0));
    }

    #[test]
    fn stats_on_exit_and_missing_registry() {
        let opts = DaemonOptions {
            stats_on_exit: true,
            ..Default::default()
        };
        let input = "{\"op\":\"metrics\"}\n";
        let (summary, docs) = run(input, &opts);
        assert_eq!(summary.errors, 1);
        // error line + EOF stats line
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[1].get("kind").and_then(Json::as_str), Some("stats"));
    }

    #[test]
    fn metrics_op_serves_a_metrics1_document() {
        let cfg = ServeConfig::new(2, CostModel::unit());
        let reg = mcc_obs::Registry::new();
        let mut engine =
            ServeEngine::new(cfg, factory(SpeculativeCaching::paper())).with_sink(&reg);
        let clock = SimClock::default();
        let mut out = Vec::new();
        let opts = DaemonOptions {
            registry: Some(&reg),
            ..Default::default()
        };
        let input = "{\"op\":\"req\",\"item\":1,\"server\":1,\"t\":0.5}\n{\"op\":\"metrics\"}\n";
        serve_lines(&mut engine, &clock, input.as_bytes(), &mut out, &opts).expect("io");
        let text = String::from_utf8(out).expect("utf8");
        let last = text.lines().last().expect("metrics line");
        let doc = Json::parse(last).expect("json");
        validate_response(&doc).expect("valid metrics response");
        let served = doc
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get("serve_requests"))
            .and_then(Json::as_i64);
        assert_eq!(served, Some(1));
    }
}
