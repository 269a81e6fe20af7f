//! The serving loop's reading and writing: how input is split into reads
//! must not change a byte of the output, every answer is written and
//! flushed before the loop reads again, and an over-long line is
//! answered once and dropped as it arrives.

use std::cell::RefCell;
use std::io::{self, BufRead, Read, Write};
use std::rc::Rc;

use mcc_core::online::SpeculativeCaching;
use mcc_model::{CostModel, Json};
use mcc_serve::daemon::MAX_LINE_BYTES;
use mcc_serve::{serve_lines, DaemonOptions, DaemonSummary, ServeConfig, ServeEngine};
use mcc_simnet::{factory, SimClock};
use proptest::prelude::*;

/// Hands out `data` in reads of the given sizes, cycling through them.
struct Chunked<'a> {
    data: &'a [u8],
    pos: usize,
    sizes: Vec<usize>,
    reads: usize,
}

impl<'a> Chunked<'a> {
    fn new(data: &'a [u8], sizes: Vec<usize>) -> Self {
        Chunked {
            data,
            pos: 0,
            sizes,
            reads: 0,
        }
    }
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = {
            let chunk = self.fill_buf()?;
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            n
        };
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Chunked<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        let size = self.sizes[self.reads % self.sizes.len()];
        let end = (self.pos + size).min(self.data.len());
        Ok(&self.data[self.pos..end])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
        self.reads += 1;
    }
}

fn engine() -> ServeEngine<'static> {
    let cfg = ServeConfig::new(4, CostModel::unit());
    ServeEngine::new(cfg, factory(SpeculativeCaching::paper()))
}

fn serve<R: BufRead>(input: R) -> (DaemonSummary, Vec<u8>) {
    let mut out = Vec::new();
    let summary = serve_lines(
        &mut engine(),
        &SimClock::default(),
        input,
        &mut out,
        &DaemonOptions {
            registry: None,
            stats_on_exit: true,
        },
    )
    .expect("in-memory IO cannot fail");
    (summary, out)
}

/// `out` with every `latency_ns` value (wall time, not reproducible)
/// replaced by 0.
fn mask_latency(out: &[u8]) -> Vec<u8> {
    const KEY: &[u8] = b"\"latency_ns\":";
    let mut masked = Vec::with_capacity(out.len());
    let mut i = 0;
    while i < out.len() {
        if out[i..].starts_with(KEY) {
            masked.extend_from_slice(KEY);
            masked.push(b'0');
            i += KEY.len();
            while i < out.len() && out[i].is_ascii_digit() {
                i += 1;
            }
        } else {
            masked.push(out[i]);
            i += 1;
        }
    }
    masked
}

/// A stream of mixed lines: requests with and without `t` (some for a
/// server past `m`, which sheds), finishes of tracked and untracked
/// items, stats, metrics without a registry, blank and CRLF lines,
/// garbage, a non-UTF-8 line, maybe a `shutdown`, maybe an unterminated
/// last line. `picks` drives every choice.
fn stream(picks: &[u32]) -> Vec<u8> {
    let mut input = Vec::new();
    let mut t = 0.0;
    for (k, &p) in picks.iter().enumerate() {
        let item = p % 3;
        let server = (p / 3) % 5;
        t += f64::from(p % 7) * 0.25;
        let line = match (p / 15) % 12 {
            0..=3 => format!(r#"{{"op":"req","item":{item},"server":{server},"t":{t:?}}}"#),
            4 => format!(r#"{{"op":"req","item":{item},"server":{server}}}"#),
            5 => format!(r#"{{"op":"finish","item":{item}}}"#),
            6 => r#"{"op":"stats"}"#.to_string(),
            7 => r#"{"op":"metrics"}"#.to_string(),
            8 => ["", "   ", "\r"][item as usize].to_string(),
            9 => format!(r#"{{"op":"req","item":{item},"server":0,"t":{t:?}}}"#) + "\r",
            10 => ["nonsense", r#"{"op":"warp"}"#, "[[["][item as usize].to_string(),
            _ if k + 1 == picks.len() => r#"{"op":"shutdown"}"#.to_string(),
            _ => {
                input.extend_from_slice(b"\xff\xfe");
                String::new()
            }
        };
        input.extend_from_slice(line.as_bytes());
        if k + 1 < picks.len() || p % 2 == 0 {
            input.push(b'\n');
        }
    }
    // A shutdown somewhere in the middle: the rest is never read.
    if picks.first().is_some_and(|p| p % 4 == 0) {
        let mid = picks.len() / 2 * 30;
        let at = input[..mid.min(input.len())]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        input.splice(at..at, b"{\"op\":\"shutdown\"}\n".iter().copied());
    }
    input
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// However the stream is cut into reads — down to one byte per read —
    /// the output is the bytes the whole stream read at once produces
    /// (`latency_ns` masked), and so is the summary.
    #[test]
    fn any_split_into_reads_gives_the_same_output(
        picks in proptest::collection::vec(0u32..1_000, 48),
        sizes in proptest::collection::vec(1usize..64, 5),
        one_byte in 0u8..4,
    ) {
        let input = stream(&picks);
        let (whole_summary, whole) = serve(&input[..]);
        let sizes = if one_byte == 0 { vec![1] } else { sizes };
        let (summary, out) = serve(Chunked::new(&input, sizes));
        prop_assert_eq!(summary, whole_summary);
        let (out, whole) = (mask_latency(&out), mask_latency(&whole));
        prop_assert_eq!(String::from_utf8_lossy(&out), String::from_utf8_lossy(&whole));
    }
}

#[test]
fn over_long_lines_are_answered_the_same_under_any_split() {
    let mut input = b"{\"op\":\"req\",\"item\":1,\"server\":0,\"t\":1.0}\n".to_vec();
    input.extend(std::iter::repeat_n(b'x', MAX_LINE_BYTES + 1));
    input.extend_from_slice(b"\n{\"op\":\"stats\"}");
    input.extend(std::iter::repeat_n(b' ', MAX_LINE_BYTES - 14));
    input.extend_from_slice(b"\n{\"op\":\"req\",\"item\":1,\"server\":1,\"t\":2.0}\n");
    let (whole_summary, whole) = serve(&input[..]);
    let kinds: Vec<String> = String::from_utf8_lossy(&whole)
        .lines()
        .map(|l| {
            let doc = Json::parse(l).expect("response json");
            doc.get("kind").and_then(Json::as_str).expect("kind").into()
        })
        .collect();
    // The exactly-at-cap stats line is served; the line one byte over
    // gets one error; the EOF stats line closes the run.
    assert_eq!(kinds, ["decision", "error", "stats", "decision", "stats"]);
    assert!(String::from_utf8_lossy(&whole).contains("line longer than 524288 bytes"));
    for sizes in [vec![1], vec![7, 4096], vec![MAX_LINE_BYTES - 3], vec![8192]] {
        let (summary, out) = serve(Chunked::new(&input, sizes));
        assert_eq!(summary, whole_summary);
        assert_eq!(mask_latency(&out), mask_latency(&whole));
    }
}

/// Output the daemon has written, and how much of it it has flushed.
#[derive(Default)]
struct Wire {
    written: Vec<u8>,
    flushed: usize,
}

struct SharedWriter(Rc<RefCell<Wire>>);

impl Write for SharedWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.borrow_mut().written.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        let mut w = self.0.borrow_mut();
        w.flushed = w.written.len();
        Ok(())
    }
}

/// A reader that, on every read but the first, checks what the daemon
/// has flushed against what it has been handed so far.
struct Watching<'a> {
    inner: Chunked<'a>,
    wire: Rc<RefCell<Wire>>,
    check: fn(handed: &[u8], flushed: &[u8]),
}

impl Read for Watching<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

impl BufRead for Watching<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.inner.reads > 0 {
            let wire = self.wire.borrow();
            (self.check)(
                &self.inner.data[..self.inner.pos],
                &wire.written[..wire.flushed],
            );
        }
        self.inner.fill_buf()
    }

    fn consume(&mut self, n: usize) {
        self.inner.consume(n);
    }
}

fn serve_watched(input: &[u8], sizes: Vec<usize>, check: fn(&[u8], &[u8])) -> Vec<u8> {
    let wire = Rc::new(RefCell::new(Wire::default()));
    let reader = Watching {
        inner: Chunked::new(input, sizes),
        wire: Rc::clone(&wire),
        check,
    };
    serve_lines(
        &mut engine(),
        &SimClock::default(),
        reader,
        &mut SharedWriter(Rc::clone(&wire)),
        &DaemonOptions::default(),
    )
    .expect("in-memory IO cannot fail");
    let w = wire.borrow();
    assert_eq!(w.flushed, w.written.len(), "output left unflushed");
    w.written.clone()
}

fn count_lines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

#[test]
fn every_answer_is_flushed_before_the_next_read() {
    // One response per line (no blank lines, no replays), in reads that
    // end mid-line as often as not.
    let input: String = (0..200)
        .map(|k| {
            format!(
                "{{\"op\":\"req\",\"item\":{},\"server\":{},\"t\":{}.5}}\n",
                k % 7,
                k % 4,
                k
            )
        })
        .collect();
    for sizes in [vec![1], vec![5, 37, 100], vec![4096]] {
        let out = serve_watched(input.as_bytes(), sizes, |handed, flushed| {
            assert_eq!(
                count_lines(flushed),
                count_lines(handed),
                "a read began before every complete line had its answer flushed"
            );
        });
        assert_eq!(count_lines(&out), 200);
    }
}

#[test]
fn a_newline_less_client_is_answered_before_its_line_ends() {
    // Four times the cap with no newline, then a request. The error must
    // be out while the long line is still arriving: its bytes are dropped
    // as they come, not buffered until the newline.
    let mut input = vec![b'a'; 4 * MAX_LINE_BYTES];
    input.extend_from_slice(b"\n{\"op\":\"req\",\"item\":1,\"server\":1,\"t\":1.0}\n");
    let out = serve_watched(&input, vec![8192], |handed, flushed| {
        if handed.len() > MAX_LINE_BYTES + 8192 {
            assert!(count_lines(flushed) >= 1, "error not yet answered");
        }
    });
    let text = String::from_utf8(out).expect("utf8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    assert!(lines[0].contains("\"kind\":\"error\""), "{}", lines[0]);
    assert!(lines[0].len() < 100, "{}", lines[0]);
    assert!(lines[1].contains("\"kind\":\"decision\""), "{}", lines[1]);
}

#[test]
fn a_last_line_without_a_newline_is_still_answered() {
    let input =
        b"{\"op\":\"req\",\"item\":1,\"server\":1,\"t\":1.0}\n{\"op\":\"finish\",\"item\":1}";
    for sizes in [vec![input.len()], vec![1], vec![50]] {
        let (summary, _) = serve(Chunked::new(input, sizes));
        assert_eq!(
            (summary.lines, summary.decisions, summary.reports),
            (2, 1, 1)
        );
    }
}
