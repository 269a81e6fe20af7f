//! The versioned `serve/1` JSONL wire schema.
//!
//! One JSON object per line in each direction. Requests name an `"op"`;
//! every response carries `"schema": "serve/1"` and a `"kind"`
//! discriminator, so clients can dispatch without guessing and old
//! clients fail loudly on a future `serve/2`. The schema is **additive**
//! like `metrics/1`: unknown extra fields are legal, missing declared
//! fields are not ([`validate_response`] enforces exactly that, and the
//! golden-file test in `tests/wire_golden.rs` pins the rendered shape).
//!
//! Request ops:
//!
//! | op         | fields                                | effect |
//! |------------|---------------------------------------|--------|
//! | `req`      | `item`, `server`, optional `t`        | one decision (`t` defaults to the daemon clock) |
//! | `finish`   | `item`                                | close the item, emit its report |
//! | `stats`    | —                                     | emit an engine-stats snapshot |
//! | `metrics`  | —                                     | emit the embedded `metrics/1` document |
//! | `shutdown` | —                                     | emit `bye` and stop serving |
//!
//! Response kinds: `decision`, `shed`, `replayed`, `report`, `stats`,
//! `metrics`, `error`, `bye` — one [`Response`] variant each, whose field
//! list renders either as text straight into the daemon's output buffer
//! ([`Response::write_line`]) or as a [`Json`] tree (the `*_response`
//! builders).

use std::borrow::Cow;
use std::fmt::Write as _;

use mcc_core::online::ServeAction;
use mcc_model::json::{self, JsonAtom};
use mcc_model::Json;

use crate::engine::{EngineStats, ItemReport, ReplayNote, ServeDecision, ShedReason};

/// The schema tag every response line carries.
pub const SCHEMA: &str = "serve/1";

/// A parsed request line.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum WireRequest {
    /// One placement request.
    Req {
        /// Item the request is for.
        item: u64,
        /// Requesting server.
        server: u32,
        /// Event time; `None` means "stamp with the daemon clock".
        t: Option<f64>,
    },
    /// Close an item and emit its [`ItemReport`].
    Finish {
        /// Item to close.
        item: u64,
    },
    /// Emit an engine-stats snapshot.
    Stats,
    /// Emit the embedded `metrics/1` document.
    Metrics,
    /// Emit `bye` and stop serving.
    Shutdown,
}

/// Parses one request line. Errors describe the problem without echoing
/// unbounded input: any echoed input is cut to [`ECHO_BYTES`].
///
/// The line is checked with the grammar, depth cap and error text of
/// [`Json::parse`] but never becomes a tree: [`json::scan_object`] hands
/// over the top-level members, and the first occurrence of each of
/// `op`, `item`, `server` and `t` is kept. The whole line is checked
/// before any field is, and the fields are checked in that order.
pub fn parse_request(line: &str) -> Result<WireRequest, String> {
    let (mut op, mut item, mut server, mut t) = (None, None, None, None);
    json::scan_object(line, |key, value| {
        let slot = match key {
            "op" => &mut op,
            "item" => &mut item,
            "server" => &mut server,
            "t" => &mut t,
            _ => return,
        };
        if slot.is_none() {
            *slot = Some(value);
        }
    })
    .map_err(|e| format!("bad json: {e}"))?;
    let Some(JsonAtom::Str(op)) = op else {
        return Err("op must be a string".to_string());
    };
    match op.as_ref() {
        "req" => {
            let item = field_u64(item, "item")?;
            let server = u32::try_from(field_u64(server, "server")?)
                .map_err(|_| "server must fit in u32".to_string())?;
            let t = match t {
                None | Some(JsonAtom::Null) => None,
                Some(v) => Some(
                    v.as_f64()
                        .filter(|t| t.is_finite() && *t >= 0.0)
                        .ok_or_else(|| "t must be a finite non-negative number".to_string())?,
                ),
            };
            Ok(WireRequest::Req { item, server, t })
        }
        "finish" => Ok(WireRequest::Finish {
            item: field_u64(item, "item")?,
        }),
        "stats" => Ok(WireRequest::Stats),
        "metrics" => Ok(WireRequest::Metrics),
        "shutdown" => Ok(WireRequest::Shutdown),
        other => Err(format!("unknown op {:?}", echo(other))),
    }
}

fn field_u64(value: Option<JsonAtom<'_>>, key: &str) -> Result<u64, String> {
    value
        .and_then(|v| v.as_i64())
        .and_then(|v| u64::try_from(v).ok())
        .ok_or_else(|| format!("{key} must be a non-negative integer"))
}

/// Longest piece of client input an error message repeats, in bytes.
pub const ECHO_BYTES: usize = 64;

/// `s` cut to at most [`ECHO_BYTES`] on a char boundary, with `…`
/// appended when anything was cut.
pub fn echo(s: &str) -> Cow<'_, str> {
    if s.len() <= ECHO_BYTES {
        return Cow::Borrowed(s);
    }
    let cut = (0..=ECHO_BYTES)
        .rev()
        .find(|&i| s.is_char_boundary(i))
        .unwrap_or(0);
    Cow::Owned(format!("{}…", &s[..cut]))
}

/// Renders a request line — the inverse of [`parse_request`]. Load
/// generators (`mcc load`) use this so the client side of the wire goes
/// through the same typed schema as the server side.
pub fn request_line(req: &WireRequest) -> Json {
    let op = |name: &str| ("op".to_string(), Json::Str(name.into()));
    match *req {
        WireRequest::Req { item, server, t } => {
            let mut fields = vec![op("req"), ("item".into(), Json::Int(clamp(item)))];
            fields.push(("server".into(), Json::Int(i64::from(server))));
            if let Some(t) = t {
                fields.push(("t".into(), Json::Float(t)));
            }
            Json::Obj(fields)
        }
        WireRequest::Finish { item } => {
            Json::Obj(vec![op("finish"), ("item".into(), Json::Int(clamp(item)))])
        }
        WireRequest::Stats => Json::Obj(vec![op("stats")]),
        WireRequest::Metrics => Json::Obj(vec![op("metrics")]),
        WireRequest::Shutdown => Json::Obj(vec![op("shutdown")]),
    }
}

/// One response line, typed. [`Response::write_line`] renders it as
/// text and [`Response::to_json`] as a tree, both from the one field
/// list per kind in `fields`, so the two cannot drift apart.
#[derive(Clone, Debug, PartialEq)]
pub enum Response<'a> {
    /// A placement decision.
    Decision(ServeDecision),
    /// A request the engine refused.
    Shed {
        /// Item the request was for.
        item: u64,
        /// Why it was refused.
        reason: ShedReason,
    },
    /// An offline-queue replay notification.
    Replayed(ReplayNote),
    /// A finished item's accounting.
    Report(ItemReport),
    /// An engine-stats snapshot.
    Stats(EngineStats),
    /// An embedded `metrics/1` document.
    Metrics(Json),
    /// A per-line error (the daemon keeps serving after these).
    Error(&'a str),
    /// The farewell line.
    Bye,
}

/// Receives one response's fields in wire order.
trait FieldSink {
    fn int(&mut self, key: &str, v: u64);
    fn float(&mut self, key: &str, v: f64);
    fn text(&mut self, key: &str, v: &str);
    fn doc(&mut self, key: &str, v: &Json);
}

/// Responses as [`Json::Obj`] fields.
struct TreeSink(Vec<(String, Json)>);

impl FieldSink for TreeSink {
    fn int(&mut self, key: &str, v: u64) {
        self.0.push((key.into(), Json::Int(clamp(v))));
    }

    fn float(&mut self, key: &str, v: f64) {
        self.0.push((key.into(), Json::Float(v)));
    }

    fn text(&mut self, key: &str, v: &str) {
        self.0.push((key.into(), Json::Str(v.into())));
    }

    fn doc(&mut self, key: &str, v: &Json) {
        self.0.push((key.into(), v.clone()));
    }
}

/// Responses as compact JSON text appended to a buffer, byte for byte
/// what [`Json::to_string_compact`] renders from the tree.
struct TextSink<'o> {
    out: &'o mut String,
    empty: bool,
}

impl TextSink<'_> {
    fn key(&mut self, key: &str) {
        self.out.push(if self.empty { '{' } else { ',' });
        self.empty = false;
        json::write_str(self.out, key);
        self.out.push(':');
    }
}

impl FieldSink for TextSink<'_> {
    fn int(&mut self, key: &str, v: u64) {
        self.key(key);
        let _ = write!(self.out, "{}", clamp(v));
    }

    fn float(&mut self, key: &str, v: f64) {
        self.key(key);
        json::write_f64(self.out, v);
    }

    fn text(&mut self, key: &str, v: &str) {
        self.key(key);
        json::write_str(self.out, v);
    }

    fn doc(&mut self, key: &str, v: &Json) {
        self.key(key);
        v.write_compact(self.out);
    }
}

/// Wire integers are `i64`; larger counts saturate.
fn clamp(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

impl Response<'_> {
    /// The `kind` tag this response carries.
    fn kind(&self) -> &'static str {
        match self {
            Response::Decision(_) => "decision",
            Response::Shed { .. } => "shed",
            Response::Replayed(_) => "replayed",
            Response::Report(_) => "report",
            Response::Stats(_) => "stats",
            Response::Metrics(_) => "metrics",
            Response::Error(_) => "error",
            Response::Bye => "bye",
        }
    }

    /// The one field list of every kind, in wire order.
    fn fields<F: FieldSink>(&self, f: &mut F) {
        f.text("schema", SCHEMA);
        f.text("kind", self.kind());
        match self {
            Response::Decision(d) => {
                f.int("item", d.item);
                f.float("t", d.t);
                f.int("server", u64::from(d.server.0));
                match d.action {
                    ServeAction::Cache => f.text("action", "cache"),
                    ServeAction::Transfer { from } => {
                        f.text("action", "transfer");
                        f.int("from", u64::from(from.0));
                    }
                    ServeAction::Deferred => f.text("action", "deferred"),
                }
                f.int("latency_ns", d.latency_ns);
            }
            Response::Shed { item, reason } => {
                f.int("item", *item);
                f.text("reason", reason.name());
            }
            Response::Replayed(n) => {
                f.int("item", n.item);
                f.int("server", u64::from(n.server.0));
                f.float("t", n.t);
                f.float("at", n.at);
            }
            Response::Report(r) => {
                f.int("item", r.item);
                f.int("requests", r.requests);
                f.int("cache_hits", r.cache_hits);
                f.int("transfers", r.transfers);
                f.int("deferred", r.deferred);
                f.float("online_cost", r.online_cost);
                f.float("caching_cost", r.caching_cost);
                f.float("transfer_cost", r.transfer_cost);
            }
            Response::Stats(s) => {
                f.int("requests", s.requests);
                f.int("cache_hits", s.cache_hits);
                f.int("transfers", s.transfers);
                f.int("deferred", s.deferred);
                f.int("replayed", s.replayed);
                f.int("sheds", s.sheds);
                f.int("expirations", s.expirations);
                f.int("items_live", s.items_live);
                f.int("items_peak", s.items_peak);
                f.int("copies_live", s.copies_live);
                f.int("copies_peak", s.copies_peak);
                f.int("items_finished", s.items_finished);
                f.float("finished_cost", s.finished_cost);
            }
            Response::Metrics(doc) => f.doc("metrics", doc),
            Response::Error(detail) => f.text("detail", detail),
            Response::Bye => {}
        }
    }

    /// This response as a JSON tree.
    pub fn to_json(&self) -> Json {
        let mut sink = TreeSink(Vec::new());
        self.fields(&mut sink);
        Json::Obj(sink.0)
    }

    /// Appends this response to `out` as one compact JSON line, newline
    /// included, with no tree and no temporary string.
    pub fn write_line(&self, out: &mut String) {
        let mut sink = TextSink { out, empty: true };
        self.fields(&mut sink);
        out.push_str("}\n");
    }
}

/// Renders a decision line.
pub fn decision_response(d: &ServeDecision) -> Json {
    Response::Decision(*d).to_json()
}

/// Renders a shed line.
pub fn shed_response(item: u64, reason: ShedReason) -> Json {
    Response::Shed { item, reason }.to_json()
}

/// Renders an offline-queue replay notification.
pub fn replayed_response(n: &ReplayNote) -> Json {
    Response::Replayed(*n).to_json()
}

/// Renders a finished item's accounting.
pub fn report_response(r: &ItemReport) -> Json {
    Response::Report(*r).to_json()
}

/// Renders an engine-stats snapshot.
pub fn stats_response(s: &EngineStats) -> Json {
    Response::Stats(*s).to_json()
}

/// Wraps a `metrics/1` document in a response line.
pub fn metrics_response(doc: Json) -> Json {
    Response::Metrics(doc).to_json()
}

/// Renders a per-line error (the daemon keeps serving after these).
pub fn error_response(detail: &str) -> Json {
    Response::Error(detail).to_json()
}

/// Renders the farewell line.
pub fn bye_response() -> Json {
    Response::Bye.to_json()
}

fn need_u64(doc: &Json, kind: &str, key: &str) -> Result<(), String> {
    doc.get(key)
        .and_then(Json::as_i64)
        .filter(|&v| v >= 0)
        .map(|_| ())
        .ok_or_else(|| format!("{kind}.{key} must be a non-negative integer"))
}

fn need_f64(doc: &Json, kind: &str, key: &str) -> Result<(), String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .filter(|v| v.is_finite())
        .map(|_| ())
        .ok_or_else(|| format!("{kind}.{key} must be a finite number"))
}

/// Validates one response line against the documented `serve/1` shape
/// (additive: extra fields pass, missing declared fields fail).
pub fn validate_response(doc: &Json) -> Result<(), String> {
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("schema must be {SCHEMA:?}"));
    }
    let kind = doc
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| "kind must be a string".to_string())?;
    match kind {
        "decision" => {
            need_u64(doc, kind, "item")?;
            need_f64(doc, kind, "t")?;
            need_u64(doc, kind, "server")?;
            need_u64(doc, kind, "latency_ns")?;
            match doc.get("action").and_then(Json::as_str) {
                Some("cache") | Some("deferred") => Ok(()),
                Some("transfer") => need_u64(doc, kind, "from"),
                _ => Err("decision.action must be cache|transfer|deferred".into()),
            }
        }
        "shed" => {
            need_u64(doc, kind, "item")?;
            match doc.get("reason").and_then(Json::as_str) {
                Some("max-items")
                | Some("max-copies")
                | Some("time-regression")
                | Some("bad-server") => Ok(()),
                _ => Err("shed.reason must be a known reason tag".into()),
            }
        }
        "replayed" => {
            need_u64(doc, kind, "item")?;
            need_u64(doc, kind, "server")?;
            need_f64(doc, kind, "t")?;
            need_f64(doc, kind, "at")
        }
        "report" => {
            need_u64(doc, kind, "item")?;
            for key in ["requests", "cache_hits", "transfers", "deferred"] {
                need_u64(doc, kind, key)?;
            }
            for key in ["online_cost", "caching_cost", "transfer_cost"] {
                need_f64(doc, kind, key)?;
            }
            Ok(())
        }
        "stats" => {
            for key in [
                "requests",
                "cache_hits",
                "transfers",
                "deferred",
                "replayed",
                "sheds",
                "expirations",
                "items_live",
                "items_peak",
                "copies_live",
                "copies_peak",
                "items_finished",
            ] {
                need_u64(doc, kind, key)?;
            }
            need_f64(doc, kind, "finished_cost")
        }
        "metrics" => doc
            .get("metrics")
            .map(mcc_obs::snapshot::validate)
            .unwrap_or_else(|| Err("metrics.metrics missing".into())),
        "error" => doc
            .get("detail")
            .and_then(Json::as_str)
            .map(|_| ())
            .ok_or_else(|| "error.detail must be a string".into()),
        "bye" => Ok(()),
        other => Err(format!("unknown kind {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_model::ServerId;

    #[test]
    fn parses_every_op() {
        assert_eq!(
            parse_request(r#"{"op":"req","item":7,"server":2,"t":1.5}"#).unwrap(),
            WireRequest::Req {
                item: 7,
                server: 2,
                t: Some(1.5)
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"req","item":7,"server":2}"#).unwrap(),
            WireRequest::Req {
                item: 7,
                server: 2,
                t: None
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"finish","item":7}"#).unwrap(),
            WireRequest::Finish { item: 7 }
        );
        assert_eq!(
            parse_request(r#"{"op":"stats"}"#).unwrap(),
            WireRequest::Stats
        );
        assert_eq!(
            parse_request(r#"{"op":"metrics"}"#).unwrap(),
            WireRequest::Metrics
        );
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            WireRequest::Shutdown
        );
    }

    #[test]
    fn request_lines_round_trip_through_the_parser() {
        let reqs = [
            WireRequest::Req {
                item: 7,
                server: 2,
                t: Some(1.5),
            },
            WireRequest::Req {
                item: 7,
                server: 2,
                t: None,
            },
            WireRequest::Finish { item: 7 },
            WireRequest::Stats,
            WireRequest::Metrics,
            WireRequest::Shutdown,
        ];
        for req in &reqs {
            let line = request_line(req).to_string_compact();
            assert_eq!(parse_request(&line).as_ref(), Ok(req), "{line}");
        }
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "",
            "not json",
            r#"{"item":1}"#,
            r#"{"op":"warp"}"#,
            r#"{"op":"req","item":-1,"server":0}"#,
            r#"{"op":"req","item":1}"#,
            r#"{"op":"req","item":1,"server":0,"t":-2.0}"#,
            r#"{"op":"req","item":1,"server":0,"t":"soon"}"#,
            r#"{"op":"finish"}"#,
        ] {
            assert!(parse_request(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn echoed_input_is_cut_to_a_bounded_prefix() {
        let long = format!(r#"{{"op":"{}"}}"#, "a".repeat(400_000));
        let t0 = std::time::Instant::now();
        let err = parse_request(&long).unwrap_err();
        assert!(t0.elapsed().as_secs_f64() < 2.0, "{:?}", t0.elapsed());
        assert_eq!(err, format!("unknown op {:?}", "a".repeat(64) + "…"));
        // The cut backs off to a char boundary (✓ is 3 bytes: 21 fit).
        let wide = format!(r#"{{"op":"{}"}}"#, "✓".repeat(100));
        let err = parse_request(&wide).unwrap_err();
        assert_eq!(err, format!("unknown op {:?}", "✓".repeat(21) + "…"));
        assert_eq!(echo(&"b".repeat(64)), "b".repeat(64));
    }

    #[test]
    fn direct_text_is_the_compact_rendering_of_the_tree() {
        use mcc_core::online::ServeAction;
        let responses = [
            Response::Decision(ServeDecision {
                item: u64::MAX,
                t: 1e21,
                server: ServerId(u32::MAX),
                action: ServeAction::Transfer { from: ServerId(0) },
                latency_ns: 0,
            }),
            Response::Decision(ServeDecision {
                item: 0,
                t: 3.0,
                server: ServerId(1),
                action: ServeAction::Deferred,
                latency_ns: u64::MAX,
            }),
            Response::Shed {
                item: 5,
                reason: ShedReason::BadServer,
            },
            Response::Replayed(ReplayNote {
                item: 1,
                server: ServerId(2),
                t: 1e-7,
                at: 0.1 + 0.2,
            }),
            Response::Stats(EngineStats {
                finished_cost: 123456789.0,
                ..EngineStats::default()
            }),
            Response::Metrics(Json::Obj(vec![(
                "a\"b".into(),
                Json::Arr(vec![Json::Null, Json::Float(2.0), Json::Int(-3)]),
            )])),
            Response::Error("quote \" slash \\ nl \n cr \r tab \t nul \u{0} bell \u{7} ü ✓"),
            Response::Bye,
        ];
        for r in &responses {
            let mut text = String::new();
            r.write_line(&mut text);
            assert_eq!(text, r.to_json().to_string_compact() + "\n");
        }
    }

    #[test]
    fn responses_validate_and_reject_mutations() {
        use mcc_core::online::ServeAction;
        let d = ServeDecision {
            item: 3,
            t: 1.25,
            server: ServerId(1),
            action: ServeAction::Transfer { from: ServerId(0) },
            latency_ns: 420,
        };
        let docs = [
            decision_response(&d),
            shed_response(9, ShedReason::MaxItems),
            replayed_response(&ReplayNote {
                item: 3,
                server: ServerId(1),
                t: 1.25,
                at: 2.5,
            }),
            report_response(&ItemReport {
                item: 3,
                requests: 4,
                cache_hits: 1,
                transfers: 2,
                deferred: 0,
                online_cost: 3.5,
                caching_cost: 1.5,
                transfer_cost: 2.0,
            }),
            stats_response(&EngineStats::default()),
            error_response("bad json: truncated"),
            bye_response(),
        ];
        for doc in &docs {
            validate_response(doc).unwrap();
            // Round-trips through text.
            let reparsed = Json::parse(&doc.to_string_compact()).unwrap();
            validate_response(&reparsed).unwrap();
            // Dropping the schema tag must fail.
            let mut broken = reparsed;
            if let Json::Obj(fields) = &mut broken {
                fields.retain(|(k, _)| k != "schema");
            }
            assert!(validate_response(&broken).is_err());
        }
        // A transfer decision without its source is malformed.
        let mut doc = decision_response(&d);
        if let Json::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "from");
        }
        assert!(validate_response(&doc).is_err());
    }
}
