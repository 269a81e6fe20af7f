//! Golden-file pin of the `serve/1` wire schema.
//!
//! `data/serve1_golden.jsonl` holds one committed response line per
//! response kind (plus a request line per op in the paired requests
//! file). The test re-renders the same responses from the typed
//! builders and asserts byte equality — so any accidental change to
//! field names, field order, or number formatting shows up as a diff
//! against a reviewed file, not as a silent wire break.

use mcc_core::online::ServeAction;
use mcc_model::{Json, ServerId};
use mcc_obs::Sink as _;
use mcc_serve::engine::{EngineStats, ItemReport, ReplayNote, ServeDecision};
use mcc_serve::wire::{
    bye_response, decision_response, error_response, metrics_response, parse_request,
    replayed_response, report_response, shed_response, stats_response, validate_response, Response,
    WireRequest,
};
use mcc_serve::ShedReason;

const GOLDEN_RESPONSES: &str = include_str!("data/serve1_golden.jsonl");
const GOLDEN_REQUESTS: &str = include_str!("data/serve1_requests.jsonl");

/// The canonical example responses, one per kind, in golden-file order.
fn canonical() -> Vec<Response<'static>> {
    let cache = ServeDecision {
        item: 1,
        t: 0.5,
        server: ServerId(2),
        action: ServeAction::Cache,
        latency_ns: 850,
    };
    let transfer = ServeDecision {
        item: 1,
        t: 0.8,
        server: ServerId(3),
        action: ServeAction::Transfer { from: ServerId(2) },
        latency_ns: 1200,
    };
    let deferred = ServeDecision {
        item: 2,
        t: 1.25,
        server: ServerId(0),
        action: ServeAction::Deferred,
        latency_ns: 640,
    };
    let reg = mcc_obs::Registry::new();
    reg.add(mcc_obs::Counter::ServeRequests, 3);
    reg.observe(mcc_obs::Hist::ServeDecisionNanos, 850);
    vec![
        Response::Decision(cache),
        Response::Decision(transfer),
        Response::Decision(deferred),
        Response::Shed {
            item: 99,
            reason: ShedReason::MaxItems,
        },
        Response::Shed {
            item: 1,
            reason: ShedReason::TimeRegression,
        },
        Response::Replayed(ReplayNote {
            item: 2,
            server: ServerId(0),
            t: 1.25,
            at: 2.5,
        }),
        Response::Report(ItemReport {
            item: 1,
            requests: 7,
            cache_hits: 3,
            transfers: 2,
            deferred: 0,
            online_cost: 8.9,
            caching_cost: 5.4,
            transfer_cost: 3.5,
        }),
        Response::Stats(EngineStats {
            requests: 7,
            cache_hits: 3,
            transfers: 2,
            deferred: 1,
            replayed: 1,
            sheds: 2,
            expirations: 4,
            items_live: 1,
            items_peak: 2,
            copies_live: 2,
            copies_peak: 3,
            items_finished: 1,
            finished_cost: 8.9,
        }),
        Response::Metrics(reg.snapshot().to_json()),
        Response::Error("bad json: truncated"),
        Response::Bye,
    ]
}

/// The canonical responses rendered through the typed builders.
fn canonical_responses() -> Vec<Json> {
    canonical()
        .into_iter()
        .map(|r| match r {
            Response::Decision(d) => decision_response(&d),
            Response::Shed { item, reason } => shed_response(item, reason),
            Response::Replayed(n) => replayed_response(&n),
            Response::Report(r) => report_response(&r),
            Response::Stats(s) => stats_response(&s),
            Response::Metrics(doc) => metrics_response(doc),
            Response::Error(detail) => error_response(detail),
            Response::Bye => bye_response(),
        })
        .collect()
}

/// Rewrites the golden responses file from the builders. Run explicitly
/// after an *intentional* schema change (then review the diff):
/// `cargo test -p mcc-serve --test wire_golden -- --ignored regenerate`
#[test]
#[ignore = "writes into the source tree; run explicitly to regenerate"]
fn regenerate_golden_responses() {
    let body: String = canonical_responses()
        .iter()
        .map(|d| d.to_string_compact() + "\n")
        .collect();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/serve1_golden.jsonl"
    );
    std::fs::write(path, body).expect("write golden file");
}

#[test]
fn golden_responses_match_the_builders_byte_for_byte() {
    let golden: Vec<&str> = GOLDEN_RESPONSES
        .lines()
        .filter(|l| !l.trim().is_empty())
        .collect();
    let built = canonical_responses();
    assert_eq!(
        golden.len(),
        built.len(),
        "golden file must hold one line per canonical response"
    );
    for (line, doc) in golden.iter().zip(&built) {
        assert_eq!(
            *line,
            doc.to_string_compact(),
            "golden line drifted from the builder output"
        );
    }
}

#[test]
fn golden_responses_match_the_direct_renderer_byte_for_byte() {
    // The daemon renders responses straight into its output buffer; that
    // text must be the golden bytes too, newline included.
    let mut text = String::new();
    for r in canonical() {
        r.write_line(&mut text);
    }
    let golden: String = GOLDEN_RESPONSES
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(text, golden);
}

#[test]
fn golden_responses_parse_validate_and_round_trip() {
    let mut kinds = Vec::new();
    for line in GOLDEN_RESPONSES.lines().filter(|l| !l.trim().is_empty()) {
        let doc = Json::parse(line).expect("golden line parses");
        validate_response(&doc).expect("golden line validates");
        // Text round-trip is the identity on the committed form.
        let rendered = doc.to_string_compact();
        let reparsed = Json::parse(&rendered).expect("re-parse");
        assert_eq!(reparsed, doc);
        assert_eq!(rendered, line);
        kinds.push(
            doc.get("kind")
                .and_then(Json::as_str)
                .expect("kind")
                .to_string(),
        );
    }
    // Every response kind in the schema is pinned at least once.
    for kind in [
        "decision", "shed", "replayed", "report", "stats", "metrics", "error", "bye",
    ] {
        assert!(kinds.iter().any(|k| k == kind), "kind {kind} not pinned");
    }
}

#[test]
fn golden_requests_parse_to_the_documented_ops() {
    let parsed: Vec<WireRequest> = GOLDEN_REQUESTS
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| parse_request(l).expect("golden request parses"))
        .collect();
    assert_eq!(
        parsed,
        vec![
            WireRequest::Req {
                item: 1,
                server: 2,
                t: Some(0.5)
            },
            WireRequest::Req {
                item: 1,
                server: 3,
                t: None
            },
            WireRequest::Finish { item: 1 },
            WireRequest::Stats,
            WireRequest::Metrics,
            WireRequest::Shutdown,
        ]
    );
}
