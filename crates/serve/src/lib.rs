//! # mcc-serve — the real-time online-caching daemon
//!
//! Everything else in this workspace *replays* recorded request
//! sequences. This crate *serves* them: a long-lived engine accepts a
//! live stream of `(item, server, t)` requests and answers each one with
//! a placement decision — cache hit, transfer from a named source, or
//! deferral into an offline queue — in microseconds, through the same
//! incremental [`mcc_core::online::OnlineDecider`] API the batch
//! executor drives. Batch replay and real-time serving share one
//! decision core, and the differential property tests assert the two
//! produce **bit-identical** decisions and costs, crash plans included.
//!
//! The pieces:
//!
//! * [`ServeEngine`] — per-item policy instances behind a lazy-deletion
//!   expiration heap (a timer wheel with generation refresh tokens: a
//!   re-request extends a copy without a stale heap node evicting it),
//!   bounded-growth admission ([`ShedReason`]), and an offline queue
//!   that buffers requests while an injected
//!   [`mcc_core::online::FaultPlan`] holds a server down and replays
//!   them in arrival order on recovery.
//! * [`wire`] — the versioned `serve/1` JSONL request/decision schema
//!   with a [`wire::validate_response`] checker, mirroring `metrics/1`.
//! * [`daemon`] — transports: a stdin/stdout JSONL loop (testable over
//!   any `BufRead`/`Write`) and a blocking TCP listener, both pluggable
//!   onto a [`mcc_simnet::TimeSource`] for wall-clock or simulated
//!   event time.
//!
//! Serve inputs arrive from the network and the CLI, so this crate
//! carries the same no-panic bar as `mcc-simnet`/`mcc-cli`: fallible
//! paths return errors or typed sheds, never panics (enforced by the
//! unwrap/expect lints below, CI's grep, and `tests/no_panic_paths.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod daemon;
pub mod engine;
pub mod wire;

pub use daemon::{serve_lines, serve_tcp, DaemonOptions, DaemonSummary};
pub use engine::{
    EngineStats, ItemReport, ReplayNote, ServeConfig, ServeDecision, ServeEngine, ServeReply,
    ShedReason,
};
pub use wire::{parse_request, validate_response, Response, WireRequest};
