//! # mcc-core — the paper's algorithms
//!
//! Reproduction of the two contributions of *“Data Caching in Next
//! Generation Mobile Cloud Services, Online vs. Off-line”* (Wang et al.,
//! ICPP 2017):
//!
//! * [`offline`] — the optimal O(mn) dynamic program for serving a known
//!   request sequence with minimum caching + transfer cost (Section IV),
//!   plus reference solvers and schedule reconstruction;
//! * [`online`] — the 3-competitive *Speculative Caching* algorithm
//!   (Section V), its Double-Transfer analysis transformation, the V-/H-
//!   reductions, and online baseline policies;
//! * [`hetero`] — the heterogeneous-cost extension (the paper's
//!   future-work direction), with honestly restricted guarantees;
//! * [`keyed_heap`] — the indexed min-heap the fleet's capacity sweep and
//!   the serve engine's timers share.

#![forbid(unsafe_code)]
// `!(a > b)` is used deliberately where NaN must be rejected alongside
// ordinary failures; `a <= b` would silently accept NaN.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod hetero;
pub mod keyed_heap;
pub mod offline;
pub mod online;
