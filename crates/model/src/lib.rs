//! # mcc-model — problem model for cost-driven mobile-cloud data caching
//!
//! This crate is the shared substrate of the `mobile-cloud-cache` workspace,
//! a reproduction of *“Data Caching in Next Generation Mobile Cloud
//! Services, Online vs. Off-line”* (Wang et al., ICPP 2017). It defines:
//!
//! * [`Scalar`] — generic time/cost numerics ([`f64`] for speed, [`Fixed`]
//!   for exact cross-solver equality testing);
//! * [`Instance`] — the validated problem input: `m` fully connected
//!   servers, a homogeneous [`CostModel`] `(μ, λ)`, and a strictly
//!   time-ordered request sequence with the paper's `r_0 = (s^1, 0)`
//!   boundary convention;
//! * [`Prescan`] — the shared `p(i)/σ_i/b_i/B_i` pre-computation
//!   (Definitions 4–5);
//! * [`Schedule`] — cache intervals `H(s, x, y)` plus transfers
//!   `Tr(src, dst, t)`, with cost evaluation `Π(Ψ)`;
//! * [`validate()`] — an independent referee that re-checks feasibility and
//!   re-derives cost for any schedule, so solvers cannot self-certify;
//! * [`SpaceTimeGraph`] — the analysis graph of Definition 2.
//!
//! Solvers live in `mcc-core`; workload generators in `mcc-workloads`; the
//! batch run pipeline in `mcc-simnet`; the live daemon in `mcc-serve`.

#![forbid(unsafe_code)]
// `!(a > b)` is used deliberately where NaN must be rejected alongside
// ordinary failures; `a <= b` would silently accept NaN.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod builder;
pub mod cost;
pub mod error;
pub mod ids;
pub mod instance;
pub mod json;
pub mod prescan;
pub mod request;
pub mod scalar;
pub mod schedule;
pub mod spacetime;
pub mod standard_form;
pub mod validate;

pub use builder::{unit_instance, InstanceBuilder};
pub use cost::CostModel;
pub use error::{ModelError, Violation};
pub use ids::ServerId;
pub use instance::{Instance, InstanceBuf};
pub use json::{Json, JsonAtom, JsonScalar, MAX_JSON_DEPTH};
pub use prescan::{Prescan, PrescanBatch, ServerLists};
pub use request::Request;
pub use scalar::{tol_band, Fixed, Scalar, FIXED_SCALE};
pub use schedule::{CacheInterval, Schedule, Transfer};
pub use spacetime::{Edge, EdgeKind, SpaceTimeGraph, Vertex};
pub use standard_form::{
    is_standard_form, standard_form_defects, sub_schedule, truncate_instance, NonStandard,
};
pub use validate::{validate, validate_with, ValidateOptions, ValidatedCost};
