//! Observability for the RecSSD stack.
//!
//! Two orthogonal facilities, both designed around the discrete-event
//! simulator's virtual clock:
//!
//! * [`trace`] — causally-linked **sim-time spans** (request → sub-batch →
//!   device op → firmware charge / flash read / accumulate / merge). A
//!   [`Tracer`] is zero-cost when disabled: every emission method is an
//!   inline `None` check, no allocation, no time perturbation, so a
//!   disabled-tracing run is bit-identical to an untraced build (the
//!   alloc-free guards in `crates/core` enforce the "no allocation" half).
//! * [`profile`] — **wall-clock self-profiling** of the simulator itself
//!   (event dispatch vs device stepping vs harvest/accumulate).
//!
//! [`chrome`] exports recorded spans as Chrome-trace/Perfetto JSON and
//! validates the span invariants (parent links resolve, children nest
//! within parents, request spans are covered by their children).
//!
//! On top of the raw telemetry sit two **analysis** layers — pure
//! observers over recorded spans, so they can run mid-run or after the
//! drain and never perturb the simulation:
//!
//! * [`analysis`] — per-request **critical-path extraction** (e2e
//!   latency split into named phases from each request's own windows,
//!   summing exactly to it) and the **bottleneck ranking** of measured
//!   server utilisation.
//! * [`timeline`] — per-resource busy/idle/wait
//!   [`UtilizationTimeline`]s over sim-time windows, with queueing
//!   stats whose totals satisfy `L = λ·W` as an identity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod chrome;
pub mod profile;
pub mod timeline;
pub mod trace;

pub use analysis::{
    bottleneck_report, critical_path_report, request_critical_paths, BottleneckReport,
    CriticalPathReport, LatSummary, PathProfile, Phase, RequestProfile, ResourceUse,
};
pub use chrome::{chrome_trace_json, validate_spans, TraceCheck};
pub use profile::{WallPhase, WallPhaseReport, WallProfile};
pub use timeline::{utilization_timelines, ResourceKind, UtilWindow, UtilizationTimeline};
pub use trace::{SpanId, SpanRec, TraceSink, Tracer};
