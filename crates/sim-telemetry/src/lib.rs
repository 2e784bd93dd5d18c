//! Hermetic observability substrate for the Aegis simulator stack.
//!
//! Zero external dependencies (the workspace builds `--offline`); four
//! small pieces that compose into per-run telemetry:
//!
//! - [`Registry`] — named atomic [`Counter`]s and log₂-scale
//!   [`Histogram`]s, ~free when disabled (handles become no-ops and no
//!   per-metric state is ever allocated);
//! - [`Event`] — a JSONL event stream in the same hand-rolled JSON style
//!   as `sim_rng::bench`, deterministic by construction (no wall-clock
//!   data), plus a parser for reports and round-trip tests;
//! - [`RunManifest`] — the reproducibility sidecar (seed and run options,
//!   git describe, per-phase wall-clock durations);
//! - [`RunTelemetry`] — the per-run front door: create, hand
//!   [`RunTelemetry::registry`] down the stack, wrap phases in
//!   [`RunTelemetry::span`], then [`RunTelemetry::finish`].
//!
//! Metric names follow `layer.scheme.metric` (see [`metric_name`] /
//! [`split_metric`] and DESIGN.md § Observability).
//!
//! On top of the deterministic stream sit two volatile (wall-clock)
//! layers, kept in a separate `<run-id>.trace.jsonl` sidecar so they can
//! never perturb the byte-identity contract: [`Tracer`] — hierarchical
//! spans with parent links collected into bounded, drop-counted
//! per-worker rings — and [`profile`] — span trees with self/total
//! times plus collapsed-stack and Chrome `trace_event` exporters.
//!
//! A third layer adds time-series and live observability:
//! [`SeriesWriter`] emits periodic metric snapshots keyed by pages
//! evaluated (deterministic per seed; volatile metrics tagged for
//! [`strip_volatile`]) into a `<run-id>.series.jsonl` sidecar — see
//! [`series`] — and [`StatusWriter`] heartbeats run liveness (phase,
//! progress, ETA, worker busy fraction) into an atomically-rewritten
//! `<run-id>.status.json` for `experiments monitor` — see [`status`].
//!
//! The statistical layer on top of both: [`estimate`] carries streaming
//! moment accumulators ([`Moments`]) and confidence intervals
//! (normal-approximation and [`wilson_interval`]) per
//! `(scheme, block_bits, metric)`, snapshotted at unit barriers into the
//! series sidecar and status heartbeats, and driving `--target-rse`
//! deterministic early stopping (DESIGN.md §15).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod estimate;
pub mod json;
pub mod manifest;
pub mod profile;
pub mod registry;
pub mod run;
pub mod series;
pub mod sink;
pub mod status;
pub mod trace;

pub use estimate::{
    wilson_interval, Convergence, Moments, UnitEstimate, DISPLAY_TARGET_RSE, MIN_SAMPLES, Z95,
};
pub use json::{escape, Json, JsonError};
pub use manifest::{git_describe, unix_millis, RunManifest};
pub use profile::{chrome_trace, collapsed_stack, NameStats, ProfileNode, SpanTree};
pub use registry::{
    bucket_index, metric_name, split_metric, Counter, Histogram, HistogramSnapshot, Registry,
    HISTOGRAM_BUCKETS,
};
pub use run::{RunTelemetry, Span};
pub use series::{SeriesCursor, SeriesWriter};
pub use sink::{strip_volatile, Event, SharedBuf};
pub use status::{EstimateStatus, RunState, StatusRecord, StatusWriter, DEFAULT_STATUS_INTERVAL};
pub use trace::{
    PoolPhase, PoolWorkerUtil, TraceLog, TraceRecord, TraceSpan, Tracer, WorkerLog,
    WorkerSpanHandle, WorkerTracer, DEFAULT_TRACE_CAPACITY,
};
