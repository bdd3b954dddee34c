//! Observability substrate: per-request lifecycle spans and a unified
//! metrics registry (§2.1, §4.2 of the paper describe the visibility loop
//! this crate closes).
//!
//! Two pieces:
//!
//! * [`SpanRecorder`] — a "flight recorder" for request lifecycles. Each
//!   worker writes fixed-size [`Span`] values into its own shard's ring,
//!   fully preallocated at startup: the hot
//!   path never allocates, never contends with other recording workers,
//!   and old spans are silently overwritten once a ring fills. Recording
//!   can be disabled (`off`), probabilistically sampled (`sampled`), or
//!   exhaustive (`full`) per run via [`ObsConfig`].
//! * [`MetricsRegistry`] — one snapshot API over every metrics silo in the
//!   system (client-side statistics, storage-engine counters, control-loop
//!   status, span stage histograms). Sources implement
//!   [`MetricsSource`]; the registry renders the union in Prometheus text
//!   exposition format for `GET /metrics`, and [`parse_samples`] reads
//!   that text back exactly — the one codec every exposition reader uses.
//!
//! The black-box layer on top:
//!
//! * [`EventJournal`] — one bounded ring of structured control-plane
//!   [`Event`]s (phase changes, SLO decisions, chaos arms, breaker trips,
//!   deadlock victims, WAL rotations…), behind a <5ns disarmed gate.
//! * [`TelemetryRecorder`] — a background sampler that snapshots the
//!   run's vitals every tick and exports a versioned `#bp-report v2`
//!   timeline aligned with the journal.
//! * [`doctor`] — a pure analysis pass over a [`Report`] that names the
//!   dominant bottleneck per window with evidence and a causal event.
//!
//! This crate depends only on `bp-util` so every other layer (core,
//! storage, api) can depend on it without cycles.

pub mod doctor;
pub mod journal;
pub mod recorder;
pub mod registry;
pub mod span;

pub use doctor::{diagnose, Bottleneck, Finding};
pub use journal::{Event, EventJournal, Severity};
pub use recorder::{Report, TelemetryRecorder, TelemetrySample};
pub use registry::{
    escape_label_value, merge_samples, parse_samples, render_samples, Exemplar, MetricValue,
    MetricsBuf, MetricsRegistry, MetricsSource, Sample, BUCKETS, LATENCY_BOUNDS_US,
};
pub use span::{
    add_commit_us, add_lock_wait_us, current_trace, format_stage_line, format_trace_id,
    parse_trace_id, set_current_trace, take_stage_acc, trace_id, ObsConfig, RetainReason, Span,
    SpanMode, SpanOutcome, SpanRecorder, Stage, StageSummary,
};
