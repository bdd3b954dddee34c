//! `bp-core`: the OLTP-Bench testbed core — the paper's primary
//! contribution.
//!
//! Implements the client-side architecture of Fig. 1: the centralized
//! Workload Manager with precise [`rate`] control over a central
//! [`queue`], runtime [`mixture`] control, multi-phase scripts, worker
//! terminals ([`executor`]), statistics collection ([`stats`]), result
//! traces and the Trace Analyzer ([`trace`]), the runtime [`controller`]
//! behind the REST API (several runs on one database are the multi-tenant
//! testbed), `config.xml` parsing ([`config`]), and the same driver in
//! virtual time ([`virtual_run`], serving each request on the engine with a
//! DBMS's personality) for shape experiments and the game.

pub mod config;
pub mod controller;
pub mod executor;
pub mod mixture;
pub mod queue;
pub mod rate;
pub mod schedule;
pub mod slo;
pub mod stats;
pub mod trace;
pub mod virtual_run;
pub mod workload;

pub use bp_chaos::{Admission, BreakerState, CircuitBreaker};
pub use config::WorkloadConfig;
pub use controller::{ControlState, Controller};
pub use executor::{start, start_with_source, RunConfig, RunHandle};
pub use mixture::{Mixture, MixtureError, MixturePreset};
pub use queue::{Request, RequestQueue, ScheduledRequest};
pub use rate::{ArrivalDist, Phase, PhaseScript, Rate};
pub use schedule::{ScheduleSource, ScriptSchedule, Window};
pub use slo::{Adjustment, SloConfig, SloCore, SloDecision, SloHandle, SloStatus, SloTarget};
pub use stats::{
    RequestOutcome, Sample, StatsCollector, StatusSnapshot, TypeSummary, WindowSnapshot,
};
pub use trace::{Trace, TraceAnalysis, TraceAnalyzer, TraceRecord, TrackingReport, TRACE_HEADER};
pub use virtual_run::VirtualRun;
pub use workload::{BenchmarkClass, LoadSummary, TransactionType, TxnOutcome, Workload};
