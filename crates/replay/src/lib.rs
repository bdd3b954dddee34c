//! `bp-replay`: workload trace capture, deterministic replay, and
//! statistics-driven synthesis.
//!
//! Three pillars on top of the testbed core:
//!
//! 1. **capture** ([`recorder`]) — a sharded, generation-time recorder that
//!    snapshots a run's full request schedule into a versioned,
//!    self-describing [`Artifact`];
//! 2. **deterministic replay** ([`source`]) — a `ScheduleSource` feeding
//!    the recorded schedule back through the unchanged executor, with
//!    as-recorded / time-warp / asap timing and a replayed-vs-recorded
//!    [`DivergenceReport`];
//! 3. **synthesis** ([`synth`]) — fit per-phase rates, mixtures, arrival
//!    processes and tenant shares from a capture and emit a compressed
//!    `PhaseScript` that statistically matches the original.
//!
//! [`start_recorded`] / [`start_replay`] are the orchestration entry
//! points used by the harness and the game; [`ReplaySurface`] serves them
//! over the control API (`GET /record`, `POST /replay`,
//! `GET /replay/status`), mounted on a `bp_api::ApiServer`.

pub mod artifact;
pub mod divergence;
pub mod recorder;
pub mod source;
pub mod surface;
pub mod synth;

use std::sync::Arc;

use bp_core::{Controller, RunConfig, RunHandle, Trace, Workload};
use bp_obs::MetricsRegistry;
use bp_storage::Database;
use bp_util::json::Json;

pub use artifact::{Artifact, ARTIFACT_VERSION};
pub use divergence::DivergenceReport;
pub use recorder::{Recorder, RecordingSource, ScheduleRecord};
pub use source::{ReplayProgress, ReplaySource, ReplayTiming};
pub use surface::ReplaySurface;
pub use synth::{fit, fit_schedule, synthesize, PhaseStats, TraceStats};

/// Start a run exactly like `bp_core::start`, with every generated request
/// captured into the returned [`Recorder`]. Snapshot it after the run joins
/// and pass it to [`capture_artifact`].
pub fn start_recorded(
    db: Arc<Database>,
    workload: Arc<dyn Workload>,
    cfg: RunConfig,
) -> (RunHandle, Arc<Recorder>) {
    let recorder = Arc::new(Recorder::new());
    let source = bp_core::ScriptSchedule::new(cfg.script.clone(), cfg.unlimited_rate, cfg.seed);
    let recording = RecordingSource::new(source, recorder.clone(), cfg.tenant);
    let clock = db.clock().clone();
    let handle = bp_core::start_with_source(db, workload, clock, cfg, Box::new(recording));
    (handle, recorder)
}

/// Assemble the self-describing artifact for a finished recorded run.
pub fn capture_artifact(
    cfg: &RunConfig,
    workload: &dyn Workload,
    personality: &str,
    recorder: &Recorder,
    trace: Option<&Trace>,
) -> Artifact {
    Artifact {
        version: ARTIFACT_VERSION,
        workload: workload.name().to_string(),
        personality: personality.to_string(),
        seed: cfg.seed,
        terminals: cfg.terminals,
        tenant: cfg.tenant,
        unlimited_rate: cfg.unlimited_rate,
        types: workload.transaction_types().iter().map(|t| t.name.to_string()).collect(),
        script: cfg.script.clone(),
        schedule: recorder.snapshot(),
        trace: trace.map(|t| t.records()).unwrap_or_default(),
    }
}

/// A live (or finished) replay: the run's controller plus everything needed
/// to report progress and judge divergence.
pub struct ReplaySession {
    pub controller: Controller,
    pub progress: Arc<ReplayProgress>,
    /// The recorded baseline trace from the artifact.
    pub recorded: Arc<Trace>,
    /// The replay's own outcome trace, filling while it runs.
    pub replayed: Option<Arc<Trace>>,
    pub workload: String,
    pub num_types: usize,
    pub timing: ReplayTiming,
}

impl ReplaySession {
    /// True once the schedule is fully fed and the run has stopped.
    pub fn is_complete(&self) -> bool {
        self.progress.is_done() && self.controller.is_stopped()
    }

    /// Replayed-vs-recorded comparison; available once the replay is
    /// complete (and the recording carried a baseline trace). Also deposits
    /// the composite score into the progress gauge for `/metrics`.
    pub fn divergence(&self) -> Option<DivergenceReport> {
        if !self.is_complete() || self.recorded.is_empty() {
            return None;
        }
        let replayed = self.replayed.as_ref()?;
        let report =
            DivergenceReport::compare(&self.recorded, replayed, self.num_types, self.timing.speed());
        self.progress.set_divergence_score(report.score);
        Some(report)
    }

    /// The `/replay/status` payload.
    pub fn status_json(&self) -> Json {
        let mut status = Json::obj()
            .set("workload", self.workload.as_str())
            .set("mode", self.timing.mode_name())
            .set("warp", if self.timing.speed().is_finite() { self.timing.speed() } else { 0.0 })
            .set("total", self.progress.total())
            .set("fed", self.progress.fed())
            .set("max_lag_us", self.progress.max_lag_us())
            .set("done", self.progress.is_done())
            .set("stopped", self.controller.is_stopped())
            .set("complete", self.is_complete());
        status = match self.divergence() {
            Some(d) => status.set("divergence", divergence_json(&d)),
            None => status.set("divergence", Json::Null),
        };
        status
    }

    /// Register the replay's `bp_replay_*` gauges plus the underlying run's
    /// own sources on a metrics registry.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        registry.register("replay", self.progress.clone());
        self.controller.register_metrics(registry);
    }
}

/// The `divergence` object inside `/replay/status`.
pub fn divergence_json(d: &DivergenceReport) -> Json {
    Json::obj()
        .set("score", d.score)
        .set("recorded_requests", d.recorded_requests)
        .set("replayed_requests", d.replayed_requests)
        .set(
            "throughput_mae",
            if d.throughput_mae.is_finite() { Json::Num(d.throughput_mae) } else { Json::Null },
        )
        .set("max_type_share_diff", d.max_type_share_diff)
        .set("recorded_p95_us", d.recorded_latency_us[1])
        .set("replayed_p95_us", d.replayed_latency_us[1])
}

/// A started replay: keep `handle` to join it (tests, harness) or drop it
/// to let it run detached behind the session (HTTP API).
pub struct ReplayRun {
    pub handle: RunHandle,
    pub session: ReplaySession,
}

/// Start replaying a captured artifact against an already-loaded database.
///
/// The workload must match the artifact's transaction-type list. Artifacts
/// with a recorded schedule replay it verbatim through a [`ReplaySource`];
/// script-only artifacts (e.g. saved game scenarios) regenerate the
/// schedule live from the recorded seed — deterministically the same
/// schedule the original run generated.
pub fn start_replay(
    db: Arc<Database>,
    workload: Arc<dyn Workload>,
    artifact: &Artifact,
    timing: ReplayTiming,
) -> Result<ReplayRun, String> {
    let types = workload.transaction_types();
    if types.len() != artifact.types.len() {
        return Err(format!(
            "artifact declares {} transaction types but workload '{}' has {}",
            artifact.types.len(),
            workload.name(),
            types.len()
        ));
    }
    for (i, (have, want)) in types.iter().zip(&artifact.types).enumerate() {
        if have.name != want {
            return Err(format!(
                "transaction type {i} mismatch: artifact '{want}' vs workload '{}'",
                have.name
            ));
        }
    }

    let cfg = RunConfig {
        terminals: artifact.terminals.max(1),
        script: artifact.script.clone(),
        seed: artifact.seed,
        collect_trace: true,
        unlimited_rate: artifact.unlimited_rate,
        tenant: artifact.tenant,
        ..Default::default()
    };

    let (handle, progress) = if artifact.schedule.is_empty() {
        if timing == ReplayTiming::Asap {
            return Err("asap replay needs a recorded schedule".to_string());
        }
        // Script-only: regenerate from the recorded seed. Warp compresses
        // the script itself (durations ÷k, rates ×k).
        let speed = timing.speed();
        let mut cfg = cfg;
        if speed != 1.0 {
            for p in &mut cfg.script.phases {
                p.duration_s /= speed;
                if let bp_core::Rate::Limited(tps) = &mut p.rate {
                    *tps *= speed;
                }
            }
        }
        let handle = bp_core::start(db, workload, cfg);
        // Nothing to feed: the schedule regenerates inside the executor, so
        // completion is just the run stopping.
        let progress = ReplayProgress::new(0);
        progress.mark_done();
        (handle, progress)
    } else {
        let source =
            ReplaySource::new(artifact.schedule.clone(), artifact.script.clone(), timing);
        let progress = source.progress();
        let clock = db.clock().clone();
        let handle = bp_core::start_with_source(db, workload, clock, cfg, Box::new(source));
        (handle, progress)
    };

    let session = ReplaySession {
        controller: handle.controller.clone(),
        progress,
        recorded: Arc::new(artifact.recorded_trace()),
        replayed: handle.trace.clone(),
        workload: artifact.workload.clone(),
        num_types: types.len(),
        timing,
    };
    Ok(ReplayRun { handle, session })
}
