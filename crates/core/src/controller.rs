//! Runtime control state and the [`Controller`] handle (§2.2.4).
//!
//! The controller is the programmatic surface behind the REST API: throttle
//! the rate, swap the mixture, pause/resume the workers, read instantaneous
//! throughput and latency, and halt-and-reset (the game's crash semantics).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use bp_chaos::CircuitBreaker;
use bp_obs::{EventJournal, Severity, SpanRecorder};
use bp_util::sync::RwLock;
use bp_util::Periodic;

use bp_storage::Database;
use bp_util::clock::{Micros, SharedClock};

use crate::executor::RunConfig;
use crate::mixture::{Mixture, MixtureError, MixturePreset};
use crate::queue::RequestQueue;
use crate::rate::{ArrivalDist, Rate};
use crate::slo::{slo_tick, SloConfig, SloHandle};
use crate::stats::{StatsCollector, StatusSnapshot};
use crate::workload::{TransactionType, Workload};

/// Shared mutable control state read by the manager and workers.
pub struct ControlState {
    rate: RwLock<Rate>,
    arrival: RwLock<ArrivalDist>,
    mixture: RwLock<Arc<Mixture>>,
    paused: AtomicBool,
    stopped: AtomicBool,
    think_time_us: AtomicU64,
    /// Set when the API changed rate/mixture; cleared at phase transitions
    /// (API changes override *the current phase*, like OLTP-Bench).
    rate_override: AtomicBool,
    mixture_override: AtomicBool,
    phase_idx: AtomicUsize,
    pub unlimited_rate: f64,
    /// The run's event journal (phase transitions, rate/mixture changes).
    /// Wired by [`Controller::new`] from the database's journal.
    journal: RwLock<Option<Arc<EventJournal>>>,
}

impl ControlState {
    pub fn new(initial_rate: Rate, mixture: Mixture, unlimited_rate: f64) -> Arc<ControlState> {
        Arc::new(ControlState {
            rate: RwLock::new(initial_rate),
            arrival: RwLock::new(ArrivalDist::Uniform),
            mixture: RwLock::new(Arc::new(mixture)),
            paused: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            think_time_us: AtomicU64::new(0),
            rate_override: AtomicBool::new(false),
            mixture_override: AtomicBool::new(false),
            phase_idx: AtomicUsize::new(0),
            unlimited_rate,
            journal: RwLock::new(None),
        })
    }

    /// Attach the event journal (control-plane change events). Idempotent;
    /// called by [`Controller::new`] so every construction path is wired.
    pub fn set_journal(&self, journal: Arc<EventJournal>) {
        *self.journal.write() = Some(journal);
    }

    fn emit(
        &self,
        severity: Severity,
        kind: &'static str,
        make: impl FnOnce() -> (String, Vec<(&'static str, String)>),
    ) {
        if let Some(j) = self.journal.read().as_ref() {
            j.emit_with(severity, "core", kind, make);
        }
    }

    pub fn rate(&self) -> Rate {
        *self.rate.read()
    }

    pub fn arrival(&self) -> ArrivalDist {
        *self.arrival.read()
    }

    pub fn mixture(&self) -> Arc<Mixture> {
        self.mixture.read().clone()
    }

    pub fn is_paused(&self) -> bool {
        self.paused.load(Ordering::SeqCst)
    }

    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }

    pub fn think_time_us(&self) -> Micros {
        self.think_time_us.load(Ordering::Relaxed)
    }

    pub fn phase_idx(&self) -> usize {
        self.phase_idx.load(Ordering::Relaxed)
    }

    // -- manager-side (phase transitions) --

    /// Apply a phase's parameters unless an API override is active for the
    /// corresponding knob; `new_phase` clears overrides first.
    pub fn apply_phase(
        &self,
        idx: usize,
        rate: Rate,
        arrival: ArrivalDist,
        weights: Option<&[f64]>,
        think_time_us: Micros,
        new_phase: bool,
    ) {
        if new_phase {
            self.rate_override.store(false, Ordering::SeqCst);
            self.mixture_override.store(false, Ordering::SeqCst);
            self.phase_idx.store(idx, Ordering::Relaxed);
            self.think_time_us.store(think_time_us, Ordering::Relaxed);
            self.emit(Severity::Info, "phase_change", || {
                (
                    format!("phase {idx} started (rate {rate}, think {think_time_us}us)"),
                    vec![("phase", idx.to_string()), ("rate", rate.to_string())],
                )
            });
        }
        if !self.rate_override.load(Ordering::SeqCst) {
            *self.rate.write() = rate;
            *self.arrival.write() = arrival;
        }
        if !self.mixture_override.load(Ordering::SeqCst) {
            if let Some(w) = weights {
                if let Ok(m) = Mixture::new(w.to_vec()) {
                    *self.mixture.write() = Arc::new(m);
                }
            }
        }
    }

    // -- API-side --

    pub fn set_rate(&self, rate: Rate) {
        self.rate_override.store(true, Ordering::SeqCst);
        let before = {
            let mut r = self.rate.write();
            let before = *r;
            *r = rate;
            before
        };
        if before != rate {
            self.emit(Severity::Info, "rate_change", || {
                (
                    format!("offered rate changed: {before} -> {rate}"),
                    vec![("before", before.to_string()), ("after", rate.to_string())],
                )
            });
        }
    }

    pub fn set_mixture(&self, mixture: Mixture) {
        self.mixture_override.store(true, Ordering::SeqCst);
        let weights = format!("{:?}", mixture.weights());
        *self.mixture.write() = Arc::new(mixture);
        self.emit(Severity::Info, "mixture_change", || {
            (
                format!("transaction mixture changed to {weights}"),
                vec![("after", weights.replace(' ', ""))],
            )
        });
    }

    pub fn pause(&self) {
        self.paused.store(true, Ordering::SeqCst);
    }

    pub fn resume(&self) {
        self.paused.store(false, Ordering::SeqCst);
    }

    pub fn stop(&self) {
        self.stopped.store(true, Ordering::SeqCst);
    }
}

/// The public control handle for one running workload.
#[derive(Clone)]
pub struct Controller {
    state: Arc<ControlState>,
    queue: Arc<RequestQueue>,
    stats: Arc<StatsCollector>,
    db: Arc<Database>,
    types: Arc<Vec<TransactionType>>,
    workload_name: String,
    /// Node identity in a bp-cluster fleet ("local" outside one).
    node: String,
    spans: Arc<SpanRecorder>,
    breaker: Option<Arc<CircuitBreaker>>,
    recorder: Option<Arc<bp_obs::TelemetryRecorder>>,
    /// Persistent SLO-controller state, shared by all clones of this
    /// controller so API servers and the executor see one loop.
    slo: Arc<SloHandle>,
}

impl Controller {
    pub fn new(
        state: Arc<ControlState>,
        queue: Arc<RequestQueue>,
        stats: Arc<StatsCollector>,
        spans: Arc<SpanRecorder>,
        db: Arc<Database>,
        types: Vec<TransactionType>,
        workload_name: &str,
    ) -> Controller {
        state.set_journal(db.journal().clone());
        Controller {
            state,
            queue,
            stats,
            db,
            types: Arc::new(types),
            workload_name: workload_name.to_string(),
            node: "local".to_string(),
            spans,
            breaker: None,
            recorder: None,
            slo: Arc::new(SloHandle::new(workload_name)),
        }
    }

    /// A run's controller, the one way both drivers build a tenant: its own
    /// control state and queue (the first phase's rate, gate and mixture,
    /// the benchmark's default when the phase sets none), a collector and a
    /// span recorder with a shard per terminal, the spans on the database's
    /// journal, `cfg.node`, and a breaker when `cfg.breaker`.
    pub(crate) fn for_run(
        db: Arc<Database>,
        workload: &dyn Workload,
        clock: SharedClock,
        cfg: &RunConfig,
    ) -> Controller {
        let types = workload.transaction_types();
        let first = cfg.script.phases.first();
        let rate = first.map_or(Rate::Disabled, |p| p.rate);
        let weights = first.and_then(|p| p.weights.clone()).and_then(|w| Mixture::new(w).ok());
        let mixture = weights.unwrap_or_else(|| Mixture::default_of(&types));
        let state = ControlState::new(rate, mixture, cfg.unlimited_rate);
        let queue = Arc::new(RequestQueue::new(clock.clone()));
        queue.set_rate(rate.arrivals_per_second(cfg.unlimited_rate));
        let type_names: Vec<&str> = types.iter().map(|t| t.name).collect();
        let stats = Arc::new(StatsCollector::with_shards(clock, &type_names, cfg.terminals));
        let journal = db.journal().clone();
        let spans = Arc::new(SpanRecorder::with_writers(cfg.obs, cfg.terminals).with_journal(journal.clone()));
        stats.set_span_source(spans.clone());
        let name = workload.name();
        let breaker = cfg.breaker.then(|| Arc::new(CircuitBreaker::new(name).with_journal(journal)));
        let node = cfg.node.clone();
        Controller { node, breaker, ..Controller::new(state, queue, stats, spans, db, types, name) }
    }

    /// The cluster node this run belongs to ("local" outside a cluster).
    pub fn node_id(&self) -> &str {
        &self.node
    }

    /// The run's span recorder (`/trace`; `SpanMode::Off` records nothing).
    pub fn spans(&self) -> &Arc<SpanRecorder> {
        &self.spans
    }

    /// The run's admission controller, if one is configured.
    pub fn breaker(&self) -> Option<&Arc<CircuitBreaker>> {
        self.breaker.as_ref()
    }

    /// Attach the run's continuous telemetry recorder (builder-style; the
    /// executor does this so API surfaces can expose `/report`).
    pub fn with_recorder(mut self, recorder: Arc<bp_obs::TelemetryRecorder>) -> Controller {
        self.recorder = Some(recorder);
        self
    }

    /// The run's telemetry recorder, if continuous recording is wired up.
    pub fn recorder(&self) -> Option<&Arc<bp_obs::TelemetryRecorder>> {
        self.recorder.as_ref()
    }

    /// The run's structured event journal (owned by the database so the
    /// storage, chaos, and control layers all write into one ring).
    pub fn journal(&self) -> &Arc<bp_obs::EventJournal> {
        self.db.journal()
    }

    /// The database's chaos controller (fault-injection surface).
    pub fn chaos(&self) -> &Arc<bp_chaos::ChaosController> {
        self.db.chaos()
    }

    /// Register this workload's metrics silos with a unified registry:
    /// client-side statistics, the driver's request queue, the storage
    /// engine's server counters, chaos gate and recovery series (the
    /// database is their source), the span recorder's stage histograms and
    /// (when present) the breaker and telemetry recorder. Duplicate
    /// registration (e.g. two controllers sharing one database) is a no-op
    /// per source.
    pub fn register_metrics(&self, registry: &bp_obs::MetricsRegistry) {
        registry.register(
            &format!("stats:{}", self.workload_name),
            self.stats.clone(),
        );
        registry.register(&format!("queue:{}", self.workload_name), self.queue.clone());
        registry.register("server", self.db.metrics().clone());
        registry.register("chaos", self.db.chaos().clone());
        registry.register("recovery", self.db.clone());
        registry.register(&format!("spans:{}", self.workload_name), self.spans.clone());
        if let Some(breaker) = &self.breaker {
            registry.register(&format!("breaker:{}", self.workload_name), breaker.clone());
        }
        registry.register("journal", self.db.journal().clone());
        if let Some(recorder) = &self.recorder {
            registry.register(&format!("telemetry:{}", self.workload_name), recorder.clone());
        }
    }

    pub fn workload_name(&self) -> &str {
        &self.workload_name
    }

    pub fn transaction_types(&self) -> &[TransactionType] {
        &self.types
    }

    pub fn state(&self) -> &Arc<ControlState> {
        &self.state
    }

    pub fn stats(&self) -> &Arc<StatsCollector> {
        &self.stats
    }

    /// The run's request queue: the manager fills it, terminals pull from it.
    pub(crate) fn queue(&self) -> &Arc<RequestQueue> {
        &self.queue
    }

    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Throttle to a new target rate, effective immediately.
    pub fn set_rate(&self, rate: Rate) {
        self.state.set_rate(rate);
        self.queue
            .set_rate(rate.arrivals_per_second(self.state.unlimited_rate));
    }

    /// Replace the transaction mixture (validated against the benchmark).
    pub fn set_mixture(&self, weights: Vec<f64>) -> Result<(), MixtureError> {
        let m = Mixture::for_types(weights, &self.types)?;
        self.state.set_mixture(m);
        Ok(())
    }

    /// Apply one of the preset mixtures (Fig. 2d).
    pub fn set_preset(&self, preset: MixturePreset) {
        self.state.set_mixture(preset.build(&self.types));
    }

    /// Temporarily block all workers from executing requests (§4.1.2:
    /// pausing to change the workload parameters).
    pub fn pause(&self) {
        self.state.pause();
    }

    pub fn resume(&self) {
        self.state.resume();
    }

    pub fn is_paused(&self) -> bool {
        self.state.is_paused()
    }

    /// Stop the run (graceful; workers finish in-flight transactions).
    pub fn stop(&self) {
        self.state.stop();
        self.queue.close();
    }

    pub fn is_stopped(&self) -> bool {
        self.state.is_stopped()
    }

    /// The game-over path (§4.1.1): halt the benchmark and reset the
    /// database. Returns how many queued requests were discarded.
    pub fn halt_and_reset(&self) -> usize {
        self.stop();
        let dropped = self.queue.drain();
        self.db.truncate_all();
        dropped
    }

    /// Instantaneous feedback: throughput and per-type latency (§2.2.4).
    pub fn status(&self) -> StatusSnapshot {
        self.stats.status(3)
    }

    /// Backlog of postponed requests.
    pub fn backlog(&self) -> usize {
        self.queue.backlog()
    }

    pub fn current_rate(&self) -> Rate {
        self.state.rate()
    }

    pub fn current_mixture(&self) -> Arc<Mixture> {
        self.state.mixture()
    }

    // -- closed-loop SLO control --

    /// This workload's SLO-controller state (config, live gauges, the
    /// running loop). Always present; inactive until [`Controller::start_slo`].
    pub fn slo(&self) -> &Arc<SloHandle> {
        &self.slo
    }

    /// Start (or replace) the closed-loop SLO controller: arm the shared
    /// handle, which stops a loop that is already running, give it the
    /// `bp-slo` control thread and apply the initial rate.
    pub fn start_slo(&self, cfg: SloConfig) {
        self.slo.arm(cfg.clone());
        let controller = self.clone();
        let window_s = cfg.window_s;
        self.slo.run_on(Periodic::spawn("bp-slo", cfg.tick_us, move || {
            slo_tick(&controller, window_s)
        }));
        self.journal().emit_with(Severity::Info, "slo", "slo_armed", || {
            (
                format!("SLO loop armed: {} <= {}us", cfg.target.kind(), cfg.target.limit_us()),
                vec![
                    ("workload", self.workload_name.clone()),
                    ("limit_us", cfg.target.limit_us().to_string()),
                ],
            )
        });
        self.set_rate(Rate::Limited(self.slo.current_rate()));
    }

    /// Stop the SLO loop (the last applied rate stays in effect).
    pub fn stop_slo(&self) {
        self.slo.disarm();
        self.journal().emit_with(Severity::Info, "slo", "slo_disarmed", || {
            (
                "SLO loop disarmed (last applied rate stays in effect)".to_string(),
                vec![("workload", self.workload_name.clone())],
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_storage::Personality;
    use bp_util::clock::sim_clock;

    fn controller() -> Controller {
        let (_, clock) = sim_clock();
        let types = vec![
            TransactionType::new("r", 50.0, true),
            TransactionType::new("w", 50.0, false),
        ];
        let mixture = Mixture::default_of(&types);
        let state = ControlState::new(Rate::Limited(100.0), mixture, 10_000.0);
        let queue = Arc::new(RequestQueue::new(clock.clone()));
        let stats = Arc::new(StatsCollector::new(clock, &["r", "w"]));
        let db = Database::new(Personality::test());
        let spans = Arc::new(bp_obs::SpanRecorder::new(bp_obs::ObsConfig::default()));
        Controller::new(state, queue, stats, spans, db, types, "test")
    }

    #[test]
    fn rate_change_overrides_phase() {
        let c = controller();
        c.set_rate(Rate::Limited(500.0));
        assert_eq!(c.current_rate(), Rate::Limited(500.0));
        // A same-phase re-apply must NOT undo the API override...
        c.state().apply_phase(0, Rate::Limited(100.0), ArrivalDist::Uniform, None, 0, false);
        assert_eq!(c.current_rate(), Rate::Limited(500.0));
        // ...but a new phase does.
        c.state().apply_phase(1, Rate::Limited(100.0), ArrivalDist::Uniform, None, 0, true);
        assert_eq!(c.current_rate(), Rate::Limited(100.0));
    }

    #[test]
    fn mixture_change_validated() {
        let c = controller();
        assert!(c.set_mixture(vec![1.0]).is_err());
        c.set_mixture(vec![0.0, 1.0]).unwrap();
        assert_eq!(c.current_mixture().weights(), &[0.0, 1.0]);
    }

    #[test]
    fn presets() {
        let c = controller();
        c.set_preset(MixturePreset::ReadOnly);
        assert_eq!(c.current_mixture().weights(), &[1.0, 0.0]);
        c.set_preset(MixturePreset::SuperWrites);
        assert_eq!(c.current_mixture().weights(), &[0.0, 1.0]);
    }

    #[test]
    fn pause_resume_stop() {
        let c = controller();
        assert!(!c.is_paused());
        c.pause();
        assert!(c.is_paused());
        c.resume();
        assert!(!c.is_paused());
        c.stop();
        assert!(c.is_stopped());
    }

    #[test]
    fn halt_and_reset_drains_and_truncates() {
        let c = controller();
        c.database()
            .create_table(
                bp_storage::TableSchema::new(
                    "t",
                    vec![bp_storage::Column::new("id", bp_storage::DataType::Int)],
                    &["id"],
                )
                .unwrap(),
            )
            .unwrap();
        let t = c.database().table("t").unwrap();
        let mut s = c.database().session();
        s.begin().unwrap();
        s.insert(&t, vec![bp_storage::Value::Int(1)]).unwrap();
        s.commit().unwrap();
        c.halt_and_reset();
        assert!(c.is_stopped());
        assert_eq!(c.database().total_rows(), 0);
    }

    #[test]
    fn register_metrics_wires_all_silos() {
        let reg = bp_obs::MetricsRegistry::new();
        let c = controller();
        c.register_metrics(&reg);
        assert_eq!(
            reg.source_count(),
            7,
            "stats + queue + server + chaos + recovery + spans + journal"
        );
        // Re-registering the same controller must not double-count.
        c.register_metrics(&reg);
        assert_eq!(reg.source_count(), 7);
        let text = reg.render_prometheus();
        assert!(text.contains("bp_client_response_us_bucket"));
        assert!(text.contains("bp_driver_gate_waits_total"));
        assert!(text.contains("bp_server_commits_total"));
        assert!(text.contains("bp_stage_latency_us_bucket"));
        assert!(text.contains("bp_chaos_armed"));
        assert!(text.contains("bp_recovery_crashes_total"));
        assert!(text.contains("bp_events_emitted_total"));
    }

    #[test]
    fn register_metrics_includes_breaker_when_present() {
        let reg = bp_obs::MetricsRegistry::new();
        let c = Controller { breaker: Some(Arc::new(CircuitBreaker::new("test"))), ..controller() };
        c.register_metrics(&reg);
        assert_eq!(
            reg.source_count(),
            8,
            "stats + queue + server + chaos + recovery + spans + breaker + journal"
        );
        let text = reg.render_prometheus();
        assert!(text.contains("bp_resilience_breaker_state"));
        assert!(text.contains("bp_resilience_shed_total"));
    }

    #[test]
    fn control_changes_journaled() {
        let c = controller();
        c.set_rate(Rate::Limited(500.0));
        c.set_rate(Rate::Limited(500.0)); // unchanged: no duplicate event
        c.set_mixture(vec![0.0, 1.0]).unwrap();
        c.state()
            .apply_phase(2, Rate::Limited(50.0), ArrivalDist::Uniform, None, 0, true);
        let events = c.journal().all();
        let rates: Vec<_> = events.iter().filter(|e| e.kind == "rate_change").collect();
        assert_eq!(rates.len(), 1, "{events:?}");
        assert_eq!(rates[0].field("after"), Some("500"));
        assert!(events.iter().any(|e| e.kind == "mixture_change"));
        let phase = events.iter().find(|e| e.kind == "phase_change").unwrap();
        assert_eq!(phase.field("phase"), Some("2"));
    }

    #[test]
    fn phase_mixture_applies_when_not_overridden() {
        let c = controller();
        c.state()
            .apply_phase(0, Rate::Limited(10.0), ArrivalDist::Exponential, Some(&[1.0, 3.0]), 500, true);
        assert_eq!(c.current_mixture().weights(), &[1.0, 3.0]);
        assert_eq!(c.state().arrival(), ArrivalDist::Exponential);
        assert_eq!(c.state().think_time_us(), 500);
        // API mixture override survives same-phase re-apply.
        c.set_mixture(vec![5.0, 5.0]).unwrap();
        c.state()
            .apply_phase(0, Rate::Limited(10.0), ArrivalDist::Uniform, Some(&[1.0, 3.0]), 0, false);
        assert_eq!(c.current_mixture().weights(), &[5.0, 5.0]);
    }
}
