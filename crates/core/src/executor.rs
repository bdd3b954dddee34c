//! The threaded Workload Manager and its client workers (Fig. 1, §2.1).
//!
//! A manager thread asks a [`ScheduleSource`] for one window of timestamped
//! arrivals per second and pushes them to the central queue. The default
//! source ([`ScriptSchedule`](crate::schedule::ScriptSchedule)) generates
//! them live from the phase script (plus any runtime overrides from the
//! control API), exactly `rate` per second, interleaved uniformly or
//! exponentially; `bp-replay` substitutes a recorded schedule. Transaction
//! types are pinned on each request at generation time, so worker threads
//! ("terminals") just pull requests, invoke the benchmark's transaction
//! control code for the pinned type, optionally sleep a think time, and
//! loop.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

use bp_chaos::{Admission, FaultKind};
use bp_obs::{ObsConfig, Severity, Span, SpanRecorder, TelemetryRecorder, TelemetrySample};
use bp_sql::Connection;
use bp_storage::Database;
use bp_util::clock::{Micros, SharedClock, MICROS_PER_SEC};
use bp_util::rng::{next_backoff, Rng};
use bp_util::Periodic;

use crate::controller::Controller;
use crate::queue::Request;
use crate::rate::{PhaseScript, Rate};
use crate::schedule::{ScheduleSource, ScriptSchedule};
use crate::slo::SloConfig;
use crate::stats::{RequestOutcome, Sample};
use crate::trace::{Trace, TraceRecord};
use crate::workload::{TxnOutcome, Workload};

/// Configuration for one workload run. A virtual tenant
/// ([`VirtualRun::add_tenant`](crate::VirtualRun::add_tenant)) honours the
/// fields marked *virtual too*; the others are a live run's.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Number of worker threads (terminals).
    pub terminals: usize,
    /// The phase script to execute; virtual too.
    pub script: PhaseScript,
    /// RNG seed for workers; virtual too, for the backoff jitter and trace
    /// ids (the stage's seed draws a virtual tenant's arrivals and keys).
    pub seed: u64,
    /// Collect a full trace (trace.txt) in memory.
    pub collect_trace: bool,
    /// Retries for retryable (lock-conflict) aborts before counting a
    /// request as failed; virtual too.
    pub max_retries: u32,
    /// Arrival rate used for `Rate::Unlimited` (the "large configurable
    /// constant" of §2.2.1); virtual too.
    pub unlimited_rate: f64,
    /// Request-lifecycle span recording (`observability.spans`); virtual too.
    pub obs: ObsConfig,
    /// Tenant id stamped on spans and matched by a blackout (multi-tenant
    /// testbeds set this per run); virtual too.
    pub tenant: u16,
    /// Run behind a circuit breaker (`bp_chaos::CircuitBreaker`), which
    /// sheds requests while the engine keeps failing them; virtual too.
    pub breaker: bool,
    /// Closed-loop SLO admission control; `None` runs open-loop.
    pub slo: Option<SloConfig>,
    /// Continuous telemetry recorder tick, µs of wall time (0 disables
    /// the recorder thread entirely).
    pub telemetry_interval_us: u64,
    /// Node identity in a bp-cluster fleet; single-process runs keep the
    /// default. Stamped on the controller so the agent layer and merged
    /// cluster views can attribute this run to a node; virtual too.
    pub node: String,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            terminals: 4,
            script: PhaseScript::default(),
            seed: 42,
            collect_trace: true,
            max_retries: 3,
            unlimited_rate: 50_000.0,
            obs: ObsConfig::default(),
            tenant: 0,
            breaker: false,
            slo: None,
            telemetry_interval_us: 1_000_000,
            node: "local".to_string(),
        }
    }
}

/// A handle to a running workload: controller + joinable threads.
pub struct RunHandle {
    pub controller: Controller,
    pub trace: Option<Arc<Trace>>,
    /// The run's lifecycle flight recorder (also reachable via
    /// `controller.spans()`).
    pub spans: Arc<SpanRecorder>,
    threads: Vec<JoinHandle<()>>,
    /// Keeps the telemetry thread alive for the run's lifetime; dropping
    /// the handle (after `join`) stops it. The recorded samples stay
    /// readable through `controller.recorder()`.
    _telemetry: Option<Periodic>,
}

impl RunHandle {
    /// Wait for the run to finish (script end or stop()).
    pub fn join(mut self) -> Controller {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.controller.clone()
    }

    /// Ask the run to stop and wait for it.
    pub fn stop_and_join(self) -> Controller {
        self.controller.stop();
        self.join()
    }
}

/// Start a workload run on its own threads, on the database's clock. The
/// database must already be loaded (use `workload.setup`). Arrivals are
/// generated live from `cfg.script` by a [`ScriptSchedule`].
pub fn start(db: Arc<Database>, workload: Arc<dyn Workload>, cfg: RunConfig) -> RunHandle {
    let source = ScriptSchedule::new(cfg.script.clone(), cfg.unlimited_rate, cfg.seed);
    let clock = db.clock().clone();
    start_with_source(db, workload, clock, cfg, Box::new(source))
}

/// Start a workload run driven by an explicit schedule source (replay,
/// recording decorators, synthetic schedules). `cfg.script` is still used
/// for the initial rate/mixture and controller status display. Pass
/// `db.clock()`: the engine and its journal stamp time on it, so a run on
/// any other clock times its spans on two.
pub fn start_with_source(
    db: Arc<Database>,
    workload: Arc<dyn Workload>,
    clock: SharedClock,
    cfg: RunConfig,
    source: Box<dyn ScheduleSource>,
) -> RunHandle {
    let mut step = RequestStep::new(db, workload, clock.clone(), &cfg);

    // Continuous telemetry: a background thread samples the client window
    // stats and per-interval engine-counter deltas into a flight-recorder
    // ring (`GET /report`, `bp-doctor`).
    let telemetry = (cfg.telemetry_interval_us > 0).then(|| {
        let recorder = Arc::new(TelemetryRecorder::new(cfg.telemetry_interval_us));
        let guard = recorder.spawn(sensor(step.controller.clone()));
        step.controller = step.controller.clone().with_recorder(recorder);
        guard
    });
    let controller = step.controller.clone();

    // Closed-loop SLO control: the loop thread belongs to the controller's
    // SLO handle (it polls stats, not the queue) and ends when the run stops.
    if let Some(slo_cfg) = &cfg.slo {
        controller.start_slo(slo_cfg.clone());
    }

    let mut threads = Vec::with_capacity(cfg.terminals + 1);

    // Manager thread.
    {
        let controller = controller.clone();
        let clock = clock.clone();
        threads.push(
            std::thread::Builder::new()
                .name("bp-manager".into())
                .spawn(move || manager_loop(&controller, clock, source))
                .expect("spawn manager"),
        );
    }

    // Worker threads: worker `w` takes thread slot `w`, so it owns shard `w`
    // of the collector and of the span recorder.
    for w in 0..cfg.terminals {
        let seed = cfg.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(w as u64 + 1));
        let step = RequestStep { seed, ..step.clone() };
        let clock = clock.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("bp-worker-{w}"))
                .spawn(move || worker_loop(w, step, clock))
                .expect("spawn worker"),
        );
    }

    let (trace, spans) = (step.trace, controller.spans().clone());
    RunHandle { controller, trace, spans, threads, _telemetry: telemetry }
}

/// Build the telemetry sensor closure: one call = one [`TelemetrySample`].
/// Client-side window stats come from the collector, engine counters are
/// per-interval deltas of the server silo, and the breaker/queue/rate
/// gauges are read point-in-time.
fn sensor(controller: Controller) -> Box<dyn FnMut() -> TelemetrySample + Send> {
    let mut prev_srv = controller.database().metrics().snapshot();
    let mut prev_done = 0u64;
    let mut prev_failed = 0u64;
    let mut prev_shed = 0u64;
    Box::new(move || {
        let (db, stats, spans) = (controller.database(), controller.stats(), controller.spans());
        let win = stats.window_snapshot(3);
        // Feed the tail sampler: the live window p99 becomes its "slow"
        // cutoff (rise-slowly / fall-fast smoothing happens inside), and a
        // crashed engine marks the moment so in-flight requests that
        // straddle it are always retained.
        if win.count >= 20 {
            spans.set_slow_threshold(win.p99_us);
        }
        let now = stats.clock().now();
        if db.is_crashed() {
            spans.note_crash(now);
        }
        let status = stats.status(3);
        let srv = db.metrics().snapshot();
        let d = srv.delta(&prev_srv);
        prev_srv = srv;
        let done_total = status.committed + status.user_aborted + status.failed;
        let done = done_total.saturating_sub(prev_done);
        let failed = status.failed.saturating_sub(prev_failed);
        let shed = status.shed.saturating_sub(prev_shed);
        prev_done = done_total;
        prev_failed = status.failed;
        prev_shed = status.shed;
        TelemetrySample {
            t_us: now,
            rate: match controller.current_rate() {
                Rate::Limited(tps) => tps,
                Rate::Unlimited => f64::INFINITY,
                Rate::Disabled => 0.0,
            },
            throughput: win.throughput,
            p50_us: win.p50_us,
            p99_us: win.p99_us,
            error_rate: if done > 0 { failed as f64 / done as f64 } else { 0.0 },
            shed_rate: if done + shed > 0 {
                shed as f64 / (done + shed) as f64
            } else {
                0.0
            },
            breaker_state: controller.breaker().map(|b| b.state() as u8).unwrap_or(0),
            queue_depth: controller.backlog() as u64,
            commits: d.commits,
            lock_waits: d.lock_waits,
            lock_wait_us: d.lock_wait_micros,
            deadlocks: d.deadlocks,
            io_reads: d.io_reads,
            io_writes: d.io_writes,
            wal_fsyncs: d.wal_fsyncs,
            wal_bytes: d.wal_bytes,
            fsync_us: d.fsync_micros,
            buf_hits: d.buf_hits,
            buf_misses: d.buf_misses,
            busy_us: d.busy_micros,
        }
    })
}

/// The Workload Manager: one iteration per second, window contents decided
/// by the schedule source.
fn manager_loop(controller: &Controller, clock: SharedClock, mut source: Box<dyn ScheduleSource>) {
    let (state, queue) = (controller.state(), controller.queue());
    let start = clock.now();
    for second in 0.. {
        if state.is_stopped() {
            break;
        }
        let boundary = start + second * MICROS_PER_SEC;
        let behind = clock.now().saturating_sub(boundary);
        if manager_step(&mut *source, second, boundary, behind, controller) {
            if source.drain_on_done() {
                // A recording or a replay: let the already-enqueued tail
                // dispatch instead of dropping it with the close.
                while !state.is_stopped() && queue.backlog() > 0 {
                    clock.sleep(20_000);
                }
            }
            state.stop();
            break;
        }
        clock.sleep_until(boundary + MICROS_PER_SEC);
    }
    queue.close();
}

/// One second of the Workload Manager, for its thread and the virtual-time
/// run alike: plan the window starting at `boundary`, set the gate, push
/// and count the requests. Returns whether the source is done.
pub(crate) fn manager_step(
    source: &mut dyn ScheduleSource,
    second: u64,
    boundary: Micros,
    behind_us: Micros,
    run: &Controller,
) -> bool {
    let window = source.plan(second, behind_us, run.state());
    if let Some(tps) = window.gate_tps {
        run.queue().set_rate(tps);
    }
    if !window.requests.is_empty() {
        let n = window.requests.len();
        run.queue().push_scheduled(boundary, window.requests);
        run.stats().record_requested(boundary, n);
    }
    window.done
}

/// A run's request step, the one code that serves a request: each threaded
/// terminal holds a copy with its own seed and `VirtualRun` one per tenant.
/// [`serve`](RequestStep::serve) runs a request up to its end and
/// [`finish`](RequestStep::finish) records that end; a driver decides when
/// the end is.
#[derive(Clone)]
pub(crate) struct RequestStep {
    pub(crate) controller: Controller,
    workload: Arc<dyn Workload>,
    pub(crate) trace: Option<Arc<Trace>>,
    max_retries: u32,
    tenant: u16,
    /// Seeds this terminal's backoff jitter.
    seed: u64,
    /// The unperturbed run seed: trace ids must be a function of
    /// (run seed, seq) alone so every worker — and every node replaying
    /// the same schedule — derives the same id for the same request.
    run_seed: u64,
}

/// A request served up to its end: its outcome, its span's trace id (0 when
/// spans are off) and stage µs, taken as its execution ended so no later
/// request's lock or commit time leaks into them, and the µs it backed off
/// between attempts, outside the engine.
#[derive(Clone, Copy)]
pub(crate) struct Served {
    req: Request,
    pub(crate) outcome: RequestOutcome,
    retries: u32,
    trace_id: u64,
    stages: (Micros, Micros),
    pub(crate) backoff_us: Micros,
}

impl RequestStep {
    /// A run's tenant and request step, for a live run and a virtual
    /// tenant alike: [`Controller::for_run`] and, when `cfg.collect_trace`,
    /// the trace.
    pub(crate) fn new(
        db: Arc<Database>,
        workload: Arc<dyn Workload>,
        clock: SharedClock,
        cfg: &RunConfig,
    ) -> RequestStep {
        let controller = Controller::for_run(db, &*workload, clock, cfg);
        let trace = cfg.collect_trace.then(|| Arc::new(Trace::new()));
        let (max_retries, tenant, seed) = (cfg.max_retries, cfg.tenant, cfg.seed);
        RequestStep { controller, workload, trace, max_retries, tenant, seed, run_seed: seed }
    }

    /// Serve `req` on `conn` up to its end: breaker admission (a shed
    /// request ends where it started), the tenant's blackout, the
    /// `PanicStorm` roll with the panic caught, and up to `max_retries`
    /// retries of a retryable failure, each after a backoff handed to
    /// `back_off` (a thread sleeps it; virtual time adds it to the end).
    pub(crate) fn serve(
        &self,
        req: Request,
        conn: &mut Connection,
        rng: &mut Rng,
        mut back_off: impl FnMut(Micros),
    ) -> Served {
        let db = self.controller.database();
        // The type was pinned at generation time (see `schedule`): no
        // worker-side sampling, so replay is exact and schedules are a pure
        // function of the seed.
        let txn_idx = req.txn_type as usize;
        // One mode check per request. The storage layer's stage accumulator
        // is drained before execution, so an unrecorded request's lock-wait
        // and commit time can't leak into a recorded one. Every completed
        // span is *offered*: the recorder keeps slow/errored/shed/
        // crash-straddling ones unconditionally.
        let trace_id = if self.controller.spans().enabled() { bp_obs::trace_id(self.run_seed, req.seq) } else { 0 };
        bp_obs::take_stage_acc();
        let mut served =
            Served { req, outcome: RequestOutcome::Shed, retries: 0, trace_id, stages: (0, 0), backoff_us: 0 };

        // Admission control: an Open breaker fast-fails the request before
        // it touches the engine. Shed is its own bucket — never an error,
        // never throughput. Service starts at dispatch.
        if self.controller.breaker().is_some_and(|b| b.admit(req.dispatched) == Admission::Shed) {
            return served;
        }

        // Mark this thread's in-flight trace so deep storage events
        // (deadlock victims, crashes) can cite the request that was
        // on-CPU when they fired, and the engine times its commit stage.
        if trace_id != 0 {
            bp_obs::set_current_trace(trace_id);
        }
        served.outcome = loop {
            // A tenant blackout invalidates the attempt before it reaches
            // the engine; it behaves like any retryable transient fault.
            let attempt = if db.chaos().blackout(self.tenant) {
                None
            } else {
                // Panic isolation: a panicking transaction (workload bug or
                // an injected `PanicStorm` fault) must not take the worker
                // thread down with it — OLTP-Bench terminals similarly
                // survive benchmark-code exceptions. The panic is caught,
                // the open transaction rolled back (releasing its locks),
                // and the request counted as a plain failure.
                match catch_unwind(AssertUnwindSafe(|| {
                    if db.chaos().roll(FaultKind::PanicStorm).is_some() {
                        panic!("injected worker panic (panic_storm)");
                    }
                    self.workload.execute(txn_idx, conn, rng)
                })) {
                    Ok(r) => Some(r),
                    Err(payload) => {
                        if conn.in_transaction() {
                            let _ = conn.rollback();
                        }
                        let msg = (payload.downcast_ref::<&str>().map(|s| s.to_string()))
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".to_string());
                        db.journal().emit_with(Severity::Error, "core", "worker_panic", || {
                            (
                                format!("worker survived transaction panic: {msg}"),
                                vec![("txn_type", txn_idx.to_string()), ("panic", msg.clone())],
                            )
                        });
                        break RequestOutcome::Failed;
                    }
                }
            };
            let retryable = match attempt {
                Some(Ok(TxnOutcome::Committed)) => break RequestOutcome::Committed,
                Some(Ok(TxnOutcome::UserAborted)) => break RequestOutcome::UserAborted,
                Some(Err(e)) => e.is_retryable(),
                None => true,
            };
            // Defensive: the workload must leave the session idle.
            if conn.in_transaction() {
                let _ = conn.rollback();
            }
            if !retryable || served.retries >= self.max_retries {
                break RequestOutcome::Failed;
            }
            served.retries += 1;
            // Capped exponential backoff with deterministic jitter replaces
            // the old tight retry loop: contending workers spread out
            // instead of re-colliding in lockstep. The first retry waits up
            // to 100 µs, each later one up to twice that, capped at 10 ms.
            const BACKOFF_BASE_US: u64 = 100;
            const BACKOFF_CAP_US: u64 = 10_000;
            let wait = next_backoff(served.retries - 1, BACKOFF_BASE_US, BACKOFF_CAP_US, self.seed ^ req.seq);
            served.backoff_us += wait;
            back_off(wait);
        };
        if trace_id != 0 {
            bp_obs::set_current_trace(0);
            served.stages = bp_obs::take_stage_acc();
        }
        served
    }

    /// Everything done at a request's end, by either driver: the breaker's
    /// accounting, the stats sample, the span offer and the trace line.
    /// Returns the think time the terminal then holds for (none after a shed).
    pub(crate) fn finish(&self, served: &Served, end: Micros) -> Micros {
        let Served { req, outcome, retries, trace_id, stages: (lock_wait_us, commit_us), .. } = *served;
        let (stats, start, txn_type) = (self.controller.stats(), req.dispatched, req.txn_type as usize);
        match (self.controller.breaker(), outcome) {
            (Some(b), RequestOutcome::Failed) => b.on_failure(end),
            (Some(b), RequestOutcome::Committed | RequestOutcome::UserAborted) => b.on_success(),
            _ => {}
        }
        stats.record(Sample { txn_type, arrival: req.arrival, start, end, outcome, retries });
        if trace_id != 0 {
            self.controller.spans().offer(Span {
                trace_id,
                seq: req.seq,
                submitted_us: req.arrival,
                dequeued_us: start,
                end_us: end,
                lock_wait_us,
                commit_us,
                tenant: self.tenant,
                phase: req.phase,
                txn_type: req.txn_type,
                retries: retries.min(u16::MAX as u32) as u16,
                outcome,
            });
        }
        if let Some(t) = &self.trace {
            t.append(TraceRecord { start_us: stats.since_start(start), latency_us: end - start, txn_type, outcome });
        }
        if outcome == RequestOutcome::Shed { 0 } else { self.controller.state().think_time_us() }
    }
}

/// One client worker ("terminal") in thread slot `slot`.
fn worker_loop(slot: usize, step: RequestStep, clock: SharedClock) {
    let (state, queue) = (step.controller.state(), step.controller.queue());
    bp_util::sync::set_thread_slot(slot);
    let mut conn = Connection::open(step.controller.database());
    let mut rng = Rng::new(step.seed);
    // The gate is waited on in steps of a few µs to a few ms.
    bp_util::clock::exact_timers();

    loop {
        // Stop wins over pause: a paused worker must still exit (a worker
        // spinning in the pause branch with a non-empty backlog would hang
        // join() forever — the queue drops its backlog on close anyway).
        if state.is_stopped() {
            return;
        }
        if state.is_paused() {
            // The control API temporarily blocks all threads from executing
            // transaction requests (§4.1.2).
            clock.sleep(2_000);
            continue;
        }
        let Some(req) = queue.pull(20_000) else {
            return; // queue closed
        };
        let served = step.serve(req, &mut conn, &mut rng, |us| clock.sleep(us));
        // A shed request ends where it started; a served one reads the clock.
        let end = if served.outcome == RequestOutcome::Shed { req.dispatched } else { clock.now() };
        let think = step.finish(&served, end);
        if think > 0 {
            clock.sleep(think);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::{ArrivalDist, Phase};
    use crate::workload::{BenchmarkClass, LoadSummary, TransactionType};
    use bp_sql::Result as SqlResult;
    use bp_storage::Personality;

    /// A trivial but real workload: single-row increments and reads on
    /// `table`.
    struct CounterWorkload {
        table: &'static str,
    }

    impl Workload for CounterWorkload {
        fn name(&self) -> &'static str {
            "counter"
        }
        fn class(&self) -> BenchmarkClass {
            BenchmarkClass::FeatureTesting
        }
        fn domain(&self) -> &'static str {
            "Testing"
        }
        fn transaction_types(&self) -> Vec<TransactionType> {
            vec![
                TransactionType::new("Read", 50.0, true),
                TransactionType::new("Incr", 50.0, false),
            ]
        }
        fn create_schema(&self, conn: &mut Connection) -> SqlResult<()> {
            conn.execute_batch(&format!("CREATE TABLE {} (id INT PRIMARY KEY, v INT);", self.table))
        }
        fn load(&self, conn: &mut Connection, scale: f64, _rng: &mut Rng) -> SqlResult<LoadSummary> {
            let n = (10.0 * scale).max(1.0) as i64;
            for i in 0..n {
                conn.execute(&format!("INSERT INTO {} VALUES (?, 0)", self.table), &[bp_storage::Value::Int(i)])?;
            }
            Ok(LoadSummary { tables: 1, rows: n as u64 })
        }
        fn execute(&self, txn_idx: usize, conn: &mut Connection, rng: &mut Rng) -> SqlResult<TxnOutcome> {
            let id = bp_storage::Value::Int(rng.int_range(0, 9));
            conn.begin()?;
            let r = (|| {
                if txn_idx == 0 {
                    conn.query(&format!("SELECT v FROM {} WHERE id = ?", self.table), &[id])?;
                } else {
                    conn.execute(&format!("UPDATE {} SET v = v + 1 WHERE id = ?", self.table), &[id])?;
                }
                Ok(())
            })();
            match r {
                Ok(()) => {
                    conn.commit()?;
                    Ok(TxnOutcome::Committed)
                }
                Err(e) => {
                    if conn.in_transaction() {
                        let _ = conn.rollback();
                    }
                    Err(e)
                }
            }
        }
    }

    fn setup() -> (Arc<Database>, Arc<dyn Workload>) {
        let db = Database::new(Personality::test());
        let w: Arc<dyn Workload> = Arc::new(CounterWorkload { table: "c" });
        let mut conn = Connection::open(&db);
        w.setup(&mut conn, 1.0, &mut Rng::new(1)).unwrap();
        (db, w)
    }

    #[test]
    fn throttled_run_delivers_target_rate() {
        let (db, w) = setup();
        let cfg = RunConfig {
            terminals: 4,
            script: PhaseScript::new(vec![Phase::new(Rate::Limited(200.0), 2.0)]),
            ..Default::default()
        };
        let handle = start(db, w, cfg);
        let controller = handle.join();
        let done = controller.stats().total_completed();
        // 2 seconds at 200 tps: expect ~400, allow wide margins for CI noise
        // (and the never-exceed property with a small dispatch tolerance).
        assert!((300..=440).contains(&(done as i64)), "completed {done}");
    }

    #[test]
    fn rate_change_via_controller_takes_effect() {
        let (db, w) = setup();
        let cfg = RunConfig {
            terminals: 2,
            script: PhaseScript::new(vec![Phase::new(Rate::Limited(50.0), 10.0)]),
            ..Default::default()
        };
        let handle = start(db, w, cfg);
        std::thread::sleep(std::time::Duration::from_millis(1100));
        let before = handle.controller.stats().total_completed();
        handle.controller.set_rate(Rate::Limited(400.0));
        std::thread::sleep(std::time::Duration::from_millis(2000));
        let after = handle.controller.stats().total_completed();
        handle.controller.stop();
        handle.join();
        let delta = after - before;
        assert!(delta > 350, "rate change not applied: {delta} in 2s");
    }

    #[test]
    fn pause_blocks_execution() {
        let (db, w) = setup();
        let cfg = RunConfig {
            terminals: 2,
            script: PhaseScript::new(vec![Phase::new(Rate::Limited(200.0), 10.0)]),
            ..Default::default()
        };
        let handle = start(db, w, cfg);
        std::thread::sleep(std::time::Duration::from_millis(500));
        handle.controller.pause();
        std::thread::sleep(std::time::Duration::from_millis(200));
        let before = handle.controller.stats().total_completed();
        std::thread::sleep(std::time::Duration::from_millis(500));
        let after = handle.controller.stats().total_completed();
        assert_eq!(before, after, "work executed while paused");
        handle.controller.resume();
        std::thread::sleep(std::time::Duration::from_millis(500));
        let resumed = handle.controller.stats().total_completed();
        assert!(resumed > after, "did not resume");
        handle.controller.stop();
        handle.join();
    }

    #[test]
    fn mixture_swap_changes_sampled_types() {
        let (db, w) = setup();
        let cfg = RunConfig {
            terminals: 2,
            script: PhaseScript::new(vec![
                Phase::new(Rate::Limited(300.0), 10.0).with_weights(vec![100.0, 0.0]),
            ]),
            ..Default::default()
        };
        let handle = start(db, w, cfg);
        std::thread::sleep(std::time::Duration::from_millis(800));
        // All reads so far.
        let summary = handle.controller.stats().per_type_summary();
        assert!(summary[1].count == 0, "writes before switch: {}", summary[1].count);
        handle.controller.set_mixture(vec![0.0, 100.0]).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(800));
        let summary = handle.controller.stats().per_type_summary();
        assert!(summary[1].count > 0, "no writes after switch");
        handle.controller.stop();
        handle.join();
    }

    #[test]
    fn script_end_stops_run() {
        let (db, w) = setup();
        let cfg = RunConfig {
            terminals: 2,
            script: PhaseScript::new(vec![Phase::new(Rate::Limited(100.0), 0.5)]),
            ..Default::default()
        };
        let handle = start(db, w, cfg);
        let controller = handle.join();
        assert!(controller.is_stopped());
    }

    #[test]
    fn trace_collected() {
        let (db, w) = setup();
        let cfg = RunConfig {
            terminals: 2,
            script: PhaseScript::new(vec![Phase::new(Rate::Limited(100.0), 1.0)]),
            collect_trace: true,
            ..Default::default()
        };
        let handle = start(db, w, cfg);
        let trace = handle.trace.clone().unwrap();
        handle.join();
        assert!(trace.len() > 50, "trace has {} records", trace.len());
    }

    #[test]
    fn spans_full_mode_matches_stats_counts() {
        let (db, w) = setup();
        let cfg = RunConfig {
            terminals: 2,
            script: PhaseScript::new(vec![Phase::new(Rate::Limited(300.0), 1.0)]),
            ..Default::default()
        };
        let handle = start(db, w, cfg);
        let spans = handle.spans.clone();
        let controller = handle.join();
        let completed = controller.stats().total_completed();
        assert_eq!(spans.recorded(), completed, "full mode records every request");
        let sums = spans.stage_summaries();
        assert_eq!(sums[0].count, completed);
        // Spans carry the workload's txn types and real timestamps.
        let recent = spans.recent(10);
        assert!(!recent.is_empty());
        assert!(recent.iter().all(|s| s.txn_type < 2 && s.end_us >= s.dequeued_us));
    }

    /// The wall clock, counting the reads the run's terminals make.
    struct TerminalReads {
        wall: bp_util::clock::WallClock,
        reads: std::sync::atomic::AtomicU64,
    }

    impl bp_util::clock::Clock for TerminalReads {
        fn now(&self) -> Micros {
            if std::thread::current().name().is_some_and(|n| n.starts_with("bp-worker")) {
                self.reads.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            self.wall.now()
        }
        fn sleep(&self, micros: Micros) {
            self.wall.sleep(micros)
        }
    }

    /// A request reads the clock at dispatch and at its end; a traced one
    /// also times its commit stage.
    #[test]
    fn a_request_reads_the_clock_twice_and_a_traced_one_four_times() {
        for (mode, per_request) in [(bp_obs::SpanMode::Off, 2), (bp_obs::SpanMode::Full, 4)] {
            let clock = Arc::new(TerminalReads { wall: Default::default(), reads: Default::default() });
            let db = Database::with_clock(Personality::test(), clock.clone());
            let w: Arc<dyn Workload> = Arc::new(CounterWorkload { table: "c" });
            w.setup(&mut Connection::open(&db), 1.0, &mut Rng::new(1)).unwrap();
            // A million arrivals a second keep the one terminal behind, so a
            // pull dispatches at once instead of waiting and reading again.
            let cfg = RunConfig {
                terminals: 1,
                script: PhaseScript::new(vec![Phase::new(Rate::Unlimited, 1.0)]),
                unlimited_rate: 1_000_000.0,
                obs: ObsConfig { mode, ..Default::default() },
                ..Default::default()
            };
            let handle = start(db, w, cfg);
            // The reads made by the time of some count of completions: one
            // that did not move while the reads were taken.
            let stats = handle.controller.stats();
            let counts = || loop {
                let done = stats.total_completed();
                let reads = clock.reads.load(std::sync::atomic::Ordering::SeqCst);
                if stats.total_completed() == done {
                    return (reads, done);
                }
            };
            // Counted from the first completion on: before it, the terminal
            // waits for the manager to plan the first second.
            while counts().1 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let (reads_before, done_before) = counts();
            std::thread::sleep(std::time::Duration::from_millis(200));
            let (reads_after, done_after) = counts();
            handle.controller.stop();
            handle.join();
            let (reads, done) = (reads_after - reads_before, done_after - done_before);
            // A request in flight at either count has read some of its
            // clocks but not completed.
            assert!(
                done > 50 && reads.abs_diff(per_request * done) <= 2 * per_request,
                "{mode:?}: {reads} reads for {done} requests"
            );
        }
    }

    #[test]
    fn each_terminal_owns_one_shard_of_each_store() {
        let (db, w) = setup();
        let obs = bp_obs::ObsConfig { ring_capacity: 1_000, ..Default::default() };
        // A backlog keeps all three terminals busy: at a rate one terminal
        // keeps up with, it is back before each next slot and takes them all.
        let cfg = RunConfig {
            terminals: 3,
            script: PhaseScript::new(vec![Phase::new(Rate::Unlimited, 1.0)]),
            obs,
            ..Default::default()
        };
        let handle = start(db, w, cfg);
        let spans = handle.spans.clone();
        let controller = handle.join();
        let stats = controller.stats();
        assert_eq!(stats.shard_count(), 3);
        assert_eq!(spans.capacity(), 999, "floor(1000 / 3) per terminal");
        assert!(spans.capacity() <= obs.ring_capacity);
        // Three workers, three distinct slots: no shard is left empty while
        // another takes two workers' requests.
        let per_shard: Vec<u64> = stats.completed_by_shard().collect();
        assert!(per_shard.iter().all(|&n| n > 0), "{per_shard:?}");
        assert_eq!(per_shard.iter().sum::<u64>(), spans.recorded());
    }

    #[test]
    fn span_modes_agree_on_aggregates() {
        let (db, w) = setup();
        let script = PhaseScript::new(vec![Phase::new(Rate::Limited(400.0), 1.0)]);

        // Off: stats still complete, zero spans.
        let cfg = RunConfig {
            terminals: 2,
            script: script.clone(),
            obs: bp_obs::ObsConfig { mode: bp_obs::SpanMode::Off, ..Default::default() },
            ..Default::default()
        };
        let handle = start(db.clone(), w.clone(), cfg);
        let spans = handle.spans.clone();
        let completed_off = handle.join().stats().total_completed();
        assert!(completed_off > 100, "off-mode run completed {completed_off}");
        assert_eq!(spans.recorded(), 0, "off mode records nothing");

        // Sampled: recorded/completed within tolerance of the ratio.
        let cfg = RunConfig {
            terminals: 2,
            script,
            obs: bp_obs::ObsConfig {
                mode: bp_obs::SpanMode::Sampled,
                sample_ratio: 0.5,
                ..Default::default()
            },
            ..Default::default()
        };
        let handle = start(db, w, cfg);
        let spans = handle.spans.clone();
        let completed = handle.join().stats().total_completed();
        let observed = spans.recorded() as f64 / completed as f64;
        assert!(
            (0.3..=0.7).contains(&observed),
            "sampled ratio {observed} too far from 0.5 ({} of {completed})",
            spans.recorded()
        );
    }

    #[test]
    fn worker_survives_injected_panics() {
        use bp_chaos::{FaultPlan, FaultWindow};
        let (db, w) = setup();
        // Every transaction panics its worker mid-execution for the whole
        // run. The workers must survive (isolation), count the requests as
        // failures, and journal each panic.
        db.chaos().arm(
            FaultPlan::new("storm", 7)
                .with_window(FaultWindow::always(bp_chaos::FaultKind::PanicStorm, 1.0, 0)),
        );
        let cfg = RunConfig {
            terminals: 2,
            script: PhaseScript::new(vec![Phase::new(Rate::Limited(60.0), 0.5)]),
            ..Default::default()
        };
        let handle = start(db.clone(), w, cfg);
        let controller = handle.join();
        db.chaos().disarm();
        let status = controller.stats().status(60);
        assert_eq!(status.committed, 0, "every attempt panicked");
        assert!(status.failed > 0, "panics counted as failures");
        let panics = db
            .journal()
            .all()
            .iter()
            .filter(|e| e.kind == "worker_panic")
            .count();
        assert!(panics > 0, "worker_panic events journaled");
        assert!(panics as u64 >= status.failed, "one journal event per panic");
    }

    /// A [`CounterWorkload`] on `table`, loaded into `db` with `seed`: a
    /// tenant beside others on one database.
    fn tenant(db: &Arc<Database>, table: &'static str, seed: u64) -> Arc<dyn Workload> {
        let w: Arc<dyn Workload> = Arc::new(CounterWorkload { table });
        w.setup(&mut Connection::open(db), 1.0, &mut Rng::new(seed)).unwrap();
        w
    }

    #[test]
    fn two_tenants_run_in_parallel() {
        let db = Database::new(Personality::test());
        let (w1, w2) = (tenant(&db, "kv_a", 1), tenant(&db, "kv_b", 2));
        let cfg = RunConfig {
            terminals: 2,
            script: PhaseScript::new(vec![Phase::new(Rate::Limited(150.0), 1.5)]),
            ..Default::default()
        };
        let handles = [start(db.clone(), w1, cfg.clone()), start(db, w2, cfg)];
        for (name, handle) in ["alpha", "beta"].into_iter().zip(handles) {
            let done = handle.join().stats().total_completed();
            assert!(done > 100, "tenant {name} only completed {done}");
        }
    }

    #[test]
    fn tenant_added_on_the_fly() {
        let db = Database::new(Personality::test());
        let w1 = tenant(&db, "kv_a", 1);
        let cfg = RunConfig {
            terminals: 2,
            script: PhaseScript::new(vec![Phase::new(Rate::Limited(100.0), 2.0)]),
            ..Default::default()
        };
        let first = start(db.clone(), w1, cfg.clone());
        std::thread::sleep(std::time::Duration::from_millis(300));
        // Add the second benchmark while the first is running.
        let w2 = tenant(&db, "kv_b", 2);
        let cfg2 = RunConfig { script: PhaseScript::new(vec![Phase::new(Rate::Limited(100.0), 1.0)]), ..cfg };
        let second = start(db, w2, cfg2);
        let done = [first, second].map(|h| h.join().stats().total_completed());
        assert!(done.iter().all(|&n| n > 0), "{done:?}");
    }

    #[test]
    fn phase_transition_applies_new_weights() {
        let (db, w) = setup();
        let cfg = RunConfig {
            terminals: 2,
            script: PhaseScript::new(vec![
                Phase::new(Rate::Limited(200.0), 1.0).with_weights(vec![100.0, 0.0]),
                Phase::new(Rate::Limited(200.0), 1.0)
                    .with_weights(vec![0.0, 100.0])
                    .with_arrival(ArrivalDist::Exponential),
            ]),
            ..Default::default()
        };
        let handle = start(db, w, cfg);
        let controller = handle.join();
        let summary = controller.stats().per_type_summary();
        assert!(summary[0].count > 0, "phase 1 reads missing");
        assert!(summary[1].count > 0, "phase 2 writes missing");
    }
}
