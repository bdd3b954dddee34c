//! The driver in virtual time: one thread, no sleeps, a [`SimClock`]. Each
//! tenant is a live run's [`Controller`] and request step, built by the live
//! run's constructor and steered through the controller's own methods, and a
//! [`ScriptSchedule`]; each virtual second the manager thread's own step
//! (`executor::manager_step`) fills its queue. Four virtual terminals take
//! requests only through [`RequestQueue::poll`](crate::RequestQueue::poll)
//! and serve each through the live terminal's request step, so it meets the
//! tenant's breaker, the stage's chaos, retries with backoff and spans as a
//! live one does. Its end is recorded when virtual time reaches it, and the
//! phase's think time then holds the terminal. The loop jumps to the next
//! event: a second boundary, a terminal freeing up, or, while one is free, a
//! due time `poll` returned. A free terminal takes the tenant whose head fell
//! due first, ties to the lower index, so tenants interfere only by sharing
//! the terminals. The stage is the engine: a dispatch runs the transaction at
//! once on a small database with the DBMS's [`Personality`], on a `SimClock`
//! of its own that only its charges advance, and holds the terminal for that
//! advance [`SLOWDOWN`] times over plus its backoff, unscaled. One
//! transaction runs at a time, so no lock is waited for and group commit sees
//! the charges back to back. A tenant journals its control calls, breaker
//! transitions and caught panics on the stage database, stamped on that
//! charge clock.

use std::sync::Arc;

use bp_obs::{ObsConfig, SpanMode};
use bp_sql::Connection;
use bp_storage::{Database, Personality};
use bp_util::clock::{Clock, Micros, SimClock, MICROS_PER_SEC};
use bp_util::rng::Rng;

use crate::controller::Controller;
use crate::executor::{manager_step, RequestStep, RunConfig, Served};
use crate::rate::{Phase, PhaseScript, Rate};
use crate::schedule::ScriptSchedule;
use crate::workload::Workload;

/// Virtual terminals serving a run.
const TERMINALS: usize = 4;

/// The scale the stage loads its workload at. One transaction runs at a
/// time, so what it is charged, not how much data there is, sets its
/// service time.
const SCALE: f64 = 0.01;

/// How many times longer a request holds its terminal than its transaction
/// was charged. A personality charges tens of µs for a ycsb transaction; at
/// 93× four terminals serve it at 160–1,830 tx/s across the stages, the
/// scale of the game's 1,000 tx/s courses.
const SLOWDOWN: f64 = 93.0;

/// A single-threaded run of the driver in virtual time.
pub struct VirtualRun {
    clock: Arc<SimClock>,
    workload: Arc<dyn Workload>,
    /// A session on the stage's database, whose clock only its charges move.
    conn: Connection,
    tenants: Vec<VirtualTenant>,
    terminals: Vec<Option<Busy>>,
    /// Manager seconds stepped so far.
    seconds: u64,
    rng: Rng,
}

struct VirtualTenant {
    step: RequestStep,
    source: ScriptSchedule,
    /// When the head falls due as `poll` last said (`None`: empty); a
    /// dispatch, a manager step or entering `run_until` lowers it to then,
    /// so the tenant is polled again first.
    due: Option<Micros>,
}

/// A busy terminal: the tenant it serves, and until `until` the request it
/// serves (`Some`) or the think time after it (`None`).
#[derive(Clone)]
struct Busy {
    tenant: usize,
    served: Option<Served>,
    until: Micros,
}

impl VirtualRun {
    /// `TERMINALS` terminals serving `workload` on `personality`'s engine,
    /// loaded at `SCALE`, at time 0.
    pub fn new(personality: Personality, workload: Arc<dyn Workload>, seed: u64) -> VirtualRun {
        let mut rng = Rng::new(seed);
        let mut conn = Connection::open(&Database::with_clock(personality, SimClock::new()));
        workload.setup(&mut conn, SCALE, &mut rng).expect("the stage loads its workload");
        VirtualRun {
            clock: SimClock::new(),
            workload,
            conn,
            tenants: Vec::new(),
            terminals: vec![None; TERMINALS],
            seconds: 0,
            rng,
        }
    }

    /// The rate `personality`'s stage serves `workload` at with every
    /// terminal busy, mixed by `weights` (`None`: the workload's default):
    /// the mean completed per second over seconds 2–5 of a run offered
    /// 20,000 tx/s, more than any stage serves.
    pub fn saturated_tps(
        personality: Personality,
        workload: Arc<dyn Workload>,
        weights: Option<Vec<f64>>,
        seed: u64,
    ) -> f64 {
        let mut phase = Phase::new(Rate::Unlimited, 6.0);
        phase.weights = weights;
        let mut run = VirtualRun::new(personality, workload, seed);
        let obs = ObsConfig { mode: SpanMode::Off, ..ObsConfig::default() };
        let script = PhaseScript::new(vec![phase]);
        let tenant = run.add_tenant(RunConfig { script, unlimited_rate: 20_000.0, obs, ..RunConfig::default() });
        run.run_until(6 * MICROS_PER_SEC - 1);
        tenant.stats().throughput_series()[2..].iter().sum::<f64>() / 4.0
    }

    /// Add a tenant before the run starts, built by the live run's
    /// constructor on the stage's database. It honours `cfg`'s `script`,
    /// `unlimited_rate`, `max_retries`, `obs`, `tenant`, `breaker` and
    /// `node`; `seed` seeds its backoff jitter and trace ids, while the
    /// stage's seed draws its arrivals and keys. The stage fixes
    /// `terminals` to one writer, the stage's one thread, so the tenant's
    /// collector and span ring each keep one shard, and keeps no trace
    /// (`collect_trace`); `slo` and `telemetry_interval_us`, which need a
    /// thread, are not run. The tenant's control calls act from the instant
    /// they are made between two `run_until`s.
    pub fn add_tenant(&mut self, cfg: RunConfig) -> Controller {
        assert_eq!(self.seconds, 0, "tenants join before the run starts");
        let cfg = RunConfig { terminals: 1, collect_trace: false, ..cfg };
        let db = self.conn.database().clone();
        let step = RequestStep::new(db, self.workload.clone(), self.clock.clone(), &cfg);
        let source = ScriptSchedule::new(cfg.script, cfg.unlimited_rate, self.rng.next_u64());
        let controller = step.controller.clone();
        self.tenants.push(VirtualTenant { step, source, due: None });
        controller
    }

    /// The game-over path: stop `tenant`, end its in-flight requests and
    /// drop its backlog. The stage's database, which every tenant shares, is
    /// not reset.
    pub fn halt_and_reset(&mut self, tenant: &Controller) {
        let same = |t: &VirtualTenant| Arc::ptr_eq(t.step.controller.state(), tenant.state());
        let index = self.tenants.iter().position(same).expect("a tenant of this stage");
        for slot in &mut self.terminals {
            slot.take_if(|busy| busy.tenant == index);
        }
        tenant.stop();
        tenant.queue().drain();
        self.tenants[index].due = None;
    }

    /// Run `dt` more virtual µs.
    pub fn advance(&mut self, dt: Micros) {
        self.run_until(self.clock.now() + dt);
    }

    /// Run every event up to and including virtual time `until`. Each
    /// serving tenant is polled again first, so what was changed through its
    /// controller since the last call acts from now.
    pub fn run_until(&mut self, until: Micros) {
        let now = self.clock.now();
        for t in self.tenants.iter_mut().filter(|t| t.serving()) {
            t.due = Some(now);
        }
        loop {
            let free = self.terminals.iter().any(Option::is_none);
            let ends = self.terminals.iter().flatten().map(|busy| busy.until);
            let dues = self.tenants.iter().filter(|t| free && t.serving()).filter_map(|t| t.due);
            let next = ends.chain(dues).fold(self.seconds * MICROS_PER_SEC, Micros::min);
            if next > until {
                break;
            }
            self.clock.advance_to(next);
            let now = self.clock.now();
            for slot in &mut self.terminals {
                let Some(busy) = slot.as_mut().filter(|busy| busy.until <= now) else { continue };
                let step = &self.tenants[busy.tenant].step;
                match busy.served.take().map_or(0, |served| step.finish(&served, busy.until)) {
                    0 => *slot = None,
                    think => busy.until += think,
                }
            }
            if now >= self.seconds * MICROS_PER_SEC {
                self.step_manager();
            }
            self.dispatch(now);
        }
        self.clock.advance_to(until);
    }

    fn step_manager(&mut self) {
        let boundary = self.seconds * MICROS_PER_SEC;
        for t in &mut self.tenants {
            let c = &t.step.controller;
            if !c.is_stopped() && manager_step(&mut t.source, self.seconds, boundary, 0, c) {
                c.stop();
            }
            t.due = Some(boundary);
        }
        self.seconds += 1;
    }

    /// Give each free terminal the request of the tenant whose head fell due
    /// first, and serve it on the stage: it ends when its charges,
    /// `SLOWDOWN` times over, and its backoff, unscaled, have passed.
    fn dispatch(&mut self, now: Micros) {
        while let Some(slot) = self.terminals.iter().position(Option::is_none) {
            let Some((tenant, _)) = (self.tenants.iter().enumerate())
                .filter_map(|(i, t)| Some((i, t.due.filter(|due| *due <= now && t.serving())?)))
                .min_by_key(|&(i, due)| (due, i))
            else {
                return;
            };
            let t = &mut self.tenants[tenant];
            match t.step.controller.queue().poll() {
                Err(due) => t.due = due,
                Ok(req) => {
                    t.due = Some(now);
                    let charged_from = self.conn.database().clock().now();
                    let served = t.step.serve(req, &mut self.conn, &mut self.rng, |_| {});
                    let charged = self.conn.database().clock().now() - charged_from;
                    let until = req.dispatched + (charged as f64 * SLOWDOWN).round() as Micros + served.backoff_us;
                    self.terminals[slot] = Some(Busy { tenant, served: Some(served), until });
                }
            }
        }
    }
}

impl VirtualTenant {
    fn serving(&self) -> bool {
        !self.step.controller.is_paused() && !self.step.controller.is_stopped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::ArrivalDist;
    use crate::stats::StatsCollector;
    use crate::workload::{BenchmarkClass, LoadSummary, TransactionType, TxnOutcome};
    use bp_sql::Result as SqlResult;
    use bp_storage::Value;

    /// One table of 100 rows; type 0 reads a row, type 1 updates one.
    struct ReadWrite;

    impl Workload for ReadWrite {
        fn name(&self) -> &'static str {
            "readwrite"
        }

        fn class(&self) -> BenchmarkClass {
            BenchmarkClass::FeatureTesting
        }

        fn domain(&self) -> &'static str {
            "test"
        }

        fn transaction_types(&self) -> Vec<TransactionType> {
            vec![TransactionType::new("r", 50.0, true), TransactionType::new("w", 50.0, false)]
        }

        fn create_schema(&self, conn: &mut Connection) -> SqlResult<()> {
            conn.execute_batch("CREATE TABLE kv (k INT PRIMARY KEY, v INT);")
        }

        fn load(&self, conn: &mut Connection, _scale: f64, _rng: &mut Rng) -> SqlResult<LoadSummary> {
            for k in 0..100 {
                conn.execute("INSERT INTO kv VALUES (?, 0)", &[Value::Int(k)])?;
            }
            Ok(LoadSummary { tables: 1, rows: 100 })
        }

        fn execute(&self, txn_idx: usize, conn: &mut Connection, rng: &mut Rng) -> SqlResult<TxnOutcome> {
            let k = Value::Int(rng.int_range(0, 99));
            conn.begin()?;
            if txn_idx == 0 {
                conn.query("SELECT v FROM kv WHERE k = ?", &[k])?;
            } else {
                conn.execute("UPDATE kv SET v = v + 1 WHERE k = ?", &[k])?;
            }
            conn.commit()?;
            Ok(TxnOutcome::Committed)
        }
    }

    /// `name`'s personality without its jitter.
    fn quiet(name: &str) -> Personality {
        Personality { jitter: 0.0, ..Personality::by_name(name).unwrap() }
    }

    /// The stage's measured capacity at [`ReadWrite`] mixed by `weights`.
    fn capacity(personality: Personality, weights: Vec<f64>) -> f64 {
        VirtualRun::saturated_tps(personality, Arc::new(ReadWrite), Some(weights), 1)
    }

    /// A tenant driven by `script`, `Rate::Unlimited` at `unlimited_rate`,
    /// with spans off.
    fn config(script: PhaseScript, unlimited_rate: f64) -> RunConfig {
        let obs = ObsConfig { mode: SpanMode::Off, ..ObsConfig::default() };
        RunConfig { script, unlimited_rate, obs, ..RunConfig::default() }
    }

    /// One tenant on `personality`'s stage driven by `script` for its whole
    /// length: its statistics.
    fn solo(personality: Personality, script: PhaseScript, unlimited_rate: f64, seed: u64) -> Arc<StatsCollector> {
        let end = script.total_duration_us();
        let mut run = VirtualRun::new(personality, Arc::new(ReadWrite), seed);
        let tenant = run.add_tenant(config(script, unlimited_rate));
        run.run_until(end);
        tenant.stats().clone()
    }

    fn mean(series: &[f64]) -> f64 {
        series.iter().sum::<f64>() / series.len() as f64
    }

    #[test]
    fn tracks_a_constant_rate_under_capacity() {
        let script = PhaseScript::constant(Rate::Limited(400.0), 10.0);
        let delivered = solo(quiet("mysql"), script, 1e5, 1).throughput_series();
        for v in &delivered[1..9] {
            assert!((v - 400.0).abs() < 10.0, "{v}");
        }
    }

    #[test]
    fn saturates_flat_at_capacity() {
        let cap = capacity(quiet("derby"), vec![50.0, 50.0]);
        let settled = |offered: f64| {
            let stats = solo(quiet("derby"), PhaseScript::constant(Rate::Unlimited, 10.0), offered, 1);
            mean(&stats.throughput_series()[5..9])
        };
        let (twice, four_times) = (settled(cap * 2.0), settled(cap * 4.0));
        for delivered in [twice, four_times] {
            assert!((delivered - cap).abs() < cap * 0.05, "{delivered} vs capacity {cap}");
        }
        assert!((twice - four_times).abs() < cap * 0.05, "no droop past saturation: {twice} {four_times}");
    }

    #[test]
    fn a_mixture_is_served_at_the_share_weighed_mean_of_its_types() {
        let personality = quiet("mysql");
        let read = capacity(personality.clone(), vec![100.0, 0.0]);
        let write = capacity(personality.clone(), vec![0.0, 100.0]);
        let blended = 1.0 / (0.75 / read + 0.25 / write);
        let mixed = capacity(personality, vec![75.0, 25.0]);
        assert!((mixed - blended).abs() < blended * 0.1, "{mixed} vs {blended}");
    }

    #[test]
    fn serves_read_only_faster_than_write_heavy() {
        let write_heavy = capacity(quiet("mysql"), vec![0.0, 100.0]);
        let read_only = capacity(quiet("mysql"), vec![100.0, 0.0]);
        assert!(read_only > write_heavy * 1.6, "read-only {read_only} vs write-heavy {write_heavy}");
    }

    #[test]
    fn same_seed_gives_an_identical_series() {
        let run = |seed| {
            let script = PhaseScript::new(vec![
                Phase::new(Rate::Limited(800.0), 5.0).with_arrival(ArrivalDist::Exponential)
            ]);
            let stats = solo(Personality::derby_like(), script, 1e5, seed);
            let mean_us: Vec<f64> = stats.per_type_summary().iter().map(|t| t.mean_us).collect();
            (stats.throughput_series(), mean_us)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).1, run(43).1, "the seed draws the arrivals and the keys");
    }

    /// Two tenants on one stage, each offered `rates[i]` for ten seconds:
    /// each one's mean delivered rate over seconds 5–8.
    fn two_tenants(rates: [f64; 2]) -> [f64; 2] {
        let mut run = VirtualRun::new(quiet("mysql"), Arc::new(ReadWrite), 1);
        let tenants = rates.map(|rate| {
            let script = PhaseScript::new(vec![
                Phase::new(Rate::Limited(rate), 10.0).with_weights(vec![100.0, 0.0])
            ]);
            run.add_tenant(config(script, 1e5))
        });
        run.run_until(10 * MICROS_PER_SEC);
        tenants.map(|t| t.stats().throughput_series().get(5..9).map_or(0.0, mean))
    }

    #[test]
    fn tenants_share_the_terminals() {
        let cap = capacity(quiet("mysql"), vec![100.0, 0.0]);
        let [t1, t2] = two_tenants([cap, cap]);
        assert!((t1 - cap / 2.0).abs() < cap * 0.1, "t1 {t1} vs {cap}");
        assert!((t2 - cap / 2.0).abs() < cap * 0.1, "t2 {t2} vs {cap}");
    }

    #[test]
    fn an_idle_neighbor_takes_nothing() {
        let [t1, t2] = two_tenants([500.0, 0.0]);
        assert!((t1 - 500.0).abs() < 10.0, "{t1}");
        assert_eq!(t2, 0.0);
    }

    #[test]
    fn response_time_grows_near_capacity() {
        let cap = capacity(Personality::postgres_like(), vec![50.0, 50.0]);
        let response_p95 = |rate: f64| {
            let script = PhaseScript::constant(Rate::Limited(rate), 20.0);
            solo(Personality::postgres_like(), script, 1e5, 3).response_time().1
        };
        let idle = response_p95(10.0);
        let busy = response_p95(cap * 0.95);
        assert!(busy > idle * 5, "idle p95 {idle}µs busy p95 {busy}µs");
    }

    #[test]
    fn a_paused_tenant_is_served_nothing_and_generates_nothing() {
        let mut run = VirtualRun::new(quiet("mysql"), Arc::new(ReadWrite), 1);
        let tenant = run.add_tenant(config(PhaseScript::constant(Rate::Limited(500.0), 10.0), 1e5));
        run.run_until(2 * MICROS_PER_SEC - 1);
        tenant.pause();
        run.run_until(4 * MICROS_PER_SEC - 1);
        tenant.resume();
        run.run_until(6 * MICROS_PER_SEC - 1);
        let stats = tenant.stats();
        assert_eq!(stats.requested_series(), [500.0, 500.0, 0.0, 0.0, 500.0, 500.0]);
        // Second 2 holds only what was in flight when the pause began.
        let delivered = stats.throughput_series();
        assert!(delivered[2] < 5.0 && delivered[3] == 0.0, "{delivered:?}");
    }

    #[test]
    fn halt_and_reset_stops_one_tenant() {
        let mut run = VirtualRun::new(quiet("mysql"), Arc::new(ReadWrite), 1);
        let [neighbor, halted] =
            [(); 2].map(|()| run.add_tenant(config(PhaseScript::constant(Rate::Limited(500.0), 10.0), 1e5)));
        run.run_until(3 * MICROS_PER_SEC + 500_000);
        run.halt_and_reset(&halted);
        let (completed, requested) = (halted.stats().total_completed(), halted.stats().requested_series());
        run.run_until(6 * MICROS_PER_SEC - 1);
        assert!(halted.is_stopped());
        assert_eq!(halted.backlog(), 0, "the backlog is dropped");
        assert_eq!(halted.stats().total_completed(), completed, "nothing completes after the halt");
        assert_eq!(halted.stats().requested_series(), requested, "the schedule stopped");
        let neighbor: f64 = neighbor.stats().throughput_series()[3..5].iter().sum();
        assert!((neighbor - 1_000.0).abs() <= 2.0, "the neighbor runs on: {neighbor}");
    }

    #[test]
    fn control_calls_between_two_advances_act_from_that_instant() {
        // `Personality::test()` charges nothing, so a request completes in
        // the µs it is dispatched and the completed count is the dispatched.
        let mut run = VirtualRun::new(Personality::test(), Arc::new(ReadWrite), 1);
        let tenant = run.add_tenant(config(PhaseScript::constant(Rate::Limited(1_000.0), 10.0), 1e5));
        let done = || tenant.stats().total_completed();
        run.advance(100_000);
        assert_eq!(done(), 101, "one a ms, at 0 and at 100 ms too");
        // Cut to 1 tx/s: the gate holds the next request a second on.
        tenant.set_rate(Rate::Limited(1.0));
        run.advance(100_000);
        assert_eq!(done(), 101);
        // Back to 1,000 tx/s: the held head falls due at once, not at 1.1 s.
        tenant.set_rate(Rate::Limited(1_000.0));
        run.advance(100_000);
        assert!(done() >= 200, "{}", done());
        tenant.pause();
        let paused_at = done();
        run.advance(100_000);
        assert_eq!(done(), paused_at, "nothing is dispatched while paused");
    }

    #[test]
    fn chaos_on_the_stage_fails_requests_and_the_run_goes_on() {
        use bp_chaos::{FaultKind, FaultPlan, FaultWindow};
        let mut run = VirtualRun::new(Personality::test(), Arc::new(ReadWrite), 1);
        let script = || PhaseScript::constant(Rate::Limited(50.0), 10.0);
        let [healthy, blacked_out] =
            [0, 1].map(|tenant| run.add_tenant(RunConfig { tenant, ..config(script(), 1e5) }));
        let panics = |c: &Controller| c.journal().all().iter().filter(|e| e.kind == "worker_panic").count() as u64;

        // Every transaction panics: each request fails, once, and journals
        // its panic, and the stage serves on.
        let storm = FaultWindow::always(FaultKind::PanicStorm, 1.0, 0);
        healthy.chaos().arm(FaultPlan::new("storm", 7).with_window(storm));
        run.run_until(MICROS_PER_SEC - 1);
        for tenant in [&healthy, &blacked_out] {
            let status = tenant.stats().status(1);
            assert_eq!((status.committed, status.failed, status.retries), (0, 50, 0), "{status:?}");
        }
        assert_eq!(panics(&healthy), 100, "one worker_panic a request");

        // Tenant 1 blacks out: it fails after its retries, tenant 0 commits.
        healthy.chaos().arm(FaultPlan::new("blackout-t1", 5).with_window(FaultWindow {
            kind: FaultKind::Blackout,
            start_us: 0,
            end_us: u64::MAX,
            intensity: 1.0,
            magnitude: 0,
            tenant: Some(1),
        }));
        run.run_until(2 * MICROS_PER_SEC - 1);
        let [ok, out] = [&healthy, &blacked_out].map(|t| t.stats().status(1));
        assert_eq!((ok.committed, ok.failed), (50, 50), "{ok:?}");
        assert_eq!((out.committed, out.failed, out.retries), (0, 100, 150), "{out:?}");
        assert_eq!(panics(&healthy), 100, "no panic rolled under the blackout plan");
    }

    #[test]
    fn think_time_holds_a_terminal_past_its_end() {
        // Nothing is charged, so each terminal serves one request every 10 ms
        // of think time: four serve 400 of the 1,000 offered a second.
        let mut run = VirtualRun::new(Personality::test(), Arc::new(ReadWrite), 1);
        let phase = Phase::new(Rate::Limited(1_000.0), 10.0).with_think_time(10_000);
        let tenant = run.add_tenant(config(PhaseScript::new(vec![phase]), 1e5));
        run.run_until(10 * MICROS_PER_SEC - 1);
        assert_eq!(tenant.stats().throughput_series()[1..9], [400.0; 8]);
    }
}
