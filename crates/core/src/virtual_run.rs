//! The driver in virtual time: one thread, no sleeps, a [`SimClock`]. Each
//! tenant is a live run's [`Controller`], steered through its own methods,
//! and a [`ScriptSchedule`]; each virtual second the manager thread's own
//! step (`executor::manager_step`) fills its queue. Four virtual terminals
//! take requests only through
//! [`RequestQueue::poll`](crate::RequestQueue::poll) and record each through
//! [`StatsCollector::record`] when virtual time reaches its end (no think
//! time). The loop jumps to the next event: a second boundary, a terminal
//! freeing up, or, while one is free, a due time `poll` returned. A free
//! terminal takes the tenant whose head fell due first, ties to the lower
//! index, so tenants interfere only by sharing the terminals. The stage is
//! the engine: a dispatch runs the transaction at once on a small database
//! with the DBMS's [`Personality`], on a `SimClock` of its own that only its
//! charges advance, and holds the terminal for that advance [`SLOWDOWN`]
//! times over. One transaction runs at a time, so no lock is waited for and
//! group commit sees the charges back to back. A tenant's controller journals
//! its control calls on the stage database, stamped on that charge clock.

use std::sync::Arc;

use bp_obs::{ObsConfig, SpanMode, SpanRecorder};
use bp_sql::Connection;
use bp_storage::{Database, Personality};
use bp_util::clock::{Clock, Micros, SimClock, MICROS_PER_SEC};
use bp_util::rng::Rng;

use crate::controller::Controller;
use crate::executor::{initial_control, manager_step, settle};
use crate::rate::{Phase, PhaseScript, Rate};
use crate::schedule::ScriptSchedule;
use crate::stats::{RequestOutcome, Sample, StatsCollector};
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
    /// Each busy terminal's tenant and the sample its completion records.
    terminals: Vec<Option<(usize, Sample)>>,
    /// Manager seconds stepped so far.
    seconds: u64,
    rng: Rng,
}

struct VirtualTenant {
    controller: Controller,
    source: ScriptSchedule,
    /// When the head falls due as `poll` last said (`None`: empty); a
    /// dispatch, a manager step or entering `run_until` lowers it to then,
    /// so the tenant is polled again first.
    due: Option<Micros>,
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
        let tenant = run.add_tenant(PhaseScript::new(vec![phase]), 20_000.0);
        run.run_until(6 * MICROS_PER_SEC - 1);
        tenant.stats().throughput_series()[2..].iter().sum::<f64>() / 4.0
    }

    /// Add a tenant driven by `script` before the run starts: a live run's
    /// controller, with spans off, on the stage's database. Its control
    /// calls act from the instant they are made between two `run_until`s.
    pub fn add_tenant(&mut self, script: PhaseScript, unlimited_rate: f64) -> Controller {
        assert_eq!(self.seconds, 0, "tenants join before the run starts");
        let types = self.workload.transaction_types();
        let names: Vec<&str> = types.iter().map(|t| t.name).collect();
        let stats = Arc::new(StatsCollector::new(self.clock.clone(), &names));
        let (state, queue) = initial_control(&script, &types, unlimited_rate, self.clock.clone());
        let spans_off = ObsConfig { mode: SpanMode::Off, ring_capacity: 1, sample_ratio: 0.0 };
        let spans = Arc::new(SpanRecorder::new(spans_off));
        let db = self.conn.database().clone();
        let controller = Controller::new(state, queue, stats, spans, db, types, self.workload.name());
        let source = ScriptSchedule::new(script, unlimited_rate, self.rng.next_u64());
        self.tenants.push(VirtualTenant { controller: controller.clone(), source, due: None });
        controller
    }

    /// The game-over path: stop `tenant`, end its in-flight requests and
    /// drop its backlog. The stage's database, which every tenant shares, is
    /// not reset.
    pub fn halt_and_reset(&mut self, tenant: &Controller) {
        let index = self.tenants.iter().position(|t| Arc::ptr_eq(t.controller.state(), tenant.state()));
        let index = index.expect("a tenant of this stage");
        for slot in &mut self.terminals {
            slot.take_if(|(busy, _)| *busy == index);
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
            let ends = self.terminals.iter().flatten().map(|(_, sample)| sample.end);
            let dues = self.tenants.iter().filter(|t| free && t.serving()).filter_map(|t| t.due);
            let next = ends.chain(dues).fold(self.seconds * MICROS_PER_SEC, Micros::min);
            if next > until {
                break;
            }
            self.clock.advance_to(next);
            let now = self.clock.now();
            for slot in &mut self.terminals {
                if let Some((tenant, sample)) = slot.take_if(|(_, sample)| sample.end <= now) {
                    self.tenants[tenant].controller.stats().record(sample);
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
            let c = &t.controller;
            let (state, queue, stats) = (c.state(), c.queue(), c.stats());
            if !c.is_stopped() && manager_step(&mut t.source, self.seconds, boundary, 0, state, queue, stats) {
                c.stop();
            }
            t.due = Some(boundary);
        }
        self.seconds += 1;
    }

    /// Give each free terminal the request of the tenant whose head fell due
    /// first, and run its transaction on the stage.
    fn dispatch(&mut self, now: Micros) {
        while let Some(slot) = self.terminals.iter().position(Option::is_none) {
            let Some((tenant, _)) = (self.tenants.iter().enumerate())
                .filter_map(|(i, t)| Some((i, t.due.filter(|due| *due <= now && t.serving())?)))
                .min_by_key(|&(i, due)| (due, i))
            else {
                return;
            };
            let t = &mut self.tenants[tenant];
            match t.controller.queue().poll() {
                Err(due) => t.due = due,
                Ok(req) => {
                    t.due = Some(now);
                    let txn_type = req.txn_type as usize;
                    let charged_from = self.conn.database().clock().now();
                    let attempt = self.workload.execute(txn_type, &mut self.conn, &mut self.rng);
                    let outcome = settle(Some(attempt), &mut self.conn).unwrap_or(RequestOutcome::Failed);
                    let charged = self.conn.database().clock().now() - charged_from;
                    let end = now + (charged as f64 * SLOWDOWN).round() as Micros;
                    let sample = Sample { txn_type, arrival: req.arrival, start: req.dispatched, end, outcome, retries: 0 };
                    self.terminals[slot] = Some((tenant, sample));
                }
            }
        }
    }
}

impl VirtualTenant {
    fn serving(&self) -> bool {
        !self.controller.is_paused() && !self.controller.is_stopped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::ArrivalDist;
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

    /// One tenant on `personality`'s stage driven by `script` for its whole
    /// length: its statistics.
    fn solo(personality: Personality, script: PhaseScript, unlimited_rate: f64, seed: u64) -> Arc<StatsCollector> {
        let end = script.total_duration_us();
        let mut run = VirtualRun::new(personality, Arc::new(ReadWrite), seed);
        let tenant = run.add_tenant(script, unlimited_rate);
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
            (stats.throughput_series(), stats.latency_series())
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
            run.add_tenant(script, 1e5)
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
        let tenant = run.add_tenant(PhaseScript::constant(Rate::Limited(500.0), 10.0), 1e5);
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
            [(); 2].map(|()| run.add_tenant(PhaseScript::constant(Rate::Limited(500.0), 10.0), 1e5));
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
        let tenant = run.add_tenant(PhaseScript::constant(Rate::Limited(1_000.0), 10.0), 1e5);
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
}
