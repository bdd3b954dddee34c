//! Game sessions: wiring the game loop to a backend testbed.
//!
//! The demo's architecture is: browser game → Web app server → OLTP-Bench
//! control API → DBMS. Here the [`GameBackend`] trait abstracts the right
//! side of that chain; two implementations are provided:
//!
//! * [`SimBackend`]: the real driver in virtual time, each request served
//!   by the engine with the DBMS's personality (deterministic and fast:
//!   tests and autopilot experiments);
//! * [`ApiBackend`]: drives a *live* workload through [`bp_api::ApiServer`]
//!   requests, exactly like the JavaScript game does over REST.
//!
//! [`TwoPlayerSession`] runs two characters as two tenants of one simulated
//! stage, letting each player feel the other's load (§4.3).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use bp_api::{ApiServer, Request};
use bp_core::{Controller, MixturePreset, Phase, PhaseScript, Rate, RunConfig, VirtualRun, Workload};
use bp_obs::{ObsConfig, SpanMode};
use bp_replay::{Artifact, ARTIFACT_VERSION};
use bp_storage::Personality;
use bp_util::clock::Micros;
use bp_util::json::Json;

use crate::challenge::Course;
use crate::game::{Game, GameEvent, Input};
use crate::physics::PhysicsConfig;

/// What the game needs from the testbed.
pub trait GameBackend {
    /// Push the requested rate; returns the measured throughput for the
    /// elapsed interval.
    fn exchange(&mut self, requested_tps: f64, dt_us: Micros) -> f64;

    /// Pause / resume the benchmark (blocks the workers).
    fn set_paused(&mut self, paused: bool);

    /// Apply a preset mixture.
    fn apply_preset(&mut self, preset: MixturePreset);

    /// Game over: halt the benchmark and reset the database.
    fn halt_and_reset(&mut self);

    /// One-line per-stage latency summary from the testbed's span flight
    /// recorder, if the backend has one. The virtual-time backend does not.
    fn span_summary(&self) -> Option<String> {
        None
    }

    /// Post-mortem bottleneck findings from the testbed's doctor, one line
    /// per finding. Backends without telemetry return nothing.
    fn doctor_findings(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Deterministic backend: one tenant of a [`VirtualRun`], steered through
/// its controller and measured by its collector's window over the last
/// complete second, as `/status` is live.
pub struct SimBackend {
    stage: Rc<RefCell<VirtualRun>>,
    pub controller: Controller,
}

impl SimBackend {
    pub fn new(personality: Personality, workload: Arc<dyn Workload>, seed: u64) -> SimBackend {
        let stage = VirtualRun::new(personality, workload, seed);
        SimBackend::join(&Rc::new(RefCell::new(stage)))
    }

    /// A player's tenant on `stage`, whose rate the game sets every tick.
    fn join(stage: &Rc<RefCell<VirtualRun>>) -> SimBackend {
        let script = PhaseScript::repeating(vec![Phase::new(Rate::Disabled, 1.0)]);
        let obs = ObsConfig { mode: SpanMode::Off, ..ObsConfig::default() };
        let controller = stage.borrow_mut().add_tenant(RunConfig { script, obs, ..RunConfig::default() });
        SimBackend { stage: stage.clone(), controller }
    }

    fn request(&self, tps: f64) {
        self.controller.set_rate(Rate::Limited(tps));
    }

    fn measured(&self) -> f64 {
        self.controller.stats().window_snapshot(1).throughput
    }
}

impl GameBackend for SimBackend {
    fn exchange(&mut self, requested_tps: f64, dt_us: Micros) -> f64 {
        // A paused game's time stands still, and so does its own stage: it
        // resumes where it stopped, its window unchanged.
        if !self.controller.is_paused() {
            self.request(requested_tps);
            self.stage.borrow_mut().advance(dt_us);
        }
        self.measured()
    }

    fn set_paused(&mut self, paused: bool) {
        if paused { self.controller.pause() } else { self.controller.resume() }
    }

    fn apply_preset(&mut self, preset: MixturePreset) {
        self.controller.set_preset(preset);
    }

    /// Halt the tenant and drop its work; the stage's database, which a
    /// second player shares, is not reset.
    fn halt_and_reset(&mut self) {
        self.stage.borrow_mut().halt_and_reset(&self.controller);
    }
}

/// Live backend: every game action becomes a control-API request, and the
/// measured throughput comes from the API's status feedback — the same
/// contract the browser game uses.
pub struct ApiBackend {
    api: Arc<ApiServer>,
    workload_id: String,
}

impl ApiBackend {
    pub fn new(api: Arc<ApiServer>, workload_id: &str) -> ApiBackend {
        ApiBackend { api, workload_id: workload_id.to_string() }
    }

    fn post(&self, action: &str, body: Json) {
        let path = format!("/workloads/{}/{}", self.workload_id, action);
        let _ = self.api.handle(&Request::post(&path, body));
    }
}

impl GameBackend for ApiBackend {
    fn exchange(&mut self, requested_tps: f64, _dt_us: Micros) -> f64 {
        self.post("rate", Json::obj().set("tps", requested_tps));
        let path = format!("/workloads/{}", self.workload_id);
        let resp = self.api.handle(&Request::get(&path));
        resp.body
            .get("status")
            .and_then(|s| s.get("throughput"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    fn set_paused(&mut self, paused: bool) {
        self.post(if paused { "pause" } else { "resume" }, Json::obj());
    }

    fn apply_preset(&mut self, preset: MixturePreset) {
        let name = match preset {
            MixturePreset::Default => "default",
            MixturePreset::ReadOnly => "read_only",
            MixturePreset::SuperWrites => "super_writes",
        };
        self.post("mixture", Json::obj().set("preset", name));
    }

    fn halt_and_reset(&mut self) {
        self.post("reset", Json::obj());
    }

    fn span_summary(&self) -> Option<String> {
        let resp = self.api.handle(&Request::get("/trace/summary"));
        resp.body
            .get("workloads")?
            .as_arr()?
            .iter()
            .find(|w| w.get("id").and_then(Json::as_str) == Some(self.workload_id.as_str()))?
            .get("line")?
            .as_str()
            .map(str::to_string)
    }

    fn doctor_findings(&self) -> Vec<String> {
        let path = format!("/doctor?workload={}", self.workload_id);
        let resp = self.api.handle(&Request::get(&path));
        let Some(findings) = resp.body.get("findings").and_then(Json::as_arr) else {
            return Vec::new();
        };
        findings
            .iter()
            .filter_map(|f| {
                let bottleneck = f.get("bottleneck")?.as_str()?;
                let evidence = f.get("evidence").and_then(Json::as_str).unwrap_or("");
                Some(format!("{bottleneck}: {evidence}"))
            })
            .collect()
    }
}

/// A single-player session: game + backend, stepped tick by tick.
pub struct GameSession<B: GameBackend> {
    pub game: Game,
    pub backend: B,
    /// One summary line per finished run (crash or victory), pulled from
    /// the backend's span recorder when it has one.
    pub span_log: Vec<String>,
    /// Bottleneck post-mortem lines from the testbed's doctor, captured at
    /// crash time (before the reset wipes the telemetry).
    pub doctor_log: Vec<String>,
    /// `(play_time_us, requested_tps)` per tick — the raw material for
    /// saving the played run as a replayable scenario.
    pub rate_log: Vec<(Micros, f64)>,
}

impl<B: GameBackend> GameSession<B> {
    pub fn new(game: Game, backend: B) -> GameSession<B> {
        GameSession { game, backend, span_log: Vec::new(), doctor_log: Vec::new(), rate_log: Vec::new() }
    }

    /// One game tick: exchange load with the backend, advance the game,
    /// apply resulting events to the backend. Returns the events.
    pub fn tick(&mut self, dt_us: Micros, input: Input) -> Vec<GameEvent> {
        let measured = self.backend.exchange(self.game.requested_tps(), dt_us);
        self.advance(dt_us, measured, input)
    }

    /// Advance the game on a measured rate and apply its events to the backend.
    fn advance(&mut self, dt_us: Micros, measured: f64, input: Input) -> Vec<GameEvent> {
        let events = self.game.tick(dt_us, measured, input);
        for e in &events {
            match e {
                GameEvent::PauseBenchmark => self.backend.set_paused(true),
                GameEvent::ResumeBenchmark => self.backend.set_paused(false),
                GameEvent::ApplyPreset(p) => self.backend.apply_preset(*p),
                GameEvent::HaltAndReset => {
                    // Snapshot the run's stage latencies and the doctor's
                    // post-mortem before the reset wipes the benchmark state.
                    self.log_span_summary("game-over");
                    self.doctor_log.extend(self.backend.doctor_findings());
                    self.backend.halt_and_reset();
                }
                GameEvent::Victory => self.log_span_summary("victory"),
            }
        }
        // Log the rate curve at distinct play-time points (paused ticks
        // don't advance time and would duplicate the last point).
        let t = self.game.elapsed_us();
        if self.rate_log.last().is_none_or(|(lt, _)| *lt < t) {
            self.rate_log.push((t, self.game.requested_tps()));
        }
        events
    }

    /// Compress the played rate curve into a `PhaseScript`: consecutive
    /// ticks whose requested rate stays near the running phase mean merge
    /// into one phase at that mean. The merge band is sized to the
    /// character's jump impulse, so normal jump/gravity oscillation around
    /// a level folds into one phase while level changes split.
    pub fn scenario_script(&self) -> PhaseScript {
        let band = (1.5 * self.game.character.config().jump_tps).max(5.0);
        let mut phases = Vec::new();
        let mut iter = self.rate_log.iter().copied();
        let Some((mut seg_t, first_rate)) = iter.next() else {
            return PhaseScript::new(phases);
        };
        let mut sum = first_rate;
        let mut n = 1u64;
        let mut last_t = seg_t;
        for (t, rate) in iter {
            last_t = t;
            let mean = sum / n as f64;
            if (rate - mean).abs() <= (0.15 * mean.abs()).max(band) {
                sum += rate;
                n += 1;
                continue;
            }
            let duration_s = ((t - seg_t) as f64 / 1e6).max(0.1);
            phases.push(Phase::new(Rate::Limited(mean), duration_s));
            (seg_t, sum, n) = (t, rate, 1);
        }
        let duration_s = ((last_t - seg_t) as f64 / 1e6).max(0.1);
        phases.push(Phase::new(Rate::Limited(sum / n as f64), duration_s));
        PhaseScript::new(phases)
    }

    /// Save the played run as a script-only replay artifact: replaying it
    /// regenerates the scenario's schedule from `seed`, so a good game can
    /// be re-run as a benchmark workload (or shared as text).
    pub fn scenario_artifact(&self, seed: u64, types: &[&str]) -> Artifact {
        Artifact {
            version: ARTIFACT_VERSION,
            workload: self.game.benchmark.clone(),
            personality: self.game.dbms.clone(),
            seed,
            terminals: 4,
            tenant: 0,
            unlimited_rate: 50_000.0,
            types: types.iter().map(|s| s.to_string()).collect(),
            script: self.scenario_script(),
            schedule: Vec::new(),
            trace: Vec::new(),
        }
    }

    fn log_span_summary(&mut self, event: &str) {
        if let Some(line) = self.backend.span_summary() {
            self.span_log.push(format!("{event} {line}"));
        }
    }

    /// Run with a scripted input policy until the game ends or `max_ticks`.
    pub fn run_policy(
        &mut self,
        dt_us: Micros,
        max_ticks: usize,
        mut policy: impl FnMut(&Game) -> Input,
    ) -> &Game {
        for _ in 0..max_ticks {
            if self.game.is_over() {
                break;
            }
            let input = policy(&self.game);
            self.tick(dt_us, input);
        }
        &self.game
    }
}

/// Two players, two tenants of one virtual-time run: each player's load
/// takes terminals from the other (multi-tenancy, §2.2.3/§4.3).
pub struct TwoPlayerSession {
    pub players: [GameSession<SimBackend>; 2],
}

impl TwoPlayerSession {
    pub fn new(
        personality: Personality,
        workload: Arc<dyn Workload>,
        courses: [Course; 2],
        physics: PhysicsConfig,
        seed: u64,
    ) -> TwoPlayerSession {
        let name = personality.name;
        let stage = Rc::new(RefCell::new(VirtualRun::new(personality, workload, seed)));
        let player = |id, course| GameSession::new(Game::new(id, name, course, physics), SimBackend::join(&stage));
        let [c1, c2] = courses;
        TwoPlayerSession { players: [player("p1", c1), player("p2", c2)] }
    }

    /// Both rates reach the stage, it runs once, then each player advances.
    pub fn tick(&mut self, dt_us: Micros, inputs: [Input; 2]) {
        for p in &self.players {
            p.backend.request(p.game.requested_tps());
        }
        self.players[0].backend.stage.borrow_mut().advance(dt_us);
        for (p, input) in self.players.iter_mut().zip(inputs) {
            let measured = p.backend.measured();
            p.advance(dt_us, measured, input);
        }
    }
}

/// Helper: the ideal requested rate to hit the next obstacle's center —
/// the policy used by autopilot demos and the physics tests.
pub fn chase_center_policy(game: &Game) -> Input {
    let t = game.elapsed_us();
    // Look a little ahead so we climb before the window opens.
    let target = game
        .course
        .active_at(t)
        .or_else(|| game.course.active_at(t + 2_000_000))
        .map(|o| o.center());
    match target {
        Some(target) => {
            let requested = game.character.requested_tps;
            if requested < target - game.character.config().jump_tps * 0.6 {
                Input::Jump
            } else if requested > target + game.character.config().jump_tps * 0.6 {
                Input::Dive
            } else if requested < target {
                // Counteract gravity with small hops.
                Input::Jump
            } else {
                Input::None
            }
        }
        None => Input::None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::challenge::{ChallengeShape, Obstacle};

    fn ycsb() -> Arc<dyn Workload> {
        bp_workloads::by_name("ycsb").unwrap()
    }

    fn quiet() -> Personality {
        Personality { jitter: 0.0, ..Personality::mysql_like() }
    }

    /// The quiet stage's measured capacity at `workload` mixed by `weights`
    /// (`None`: its default mixture).
    fn capacity(workload: Arc<dyn Workload>, weights: Option<Vec<f64>>) -> f64 {
        VirtualRun::saturated_tps(quiet(), workload, weights, 1)
    }

    fn steps_course(max: f64) -> Course {
        Course::generate(
            "steps",
            ChallengeShape::Steps { levels: 3, low: max * 0.2, high: max * 0.5, ascending: true },
            30.0,
            0.8,
        )
    }

    #[test]
    fn sim_session_with_chase_policy_wins_easy_course() {
        let course = steps_course(1_000.0);
        let game = Game::new("ycsb", "mysql", course, PhysicsConfig {
            jump_tps: 60.0,
            gravity_tps_per_s: 40.0,
            max_tps: 1_000.0,
        });
        let backend = SimBackend::new(quiet(), ycsb(), 7);
        let mut session = GameSession::new(game, backend);
        session.run_policy(100_000, 400, chase_center_policy);
        assert_eq!(*session.game.screen(), crate::game::Screen::Won, "score {}", session.game.score());
    }

    #[test]
    fn doing_nothing_crashes() {
        let course = steps_course(1_000.0);
        let game = Game::new("ycsb", "mysql", course, PhysicsConfig::default());
        let backend = SimBackend::new(quiet(), ycsb(), 7);
        let mut session = GameSession::new(game, backend);
        session.run_policy(100_000, 400, |_| Input::None);
        assert!(matches!(session.game.screen(), crate::game::Screen::Crashed { .. }));
        // The crash halted the tenant and dropped its work: five more stage
        // seconds complete nothing for it.
        let tenant = session.backend.controller.clone();
        assert!(tenant.is_stopped() && tenant.backlog() == 0, "a crash halts the benchmark");
        let completed = tenant.stats().total_completed();
        session.backend.stage.borrow_mut().advance(5_000_000);
        assert_eq!(tenant.stats().total_completed(), completed, "nothing completes after the crash");
    }

    #[test]
    fn derby_fails_tunnel_that_oracle_passes() {
        // §4.3: "certain DBMSs cannot pass the tunnel tests, since they
        // produce oscillating throughputs". Here derby fails on capacity:
        // without group commit every write pays its fsync, and its stage
        // serves ycsb at some 160 tx/s, under the tunnel's 255 floor.
        let tunnel = |name: &str| {
            Course::generate(
                "tunnel",
                ChallengeShape::Tunnel { target: 300.0, half_width: 45.0 },
                30.0,
                0.3,
            )
            .obstacles
            .clone()
            .into_iter()
            .fold(
                Course { name: name.into(), obstacles: vec![], duration_us: 30_000_000 },
                |mut c, o| {
                    c.obstacles.push(o);
                    c
                },
            )
        };
        let run = |personality: Personality| {
            let game = Game::new("ycsb", personality.name, tunnel(personality.name), PhysicsConfig {
                jump_tps: 60.0,
                gravity_tps_per_s: 40.0,
                max_tps: 1_000.0,
            });
            let backend = SimBackend::new(personality, ycsb(), 99);
            let mut session = GameSession::new(game, backend);
            session.run_policy(100_000, 400, chase_center_policy);
            session.game.screen().clone()
        };
        let oracle = run(Personality::oracle_like());
        let derby = run(Personality::derby_like());
        assert_eq!(oracle, crate::game::Screen::Won, "oracle should pass the tunnel");
        assert!(
            matches!(derby, crate::game::Screen::Crashed { .. }),
            "derby's oscillation should fail the tunnel: {derby:?}"
        );
    }

    #[test]
    fn two_players_interfere() {
        let cap = capacity(ycsb(), None);
        // Player 1 holds a demand the stage serves alone; player 2 joins
        // with twice the capacity, and the terminals go to whichever
        // request fell due first.
        let course = Course { name: "open".into(), obstacles: vec![], duration_us: 60_000_000 };
        let mut two = TwoPlayerSession::new(
            quiet(),
            ycsb(),
            [course.clone(), course],
            PhysicsConfig { jump_tps: 200.0, gravity_tps_per_s: 0.0, max_tps: 5_000.0 },
            5,
        );
        two.players[0].game.character.set_requested(cap * 0.8);
        two.players[1].game.character.set_requested(0.0);
        for _ in 0..100 {
            two.tick(100_000, [Input::None, Input::None]);
        }
        let solo = two.players[0].game.character.measured_tps;
        two.players[1].game.character.set_requested(cap * 2.0);
        for _ in 0..100 {
            two.tick(100_000, [Input::None, Input::None]);
        }
        let contended = two.players[0].game.character.measured_tps;
        assert!(
            contended < solo * 0.7,
            "player 2's load should slow player 1: solo {solo:.0} contended {contended:.0}"
        );
    }

    #[test]
    fn a_crashed_player_stops_loading_the_shared_stage() {
        let cap = capacity(ycsb(), None);
        let open = Course { name: "open".into(), obstacles: vec![], duration_us: 60_000_000 };
        // Player 2 cannot fit this opening while it carries any load: it
        // crashes at 6 s.
        let wall = Obstacle {
            start_us: 6_000_000,
            end_us: 7_000_000,
            gap_low: 0.0,
            gap_high: 1.0,
            autopilot: false,
        };
        let walled = Course { obstacles: vec![wall], ..open.clone() };
        let mut two = TwoPlayerSession::new(
            quiet(),
            ycsb(),
            [open, walled],
            PhysicsConfig { jump_tps: 200.0, gravity_tps_per_s: 0.0, max_tps: 5_000.0 },
            5,
        );
        let run = |two: &mut TwoPlayerSession, ticks: usize| {
            for _ in 0..ticks {
                two.tick(100_000, [Input::None, Input::None]);
            }
            two.players[0].game.character.measured_tps
        };
        two.players[0].game.character.set_requested(cap * 0.8);
        let solo = run(&mut two, 30);
        two.players[1].game.character.set_requested(cap * 2.0);
        let contended = run(&mut two, 30);
        assert!(contended < solo * 0.7, "solo {solo:.0} contended {contended:.0}");
        assert!(matches!(two.players[1].game.screen(), crate::game::Screen::Crashed { .. }));
        let after = run(&mut two, 20);
        assert!(
            after > solo * 0.9,
            "2 s after player 2 crashed, player 1 measures {after:.0} of its solo {solo:.0}"
        );
    }

    /// A session on an open course whose character holds `tps` (no gravity),
    /// with `obstacles` on it.
    fn holding(workload: Arc<dyn Workload>, tps: f64, obstacles: Vec<Obstacle>) -> GameSession<SimBackend> {
        let course = Course { name: "held".into(), obstacles, duration_us: 60_000_000 };
        let physics = PhysicsConfig { jump_tps: 200.0, gravity_tps_per_s: 0.0, max_tps: 5_000.0 };
        let game = Game::new(workload.name(), "mysql", course, physics);
        let mut session = GameSession::new(game, SimBackend::new(quiet(), workload, 3));
        session.game.character.set_requested(tps);
        session
    }

    fn ticks(session: &mut GameSession<SimBackend>, n: usize, input: Input) {
        for _ in 0..n {
            session.tick(100_000, input);
        }
    }

    #[test]
    fn a_pause_holds_the_stage_until_the_game_resumes() {
        // The opening starts 0.5 s of play after a 2 s pause: the stage must
        // not have run through the pause, or its last second would be empty.
        let gap = Obstacle {
            start_us: 4_500_000,
            end_us: 6_000_000,
            gap_low: 300.0,
            gap_high: 500.0,
            autopilot: false,
        };
        let mut session = holding(ycsb(), 400.0, vec![gap]);
        ticks(&mut session, 40, Input::None);
        session.tick(100_000, Input::Pause);
        ticks(&mut session, 20, Input::None);
        session.tick(100_000, Input::Resume);
        ticks(&mut session, 30, Input::None);
        let measured = session.game.character.measured_tps;
        assert_eq!(*session.game.screen(), crate::game::Screen::Playing, "measured {measured}");
        assert!(!session.backend.controller.is_stopped());
    }

    #[test]
    fn a_read_only_preset_lifts_a_saturated_stage() {
        // Fig. 2d: pause, switch the mixture, resume. Smallbank's read-only
        // Balance is served more than twice as fast as its default mixture,
        // so 1.3 times that mixture's capacity saturates it and fits under
        // the read-only capacity.
        let smallbank = || bp_workloads::by_name("smallbank").unwrap();
        let cap = capacity(smallbank(), None);
        let read_only = MixturePreset::ReadOnly.build(&smallbank().transaction_types());
        let read_only = capacity(smallbank(), Some(read_only.weights().to_vec()));
        let requested = (cap * 1.3).round();
        assert!(requested < read_only * 0.7, "{cap} {read_only}");
        let mut session = holding(smallbank(), requested, vec![]);
        ticks(&mut session, 50, Input::None);
        let saturated = session.game.character.measured_tps;
        assert!(saturated < cap, "{saturated}");
        session.tick(100_000, Input::Pause);
        session.tick(100_000, Input::SelectPreset(MixturePreset::ReadOnly));
        session.tick(100_000, Input::Resume);
        // The read-only requests queue behind 5 s of the old mixture's
        // backlog (some 1,700 requests, 1.5 s of service) and show in the
        // window 1-2 s after they reach the terminals.
        ticks(&mut session, 30, Input::None);
        let risen = session.game.character.measured_tps;
        assert!(risen > saturated, "saturated {saturated:.0}, 3 s after the preset {risen:.0}");
        ticks(&mut session, 15, Input::None);
        let lifted = session.game.character.measured_tps;
        assert!(lifted > requested * 0.95, "saturated {saturated:.0}, 4.5 s after the preset {lifted:.0}");
    }

    #[test]
    fn crash_logs_span_summary() {
        // A backend with a span recorder gets its per-stage summary logged
        // when the run ends.
        struct Summarizing(SimBackend);
        impl GameBackend for Summarizing {
            fn exchange(&mut self, tps: f64, dt_us: Micros) -> f64 {
                self.0.exchange(tps, dt_us)
            }
            fn set_paused(&mut self, p: bool) {
                self.0.set_paused(p)
            }
            fn apply_preset(&mut self, p: MixturePreset) {
                self.0.apply_preset(p)
            }
            fn halt_and_reset(&mut self) {
                self.0.halt_and_reset()
            }
            fn span_summary(&self) -> Option<String> {
                Some("spans=42 queue p50/p95/p99=1/2/3µs".into())
            }
            fn doctor_findings(&self) -> Vec<String> {
                vec!["lock_contention: p99 rose 8x at t=12s".into()]
            }
        }
        let course = steps_course(1_000.0);
        let game = Game::new("ycsb", "mysql", course, PhysicsConfig::default());
        let backend = Summarizing(SimBackend::new(quiet(), ycsb(), 7));
        let mut session = GameSession::new(game, backend);
        session.run_policy(100_000, 400, |_| Input::None);
        assert!(session.backend.0.controller.is_stopped());
        assert_eq!(session.span_log.len(), 1);
        assert!(session.span_log[0].starts_with("game-over spans=42"), "{:?}", session.span_log);
        assert_eq!(session.doctor_log.len(), 1, "crash captures the doctor post-mortem");
        assert!(session.doctor_log[0].starts_with("lock_contention:"), "{:?}", session.doctor_log);
    }

    #[test]
    fn api_backend_span_summary_via_trace_endpoint() {
        use bp_core::{ControlState, Controller, Rate, RequestQueue, StatsCollector, TransactionType};
        use bp_obs::{ObsConfig, Span, SpanOutcome, SpanRecorder};
        use bp_util::clock::sim_clock;

        let (_, clock) = sim_clock();
        let ts = vec![TransactionType::new("T", 100.0, true)];
        let mixture = bp_core::Mixture::default_of(&ts);
        let state = ControlState::new(Rate::Limited(50.0), mixture, 1e4);
        let queue = Arc::new(RequestQueue::new(clock.clone()));
        let stats = Arc::new(StatsCollector::new(clock, &["T"]));
        let db = bp_storage::Database::new(Personality::test());
        let rec = Arc::new(SpanRecorder::new(ObsConfig::default()));
        rec.offer(Span {
            trace_id: bp_obs::trace_id(42, 0),
            seq: 0,
            submitted_us: 0,
            dequeued_us: 10,
            end_us: 100,
            lock_wait_us: 5,
            commit_us: 5,
            tenant: 0,
            phase: 0,
            txn_type: 0,
            retries: 0,
            outcome: SpanOutcome::Committed,
        });
        let c = Controller::new(state, queue, stats, rec, db, ts, "w");
        let api = Arc::new(ApiServer::new());
        api.register("w", c);
        let backend = ApiBackend::new(api, "w");
        let line = backend.span_summary().expect("summary line");
        assert!(line.contains("spans=1"), "{line}");
    }

    #[test]
    fn played_run_saves_as_replayable_scenario() {
        let course = steps_course(1_000.0);
        let game = Game::new("ycsb", "mysql", course, PhysicsConfig {
            jump_tps: 60.0,
            gravity_tps_per_s: 40.0,
            max_tps: 1_000.0,
        });
        let backend = SimBackend::new(quiet(), ycsb(), 7);
        let mut session = GameSession::new(game, backend);
        session.run_policy(100_000, 400, chase_center_policy);

        let ticks = session.rate_log.len();
        assert!(ticks > 50, "rate log should cover the run: {ticks}");
        let script = session.scenario_script();
        assert!(!script.phases.is_empty());
        assert!(
            script.phases.len() * 4 < ticks,
            "phases ({}) should compress ticks ({ticks})",
            script.phases.len()
        );
        // Total scripted time tracks the played time.
        let scripted: f64 = script.phases.iter().map(|p| p.duration_s).sum();
        let played = session.game.elapsed_us() as f64 / 1e6;
        assert!((scripted - played).abs() < 1.0, "scripted {scripted} played {played}");

        // The artifact round-trips through text and stays replayable.
        let names: Vec<&str> = ycsb().transaction_types().iter().map(|t| t.name).collect();
        let artifact = session.scenario_artifact(42, &names);
        let text = artifact.to_text();
        let parsed = Artifact::from_text(&text).expect("parse scenario artifact");
        assert_eq!(parsed.workload, "ycsb");
        assert_eq!(parsed.personality, "mysql");
        assert!(parsed.schedule.is_empty(), "scenario artifacts are script-only");
        assert_eq!(parsed.script, artifact.script);
    }

    #[test]
    fn preset_event_reaches_backend() {
        let course = Course { name: "open".into(), obstacles: vec![], duration_us: 60_000_000 };
        let game = Game::new("ycsb", "mysql", course, PhysicsConfig::default());
        let backend = SimBackend::new(quiet(), ycsb(), 3);
        let mut session = GameSession::new(game, backend);
        session.tick(100_000, Input::Pause);
        session.tick(100_000, Input::SelectPreset(MixturePreset::ReadOnly));
        let mixture = session.backend.controller.current_mixture();
        assert_eq!(mixture.write_share(&ycsb().transaction_types()), 0.0);
        session.tick(100_000, Input::Resume);
        assert!(!session.backend.controller.is_paused());
    }
}
