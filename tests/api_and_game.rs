//! E9 + E7 live: the control API drives a running workload, and the game
//! plays against the *real* testbed through the API (not the simulator).

use std::sync::Arc;

use benchpress::api::{ApiServer, Launcher, Request};
use benchpress::core::{Controller, Phase, PhaseScript, Rate, RunConfig};
use benchpress::game::{ApiBackend, Course, Game, GameSession, Input, PhysicsConfig};
use benchpress::sql::Connection;
use benchpress::storage::{Database, Personality};
use benchpress::util::json::Json;
use benchpress::util::rng::Rng;
use benchpress::workloads::by_name;

fn start_voter(seconds: f64, rate: Rate) -> (Arc<Database>, benchpress::core::RunHandle) {
    let db = Database::new(Personality::test());
    let workload = by_name("voter").unwrap();
    let mut conn = Connection::open(&db);
    workload.setup(&mut conn, 0.3, &mut Rng::new(3)).unwrap();
    let cfg = RunConfig {
        terminals: 4,
        script: PhaseScript::new(vec![Phase::new(rate, seconds)]),
        collect_trace: false,
        ..Default::default()
    };
    let handle = benchpress::core::start(db.clone(), workload, cfg);
    (db, handle)
}

#[test]
fn api_controls_live_run() {
    let (_db, handle) = start_voter(15.0, Rate::Limited(100.0));
    let api = Arc::new(ApiServer::new());
    api.register("voter", handle.controller.clone());

    std::thread::sleep(std::time::Duration::from_millis(1200));
    // Feedback: throughput near 100.
    let resp = api.handle(&Request::get("/workloads/voter"));
    assert!(resp.is_ok());
    let tput = resp
        .body
        .get("status")
        .and_then(|s| s.get("throughput"))
        .and_then(Json::as_f64)
        .unwrap();
    assert!((60.0..=115.0).contains(&tput), "throughput {tput}");

    // Throttle up via the API.
    let resp = api.handle(&Request::post(
        "/workloads/voter/rate",
        Json::obj().set("tps", 400.0),
    ));
    assert!(resp.is_ok());
    std::thread::sleep(std::time::Duration::from_millis(2500));
    // The last complete second already runs at the new rate (the manager
    // generates arrivals per second, so the change lands within ~1s).
    let tput = handle.controller.stats().status(1).throughput;
    assert!(tput > 250.0, "rate change had no effect: {tput}");

    // Pause via the API blocks execution.
    api.handle(&Request::post("/workloads/voter/pause", Json::obj()));
    std::thread::sleep(std::time::Duration::from_millis(300));
    let before = handle.controller.stats().total_completed();
    std::thread::sleep(std::time::Duration::from_millis(500));
    let after = handle.controller.stats().total_completed();
    assert_eq!(before, after, "work executed while paused");

    api.handle(&Request::post("/workloads/voter/stop", Json::obj()));
    handle.join();
}

#[test]
fn game_plays_live_workload_and_crash_resets_database() {
    let (db, handle) = start_voter(30.0, Rate::Limited(1.0));
    let api = Arc::new(ApiServer::new());
    api.register("voter", handle.controller.clone());
    let rows_loaded = db.total_rows();
    assert!(rows_loaded > 0);

    // A course demanding 200 tps immediately — but the game never jumps,
    // so the measured rate stays near zero and the character crashes.
    let course = Course::from_xml(
        r#"<challenge name="wall">
            <obstacle start="1" end="8" low="200" high="260"/>
        </challenge>"#,
    )
    .unwrap();
    let game = Game::new(
        "voter",
        "embedded",
        course,
        PhysicsConfig { jump_tps: 50.0, gravity_tps_per_s: 30.0, max_tps: 500.0 },
    );
    let backend = ApiBackend::new(api.clone(), "voter");
    let mut session = GameSession::new(game, backend);

    // Real time: 16 ticks of 125ms ≈ 2s of play.
    for _ in 0..16 {
        if session.game.is_over() {
            break;
        }
        session.tick(125_000, Input::None);
        std::thread::sleep(std::time::Duration::from_millis(125));
    }
    assert!(
        matches!(session.game.screen(), benchpress::game::Screen::Crashed { .. }),
        "expected crash, got {:?}",
        session.game.screen()
    );
    // §4.1.1: the crash halted the benchmark and reset the database.
    assert!(handle.controller.is_stopped());
    assert_eq!(db.total_rows(), 0, "database must be reset after a crash");
    handle.join();
}

struct RealLauncher;

impl Launcher for RealLauncher {
    fn available(&self) -> Vec<String> {
        benchpress::workloads::all_workloads()
            .iter()
            .map(|w| w.name().to_string())
            .collect()
    }

    fn launch(&self, benchmark: &str, _body: &Json) -> Result<Controller, String> {
        let workload = by_name(benchmark).ok_or_else(|| format!("unknown benchmark {benchmark}"))?;
        let db = Database::new(Personality::test());
        let mut conn = Connection::open(&db);
        workload
            .setup(&mut conn, 0.2, &mut Rng::new(7))
            .map_err(|e| e.to_string())?;
        let cfg = RunConfig {
            terminals: 2,
            script: PhaseScript::new(vec![Phase::new(Rate::Limited(50.0), 5.0)]),
            collect_trace: false,
            ..Default::default()
        };
        let handle = benchpress::core::start(db, workload, cfg);
        Ok(handle.controller)
    }
}

#[test]
fn add_benchmark_on_the_fly_via_api() {
    let api = Arc::new(ApiServer::new().with_launcher(Arc::new(RealLauncher)));
    let resp = api.handle(&Request::get("/benchmarks"));
    assert!(resp.is_ok());
    assert_eq!(resp.body.as_arr().unwrap().len(), 15, "all of Table 1 available");

    let resp = api.handle(&Request::post("/workloads", Json::obj().set("benchmark", "ycsb")));
    assert!(resp.is_ok(), "{resp:?}");
    std::thread::sleep(std::time::Duration::from_millis(1500));
    let resp = api.handle(&Request::get("/workloads/ycsb"));
    let tput = resp
        .body
        .get("status")
        .and_then(|s| s.get("throughput"))
        .and_then(Json::as_f64)
        .unwrap();
    assert!(tput > 20.0, "launched workload not producing: {tput}");
    api.handle(&Request::post("/workloads/ycsb/stop", Json::obj()));
}
