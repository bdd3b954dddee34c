//! bp-replay end to end: same-seed captures are byte-identical, an
//! as-recorded replay over the live HTTP control surface stays within the
//! divergence tolerance, a ×4 time warp compresses wall time to about a
//! quarter, fitted synthesis recovers the scripted mixture within 2%, and
//! a played game scenario round-trips into a replayable artifact.

use std::sync::Arc;
use std::time::{Duration, Instant};

use benchpress::api::ApiServer;
use benchpress::core::{ArrivalDist, Phase, PhaseScript, Rate, RunConfig, Workload};
use benchpress::obs::MetricsRegistry;
use benchpress::replay::{
    capture_artifact, fit, start_recorded, start_replay, synthesize, Artifact, ReplaySurface,
    ReplayTiming,
};
use benchpress::sql::Connection;
use benchpress::storage::{Database, Personality};
use benchpress::util::json::Json;
use benchpress::util::rng::Rng;
use benchpress::workloads::by_name;

fn setup(workload: &str) -> (Arc<Database>, Arc<dyn Workload>) {
    let db = Database::new(Personality::test());
    let w = by_name(workload).unwrap();
    let mut conn = Connection::open(&db);
    w.setup(&mut conn, 0.2, &mut Rng::new(13)).unwrap();
    (db, w)
}

fn two_phase_cfg() -> RunConfig {
    let script = PhaseScript::new(vec![
        Phase::new(Rate::Limited(500.0), 1.0).with_weights(vec![
            40.0, 12.0, 12.0, 12.0, 12.0, 12.0,
        ]),
        Phase::new(Rate::Limited(800.0), 1.0)
            .with_weights(vec![10.0, 18.0, 18.0, 18.0, 18.0, 18.0])
            .with_arrival(ArrivalDist::Exponential),
    ]);
    RunConfig { terminals: 4, script, seed: 42, collect_trace: true, ..Default::default() }
}

fn record(cfg: &RunConfig) -> Artifact {
    let (db, w) = setup("smallbank");
    let (handle, recorder) = start_recorded(db, w.clone(), cfg.clone());
    let trace = handle.trace.clone();
    let _ = handle.join();
    capture_artifact(cfg, w.as_ref(), "test", &recorder, trace.as_deref())
}

#[test]
fn same_seed_capture_is_byte_identical_and_roundtrips() {
    let cfg = two_phase_cfg();
    let a = record(&cfg);
    let b = record(&cfg);

    assert!(!a.schedule.is_empty(), "capture must record the schedule");
    assert_eq!(
        a.schedule_text(),
        b.schedule_text(),
        "same seed must produce a byte-identical schedule"
    );

    // The full artifact round-trips through its text form.
    let parsed = Artifact::from_text(&a.to_text()).expect("parse capture");
    assert_eq!(parsed.schedule, a.schedule);
    assert_eq!(parsed.script, a.script);
    assert_eq!(parsed.seed, a.seed);
    assert_eq!(parsed.types, a.types);
    assert_eq!(parsed.trace.len(), a.trace.len());
    assert_eq!(parsed.schedule_text(), a.schedule_text());

    // A different seed diverges.
    let other = record(&RunConfig { seed: 7, ..cfg });
    assert_ne!(a.schedule_text(), other.schedule_text());
}

/// The replay routes over `db`, serving `artifact` as the capture.
fn replay_surface(db: Arc<Database>, w: Arc<dyn Workload>, artifact: &Artifact) -> Arc<ReplaySurface> {
    let text = artifact.to_text();
    ReplaySurface::new(
        move |a, t| Ok(start_replay(db.clone(), w.clone(), a, t)?.session),
        move || Some(text.clone()),
    )
}

#[test]
fn http_replay_stays_within_divergence_tolerance() {
    let artifact = record(&two_phase_cfg());
    // The capture is consistent with itself: every scheduled request ran.
    assert_eq!(artifact.trace.len(), artifact.schedule.len());

    let (db, w) = setup("smallbank");
    let api = Arc::new(ApiServer::new().with_registry(Arc::new(MetricsRegistry::new())));
    let surface = replay_surface(db, w, &artifact);
    api.mount(surface.clone());
    let guard = api.serve_http("127.0.0.1:0").unwrap();

    // Download the capture exactly as a remote client would.
    let (status, downloaded) =
        benchpress::api::http_request_text(guard.addr(), "GET", "/record", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(downloaded, artifact.to_text(), "/record must serve the artifact verbatim");

    // Start the replay and poll it to completion.
    let (status, body) = benchpress::api::http_request(
        guard.addr(),
        "POST",
        "/replay",
        Some(&Json::obj().set("artifact", downloaded.as_str())),
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    assert_eq!(body.get("mode").unwrap().as_str(), Some("as-recorded"));

    let mut divergence = None;
    for _ in 0..600 {
        std::thread::sleep(Duration::from_millis(20));
        let (st, body) =
            benchpress::api::http_request(guard.addr(), "GET", "/replay/status", None).unwrap();
        assert_eq!(st, 200);
        if body.get("complete").and_then(Json::as_bool) == Some(true) {
            divergence = body
                .get("divergence")
                .and_then(|d| d.get("score"))
                .and_then(Json::as_f64);
            break;
        }
    }
    let score = divergence.expect("replay must complete with a divergence report");
    assert!(score <= 0.15, "divergence too high: {score}");

    // Replay progress and divergence reach /metrics.
    let (_, text) =
        benchpress::api::http_request_text(guard.addr(), "GET", "/metrics", None).unwrap();
    let metrics = benchpress::obs::parse_samples(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    let value = |name: &str| metrics.iter().find(|s| s.name == name).map(|s| &s.value);
    assert!(value("bp_replay_fed_total").is_some(), "{text}");
    assert_eq!(value("bp_replay_done"), Some(&benchpress::obs::MetricValue::Gauge(1.0)), "{text}");
    assert!(value("bp_replay_divergence_score").is_some(), "{text}");

    // While nothing is running a second POST is accepted; a 409 is only for
    // an in-flight replay (covered by unit tests). Instead verify the
    // session's per-type counts landed close to the recording.
    let session = surface.session().expect("session stored");
    let report = session.divergence().expect("report available");
    assert_eq!(report.per_type_recorded.len(), artifact.types.len());
    assert!(report.max_type_share_diff <= 0.05, "{}", report.max_type_share_diff);
}

#[test]
fn warp_4x_replays_in_about_a_quarter_of_the_time() {
    let cfg = two_phase_cfg();
    let t0 = Instant::now();
    let artifact = record(&cfg);
    let recorded_wall = t0.elapsed().as_secs_f64();

    let (db, w) = setup("smallbank");
    let t1 = Instant::now();
    let run = start_replay(db, w, &artifact, ReplayTiming::Warp(4.0)).unwrap();
    let _ = run.handle.join();
    let warp_wall = t1.elapsed().as_secs_f64();

    assert!(
        warp_wall < recorded_wall * 0.6,
        "warp x4 should compress wall time: {warp_wall:.2}s vs {recorded_wall:.2}s recorded"
    );
    assert!(run.session.progress.is_done());
    assert_eq!(run.session.progress.fed(), artifact.schedule.len() as u64);
}

#[test]
fn synthesis_recovers_mixture_within_2_percent() {
    let artifact = record(&two_phase_cfg());
    let stats = fit(&artifact);
    assert_eq!(stats.phases.len(), 2);

    let share = |ws: &[f64]| -> Vec<f64> {
        let sum: f64 = ws.iter().sum();
        ws.iter().map(|x| x / sum).collect()
    };
    let expected = [
        share(&[40.0, 12.0, 12.0, 12.0, 12.0, 12.0]),
        share(&[10.0, 18.0, 18.0, 18.0, 18.0, 18.0]),
    ];
    for (p, e) in stats.phases.iter().zip(expected.iter()) {
        for (m, want) in p.mixture.iter().zip(e.iter()) {
            assert!((m - want).abs() < 0.02, "fitted {m} vs scripted {want}");
        }
    }
    assert_eq!(stats.phases[0].arrival, ArrivalDist::Uniform);
    assert_eq!(stats.phases[1].arrival, ArrivalDist::Exponential);

    // Synthesis compresses time, keeps rates and shape.
    let synth = synthesize(&stats, 0.5);
    assert_eq!(synth.phases.len(), 2);
    assert!((synth.phases[0].duration_s - 0.5).abs() < 1e-9);
    match synth.phases[0].rate {
        Rate::Limited(tps) => assert!((tps - 500.0).abs() < 25.0, "{tps}"),
        other => panic!("expected limited rate, got {other}"),
    }
}

#[test]
fn game_scenario_replays_as_script_only_artifact() {
    use benchpress::game::{chase_center_policy, ChallengeShape, Course, Game, GameSession, PhysicsConfig, SimBackend};

    // Play a short game on the simulated backend.
    let course = Course::generate(
        "steps",
        ChallengeShape::Steps { levels: 2, low: 150.0, high: 350.0, ascending: true },
        6.0,
        0.6,
    );
    let game = Game::new("voter", "test", course, PhysicsConfig {
        jump_tps: 60.0,
        gravity_tps_per_s: 40.0,
        max_tps: 1_000.0,
    });
    let backend = SimBackend::new(Personality::mysql_like(), benchpress::workloads::by_name("voter").unwrap(), 7);
    let mut session = GameSession::new(game, backend);
    session.run_policy(100_000, 80, chase_center_policy);

    // Save it as a script-only artifact and replay it (warped to keep the
    // test fast) against the real voter workload.
    let artifact = session.scenario_artifact(42, &["Vote"]);
    assert!(artifact.schedule.is_empty());
    let artifact = Artifact::from_text(&artifact.to_text()).expect("scenario round-trips");

    let (db, w) = setup("voter");
    let run = start_replay(db, w, &artifact, ReplayTiming::Warp(8.0)).unwrap();
    let controller = run.handle.join();
    assert!(run.session.is_complete());
    assert!(controller.stats().status(1).committed > 0, "replayed scenario must execute");

    // Asap needs a recorded schedule; script-only must refuse.
    let (db, w) = setup("voter");
    let err = start_replay(db, w, &artifact, ReplayTiming::Asap);
    assert!(err.is_err());
}

/// The cluster and replay layers mount on one API server: each serves its
/// own routes and passes the other's on, and the built-in routes still win.
#[test]
fn cluster_and_replay_surfaces_share_one_server() {
    use benchpress::api::Request;
    use benchpress::cluster::{ClusterCoordinator, CoordinatorConfig};
    use benchpress::replay::Recorder;

    let (db, w) = setup("voter");
    let cfg = RunConfig {
        terminals: 1,
        script: PhaseScript::new(vec![Phase::new(Rate::Limited(100.0), 1.0)]),
        ..Default::default()
    };
    let artifact = capture_artifact(&cfg, w.as_ref(), "test", &Recorder::new(), None);
    let api = ApiServer::new();
    api.mount(ClusterCoordinator::new(CoordinatorConfig::default(), benchpress::util::clock::wall_clock()));
    api.mount(replay_surface(db, w, &artifact));

    let r = api.handle(&Request::get("/cluster/status"));
    assert!(r.is_ok(), "{r:?}");
    assert_eq!(r.body.get("joined").and_then(Json::as_u64), Some(0));
    let start = Json::obj().set("artifact", artifact.to_text().as_str()).set("warp", 8.0);
    assert!(api.handle(&Request::post("/replay", start)).is_ok());
    let r = api.handle(&Request::get("/replay/status"));
    assert!(r.is_ok(), "{r:?}");
    assert_eq!(r.body.get("workload").and_then(Json::as_str), Some("voter"));
    assert!(api.handle(&Request::get("/record")).raw.is_some());
    assert!(api.handle(&Request::get("/status")).is_ok());
    assert_eq!(api.handle(&Request::get("/cluster/nope")).status, 404);
    let complete = || {
        let r = api.handle(&Request::get("/replay/status"));
        r.body.get("complete").and_then(Json::as_bool) == Some(true)
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while !complete() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(complete(), "the warped replay never finished");
}
