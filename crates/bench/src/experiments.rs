//! Experiment runners, one per paper artifact.

use std::sync::Arc;

use bp_core::{
    simulate_script, ArrivalDist, CapacityModel, MixturePreset, Phase, PhaseScript, Rate,
    RunConfig, SimDbms, Testbed, TraceAnalyzer,
};
use bp_game::{chase_center_policy, Course, Game, GameSession, Input, PhysicsConfig, SimBackend};
use bp_sql::Connection;
use bp_storage::{Database, Personality};
use bp_util::clock::wall_clock;
use bp_util::rng::Rng;
use bp_util::timeseries::Summary;
use bp_workloads::{all_workloads, by_name, catalog_of, table1};

/// E1 — regenerate **Table 1**: every bundled benchmark, loaded and probed.
pub struct Table1Report {
    pub rows: Vec<Table1VerifiedRow>,
}

pub struct Table1VerifiedRow {
    pub class: String,
    pub benchmark: String,
    pub domain: String,
    pub txn_types: usize,
    pub loaded_rows: u64,
    pub tables: usize,
    pub sampled_txns_ok: bool,
}

pub fn run_table1(scale: f64) -> Table1Report {
    let mut rows = Vec::new();
    for (meta, w) in table1().into_iter().zip(all_workloads()) {
        let db = Database::new(Personality::test());
        let mut conn = Connection::open(&db);
        let mut rng = Rng::new(1);
        let summary = w.setup(&mut conn, scale, &mut rng).expect("setup");
        let mut ok = true;
        for idx in 0..w.transaction_types().len() {
            for _ in 0..3 {
                if w.execute(idx, &mut conn, &mut rng).is_err() {
                    ok = false;
                }
            }
        }
        rows.push(Table1VerifiedRow {
            class: meta.class.label().to_string(),
            benchmark: meta.benchmark,
            domain: meta.domain,
            txn_types: meta.transaction_types,
            loaded_rows: summary.rows,
            tables: summary.tables,
            sampled_txns_ok: ok,
        });
    }
    Table1Report { rows }
}

impl Table1Report {
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Table 1: The set of benchmarks supported in OLTP-Bench\n");
        out.push_str(&format!(
            "{:<16}{:<18}{:<30}{:>6}{:>10}{:>8}{:>6}\n",
            "Class", "Benchmark", "Application Domain", "Txns", "Rows", "Tables", "OK"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<16}{:<18}{:<30}{:>6}{:>10}{:>8}{:>6}\n",
                r.class,
                r.benchmark,
                r.domain,
                r.txn_types,
                r.loaded_rows,
                r.tables,
                if r.sampled_txns_ok { "yes" } else { "NO" }
            ));
        }
        out
    }
}

/// E3 — §2.2.1 rate control: target vs delivered under both arrival
/// distributions, on the live threaded testbed with the embedded engine.
pub struct RateControlReport {
    pub arrival: &'static str,
    pub target_tps: f64,
    pub delivered_mean: f64,
    pub mean_abs_error: f64,
    pub overshoot_seconds: usize,
}

pub fn run_rate_control(target_tps: f64, seconds: f64) -> Vec<RateControlReport> {
    let mut out = Vec::new();
    for (arrival, name) in [
        (ArrivalDist::Uniform, "uniform"),
        (ArrivalDist::Exponential, "exponential"),
    ] {
        let db = Database::new(Personality::test());
        let w = by_name("voter").unwrap();
        let mut conn = Connection::open(&db);
        w.setup(&mut conn, 0.5, &mut Rng::new(7)).unwrap();
        let script = PhaseScript::new(vec![
            Phase::new(Rate::Limited(target_tps), seconds).with_arrival(arrival),
        ]);
        let cfg = RunConfig { terminals: 4, script: script.clone(), ..Default::default() };
        let handle = bp_core::start(db, w, wall_clock(), cfg);
        let trace = handle.trace.clone().unwrap();
        handle.join();
        let report = TraceAnalyzer::tracking(&trace, &script, 50_000.0, 0.05);
        let delivered = Summary::of(&report.delivered);
        out.push(RateControlReport {
            arrival: name,
            target_tps,
            delivered_mean: delivered.mean,
            mean_abs_error: report.mean_abs_error,
            overshoot_seconds: report.overshoot_seconds,
        });
    }
    out
}

/// E4 — §2.2.2 mixture control: read-heavy vs write-heavy throughput under
/// open-loop load (real lock contention on the embedded engine).
pub struct MixtureReport {
    pub preset: &'static str,
    pub throughput: f64,
    pub lock_waits: u64,
    pub deadlocks: u64,
}

pub fn run_mixture(seconds: f64) -> Vec<MixtureReport> {
    let mut out = Vec::new();
    for (preset, name) in [
        (MixturePreset::SuperWrites, "super-writes"),
        (MixturePreset::Default, "default"),
        (MixturePreset::ReadOnly, "read-only"),
    ] {
        let db = Database::new(Personality::mysql_like());
        let w = by_name("smallbank").unwrap();
        let mut conn = Connection::open(&db);
        w.setup(&mut conn, 0.3, &mut Rng::new(3)).unwrap();
        let types = w.transaction_types();
        let weights = preset.build(&types).weights().to_vec();
        let script = PhaseScript::new(vec![
            Phase::new(Rate::Unlimited, seconds).with_weights(weights),
        ]);
        let before = db.metrics().snapshot();
        let cfg = RunConfig { terminals: 8, script, collect_trace: false, ..Default::default() };
        let handle = bp_core::start(db.clone(), w, wall_clock(), cfg);
        let controller = handle.join();
        let m = db.metrics().snapshot().delta(&before);
        out.push(MixtureReport {
            preset: name,
            throughput: controller.stats().total_completed() as f64 / seconds,
            lock_waits: m.lock_waits,
            deadlocks: m.deadlocks,
        });
    }
    out
}

/// E5 — §2.2.3 multi-tenancy: a tenant's throughput alone vs alongside a
/// second tenant on the same instance.
pub struct TenancyReport {
    pub solo_tps: f64,
    pub contended_tps: f64,
    pub neighbor_tps: f64,
}

pub fn run_tenancy(seconds: f64) -> TenancyReport {
    let run = |with_neighbor: bool| -> (f64, f64) {
        let db = Database::new(Personality::mysql_like());
        let clock = wall_clock();
        let mut bed = Testbed::new(db, clock);
        let w1 = by_name("ycsb").unwrap();
        bed.setup_workload(w1.as_ref(), 0.3, 1).unwrap();
        let cfg = RunConfig {
            terminals: 4,
            script: PhaseScript::new(vec![Phase::new(Rate::Unlimited, seconds)]),
            collect_trace: false,
            ..Default::default()
        };
        bed.start_tenant("primary", w1, cfg.clone());
        if with_neighbor {
            let w2 = by_name("smallbank").unwrap();
            bed.setup_workload(w2.as_ref(), 0.3, 2).unwrap();
            bed.start_tenant("neighbor", w2, cfg);
        }
        let results = bed.join_all();
        let tps = |name: &str| {
            results
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, c)| c.stats().total_completed() as f64 / seconds)
                .unwrap_or(0.0)
        };
        (tps("primary"), tps("neighbor"))
    };
    let (solo, _) = run(false);
    let (contended, neighbor) = run(true);
    TenancyReport { solo_tps: solo, contended_tps: contended, neighbor_tps: neighbor }
}

/// E6/E8 — §4.1.2 challenge shapes across DBMS personalities: the autopilot
/// plays each course against each capacity model; pass/fail plus tracking
/// error, on deterministic simulation.
pub struct ChallengeReport {
    pub dbms: &'static str,
    pub course: String,
    pub outcome: &'static str,
    pub survived_s: f64,
    pub score: u64,
}

pub fn run_challenges(scale_tps: f64) -> Vec<ChallengeReport> {
    let mut out = Vec::new();
    for model in CapacityModel::all() {
        for course in Course::demo_set(scale_tps) {
            let course_name = course.name.clone();
            let game = Game::new(
                "ycsb",
                model.name,
                course,
                PhysicsConfig { jump_tps: scale_tps * 0.06, gravity_tps_per_s: scale_tps * 0.04, max_tps: scale_tps * 1.5 },
            );
            let types = by_name("ycsb").unwrap().transaction_types();
            let backend = SimBackend::new(model.clone(), types, 42);
            let mut session = GameSession::new(game, backend);
            session.run_policy(100_000, 1_000, chase_center_policy);
            let g = &session.game;
            out.push(ChallengeReport {
                dbms: model.name,
                course: course_name,
                outcome: match g.screen() {
                    bp_game::Screen::Won => "pass",
                    bp_game::Screen::Crashed { .. } => "crash",
                    _ => "timeout",
                },
                survived_s: g.elapsed_us() as f64 / 1e6,
                score: g.score(),
            });
        }
    }
    out
}

/// E7 — game physics determinism: the same seed must reproduce the same
/// trajectory, and gravity/jump laws must hold.
pub struct PhysicsReport {
    pub deterministic: bool,
    pub gravity_linear: bool,
    pub crash_resets_db: bool,
}

pub fn run_physics() -> PhysicsReport {
    // Determinism.
    let run_once = || {
        let model = CapacityModel::mysql_like();
        let types = by_name("voter").unwrap().transaction_types();
        let course = Course::demo_set(1_000.0).remove(0);
        let game = Game::new("voter", "mysql", course, PhysicsConfig::default());
        let mut s = GameSession::new(game, SimBackend::new(model, types, 9));
        s.run_policy(100_000, 500, chase_center_policy);
        (s.game.score(), s.game.elapsed_us(), format!("{:?}", s.game.screen()))
    };
    let deterministic = run_once() == run_once();

    // Gravity linearity.
    let mut c = bp_game::Character::new(PhysicsConfig {
        jump_tps: 100.0,
        gravity_tps_per_s: 50.0,
        max_tps: 1_000.0,
    });
    c.set_requested(500.0);
    c.apply_gravity(2_000_000);
    let gravity_linear = (c.requested_tps - 400.0).abs() < 1e-9;

    // Crash semantics.
    let model = CapacityModel::mysql_like();
    let types = by_name("voter").unwrap().transaction_types();
    let course = Course::demo_set(1_000.0).remove(0);
    let game = Game::new("voter", "mysql", course, PhysicsConfig::default());
    let mut s = GameSession::new(game, SimBackend::new(model, types, 10));
    s.run_policy(100_000, 1_000, |_| Input::None); // crash by inaction
    let crash_resets_db = s.backend.resets == 1;

    PhysicsReport { deterministic, gravity_linear, crash_resets_db }
}

/// E8 — Fig. 2b: the same saturating workload against every personality on
/// the *embedded engine* (not the model): peak throughput and abort rates.
pub struct PersonalityReport {
    pub personality: &'static str,
    pub throughput: f64,
    pub p95_latency_us: u64,
    pub failed: u64,
    pub jitter_cv: f64,
}

pub fn run_personalities(seconds: f64) -> Vec<PersonalityReport> {
    let mut out = Vec::new();
    for p in Personality::all() {
        let name = p.name;
        let db = Database::new(p);
        let w = by_name("voter").unwrap();
        let mut conn = Connection::open(&db);
        w.setup(&mut conn, 0.3, &mut Rng::new(5)).unwrap();
        let script = PhaseScript::new(vec![Phase::new(Rate::Unlimited, seconds)]);
        let cfg = RunConfig { terminals: 6, script, ..Default::default() };
        let handle = bp_core::start(db, w, wall_clock(), cfg);
        let controller = handle.join();
        let st = controller.stats().status(seconds as usize);
        let series = controller.stats().throughput_series();
        let steady = if series.len() > 2 { &series[1..series.len() - 1] } else { &series[..] };
        out.push(PersonalityReport {
            personality: name,
            throughput: controller.stats().total_completed() as f64 / seconds,
            p95_latency_us: st.p95_latency_us,
            failed: st.failed,
            jitter_cv: Summary::of(steady).cv(),
        });
    }
    out
}

/// E9 — §2.2.4 control API: command-to-effect latency for a rate change on
/// a live run (seconds until the delivered rate reaches the new target band).
pub struct ApiReport {
    pub old_rate: f64,
    pub new_rate: f64,
    pub effect_latency_s: f64,
    pub feedback_ok: bool,
}

pub fn run_api(old_rate: f64, new_rate: f64) -> ApiReport {
    let db = Database::new(Personality::test());
    let w = by_name("voter").unwrap();
    let mut conn = Connection::open(&db);
    w.setup(&mut conn, 0.3, &mut Rng::new(11)).unwrap();
    let script = PhaseScript::new(vec![Phase::new(Rate::Limited(old_rate), 30.0)]);
    let cfg = RunConfig { terminals: 4, script, collect_trace: false, ..Default::default() };
    let handle = bp_core::start(db, w, wall_clock(), cfg);
    let api = Arc::new(bp_api::ApiServer::new());
    api.register("voter", handle.controller.clone());

    std::thread::sleep(std::time::Duration::from_millis(1500));
    let resp = api.handle(&bp_api::Request::get("/workloads/voter"));
    let feedback_ok = resp.is_ok()
        && resp
            .body
            .get("status")
            .and_then(|s| s.get("throughput"))
            .and_then(bp_util::json::Json::as_f64)
            .is_some();

    // Issue the rate change and time until the 1s-window rate is in band.
    let t0 = std::time::Instant::now();
    let resp = api.handle(&bp_api::Request::post(
        "/workloads/voter/rate",
        bp_util::json::Json::obj().set("tps", new_rate),
    ));
    assert!(resp.is_ok(), "{resp:?}");
    let mut effect_latency_s = f64::NAN;
    for _ in 0..100 {
        std::thread::sleep(std::time::Duration::from_millis(100));
        let tput = handle.controller.stats().status(1).throughput;
        if (tput - new_rate).abs() <= new_rate * 0.15 {
            effect_latency_s = t0.elapsed().as_secs_f64();
            break;
        }
    }
    handle.controller.stop();
    handle.join();
    ApiReport { old_rate, new_rate, effect_latency_s, feedback_ok }
}

/// E10 — §2.1 dialect management: every benchmark statement rendered in all
/// four dialects and re-parsed.
pub struct DialectReport {
    pub benchmark: String,
    pub statements: usize,
    pub dialects_ok: usize,
    pub total_renderings: usize,
}

pub fn run_dialects() -> Vec<DialectReport> {
    let mut out = Vec::new();
    for w in all_workloads() {
        let cat = catalog_of(w.name()).expect("catalog");
        let mut ok = 0;
        let mut total = 0;
        for name in cat.names() {
            for d in bp_sql::Dialect::all() {
                total += 1;
                if let Some(sql) = cat.resolve(name, d) {
                    if bp_sql::parse(&sql).is_ok() {
                        ok += 1;
                    }
                }
            }
        }
        out.push(DialectReport {
            benchmark: w.name().to_string(),
            statements: cat.len(),
            dialects_ok: ok,
            total_renderings: total,
        });
    }
    out
}

/// Shape-tracking on the DES path (fast version of E6 used by the benches):
/// returns (target series, delivered series) for a named shape and model.
pub fn simulate_shape(model_name: &str, shape: &str, seconds: f64) -> (Vec<f64>, Vec<f64>) {
    let model = CapacityModel::by_name(model_name).expect("model");
    let cap = model.capacity(0.3, 1.0);
    let phases = match shape {
        "steps" => (0..5)
            .map(|i| {
                Phase::new(Rate::Limited(cap * 0.25 * (i + 1) as f64), seconds / 5.0)
            })
            .collect::<Vec<_>>(),
        "sin" => (0..20)
            .map(|i| {
                let level = cap * (0.5 + 0.35 * (i as f64 / 20.0 * std::f64::consts::TAU * 2.0).sin());
                Phase::new(Rate::Limited(level), seconds / 20.0)
            })
            .collect(),
        "peak" => vec![
            Phase::new(Rate::Limited(cap * 0.3), seconds * 0.4),
            Phase::new(Rate::Limited(cap * 0.95), seconds * 0.2),
            Phase::new(Rate::Limited(cap * 0.3), seconds * 0.4),
        ],
        "tunnel" => vec![Phase::new(Rate::Limited(cap * 0.6), seconds)],
        other => panic!("unknown shape {other}"),
    };
    let script = PhaseScript::new(phases);
    let w = by_name("ycsb").unwrap();
    let types = w.transaction_types();
    let mut dbms = SimDbms::new(model, 42);
    let run = simulate_script(&mut dbms, &script, &types, 1e5, 0.1);
    (run.requested(), run.delivered())
}

/// Ablation: centralized-queue gating on/off — how much the delivered rate
/// overshoots the target while draining a backlog (why the central queue
/// gates dispatches, §2.2.1).
/// E11 — observability (flight recorder + unified registry): run a
/// two-phase workload with span recording in full mode and report the
/// per-phase stage-latency lines plus the Prometheus exposition the
/// `/metrics` endpoint would serve.
pub struct ObservabilityReport {
    pub completed: u64,
    pub spans_recorded: u64,
    /// `(phase index, one-line p50/p95/p99 per stage)` per script phase.
    pub phase_lines: Vec<(u16, String)>,
    /// Distinct metric families in the exposition.
    pub metric_families: usize,
    pub exposition_bytes: usize,
}

pub fn run_observability(seconds: f64) -> ObservabilityReport {
    use bp_obs::{format_stage_line, MetricsRegistry};

    let db = Database::new(Personality::test());
    let w = by_name("voter").unwrap();
    let mut conn = Connection::open(&db);
    w.setup(&mut conn, 0.5, &mut Rng::new(7)).unwrap();
    let script = PhaseScript::new(vec![
        Phase::new(Rate::Limited(400.0), seconds / 2.0),
        Phase::new(Rate::Limited(800.0), seconds / 2.0),
    ]);
    let cfg = RunConfig { terminals: 4, script, ..Default::default() };
    let handle = bp_core::start(db, w, wall_clock(), cfg);

    let registry = MetricsRegistry::new();
    handle.controller.register_metrics(&registry);
    let spans = handle.spans.clone();
    let controller = handle.join();

    let text = registry.render_prometheus();
    let metric_families = text.lines().filter(|l| l.starts_with("# TYPE ")).count();
    let phase_lines = spans
        .phase_summaries()
        .into_iter()
        .map(|(phase, stages)| (phase, format_stage_line(stages[0].count, &stages)))
        .collect();
    let st = controller.status();
    ObservabilityReport {
        completed: st.committed + st.user_aborted + st.failed,
        spans_recorded: spans.recorded(),
        phase_lines,
        metric_families,
        exposition_bytes: text.len(),
    }
}

/// E12 — chaos & resilience: throughput dip-and-recovery under a fault
/// scenario armed over the live HTTP control API mid-run, with the circuit
/// breaker shedding load while the engine is sick and re-closing after the
/// faults are disarmed.
pub struct ResilienceReport {
    /// Committed tx/s before, during, and after the fault window.
    pub baseline_tps: f64,
    pub faulted_tps: f64,
    pub recovered_tps: f64,
    /// Faults injected by the chaos layer (`bp_chaos_injected_total`).
    pub injected: u64,
    /// Requests fast-failed by the breaker (`bp_resilience_shed_total`).
    pub shed: u64,
    pub breaker_opened: bool,
    pub breaker_reclosed: bool,
    /// `/metrics` exposes nonzero chaos + resilience series.
    pub metrics_ok: bool,
}

pub fn run_resilience(seconds: f64) -> ResilienceReport {
    use bp_chaos::{BreakerConfig, FaultKind};
    use bp_core::ResilienceConfig;

    let db = Database::new(Personality::test());
    let w = by_name("voter").unwrap();
    let mut conn = Connection::open(&db);
    w.setup(&mut conn, 0.3, &mut Rng::new(13)).unwrap();
    let script = PhaseScript::new(vec![Phase::new(Rate::Limited(400.0), seconds)]);
    let cfg = RunConfig {
        terminals: 4,
        script,
        collect_trace: false,
        max_retries: 2,
        resilience: ResilienceConfig {
            breaker: Some(BreakerConfig {
                min_samples: 16,
                window: 32,
                cooldown_us: 300_000,
                ..BreakerConfig::default()
            }),
            ..ResilienceConfig::default()
        },
        ..Default::default()
    };
    let handle = bp_core::start(db, w, wall_clock(), cfg);

    // The control surface: /chaos armed over a live socket, /metrics from
    // the unified registry.
    let registry = Arc::new(bp_obs::MetricsRegistry::new());
    let api = Arc::new(bp_api::ApiServer::new().with_registry(registry.clone()));
    api.register("voter", handle.controller.clone());
    let guard = api.serve_http("127.0.0.1:0").expect("bind http");

    let third = std::time::Duration::from_secs_f64(seconds / 3.0);
    let committed = |c: &bp_core::Controller| c.stats().status(1).committed;

    // Phase 1: healthy baseline.
    std::thread::sleep(third);
    let c1 = committed(&handle.controller);

    // Phase 2: arm the error burst mid-run over HTTP.
    let (status, _) = bp_api::http_request(
        guard.addr(),
        "POST",
        "/chaos",
        Some(&bp_util::json::Json::obj().set("scenario", "error-burst").set("seed", 7u64)),
    )
    .expect("arm chaos");
    assert_eq!(status, 200, "POST /chaos failed");
    std::thread::sleep(third);
    let c2 = committed(&handle.controller);
    let opened = handle
        .controller
        .breaker()
        .map(|b| b.transitions_to(bp_core::BreakerState::Open) > 0)
        .unwrap_or(false);

    // Phase 3: disarm and let the breaker probe its way back to Closed.
    let (status, _) = bp_api::http_request(guard.addr(), "DELETE", "/chaos", None).expect("disarm");
    assert_eq!(status, 200, "DELETE /chaos failed");
    std::thread::sleep(third);
    let c3 = committed(&handle.controller);

    let controller = handle.stop_and_join();
    let breaker = controller.breaker().cloned();
    let reclosed = breaker
        .as_ref()
        .map(|b| {
            b.state() == bp_core::BreakerState::Closed
                && b.transitions_to(bp_core::BreakerState::Closed) > 0
        })
        .unwrap_or(false);
    let injected = controller.chaos().injected_total(FaultKind::InjectedError);
    let shed = breaker.as_ref().map(|b| b.shed_total()).unwrap_or(0);

    let (_, metrics_text) =
        bp_api::http_request_text(guard.addr(), "GET", "/metrics", None).expect("metrics");
    let nonzero = |name: &str| {
        metrics_text.lines().any(|l| {
            l.starts_with(name)
                && l.split_whitespace()
                    .last()
                    .and_then(|v| v.parse::<f64>().ok())
                    .map(|v| v > 0.0)
                    .unwrap_or(false)
        })
    };
    let metrics_ok = nonzero("bp_chaos_injected_total")
        && nonzero("bp_resilience_shed_total")
        && metrics_text.contains("bp_resilience_breaker_state");

    let per_third = seconds / 3.0;
    ResilienceReport {
        baseline_tps: c1 as f64 / per_third,
        faulted_tps: (c2 - c1) as f64 / per_third,
        recovered_tps: (c3 - c2) as f64 / per_third,
        injected,
        shed,
        breaker_opened: opened,
        breaker_reclosed: reclosed,
        metrics_ok,
    }
}

/// E14 — closed-loop SLO admission control, driven end-to-end over the
/// live HTTP control surface. Part (a): hand-find the max-throughput-
/// under-p99 operating point with a fixed-rate scan, then let the AIMD
/// loop find it on its own. Part (b): arm a chaos latency-spike +
/// error-burst plan mid-run; the breaker opens, the loop backs the
/// offered rate off hard, and both recover after disarm.
pub struct SloReport {
    /// Delivered throughput at unlimited offered rate (tx/s).
    pub capacity_tps: f64,
    /// The p99 limit handed to the controller (ms).
    pub limit_ms: f64,
    /// Hand-found max rate whose windowed p99 stays under the limit.
    pub reference_rate: f64,
    /// Mean commanded rate once the SLO loop settled.
    pub converged_rate: f64,
    /// `converged_rate / reference_rate`.
    pub converged_ratio: f64,
    /// Delivered throughput at the converged operating point.
    pub converged_tps: f64,
    /// Commanded rate before / during / after the chaos window.
    pub healthy_rate: f64,
    pub spike_rate: f64,
    pub recovered_rate: f64,
    pub breaker_opened: bool,
    pub breaker_reclosed: bool,
    /// `bp_slo_breaker_backoffs_total` at the end of the run.
    pub breaker_backoffs: u64,
    /// `/metrics` exposes live nonzero `bp_slo_*` series.
    pub metrics_ok: bool,
}

pub fn run_slo(seconds: f64) -> SloReport {
    use bp_util::json::Json;
    use std::time::Duration;

    let setup = |personality: Personality| {
        let db = Database::new(personality);
        let w = by_name("voter").unwrap();
        let mut conn = Connection::open(&db);
        w.setup(&mut conn, 0.3, &mut Rng::new(17)).unwrap();
        (db, w)
    };
    let sleep_s = |s: f64| std::thread::sleep(Duration::from_secs_f64(s));

    // ---- part (a): convergence to the hand-found operating point ----
    // The mysql-like personality pays lock waits and IO in the cost model,
    // so with 8 terminals the p99-vs-rate curve climbs steadily and then
    // cliffs at saturation — a real knee for the loop to find, in debug
    // and release builds alike. (The zero-cost test personality's curve is
    // flat to within scheduler noise in release.)
    let (db, w) = setup(Personality::mysql_like());
    let scan_rates = [0.3, 0.45, 0.6, 0.75, 0.9, 1.05];
    let part_a_s = 9.0 + scan_rates.len() as f64 * 2.6 + seconds + 6.0;
    let script = PhaseScript::new(vec![Phase::new(Rate::Limited(500.0), part_a_s)]);
    let cfg = RunConfig { terminals: 8, script, collect_trace: false, ..Default::default() };
    let handle = bp_core::start(db, w, wall_clock(), cfg);
    let api = Arc::new(bp_api::ApiServer::new());
    api.register("voter", handle.controller.clone());
    let guard = api.serve_http("127.0.0.1:0").expect("bind http");
    let post = |path: &str, body: &Json| {
        let (status, resp) =
            bp_api::http_request(guard.addr(), "POST", path, Some(body)).expect("POST");
        assert_eq!(status, 200, "POST {path} failed: {resp:?}");
        resp
    };
    let stats = handle.controller.stats().clone();

    // The run manager applies phase 0 when its thread spins up, and a new
    // phase clears API overrides — a rate change racing it gets undone.
    // Let the phase land before steering.
    sleep_s(0.3);

    // Saturate to measure capacity and the saturated p99 tail. The
    // completion-rate window lags by up to a second (it counts complete
    // seconds), so the probe must outlast the 500-tps startup second.
    post("/workloads/voter/rate", &Json::obj().set("rate", "unlimited"));
    sleep_s(3.0);
    let sat = stats.window_snapshot(2);
    let capacity = sat.throughput.max(1.0);
    // ...then idle along at a trickle for the healthy p99 baseline. Long
    // dwell: the lagging window must shed the saturated-tail samples.
    post("/workloads/voter/rate", &Json::obj().set("tps", (capacity * 0.1).max(100.0)));
    sleep_s(3.1);
    let low = stats.window_snapshot(2);
    // The SLO limit sits geometrically between the relaxed and the
    // saturated tail, so the operating point is in the scan's interior.
    let limit_us = ((low.p99_us.max(50) as f64) * (sat.p99_us.max(100) as f64)).sqrt();
    let limit_ms = limit_us / 1_000.0;

    // Fixed-rate scan: measure the p99-vs-rate curve, then hand-find the
    // operating point by interpolating the limit crossing in log-latency
    // space (the tail grows multiplicatively near the knee, and a coarse
    // grid read from below can miss the crossing by a whole step).
    let mut curve: Vec<(f64, f64)> = Vec::new();
    for frac in scan_rates {
        let rate = capacity * frac;
        post("/workloads/voter/rate", &Json::obj().set("tps", rate));
        // Long enough that the 2s window the controller will also use is
        // entirely from this rate at measurement time; tail noise is
        // one-sided (contention bursts), so take the min of two reads.
        sleep_s(2.1);
        let a = stats.window_snapshot(2).p99_us.max(1) as f64;
        sleep_s(0.5);
        let b = stats.window_snapshot(2).p99_us.max(1) as f64;
        curve.push((rate, a.min(b)));
    }
    // The operating point: the largest scanned rate still under the limit,
    // refined by interpolating toward the next point in log-latency space
    // (the tail grows multiplicatively near the knee).
    let reference_rate = match curve.iter().rposition(|&(_, p)| p <= limit_us) {
        None => curve[0].0,
        Some(i) if i + 1 == curve.len() => curve[i].0,
        Some(i) => {
            let (r0, p0) = curve[i];
            let (r1, p1) = curve[i + 1];
            let t = (limit_us.ln() - p0.ln()) / (p1.ln() - p0.ln());
            r0 + (r1 - r0) * t.clamp(0.0, 1.0)
        }
    };

    // Hand the wheel to the controller, starting well below the point.
    post(
        "/slo",
        &Json::obj()
            .set("target", "p99")
            .set("limit_ms", limit_ms)
            .set("law", "aimd")
            .set("window_s", 2u64)
            .set("tick_ms", 100u64)
            .set("initial_rate", capacity * 0.3)
            .set("step", (capacity / 50.0).max(10.0))
            .set("min_rate", 50.0)
            .set("max_rate", capacity * 2.0)
            .set("min_samples", 40u64),
    );
    sleep_s(seconds);
    // The AIMD sawtooth never sits still: average status reads across a
    // full probe-and-back-off cycle.
    let mut rate_sum = 0.0;
    const RATE_SAMPLES: usize = 8;
    for _ in 0..RATE_SAMPLES {
        let (status, body) =
            bp_api::http_request(guard.addr(), "GET", "/slo/status", None).expect("status");
        assert_eq!(status, 200);
        rate_sum += body.get("rate").and_then(Json::as_f64).unwrap_or(0.0);
        sleep_s(0.3);
    }
    let converged_rate = rate_sum / RATE_SAMPLES as f64;
    let converged_tps = stats.window_snapshot(1).throughput;
    let (status, _) = bp_api::http_request(guard.addr(), "DELETE", "/slo", None).expect("disarm");
    assert_eq!(status, 200);
    drop(guard);
    handle.stop_and_join();

    // ---- part (b): chaos latency spike -> breaker backoff -> recovery ----
    let (db, w) = setup(Personality::test());
    let chaos_s = seconds.max(4.5);
    let third = chaos_s / 3.0;
    let script = PhaseScript::new(vec![Phase::new(Rate::Limited(300.0), chaos_s + 3.0)]);
    let cfg = RunConfig {
        terminals: 4,
        script,
        collect_trace: false,
        max_retries: 2,
        resilience: bp_core::ResilienceConfig {
            breaker: Some(bp_chaos::BreakerConfig {
                min_samples: 16,
                window: 32,
                cooldown_us: 300_000,
                ..bp_chaos::BreakerConfig::default()
            }),
            ..bp_core::ResilienceConfig::default()
        },
        ..Default::default()
    };
    let handle = bp_core::start(db, w, wall_clock(), cfg);
    let registry = Arc::new(bp_obs::MetricsRegistry::new());
    let api = Arc::new(bp_api::ApiServer::new().with_registry(registry.clone()));
    api.register("voter", handle.controller.clone());
    let guard = api.serve_http("127.0.0.1:0").expect("bind http");
    let req = |method: &str, path: &str, body: Option<&Json>| {
        let (status, resp) = bp_api::http_request(guard.addr(), method, path, body).expect("http");
        assert_eq!(status, 200, "{method} {path} failed: {resp:?}");
        resp
    };
    let slo_rate = || {
        req("GET", "/slo/status", None).get("rate").and_then(Json::as_f64).unwrap_or(0.0)
    };

    req(
        "POST",
        "/slo",
        Some(
            &Json::obj()
                .set("target", "p99")
                .set("limit_ms", 20.0)
                .set("initial_rate", 400.0)
                .set("step", 25.0)
                .set("tick_ms", 100u64)
                .set("window_s", 1u64)
                .set("min_rate", 20.0)
                .set("min_samples", 10u64),
        ),
    );

    // Phase 1: healthy — the loop probes upward from its initial rate.
    sleep_s(third);
    let healthy_rate = slo_rate();

    // Phase 2: latency spike plus an error burst; the errors trip the
    // breaker and the open breaker forces the hard multiplicative backoff.
    let plan = Json::obj().set("name", "slo-spike").set("seed", 7u64).set(
        "windows",
        Json::Arr(vec![
            Json::obj().set("kind", "latency_spike").set("intensity", 1.0).set("magnitude", 20_000u64),
            Json::obj().set("kind", "injected_error").set("intensity", 0.6),
        ]),
    );
    req("POST", "/chaos", Some(&Json::obj().set("plan", plan)));
    sleep_s(third);
    let spike_rate = slo_rate();
    let breaker_opened = handle
        .controller
        .breaker()
        .map(|b| b.transitions_to(bp_core::BreakerState::Open) > 0)
        .unwrap_or(false);

    // Phase 3: disarm; the breaker re-closes and the loop re-probes.
    req("DELETE", "/chaos", None);
    sleep_s(third);
    let recovered_rate = slo_rate();
    let slo_status = req("GET", "/slo/status", None);
    let breaker_backoffs = slo_status
        .get("adjustments")
        .and_then(|a| a.get("breaker_backoff"))
        .and_then(Json::as_u64)
        .unwrap_or(0);

    let (_, metrics_text) =
        bp_api::http_request_text(guard.addr(), "GET", "/metrics", None).expect("metrics");
    let nonzero = |name: &str| {
        metrics_text.lines().any(|l| {
            l.starts_with(name)
                && l.split_whitespace()
                    .last()
                    .and_then(|v| v.parse::<f64>().ok())
                    .map(|v| v > 0.0)
                    .unwrap_or(false)
        })
    };
    let metrics_ok = metrics_text.contains("bp_slo_current_rate")
        && nonzero("bp_slo_ticks_total")
        && nonzero("bp_slo_breaker_backoffs_total");

    req("DELETE", "/slo", None);
    let controller = handle.stop_and_join();
    let breaker_reclosed = controller
        .breaker()
        .map(|b| {
            b.state() == bp_core::BreakerState::Closed
                && b.transitions_to(bp_core::BreakerState::Closed) > 0
        })
        .unwrap_or(false);

    SloReport {
        capacity_tps: capacity,
        limit_ms,
        reference_rate,
        converged_rate,
        converged_ratio: converged_rate / reference_rate.max(1.0),
        converged_tps,
        healthy_rate,
        spike_rate,
        recovered_rate,
        breaker_opened,
        breaker_reclosed,
        breaker_backoffs,
        metrics_ok,
    }
}

impl SloReport {
    pub fn render(&self) -> String {
        format!(
            "capacity ~{:.0} tx/s, p99 limit {:.2} ms, hand-found operating point {:.0} tx/s\n\
             SLO loop converged to {:.0} tx/s (x{:.2} of reference), delivering {:.0} tx/s\n\
             chaos spike: rate {:.0} -> {:.0} -> {:.0} tx/s (healthy/spike/recovered)\n\
             breaker opened: {}, re-closed: {}, SLO breaker backoffs: {}\n\
             /metrics exposes live bp_slo_* series: {}\n",
            self.capacity_tps,
            self.limit_ms,
            self.reference_rate,
            self.converged_rate,
            self.converged_ratio,
            self.converged_tps,
            self.healthy_rate,
            self.spike_rate,
            self.recovered_rate,
            self.breaker_opened,
            self.breaker_reclosed,
            self.breaker_backoffs,
            self.metrics_ok,
        )
    }
}

pub struct QueueAblationReport {
    pub gated_overshoot_seconds: usize,
    pub ungated_burst_tps: f64,
    pub target_tps: f64,
}

pub fn run_queue_ablation() -> QueueAblationReport {
    use bp_core::RequestQueue;
    use bp_util::clock::sim_clock;

    let target = 1_000.0f64;
    // Build a 2-second backlog, then measure the dispatch rate over the
    // next simulated second with and without the rate gate.
    let drain = |gated: bool| -> f64 {
        let (sim, clock) = sim_clock();
        let q = RequestQueue::new(clock);
        if gated {
            q.set_rate(target);
        }
        q.push_arrivals(0..2 * target as u64); // all overdue
        sim.advance_to(1_000_000);
        let mut dispatched = 0u64;
        // Walk simulated time in 1ms steps for one second.
        for _ in 0..1_000 {
            while q.try_pull().is_some() {
                dispatched += 1;
            }
            sim.advance(1_000);
        }
        dispatched as f64
    };
    let gated = drain(true);
    let ungated = drain(false);
    QueueAblationReport {
        gated_overshoot_seconds: if gated > target * 1.05 { 1 } else { 0 },
        ungated_burst_tps: ungated,
        target_tps: target,
    }
}

/// E13 — record → replay → divergence, over the live HTTP control surface.
pub struct ReplayReport {
    pub recorded_requests: usize,
    /// Same seed twice ⇒ byte-identical schedule sections.
    pub deterministic: bool,
    /// Composite divergence of the as-recorded replay (from /replay/status).
    pub replay_divergence: f64,
    pub divergence_ok: bool,
    /// Wall time of the original recording and of the ×4 warp replay.
    pub recorded_wall_s: f64,
    pub warp_wall_s: f64,
    pub warp_ok: bool,
    pub synth_phases: usize,
    /// Max per-type share error between the fitted mixtures and the
    /// scripted weights.
    pub synth_mixture_err: f64,
    pub metrics_ok: bool,
}

pub fn run_replay() -> ReplayReport {
    use bp_core::Workload;
    use bp_replay::{capture_artifact, fit, start_recorded, start_replay, synthesize, Artifact, ReplaySession, ReplayTiming};
    use bp_util::json::Json;
    use std::time::{Duration, Instant};

    let setup = || -> (Arc<Database>, Arc<dyn Workload>) {
        let db = Database::new(Personality::test());
        let w = by_name("smallbank").unwrap();
        let mut conn = Connection::open(&db);
        w.setup(&mut conn, 0.2, &mut Rng::new(13)).unwrap();
        (db, w)
    };

    let weights0 = vec![40.0, 12.0, 12.0, 12.0, 12.0, 12.0];
    let weights1 = vec![10.0, 18.0, 18.0, 18.0, 18.0, 18.0];
    let script = PhaseScript::new(vec![
        Phase::new(Rate::Limited(500.0), 2.0).with_weights(weights0.clone()),
        Phase::new(Rate::Limited(800.0), 2.0)
            .with_weights(weights1.clone())
            .with_arrival(ArrivalDist::Exponential),
    ]);
    let cfg = RunConfig { terminals: 4, script, seed: 42, collect_trace: true, ..Default::default() };

    // Record the run twice with the same seed: the schedule sections must
    // be byte-identical regardless of wall-clock slippage.
    let t0 = Instant::now();
    let (db, w) = setup();
    let (handle, recorder) = start_recorded(db, w.clone(), wall_clock(), cfg.clone());
    let trace = handle.trace.clone();
    let _ = handle.join();
    let recorded_wall_s = t0.elapsed().as_secs_f64();
    let artifact = capture_artifact(&cfg, w.as_ref(), "test", &recorder, trace.as_deref());

    let (db2, w2) = setup();
    let (handle2, recorder2) = start_recorded(db2, w2.clone(), wall_clock(), cfg.clone());
    let _ = handle2.join();
    let artifact2 = capture_artifact(&cfg, w2.as_ref(), "test", &recorder2, None);
    let deterministic =
        !artifact.schedule.is_empty() && artifact.schedule_text() == artifact2.schedule_text();

    // The client flow over a live socket: download the capture from
    // GET /record, POST it to /replay, poll /replay/status to completion.
    struct BenchReplayLauncher {
        db: Arc<Database>,
        w: Arc<dyn Workload>,
    }
    impl bp_api::ReplayLauncher for BenchReplayLauncher {
        fn launch(&self, a: &Artifact, t: ReplayTiming) -> Result<ReplaySession, String> {
            Ok(start_replay(self.db.clone(), self.w.clone(), wall_clock(), a, t)?.session)
        }
    }
    let (rdb, rw) = setup();
    let registry = Arc::new(bp_obs::MetricsRegistry::new());
    registry.register("recorder", recorder.clone());
    let api = Arc::new(
        bp_api::ApiServer::new()
            .with_registry(registry.clone())
            .with_replay_launcher(Arc::new(BenchReplayLauncher { db: rdb, w: rw })),
    );
    let text = artifact.to_text();
    api.set_record_provider(Arc::new(move || Some(text.clone())));
    let guard = api.serve_http("127.0.0.1:0").expect("bind http");

    let (status, downloaded) =
        bp_api::http_request_text(guard.addr(), "GET", "/record", None).expect("GET /record");
    assert_eq!(status, 200, "GET /record failed");
    let (status, _) = bp_api::http_request(
        guard.addr(),
        "POST",
        "/replay",
        Some(&Json::obj().set("artifact", downloaded.as_str())),
    )
    .expect("POST /replay");
    assert_eq!(status, 200, "POST /replay failed");

    let mut replay_divergence = f64::NAN;
    for _ in 0..600 {
        std::thread::sleep(Duration::from_millis(50));
        let (st, body) = bp_api::http_request(guard.addr(), "GET", "/replay/status", None)
            .expect("GET /replay/status");
        assert_eq!(st, 200, "GET /replay/status failed");
        if body.get("complete").and_then(Json::as_bool) == Some(true) {
            replay_divergence = body
                .get("divergence")
                .and_then(|d| d.get("score"))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            break;
        }
    }
    let divergence_ok = replay_divergence.is_finite() && replay_divergence <= 0.15;
    let (_, metrics_text) =
        bp_api::http_request_text(guard.addr(), "GET", "/metrics", None).expect("GET /metrics");
    let metrics_ok = metrics_text.contains("bp_replay_captured_total")
        && metrics_text.contains("bp_replay_fed_total")
        && metrics_text.contains("bp_replay_done")
        && metrics_text.contains("bp_replay_divergence_score");

    // ×4 time warp: the same schedule in about a quarter of the wall time.
    let (wdb, ww) = setup();
    let t1 = Instant::now();
    let run = start_replay(wdb, ww, wall_clock(), &artifact, ReplayTiming::Warp(4.0))
        .expect("warp replay");
    let _ = run.handle.join();
    let warp_wall_s = t1.elapsed().as_secs_f64();
    let warp_ok = warp_wall_s < recorded_wall_s * 0.6;

    // Statistics-driven synthesis: the fitted mixtures must match the
    // scripted weights within 2% per type.
    let stats = fit(&artifact);
    let synth = synthesize(&stats, 0.25);
    let share = |ws: &[f64]| -> Vec<f64> {
        let sum: f64 = ws.iter().sum();
        ws.iter().map(|x| x / sum).collect()
    };
    let expected = [share(&weights0), share(&weights1)];
    let synth_mixture_err = stats
        .phases
        .iter()
        .zip(expected.iter())
        .flat_map(|(p, e)| p.mixture.iter().zip(e.iter()).map(|(m, e)| (m - e).abs()))
        .fold(0.0, f64::max);

    ReplayReport {
        recorded_requests: artifact.schedule.len(),
        deterministic,
        replay_divergence,
        divergence_ok,
        recorded_wall_s,
        warp_wall_s,
        warp_ok,
        synth_phases: synth.phases.len(),
        synth_mixture_err,
        metrics_ok,
    }
}

/// E15 — the flight recorder end-to-end: a live HTTP run is pushed through
/// two chaos-induced bottlenecks (a lock storm, then an fsync stall) and
/// bp-doctor must name each one correctly, citing the journal event that
/// caused it. Also checks the `#bp-report v1` artifact round-trips.
pub struct DoctorReport {
    /// Telemetry samples and journal events in the downloaded report.
    pub samples: usize,
    pub events: usize,
    /// `GET /report` text parses and re-renders byte-identically.
    pub report_round_trip: bool,
    /// Both chaos arms show up in `GET /events`.
    pub chaos_events_journaled: bool,
    /// All findings, ranked: `(bottleneck, score, causal_kind)`.
    pub findings: Vec<(String, f64, String)>,
    /// The lock-storm window was classified as lock contention, with the
    /// doctor's evidence line; empty causal kind means no event was cited.
    pub lock_evidence: Option<String>,
    pub lock_causal_kind: String,
    /// Same for the fsync-stall window / IO saturation.
    pub io_evidence: Option<String>,
    pub io_causal_kind: String,
}

pub fn run_doctor(phase_s: f64) -> DoctorReport {
    use bp_util::json::Json;
    use std::time::Duration;

    let db = Database::new(Personality::test());
    let w = by_name("voter").unwrap();
    let mut conn = Connection::open(&db);
    w.setup(&mut conn, 0.3, &mut Rng::new(29)).unwrap();
    // Fine-grained telemetry so each chaos window spans several samples.
    let script = PhaseScript::new(vec![Phase::new(Rate::Limited(300.0), phase_s * 3.0 + 5.0)]);
    let cfg = RunConfig {
        terminals: 4,
        script,
        collect_trace: false,
        telemetry_interval_us: 250_000,
        ..Default::default()
    };
    let handle = bp_core::start(db, w, wall_clock(), cfg);
    let api = Arc::new(bp_api::ApiServer::new());
    api.register("voter", handle.controller.clone());
    let guard = api.serve_http("127.0.0.1:0").expect("bind http");
    let sleep_s = |s: f64| std::thread::sleep(Duration::from_secs_f64(s));
    let post = |path: &str, body: &Json| {
        let (status, resp) =
            bp_api::http_request(guard.addr(), "POST", path, Some(body)).expect("POST");
        assert_eq!(status, 200, "POST {path} failed: {resp:?}");
        resp
    };
    let window = |kind: &str, intensity: f64, magnitude: u64| {
        Json::obj().set("kind", kind).set("intensity", intensity).set("magnitude", magnitude)
    };

    // Phase 1: healthy baseline — the doctor's 25th-percentile reference.
    sleep_s(phase_s);

    // Phase 2: lock storm — forced wait-die victims push deadlocks/txn far
    // past the 0.1/txn contention threshold.
    let lock_plan = Json::obj().set("name", "lock-storm").set("seed", 21u64).set(
        "windows",
        Json::Arr(vec![window("deadlock_storm", 0.5, 0)]),
    );
    post("/chaos", &Json::obj().set("plan", lock_plan));
    sleep_s(phase_s);
    let (status, _) = bp_api::http_request(guard.addr(), "DELETE", "/chaos", None).expect("disarm");
    assert_eq!(status, 200);
    sleep_s(0.5);

    // Phase 3: fsync stall — every commit pays a 20ms fsync, so fsync_us/txn
    // dwarfs the healthy baseline.
    let io_plan = Json::obj().set("name", "fsync-wall").set("seed", 22u64).set(
        "windows",
        Json::Arr(vec![window("fsync_stall", 1.0, 20_000)]),
    );
    post("/chaos", &Json::obj().set("plan", io_plan));
    sleep_s(phase_s);
    let (status, _) = bp_api::http_request(guard.addr(), "DELETE", "/chaos", None).expect("disarm");
    assert_eq!(status, 200);
    sleep_s(0.5);

    // Pull the whole flight recorder over the live socket. The lock storm
    // journals thousands of deadlock-victim events, so the window must be
    // wide enough to reach back past them to the chaos arms.
    let (status, events_body) =
        bp_api::http_request(guard.addr(), "GET", "/events?last=5000", None).expect("GET /events");
    assert_eq!(status, 200, "GET /events failed");
    let (status, report_text) =
        bp_api::http_request_text(guard.addr(), "GET", "/report", None).expect("GET /report");
    assert_eq!(status, 200, "GET /report failed");
    let (status, doctor_body) =
        bp_api::http_request(guard.addr(), "GET", "/doctor", None).expect("GET /doctor");
    assert_eq!(status, 200, "GET /doctor failed");

    drop(guard);
    handle.stop_and_join();

    let parsed = bp_obs::Report::from_text(&report_text);
    let report_round_trip =
        parsed.as_ref().map(|r| r.to_text() == report_text).unwrap_or(false);
    let (samples, events) =
        parsed.map(|r| (r.samples.len(), r.events.len())).unwrap_or((0, 0));

    let chaos_arms = events_body
        .get("events")
        .and_then(Json::as_arr)
        .map(|evs| {
            evs.iter()
                .filter(|e| e.get("kind").and_then(Json::as_str) == Some("chaos_armed"))
                .count()
        })
        .unwrap_or(0);

    let findings: Vec<(String, f64, String)> = doctor_body
        .get("findings")
        .and_then(Json::as_arr)
        .map(|fs| {
            fs.iter()
                .filter_map(|f| {
                    Some((
                        f.get("bottleneck")?.as_str()?.to_string(),
                        f.get("score").and_then(Json::as_f64).unwrap_or(0.0),
                        f.get("causal_kind")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                    ))
                })
                .collect()
        })
        .unwrap_or_default();
    let evidence_of = |name: &str| -> (Option<String>, String) {
        doctor_body
            .get("findings")
            .and_then(Json::as_arr)
            .and_then(|fs| {
                fs.iter().find(|f| f.get("bottleneck").and_then(Json::as_str) == Some(name))
            })
            .map(|f| {
                (
                    f.get("evidence").and_then(Json::as_str).map(str::to_string),
                    f.get("causal_kind").and_then(Json::as_str).unwrap_or("").to_string(),
                )
            })
            .unwrap_or((None, String::new()))
    };
    let (lock_evidence, lock_causal_kind) = evidence_of("lock_contention");
    let (io_evidence, io_causal_kind) = evidence_of("io_saturation");

    DoctorReport {
        samples,
        events,
        report_round_trip,
        chaos_events_journaled: chaos_arms >= 2,
        findings,
        lock_evidence,
        lock_causal_kind,
        io_evidence,
        io_causal_kind,
    }
}

/// E16 (`recovery`): crash the engine under live load, let the supervisor
/// bring it back, and verify the workload resumes at its pre-crash rate —
/// all observed through the HTTP control surface (`/recovery`, `/readyz`,
/// `/doctor`, `/metrics`, `/events`).
pub struct RecoveryExperimentReport {
    /// Committed tx/s in the healthy window before the crash.
    pub pre_tps: f64,
    /// Committed tx/s after the supervisor recovered the engine.
    pub post_tps: f64,
    /// `post_tps / pre_tps`.
    pub ratio: f64,
    /// Engine-side crash / recovery counters at the end of the run.
    pub crashes: u64,
    pub recoveries: u64,
    /// Recoveries executed by the armed supervisor (vs manual).
    pub supervisor_recoveries: u64,
    /// `GET /readyz` answered 503 while the engine was down.
    pub not_ready_during_outage: bool,
    /// `GET /readyz` answered 200 once recovered.
    pub ready_after_recovery: bool,
    /// The doctor's `crash_recovery` evidence line, if classified.
    pub doctor_evidence: Option<String>,
    /// Nonzero `bp_recovery_*` series live on `/metrics`.
    pub metrics_ok: bool,
    /// `server_crash` + `recovery_complete` both journaled.
    pub journal_ok: bool,
}

pub fn run_recovery(phase_s: f64) -> RecoveryExperimentReport {
    use bp_util::json::Json;
    use std::time::{Duration, Instant};

    let db = Database::new(Personality::test());
    let w = by_name("voter").unwrap();
    let mut conn = Connection::open(&db);
    w.setup(&mut conn, 0.3, &mut Rng::new(31)).unwrap();
    let script = PhaseScript::new(vec![Phase::new(Rate::Limited(300.0), phase_s * 3.0 + 10.0)]);
    let cfg = RunConfig {
        terminals: 4,
        script,
        collect_trace: false,
        telemetry_interval_us: 250_000,
        ..Default::default()
    };
    let handle = bp_core::start(db.clone(), w, wall_clock(), cfg);
    let reg = Arc::new(bp_obs::MetricsRegistry::new());
    let api = Arc::new(bp_api::ApiServer::new().with_registry(reg));
    api.register("voter", handle.controller.clone());
    let guard = api.serve_http("127.0.0.1:0").expect("bind http");

    let sleep_s = |s: f64| std::thread::sleep(Duration::from_secs_f64(s));
    let get = |path: &str| bp_api::http_request(guard.addr(), "GET", path, None).expect("GET");
    let post = |path: &str, body: &Json| {
        let (status, resp) =
            bp_api::http_request(guard.addr(), "POST", path, Some(body)).expect("POST");
        assert_eq!(status, 200, "POST {path} failed: {resp:?}");
        resp
    };
    let committed = || handle.controller.stats().status(1).committed;

    // Healthy window: measure the pre-crash rate.
    sleep_s(0.5);
    let c0 = committed();
    sleep_s(phase_s);
    let pre_tps = (committed() - c0) as f64 / phase_s;

    // Kill the engine mid-commit (crashpoint 1: after-append-before-fsync,
    // the torn-record case). No supervisor armed yet, so it stays down.
    let window = Json::obj().set("kind", "server_crash").set("intensity", 1.0).set("magnitude", 1u64);
    let plan = Json::obj()
        .set("name", "kill")
        .set("seed", 33u64)
        .set("windows", Json::Arr(vec![window]));
    post("/chaos", &Json::obj().set("plan", plan));
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (_, s) = get("/recovery/status");
        if s.get("crashed").and_then(Json::as_bool) == Some(true) {
            break;
        }
        assert!(Instant::now() < deadline, "ServerCrash fault never fired: {s}");
        sleep_s(0.02);
    }
    let (status, _) = get("/readyz");
    let not_ready_during_outage = status == 503;
    let (status, _) =
        bp_api::http_request(guard.addr(), "DELETE", "/chaos", None).expect("disarm");
    assert_eq!(status, 200);

    // Arm the supervisor; it notices the dead engine within a few polls.
    post("/recovery", &Json::obj().set("poll_ms", 2u64).set("checkpoint_ms", 500u64));
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (_, s) = get("/recovery/status");
        if s.get("crashed").and_then(Json::as_bool) == Some(false) {
            break;
        }
        assert!(Instant::now() < deadline, "supervisor never recovered the engine: {s}");
        sleep_s(0.02);
    }
    let (status, _) = get("/readyz");
    let ready_after_recovery = status == 200;

    // Post-recovery window: the workload must resume at its old rate.
    sleep_s(0.5);
    let c1 = committed();
    sleep_s(phase_s);
    let post_tps = (committed() - c1) as f64 / phase_s;

    let (_, rec_status) = get("/recovery/status");
    let (status, metrics_text) =
        bp_api::http_request_text(guard.addr(), "GET", "/metrics", None).expect("GET /metrics");
    assert_eq!(status, 200);
    let (_, doctor_body) = get("/doctor");
    let (_, events_body) = get("/events?last=5000");

    drop(guard);
    handle.stop_and_join();

    let counter = |name: &str| rec_status.get(name).and_then(Json::as_u64).unwrap_or(0);
    let doctor_evidence = doctor_body
        .get("findings")
        .and_then(Json::as_arr)
        .and_then(|fs| {
            fs.iter()
                .find(|f| f.get("bottleneck").and_then(Json::as_str) == Some("crash_recovery"))
        })
        .and_then(|f| f.get("evidence").and_then(Json::as_str))
        .map(str::to_string);
    let journaled = |kind: &str| {
        events_body
            .get("events")
            .and_then(Json::as_arr)
            .map(|evs| {
                evs.iter().any(|e| e.get("kind").and_then(Json::as_str) == Some(kind))
            })
            .unwrap_or(false)
    };

    RecoveryExperimentReport {
        pre_tps,
        post_tps,
        ratio: if pre_tps > 0.0 { post_tps / pre_tps } else { 0.0 },
        crashes: counter("crashes"),
        recoveries: counter("recoveries"),
        supervisor_recoveries: rec_status
            .get("supervisor")
            .and_then(|s| s.get("recoveries_run"))
            .and_then(Json::as_u64)
            .unwrap_or(0),
        not_ready_during_outage,
        ready_after_recovery,
        doctor_evidence,
        metrics_ok: metrics_text.contains("bp_recovery_crashes_total")
            && metrics_text.contains("bp_recovery_recoveries_total")
            && metrics_text.contains("bp_recovery_replayed_records_total"),
        journal_ok: journaled("server_crash") && journaled("recovery_complete"),
    }
}

/// E17: bp-cluster — a 3-agent fleet over real localhost sockets. The
/// coordinator splits a fleet-wide rate by capacity, one agent is killed
/// via a chaos `ServerCrash`, the missed-heartbeat detector declares it
/// dead, traffic re-splits to the survivors, and aggregate throughput
/// recovers.
pub struct ClusterReport {
    pub nodes_joined: u64,
    pub global_rate: f64,
    /// (node, assigned rate) at the initial split.
    pub split: Vec<(String, f64)>,
    /// Aggregate committed tx/s across the fleet before the kill.
    pub pre_kill_tps: f64,
    /// Kill → dead-in-membership latency, in heartbeat intervals.
    pub dead_after_intervals: f64,
    /// Sum of survivor rate shares after the death re-split.
    pub survivor_rate_sum: f64,
    /// Aggregate committed tx/s across the survivors after re-split.
    pub post_kill_tps: f64,
    /// post / pre.
    pub recovery_ratio: f64,
    /// Merged `/cluster/metrics`: dead-node gauge up, families deduped.
    pub merged_metrics_ok: bool,
    /// node_join / node_dead / rate_resplit all journaled.
    pub journal_ok: bool,
}

pub fn run_cluster() -> ClusterReport {
    use bp_cluster::{start_agent, AgentConfig, ClusterCoordinator, CoordinatorConfig};
    use bp_obs::MetricsRegistry;
    use std::time::{Duration, Instant};

    const HEARTBEAT_MS: u64 = 100;
    const GLOBAL_RATE: f64 = 3_000.0;
    let hb = Duration::from_millis(HEARTBEAT_MS);

    // Coordinator: /cluster/* over a real socket, detector running.
    let coordinator = ClusterCoordinator::new(CoordinatorConfig { heartbeat: hb });
    let coord_reg = Arc::new(MetricsRegistry::new());
    coord_reg.register("cluster", coordinator.clone());
    coordinator.set_registry(coord_reg.clone());
    let coord_api = Arc::new(bp_api::ApiServer::new().with_registry(coord_reg));
    coord_api.set_extension(coordinator.clone());
    let coord_http = coord_api.serve_http("127.0.0.1:0").expect("bind coordinator");
    let _detector = coordinator.start_detector();

    // Three agent nodes: voter on the test engine, each behind its own API
    // server, joined to the coordinator.
    struct Node {
        handle: bp_core::RunHandle,
        _http: bp_api::http::HttpServerGuard,
        _agent: bp_util::Periodic,
    }
    let nodes: Vec<(String, Node)> = ["n1", "n2", "n3"]
        .iter()
        .map(|name| {
            let db = Database::new(Personality::test());
            let w = by_name("voter").unwrap();
            let mut conn = Connection::open(&db);
            w.setup(&mut conn, 0.3, &mut Rng::new(11)).unwrap();
            let cfg = RunConfig {
                terminals: 8,
                script: PhaseScript::new(vec![Phase::new(Rate::Limited(100.0), 120.0)]),
                collect_trace: false,
                node: name.to_string(),
                ..Default::default()
            };
            let handle = bp_core::start(db, w, wall_clock(), cfg);
            let registry = Arc::new(bp_obs::MetricsRegistry::new());
            let api = Arc::new(bp_api::ApiServer::new().with_registry(registry.clone()));
            api.register(name, handle.controller.clone());
            let http = api.serve_http("127.0.0.1:0").expect("bind agent");
            let agent = start_agent(
                AgentConfig::new(name, coord_http.addr(), http.addr()).with_heartbeat(hb),
                handle.controller.clone(),
                &api,
                registry,
            );
            (name.to_string(), Node { handle, _http: http, _agent: agent })
        })
        .collect();

    let status = || {
        bp_api::http_request(coord_http.addr(), "GET", "/cluster/status", None)
            .expect("cluster status")
            .1
    };
    let wait_until = |deadline: Duration, pred: &mut dyn FnMut() -> bool| {
        let end = Instant::now() + deadline;
        while Instant::now() < end {
            if pred() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        pred()
    };

    // Fleet forms.
    let joined = wait_until(Duration::from_secs(10), &mut || {
        status().get("joined").and_then(bp_util::json::Json::as_u64) == Some(3)
    });
    assert!(joined, "fleet never fully joined");

    // Split the fleet-wide rate.
    let (st, body) = bp_api::http_request(
        coord_http.addr(),
        "POST",
        "/cluster/rate",
        Some(&bp_util::json::Json::obj().set("tps", GLOBAL_RATE)),
    )
    .expect("set cluster rate");
    assert_eq!(st, 200, "POST /cluster/rate failed: {body}");
    let split: Vec<(String, f64)> = body
        .get("split")
        .and_then(bp_util::json::Json::as_arr)
        .map(|arr| {
            arr.iter()
                .filter_map(|s| {
                    Some((
                        s.get("node")?.as_str()?.to_string(),
                        s.get("rate")?.as_f64()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default();

    // Pre-kill window: warm up, then measure aggregate committed tx/s.
    let committed_sum = || -> u64 {
        nodes.iter().map(|(_, n)| n.handle.controller.stats().status(1).committed).sum()
    };
    std::thread::sleep(Duration::from_millis(2_000));
    let window = Duration::from_millis(1_500);
    let c0 = committed_sum();
    std::thread::sleep(window);
    let pre_kill_tps = (committed_sum() - c0) as f64 / window.as_secs_f64();

    // Kill n2: a ServerCrash plan fanned out to just that node. The engine
    // dies on its next commit, the agent goes silent, and the detector does
    // the rest.
    let plan = bp_util::json::Json::obj().set(
        "plan",
        bp_util::json::Json::obj().set("name", "kill-n2").set("seed", 1u64).set(
            "windows",
            bp_util::json::Json::Arr(vec![bp_util::json::Json::obj()
                .set("kind", "server_crash")
                .set("intensity", 1.0)]),
        ),
    );
    let kill_at = Instant::now();
    let (st, body) =
        bp_api::http_request(coord_http.addr(), "POST", "/cluster/chaos?node=n2", Some(&plan))
            .expect("fan out chaos");
    assert_eq!(st, 200, "POST /cluster/chaos failed: {body}");

    // The membership table must declare n2 dead within ~2 heartbeat
    // intervals of its last heartbeat.
    let n2_state = |s: &bp_util::json::Json| -> String {
        s.get("nodes")
            .and_then(bp_util::json::Json::as_arr)
            .and_then(|arr| {
                arr.iter()
                    .find(|n| n.get("node").and_then(bp_util::json::Json::as_str) == Some("n2"))
            })
            .and_then(|n| n.get("state").and_then(bp_util::json::Json::as_str))
            .unwrap_or("?")
            .to_string()
    };
    let died = wait_until(Duration::from_secs(5), &mut || n2_state(&status()) == "dead");
    assert!(died, "n2 never declared dead");
    let dead_after_intervals =
        kill_at.elapsed().as_secs_f64() / Duration::from_millis(HEARTBEAT_MS).as_secs_f64();

    // Survivors absorb the dead node's share.
    let survivor_sum = |s: &bp_util::json::Json| -> f64 {
        s.get("nodes")
            .and_then(bp_util::json::Json::as_arr)
            .map(|arr| {
                arr.iter()
                    .filter(|n| {
                        n.get("state").and_then(bp_util::json::Json::as_str) == Some("joined")
                    })
                    .filter_map(|n| n.get("assigned_rate").and_then(bp_util::json::Json::as_f64))
                    .sum()
            })
            .unwrap_or(0.0)
    };
    let resplit = wait_until(Duration::from_secs(5), &mut || {
        (survivor_sum(&status()) - GLOBAL_RATE).abs() < 1.0
    });
    assert!(resplit, "rate never re-split to survivors");
    let survivor_rate_sum = survivor_sum(&status());

    // Post-kill window: survivors at their larger shares. (The dead node's
    // counter is frozen, so the fleet-wide delta is survivor throughput.)
    std::thread::sleep(Duration::from_millis(2_000));
    let c2 = committed_sum();
    std::thread::sleep(window);
    let post_kill_tps = (committed_sum() - c2) as f64 / window.as_secs_f64();

    // Merged telemetry over the coordinator: dead gauge, deduped families.
    // A survivor can flicker through `suspect` when its heartbeat thread
    // loses a scheduling race on a loaded box, so re-scrape for up to two
    // heartbeat intervals rather than judging one snapshot.
    let merge_deadline = Instant::now() + Duration::from_millis(2 * HEARTBEAT_MS);
    let merged_metrics_ok = loop {
        let (_, merged) =
            bp_api::http_request_text(coord_http.addr(), "GET", "/cluster/metrics", None)
                .expect("merged metrics");
        let dead_gauge_ok = merged.contains("bp_cluster_nodes{state=\"dead\"} 1");
        let joined_gauge_ok = merged.contains("bp_cluster_nodes{state=\"joined\"} 2");
        let deduped_ok = merged
            .lines()
            .filter(|l| l.starts_with("# TYPE bp_client_committed_total"))
            .count()
            == 1;
        let ok = dead_gauge_ok && joined_gauge_ok && deduped_ok;
        if ok || Instant::now() >= merge_deadline {
            if !ok {
                let gauges: Vec<&str> =
                    merged.lines().filter(|l| l.starts_with("bp_cluster_nodes")).collect();
                eprintln!(
                    "cluster metrics merge failed: dead_gauge={dead_gauge_ok} \
                     joined_gauge={joined_gauge_ok} dedup={deduped_ok}; gauges: {gauges:?}"
                );
            }
            break ok;
        }
        std::thread::sleep(Duration::from_millis(50));
    };

    let events = coordinator.journal().recent(usize::MAX, bp_obs::Severity::Debug);
    let has = |kind: &str| events.iter().any(|e| e.kind == kind);
    let journal_ok = has("node_join") && has("node_suspect") && has("node_dead") && has("rate_resplit");

    for (_, n) in nodes {
        n.handle.controller.stop();
        n.handle.stop_and_join();
    }

    ClusterReport {
        nodes_joined: 3,
        global_rate: GLOBAL_RATE,
        split,
        pre_kill_tps,
        dead_after_intervals,
        survivor_rate_sum,
        post_kill_tps,
        recovery_ratio: post_kill_tps / pre_kill_tps.max(1.0),
        merged_metrics_ok,
        journal_ok,
    }
}

/// E18: end-to-end distributed tracing — under a chaos latency spike on
/// one node of a two-node fleet, the tail-based sampler retains every
/// slow request while ratio-sampling the bulk under its span budget, and
/// an exemplar trace id scraped from the node's `/metrics` resolves
/// through the coordinator's `GET /cluster/trace/{id}` to a merged stage
/// breakdown naming the dominant stage. All measurements over live HTTP.
pub struct TraceReport {
    /// Ground truth: requests slower than the floor on the spiked node,
    /// from its own latency histogram (`/metrics` bucket counts).
    pub slow_requests: u64,
    /// Of those, how many the tail sampler retained
    /// (`/trace/spans?min_us=`).
    pub retained_slow: u64,
    /// retained_slow / slow_requests (capped at 1.0).
    pub retention: f64,
    /// Every retained span on the spiked node, vs the configured budget.
    pub retained_total: u64,
    pub span_budget: u64,
    /// Exemplar trace id scraped from a `/metrics` histogram bucket.
    pub exemplar: String,
    /// `GET /cluster/trace/{exemplar}` returned a merged breakdown.
    pub cluster_trace_ok: bool,
    /// The merged breakdown's dominant stage.
    pub dominant_stage: String,
    /// Every retained span's id re-derives from (run seed, seq).
    pub ids_deterministic: bool,
}

/// Requests slower than `floor_us` in a rendered `/metrics` histogram:
/// cumulative count at `+Inf` minus cumulative count at `le="floor_us"`,
/// summed across label sets. Bucket lines may carry ` # {...}` exemplar
/// suffixes; only the first value token after the labels is the count.
fn histogram_above(text: &str, metric: &str, floor_us: u64) -> u64 {
    let prefix = format!("{metric}{{");
    let floor = format!("le=\"{floor_us}\"");
    let mut inf = 0.0f64;
    let mut at_floor = 0.0f64;
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(&prefix) else { continue };
        let Some(close) = rest.find('}') else { continue };
        let labels = &rest[..close];
        let count: f64 = rest[close + 1..]
            .split_whitespace()
            .next()
            .and_then(|t| t.parse().ok())
            .unwrap_or(0.0);
        if labels.contains("le=\"+Inf\"") {
            inf += count;
        } else if labels.contains(&floor) {
            at_floor += count;
        }
    }
    (inf - at_floor).max(0.0).round() as u64
}

/// First `# {trace_id="..."}` exemplar in a rendered `/metrics` page.
fn first_exemplar(text: &str) -> Option<String> {
    const NEEDLE: &str = "# {trace_id=\"";
    for line in text.lines() {
        if let Some(i) = line.find(NEEDLE) {
            let rest = &line[i + NEEDLE.len()..];
            if let Some(j) = rest.find('"') {
                return Some(rest[..j].to_string());
            }
        }
    }
    None
}

pub fn run_trace() -> TraceReport {
    use bp_cluster::{start_agent, AgentConfig, ClusterCoordinator, CoordinatorConfig};
    use bp_obs::{MetricsRegistry, ObsConfig, SpanMode};
    use bp_util::json::Json;
    use std::time::{Duration, Instant};

    const HEARTBEAT_MS: u64 = 100;
    /// A request slower than this is "slow" ground truth; a histogram
    /// bucket bound so the cumulative counts give an exact count. Baseline
    /// voter latencies sit orders of magnitude below it.
    const SLOW_FLOOR_US: u64 = 100_000;
    /// Each injected spike adds this much — far above both the floor and
    /// any learned p99 threshold.
    const SPIKE_MAGNITUDE_US: u64 = 500_000;
    /// Per-op injection probability: keeps spiked requests well under 1%
    /// of traffic so the live p99 (the tail sampler's slow cutoff) stays
    /// at baseline while the spikes land.
    const SPIKE_INTENSITY: f64 = 0.001;
    const SPAN_BUDGET: usize = 512;
    const SEED: u64 = 42;
    let hb = Duration::from_millis(HEARTBEAT_MS);

    let coordinator = ClusterCoordinator::new(CoordinatorConfig { heartbeat: hb });
    let coord_reg = Arc::new(MetricsRegistry::new());
    coord_reg.register("cluster", coordinator.clone());
    coordinator.set_registry(coord_reg.clone());
    let coord_api = Arc::new(bp_api::ApiServer::new().with_registry(coord_reg));
    coord_api.set_extension(coordinator.clone());
    let coord_http = coord_api.serve_http("127.0.0.1:0").expect("bind coordinator");
    let _detector = coordinator.start_detector();

    struct Node {
        handle: bp_core::RunHandle,
        http: bp_api::http::HttpServerGuard,
        _agent: bp_util::Periodic,
    }
    let nodes: Vec<(String, Node)> = ["n1", "n2"]
        .iter()
        .map(|name| {
            // A personality with real (busy-wait) delays: latency spikes
            // must turn into wall-clock latency for the tail sampler and
            // the client histogram to see them.
            let db = Database::new(Personality::mysql_like());
            let w = by_name("voter").unwrap();
            let mut conn = Connection::open(&db);
            w.setup(&mut conn, 0.3, &mut Rng::new(11)).unwrap();
            let cfg = RunConfig {
                terminals: 8,
                script: PhaseScript::new(vec![Phase::new(Rate::Limited(400.0), 120.0)]),
                collect_trace: false,
                node: name.to_string(),
                seed: SEED,
                obs: ObsConfig {
                    mode: SpanMode::Sampled,
                    sample_ratio: 0.05,
                    span_budget: SPAN_BUDGET,
                    ..ObsConfig::default()
                },
                // Tick the sensor fast so the slow threshold locks onto
                // the live p99 within the warm-up window.
                telemetry_interval_us: 250_000,
                ..Default::default()
            };
            let handle = bp_core::start(db, w, wall_clock(), cfg);
            let registry = Arc::new(bp_obs::MetricsRegistry::new());
            let api = Arc::new(bp_api::ApiServer::new().with_registry(registry.clone()));
            api.register(name, handle.controller.clone());
            let http = api.serve_http("127.0.0.1:0").expect("bind agent");
            let agent = start_agent(
                AgentConfig::new(name, coord_http.addr(), http.addr()).with_heartbeat(hb),
                handle.controller.clone(),
                &api,
                registry,
            );
            (name.to_string(), Node { handle, http, _agent: agent })
        })
        .collect();

    let wait_until = |deadline: Duration, pred: &mut dyn FnMut() -> bool| {
        let end = Instant::now() + deadline;
        while Instant::now() < end {
            if pred() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        pred()
    };
    let joined = wait_until(Duration::from_secs(10), &mut || {
        bp_api::http_request(coord_http.addr(), "GET", "/cluster/status", None)
            .ok()
            .and_then(|(_, s)| s.get("joined").and_then(Json::as_u64))
            == Some(2)
    });
    assert!(joined, "fleet never fully joined");

    // Warm up: traffic flows and the tail sampler learns its slow
    // threshold from the live window p99.
    std::thread::sleep(Duration::from_millis(2_500));

    // Latency spike on n1 only, armed through the coordinator.
    let plan = Json::obj().set(
        "plan",
        Json::obj().set("name", "spike-n1").set("seed", 1u64).set(
            "windows",
            Json::Arr(vec![Json::obj()
                .set("kind", "latency_spike")
                .set("intensity", SPIKE_INTENSITY)
                .set("magnitude", SPIKE_MAGNITUDE_US)]),
        ),
    );
    let (st, body) =
        bp_api::http_request(coord_http.addr(), "POST", "/cluster/chaos?node=n1", Some(&plan))
            .expect("fan out chaos");
    assert_eq!(st, 200, "POST /cluster/chaos failed: {body}");
    std::thread::sleep(Duration::from_millis(5_000));

    // Freeze the fleet, let in-flight requests drain, then measure
    // everything over the live HTTP surfaces.
    for (_, n) in &nodes {
        n.handle.controller.pause();
    }
    std::thread::sleep(Duration::from_millis(400));

    let n1 = &nodes[0].1;
    if std::env::var("BP_TRACE_DEBUG").is_ok() {
        let rec = n1.handle.controller.spans().unwrap();
        eprintln!(
            "dbg: threshold={:?}us retained slow={} err={} shed={} crash={} ratio={} evicted={}",
            rec.slow_threshold_us(),
            rec.tail_retained(bp_obs::RetainReason::Slow),
            rec.tail_retained(bp_obs::RetainReason::Error),
            rec.tail_retained(bp_obs::RetainReason::Shed),
            rec.tail_retained(bp_obs::RetainReason::Crash),
            rec.tail_retained(bp_obs::RetainReason::Ratio),
            rec.tail_evicted(),
        );
    }
    let (_, metrics_text) =
        bp_api::http_request_text(n1.http.addr(), "GET", "/metrics", None).expect("n1 metrics");
    let slow_requests =
        histogram_above(&metrics_text, "bp_client_latency_us_bucket", SLOW_FLOOR_US);
    let spans_text = |path: &str| -> String {
        bp_api::http_request_text(n1.http.addr(), "GET", path, None).expect("n1 spans").1
    };
    let retained_slow = spans_text(&format!("/trace/spans?last=1000000&min_us={SLOW_FLOOR_US}"))
        .lines()
        .count() as u64;
    let all_spans = spans_text("/trace/spans?last=1000000");
    let retained_total = all_spans.lines().count() as u64;
    let ids_deterministic = all_spans.lines().all(|line| {
        let Ok(j) = Json::parse(line) else { return false };
        match (j.get("trace_id").and_then(Json::as_str), j.get("seq").and_then(Json::as_u64)) {
            (Some(hex), Some(seq)) => {
                bp_obs::parse_trace_id(hex) == Some(bp_obs::trace_id(SEED, seq))
            }
            _ => false,
        }
    });

    // The observability loop closes: an exemplar scraped off a histogram
    // bucket resolves through the coordinator to a merged breakdown.
    let exemplar = first_exemplar(&metrics_text).unwrap_or_default();
    let (st, body) = bp_api::http_request(
        coord_http.addr(),
        "GET",
        &format!("/cluster/trace/{exemplar}"),
        None,
    )
    .expect("cluster trace");
    let dominant_stage = body
        .get("merged")
        .and_then(|m| m.get("dominant_stage"))
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    let cluster_trace_ok = st == 200 && !dominant_stage.is_empty();

    for (_, n) in nodes {
        n.handle.controller.stop();
        n.handle.stop_and_join();
    }

    TraceReport {
        slow_requests,
        retained_slow,
        retention: if slow_requests == 0 {
            1.0
        } else {
            (retained_slow as f64 / slow_requests as f64).min(1.0)
        },
        retained_total,
        span_budget: SPAN_BUDGET as u64,
        exemplar,
        cluster_trace_ok,
        dominant_stage,
        ids_deterministic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Experiments that drive a live (wall-clock) load generator measure
    /// latency curves that a concurrently running neighbor distorts: run
    /// them one at a time. Simulated-clock experiments stay parallel.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn table1_runs_all_benchmarks() {
        let _serial = serial();
        let report = run_table1(0.05);
        assert_eq!(report.rows.len(), 15);
        assert!(report.rows.iter().all(|r| r.sampled_txns_ok), "some benchmark failed");
        assert!(report.rows.iter().all(|r| r.loaded_rows > 0));
        let text = report.render();
        assert!(text.contains("tpcc"));
        assert!(text.contains("Feature Testing"));
    }

    #[test]
    fn observability_report_covers_phases() {
        let _serial = serial();
        let r = run_observability(1.0);
        assert!(r.completed > 0);
        assert_eq!(r.spans_recorded, r.completed, "full mode records every request");
        assert!(!r.phase_lines.is_empty());
        for (_, line) in &r.phase_lines {
            assert!(line.contains("queue p50/p95/p99="), "{line}");
            assert!(line.contains("commit p50/p95/p99="), "{line}");
        }
        assert!(r.metric_families >= 10, "only {} families", r.metric_families);
        assert!(r.exposition_bytes > 0);
    }

    #[test]
    fn dialect_report_full_coverage() {
        for r in run_dialects() {
            assert_eq!(r.dialects_ok, r.total_renderings, "{} has failing dialects", r.benchmark);
            assert!(r.statements > 0);
        }
    }

    #[test]
    fn shape_simulation_tracks_under_capacity() {
        let (target, delivered) = simulate_shape("oracle", "steps", 50.0);
        assert_eq!(target.len(), delivered.len());
        // The first (lowest) step should be tracked closely at steady state.
        let fifth = target.len() / 5;
        let tail = &delivered[fifth - 10..fifth];
        let want = target[fifth - 5];
        let got = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!((got - want).abs() < want * 0.1, "want {want} got {got}");
    }

    #[test]
    fn physics_report_all_green() {
        let r = run_physics();
        assert!(r.deterministic);
        assert!(r.gravity_linear);
        assert!(r.crash_resets_db);
    }

    #[test]
    fn challenges_distinguish_personalities() {
        let rows = run_challenges(1_000.0);
        assert_eq!(rows.len(), 16); // 4 models × 4 shapes
        let passes = |dbms: &str| rows.iter().filter(|r| r.dbms == dbms && r.outcome == "pass").count();
        // The stable models must pass at least as many courses as derby.
        assert!(passes("oracle") >= passes("derby"));
        let derby_tunnel = rows
            .iter()
            .find(|r| r.dbms == "derby" && r.course == "tunnel")
            .unwrap();
        assert_eq!(derby_tunnel.outcome, "crash", "derby must fail the tunnel");
    }

    #[test]
    fn resilience_dips_and_recovers() {
        let _serial = serial();
        let r = run_resilience(4.5);
        assert!(r.injected > 0, "chaos must inject faults");
        assert!(r.breaker_opened, "breaker must open under the error burst");
        assert!(r.shed > 0, "an open breaker must shed load");
        assert!(r.breaker_reclosed, "breaker must re-close after disarm");
        assert!(r.metrics_ok, "chaos + resilience series must be exposed");
        assert!(
            r.faulted_tps < r.baseline_tps * 0.8,
            "no dip: baseline {:.0} faulted {:.0}",
            r.baseline_tps,
            r.faulted_tps
        );
        assert!(
            r.recovered_tps > r.faulted_tps * 1.5,
            "no recovery: faulted {:.0} recovered {:.0}",
            r.faulted_tps,
            r.recovered_tps
        );
    }

    #[test]
    fn slo_converges_and_recovers() {
        let _serial = serial();
        let r = run_slo(3.0);
        assert!(r.capacity_tps > 100.0, "capacity probe failed: {:.0}", r.capacity_tps);
        assert!(r.reference_rate > 0.0);
        assert!(
            (0.6..=1.45).contains(&r.converged_ratio),
            "did not converge near the operating point: reference {:.0} converged {:.0}",
            r.reference_rate,
            r.converged_rate
        );
        assert!(r.breaker_opened, "breaker must open under the spike");
        assert!(r.breaker_backoffs > 0, "open breaker must force backoff ticks");
        assert!(
            r.spike_rate < r.healthy_rate * 0.6,
            "no backoff: healthy {:.0} spike {:.0}",
            r.healthy_rate,
            r.spike_rate
        );
        assert!(
            r.recovered_rate > r.spike_rate * 1.4,
            "no recovery: spike {:.0} recovered {:.0}",
            r.spike_rate,
            r.recovered_rate
        );
        assert!(r.breaker_reclosed, "breaker must re-close after disarm");
        assert!(r.metrics_ok, "bp_slo_* series must be live on /metrics");
    }

    #[test]
    fn doctor_names_both_bottlenecks() {
        let _serial = serial();
        let r = run_doctor(2.0);
        assert!(r.samples > 10, "telemetry must cover the run: {} samples", r.samples);
        assert!(r.report_round_trip, "#bp-report v1 must round-trip byte-identically");
        assert!(r.chaos_events_journaled, "both chaos arms must be journaled");
        assert!(
            r.lock_evidence.is_some(),
            "lock storm must be classified as lock_contention: {:?}",
            r.findings
        );
        assert!(
            r.io_evidence.is_some(),
            "fsync stall must be classified as io_saturation: {:?}",
            r.findings
        );
        // Each finding must cite the chaos plan that induced it (the io
        // peak can land just after disarm, so either edge of the window
        // counts as the cause).
        assert!(r.lock_causal_kind.starts_with("chaos_"), "{:?}", r.findings);
        assert!(r.io_causal_kind.starts_with("chaos_"), "{:?}", r.findings);
    }

    #[test]
    fn recovery_restores_throughput() {
        let _serial = serial();
        let r = run_recovery(1.5);
        assert!(r.pre_tps > 0.0, "healthy window must commit work");
        assert!(r.crashes >= 1, "ServerCrash fault must fire");
        assert!(r.recoveries >= 1 && r.supervisor_recoveries >= 1, "supervisor must recover");
        assert!(r.not_ready_during_outage, "/readyz must 503 while down");
        assert!(r.ready_after_recovery, "/readyz must 200 after recovery");
        assert!(
            r.ratio >= 0.9,
            "post-crash throughput within 10% of pre-crash: {:.0} vs {:.0} tx/s",
            r.post_tps,
            r.pre_tps
        );
        assert!(r.doctor_evidence.is_some(), "doctor must report crash_recovery");
        assert!(r.metrics_ok, "bp_recovery_* series must be live on /metrics");
        assert!(r.journal_ok, "crash + recovery must be journaled");
    }

    #[test]
    fn cluster_fleet_survives_node_kill() {
        let _serial = serial();
        let r = run_cluster();
        assert_eq!(r.nodes_joined, 3);
        let split_sum: f64 = r.split.iter().map(|(_, x)| x).sum();
        assert!((split_sum - r.global_rate).abs() < 1e-6, "split sums to {split_sum}");
        assert!(r.pre_kill_tps > 0.0, "fleet must commit work before the kill");
        assert!(
            r.dead_after_intervals <= 2.6,
            "death detection took {:.2} heartbeat intervals",
            r.dead_after_intervals
        );
        assert!(
            (r.survivor_rate_sum - r.global_rate).abs() < 1.0,
            "survivors must carry the full global rate, got {:.1}",
            r.survivor_rate_sum
        );
        assert!(
            r.recovery_ratio >= 0.9,
            "post-kill throughput within 10% of pre-kill: {:.0} vs {:.0} tx/s",
            r.post_kill_tps,
            r.pre_kill_tps
        );
        assert!(r.merged_metrics_ok, "merged /cluster/metrics must reflect the fleet");
        assert!(r.journal_ok, "membership transitions must be journaled");
    }

    #[test]
    fn trace_tail_sampling_and_cluster_resolution() {
        let _serial = serial();
        let r = run_trace();
        assert!(r.slow_requests > 0, "the latency spike must actually slow some requests");
        assert!(
            r.retention >= 0.99,
            "tail sampler must retain >=99% of slow requests: kept {} of {}",
            r.retained_slow,
            r.slow_requests
        );
        assert!(
            r.retained_total <= 2 * r.span_budget,
            "retained spans ({}) must stay within 2x the {} budget",
            r.retained_total,
            r.span_budget
        );
        assert!(!r.exemplar.is_empty(), "/metrics must carry a trace_id exemplar");
        assert!(
            r.cluster_trace_ok,
            "exemplar {} must resolve via /cluster/trace to a merged breakdown",
            r.exemplar
        );
        assert!(r.ids_deterministic, "trace ids must re-derive from (seed, seq)");
    }

    #[test]
    fn queue_ablation_shows_gate_effect() {
        let _serial = serial();
        let r = run_queue_ablation();
        assert_eq!(r.gated_overshoot_seconds, 0, "gated queue must never exceed target");
        assert!(
            r.ungated_burst_tps > r.target_tps * 1.5,
            "ungated drain should burst: {} vs {}",
            r.ungated_burst_tps,
            r.target_tps
        );
    }
}
