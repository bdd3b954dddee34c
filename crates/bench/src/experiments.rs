//! Experiment runners, one per paper artifact. Each `run_*` returns an
//! [`Outcome`]: the table or lines the harness prints, formatted from what
//! it measured, and the numbers its row's criteria in
//! [`EXPERIMENTS`](crate::EXPERIMENTS) read.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use bp_core::{ArrivalDist, MixturePreset, Phase, PhaseScript, Rate, RunConfig, TraceAnalyzer, VirtualRun};
use bp_game::{chase_center_policy, Course, Game, GameSession, Input, PhysicsConfig, SimBackend};
use bp_sql::{Connection, Dialect};
use bp_storage::{Database, Personality};
use bp_util::json::Json;
use bp_util::rng::Rng;
use bp_util::timeseries::Summary;
use bp_workloads::{all_workloads, by_name, table1, BENCHMARKS};

use crate::live::{breaker_reclosed, sleep_s, wait_until, Endpoint, Fleet, LiveRun, Setup};
use crate::Outcome;

fn voter(scale: f64, seed: u64, personality: Personality) -> Setup {
    Setup { workload: "voter", scale, seed, personality }
}

/// `terminals` workers on one steady phase, no `trace.txt` collected.
fn steady(terminals: usize, rate: Rate, seconds: f64) -> RunConfig {
    let script = PhaseScript::new(vec![Phase::new(rate, seconds)]);
    RunConfig { terminals, script, collect_trace: false, ..Default::default() }
}

/// `POST /chaos` body for a named plan of `(kind, intensity, magnitude)`
/// windows.
fn chaos_plan(name: &str, seed: u64, windows: &[(&str, f64, u64)]) -> Json {
    let windows = windows
        .iter()
        .map(|&(kind, intensity, magnitude)| {
            Json::obj().set("kind", kind).set("intensity", intensity).set("magnitude", magnitude)
        })
        .collect();
    let plan = Json::obj().set("name", name).set("seed", seed).set("windows", Json::Arr(windows));
    Json::obj().set("plan", plan)
}

/// The `/doctor` finding for `bottleneck`: `(evidence, causal_kind)`.
fn finding(doctor: &Json, bottleneck: &str) -> Option<(String, String)> {
    let f = doctor
        .get("findings")?
        .as_arr()?
        .iter()
        .find(|f| f.get("bottleneck").and_then(Json::as_str) == Some(bottleneck))?;
    Some((
        f.get("evidence")?.as_str()?.to_string(),
        f.get("causal_kind").and_then(Json::as_str).unwrap_or("").to_string(),
    ))
}

/// Events of `kind` in a `GET /events` body.
fn journaled(events: &Json, kind: &str) -> usize {
    events.get("events").and_then(Json::as_arr).map_or(0, |evs| {
        evs.iter().filter(|e| e.get("kind").and_then(Json::as_str) == Some(kind)).count()
    })
}

/// E1 — regenerate **Table 1**: every bundled benchmark, loaded and probed.
pub fn run_table1(scale: f64) -> Outcome {
    let mut text = String::from("Table 1: The set of benchmarks supported in OLTP-Bench\n");
    let _ = writeln!(
        text,
        "{:<16}{:<18}{:<30}{:>6}{:>10}{:>8}{:>6}",
        "Class", "Benchmark", "Application Domain", "Txns", "Rows", "Tables", "OK"
    );
    let (mut classes, mut failing) = (Vec::new(), 0);
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
        let class = meta.class.label();
        let _ = writeln!(
            text,
            "{:<16}{:<18}{:<30}{:>6}{:>10}{:>8}{:>6}",
            class,
            meta.benchmark,
            meta.domain,
            meta.transaction_types,
            summary.rows,
            summary.tables,
            if ok { "yes" } else { "NO" }
        );
        classes.push(class);
        failing += usize::from(!(ok && summary.rows > 0));
    }
    let class = |c: &str| classes.iter().filter(|&&k| k == c).count();
    let split = (class("Transactional"), class("Web-Oriented"), class("Feature Testing"));
    Outcome {
        text,
        measured: vec![
            ("classes_7_4_4", f64::from(split == (7, 4, 4))),
            ("benchmarks_failing", failing as f64),
        ],
    }
}

/// E3 — §2.2.1 rate control: target vs delivered under both arrival
/// distributions, on the live threaded testbed with the embedded engine.
pub fn run_rate_control(target_tps: f64, seconds: f64) -> Outcome {
    let mut text = format!(
        "{:<14}{:>10}{:>14}{:>10}{:>12}\n",
        "arrival", "target", "delivered", "MAE", "overshoot-s"
    );
    let (mut overshoot_seconds, mut worst_rate_error) = (0, 0.0f64);
    for (arrival, name) in
        [(ArrivalDist::Uniform, "uniform"), (ArrivalDist::Exponential, "exponential")]
    {
        let script = PhaseScript::new(vec![
            Phase::new(Rate::Limited(target_tps), seconds).with_arrival(arrival)
        ]);
        let cfg = RunConfig { terminals: 4, script: script.clone(), ..Default::default() };
        let run = LiveRun::start(&voter(0.5, 7, Personality::test()), cfg);
        let trace = run.handle.trace.clone().expect("collect_trace is on");
        run.join();
        let report = TraceAnalyzer::tracking(&trace, &script, 50_000.0, 0.05);
        let delivered_mean = Summary::of(&report.delivered).mean;
        let _ = writeln!(
            text,
            "{:<14}{:>10.0}{:>14.1}{:>10.2}{:>12}",
            name, target_tps, delivered_mean, report.mean_abs_error, report.overshoot_seconds
        );
        overshoot_seconds += report.overshoot_seconds;
        worst_rate_error = worst_rate_error.max((delivered_mean / target_tps - 1.0).abs());
    }
    Outcome {
        text,
        measured: vec![
            ("overshoot_seconds", overshoot_seconds as f64),
            ("worst_rate_error", worst_rate_error),
        ],
    }
}

/// E4 — §2.2.2 mixture control: read-heavy vs write-heavy throughput under
/// open-loop load (real lock contention on the embedded engine).
pub fn run_mixture(seconds: f64) -> Outcome {
    let mut text =
        format!("{:<14}{:>14}{:>12}{:>11}\n", "mixture", "tput (tx/s)", "lock waits", "deadlocks");
    let runs = [
        (MixturePreset::SuperWrites, "super-writes"),
        (MixturePreset::Default, "default"),
        (MixturePreset::ReadOnly, "read-only"),
    ]
    .map(|(preset, name)| {
        let setup = Setup {
            workload: "smallbank",
            scale: 0.3,
            seed: 3,
            personality: Personality::mysql_like(),
        };
        let types = by_name(setup.workload).expect("bundled workload").transaction_types();
        let weights = preset.build(&types).weights().to_vec();
        let script =
            PhaseScript::new(vec![Phase::new(Rate::Unlimited, seconds).with_weights(weights)]);
        let cfg = RunConfig { terminals: 8, script, collect_trace: false, ..Default::default() };
        let run = LiveRun::start(&setup, cfg);
        let db = run.db.clone();
        let controller = run.join();
        // The single-connection load waits on no lock, so the engine's
        // totals are the run's.
        let m = db.metrics().snapshot();
        let throughput = controller.stats().total_completed() as f64 / seconds;
        let _ = writeln!(
            text,
            "{:<14}{:>14.0}{:>12}{:>11}",
            name, throughput, m.lock_waits, m.deadlocks
        );
        (throughput, m.lock_waits + m.deadlocks)
    });
    let [(writes, _), (default, _), (reads, read_only_blocked)] = runs;
    Outcome {
        text,
        measured: vec![
            ("read_only_lead_tps", reads - default.max(writes)),
            ("read_only_waits_and_deadlocks", read_only_blocked as f64),
        ],
    }
}

/// E5 — §2.2.3 multi-tenancy: a tenant's throughput alone vs alongside a
/// second tenant on the same instance, each tenant a run of its own.
pub fn run_tenancy(seconds: f64) -> Outcome {
    let run = |with_neighbor: bool| -> (f64, f64) {
        let db = Database::new(Personality::mysql_like());
        let tenant = |name: &str, seed: u64| {
            let workload = by_name(name).unwrap();
            workload.setup(&mut Connection::open(&db), 0.3, &mut Rng::new(seed)).unwrap();
            bp_core::start(db.clone(), workload, steady(4, Rate::Unlimited, seconds))
        };
        let primary = tenant("ycsb", 1);
        let neighbor = with_neighbor.then(|| tenant("smallbank", 2));
        let tps = |handle: bp_core::RunHandle| handle.join().stats().total_completed() as f64 / seconds;
        (tps(primary), neighbor.map_or(0.0, tps))
    };
    let (solo, _) = run(false);
    let (contended, neighbor) = run(true);
    let text = format!(
        "solo:      {:>10.0} tx/s\ncontended: {:>10.0} tx/s (neighbor {:.0} tx/s)\n\
         interference: {:.0}% slowdown\n",
        solo,
        contended,
        neighbor,
        (1.0 - contended / solo.max(1.0)) * 100.0
    );
    Outcome {
        text,
        measured: vec![
            ("slower_tenant_tps", contended.min(neighbor)),
            ("slowdown_tps", solo - contended),
        ],
    }
}

/// E6 — §4.1.2 challenge shapes across DBMS personalities: the autopilot
/// plays each course against each personality's stage, on the driver in
/// virtual time.
pub fn run_challenges(scale_tps: f64) -> Outcome {
    let mut text = format!(
        "{:<10}{:<12}{:<9}{:>11}{:>9}\n",
        "dbms", "course", "outcome", "survived-s", "score"
    );
    let (mut games, mut oracle_minus_derby_passes, mut derby_tunnel_crash) = (0, 0, false);
    for personality in Personality::all() {
        let dbms = personality.name;
        for course in Course::demo_set(scale_tps) {
            let course_name = course.name.clone();
            let game = Game::new(
                "ycsb",
                dbms,
                course,
                PhysicsConfig {
                    jump_tps: scale_tps * 0.06,
                    gravity_tps_per_s: scale_tps * 0.04,
                    max_tps: scale_tps * 1.5,
                },
            );
            let backend = SimBackend::new(personality.clone(), by_name("ycsb").unwrap(), 42);
            let mut session = GameSession::new(game, backend);
            session.run_policy(100_000, 1_000, chase_center_policy);
            let g = &session.game;
            let outcome = match g.screen() {
                bp_game::Screen::Won => "pass",
                bp_game::Screen::Crashed { .. } => "crash",
                _ => "timeout",
            };
            let _ = writeln!(
                text,
                "{:<10}{:<12}{:<9}{:>11.1}{:>9}",
                dbms,
                course_name,
                outcome,
                g.elapsed_us() as f64 / 1e6,
                g.score()
            );
            games += 1;
            if outcome == "pass" {
                oracle_minus_derby_passes +=
                    i32::from(dbms == "oracle") - i32::from(dbms == "derby");
            }
            derby_tunnel_crash |= dbms == "derby" && course_name == "tunnel" && outcome == "crash";
        }
    }
    Outcome {
        text,
        measured: vec![
            ("games", f64::from(games)),
            ("oracle_minus_derby_passes", f64::from(oracle_minus_derby_passes)),
            ("derby_tunnel_crash", f64::from(derby_tunnel_crash)),
        ],
    }
}

/// E7 — game physics determinism: the same seed must reproduce the same
/// trajectory, and gravity/jump laws must hold.
pub fn run_physics() -> Outcome {
    let session = |seed: u64| {
        let course = Course::demo_set(1_000.0).remove(0);
        let game = Game::new("voter", "mysql", course, PhysicsConfig::default());
        GameSession::new(game, SimBackend::new(Personality::mysql_like(), by_name("voter").unwrap(), seed))
    };

    // Determinism.
    let run_once = || {
        let mut s = session(9);
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

    // Crash semantics: the crashed tenant is stopped with its backlog and
    // in-flight requests dropped, so another second of play completes none.
    let mut s = session(10);
    s.run_policy(100_000, 1_000, |_| Input::None); // crash by inaction
    let tenant = s.backend.controller.clone();
    let completed = tenant.stats().total_completed();
    for _ in 0..10 {
        s.tick(100_000, Input::None);
    }
    let crash_halts = matches!(s.game.screen(), bp_game::Screen::Crashed { .. })
        && tenant.is_stopped()
        && tenant.backlog() == 0
        && tenant.stats().total_completed() == completed;

    Outcome {
        text: format!(
            "deterministic trajectories: {deterministic}\ngravity linear to zero:     {gravity_linear}\n\
             crash halts, drops work:    {crash_halts}\n"
        ),
        measured: vec![
            ("deterministic", f64::from(deterministic)),
            ("gravity_linear", f64::from(gravity_linear)),
            ("crash_halts", f64::from(crash_halts)),
        ],
    }
}

/// E8 — Fig. 2b: the same saturating workload against every personality on
/// the embedded engine, live (peak throughput and abort rates) and on E6's
/// stage in virtual time (saturated, one transaction at a time:
/// deterministic).
pub fn run_personalities(seconds: f64) -> Outcome {
    let mut text = format!(
        "{:<12}{:>14}{:>14}{:>9}{:>12}{:>16}\n",
        "personality", "tput (tx/s)", "p95 (µs)", "failed", "jitter CV", "virtual (tx/s)"
    );
    let mut rows = Vec::new();
    for p in Personality::all() {
        let name = p.name;
        let virtual_tps = VirtualRun::saturated_tps(p.clone(), by_name("voter").unwrap(), None, 5);
        let cfg = RunConfig { collect_trace: true, ..steady(6, Rate::Unlimited, seconds) };
        let controller = LiveRun::start(&voter(0.3, 5, p), cfg).join();
        let st = controller.stats().status(seconds as usize);
        let series = controller.stats().throughput_series();
        let steady = if series.len() > 2 { &series[1..series.len() - 1] } else { &series[..] };
        let throughput = controller.stats().total_completed() as f64 / seconds;
        let _ = writeln!(
            text,
            "{:<12}{:>14.0}{:>14}{:>9}{:>12.3}{:>16.0}",
            name,
            throughput,
            st.p95_latency_us,
            st.failed,
            Summary::of(steady).cv(),
            virtual_tps
        );
        rows.push((name, throughput, st.failed, virtual_tps));
    }
    let derby = rows.iter().find(|r| r.0 == "derby").map_or(f64::NAN, |r| r.1);
    let others = || rows.iter().filter(|r| r.0 != "derby");
    let virtual_tps = |name| rows.iter().find(|r| r.0 == name).map_or(0.0, |r| r.3);
    let virtual_order_gap = ["oracle", "mysql", "postgres", "derby"]
        .map(virtual_tps)
        .windows(2)
        .map(|pair| pair[0] - pair[1])
        .fold(f64::INFINITY, f64::min);
    Outcome {
        text,
        measured: vec![
            ("personalities_with_work", rows.iter().filter(|r| r.1 > 0.0).count() as f64),
            ("derby_deficit_tps", others().map(|r| r.1).fold(f64::INFINITY, f64::min) - derby),
            ("others_failed", others().map(|r| r.2).sum::<u64>() as f64),
            ("virtual_order_gap_tps", virtual_order_gap),
        ],
    }
}

/// E9 — §2.2.4 control API: command-to-effect latency for a rate change on
/// a live run (seconds until the delivered rate reaches the new target band;
/// NaN if it never does).
pub fn run_api(old_rate: f64, new_rate: f64) -> Outcome {
    let cfg = steady(4, Rate::Limited(old_rate), 30.0);
    let run = LiveRun::start(&voter(0.3, 11, Personality::test()), cfg);

    sleep_s(1.5);
    let feedback_ok = run
        .http
        .get("/workloads/voter")
        .get("status")
        .and_then(|s| s.get("throughput"))
        .and_then(Json::as_f64)
        .is_some();

    // Issue the rate change and time until the 1s-window rate is in band.
    let t0 = Instant::now();
    run.http.post("/workloads/voter/rate", &Json::obj().set("tps", new_rate));
    let stats = run.handle.controller.stats().clone();
    let mut effect_latency_s = f64::NAN;
    for _ in 0..100 {
        sleep_s(0.1);
        if (stats.status(1).throughput - new_rate).abs() <= new_rate * 0.15 {
            effect_latency_s = t0.elapsed().as_secs_f64();
            break;
        }
    }
    run.stop();
    Outcome {
        text: format!(
            "instantaneous feedback available: {feedback_ok}\n\
             rate-change effect latency: {effect_latency_s:.1}s ({old_rate} → {new_rate} tps)\n"
        ),
        measured: vec![
            ("feedback", f64::from(feedback_ok)),
            ("effect_latency_s", effect_latency_s),
        ],
    }
}

/// E10 — §2.1 dialect management: every statement a benchmark sends — its
/// statement table *is* its catalog — rendered in all four dialects. A DML
/// rendering is good when it parses back to the statement the canonical
/// text is; a DDL rendering when it parses and, in the two dialects whose
/// type names this engine takes, builds the schema in declaration order.
pub fn run_dialects() -> Outcome {
    let mut text = format!("{:<18}{:>12}{:>16}\n", "benchmark", "statements", "renderings OK");
    let (mut with_statements, mut bad_renderings) = (0, 0);
    for b in &BENCHMARKS {
        let cat = b.catalog();
        let mut engines = [Dialect::MySql, Dialect::Postgres]
            .map(|d| (d, Connection::open(&Database::new(Personality::test()))));
        let (mut ok, mut total) = (0, 0);
        for name in cat.declared() {
            let canonical = cat.canonical(name).and_then(|text| bp_sql::parse(text).ok());
            for d in Dialect::all() {
                total += 1;
                let Some(sql) = cat.resolve(name, d) else { continue };
                let Ok(back) = bp_sql::parse(&sql) else { continue };
                let good = if back.is_dml() {
                    Some(back) == canonical
                } else {
                    let engine = engines.iter_mut().find(|(dialect, _)| *dialect == d);
                    engine.is_none_or(|(_, conn)| conn.execute(&sql, &[]).is_ok())
                };
                ok += good as usize;
            }
        }
        let _ = writeln!(text, "{:<18}{:>12}{:>13}/{}", b.name, cat.len(), ok, total);
        with_statements += usize::from(!cat.is_empty());
        bad_renderings += total - ok;
    }
    Outcome {
        text,
        measured: vec![
            ("benchmarks_with_statements", with_statements as f64),
            ("bad_renderings", bad_renderings as f64),
        ],
    }
}

/// E11 — observability (flight recorder + unified registry): run a
/// two-phase workload with span recording in full mode and report the
/// per-phase stage-latency lines plus the Prometheus exposition the
/// `/metrics` endpoint would serve.
pub fn run_observability(seconds: f64) -> Outcome {
    let script = PhaseScript::new(vec![
        Phase::new(Rate::Limited(400.0), seconds / 2.0),
        Phase::new(Rate::Limited(800.0), seconds / 2.0),
    ]);
    let cfg = RunConfig { terminals: 4, script, ..Default::default() };
    let run = LiveRun::start(&voter(0.5, 7, Personality::test()), cfg);
    let (registry, spans) = (run.api.registry().cloned(), run.handle.spans.clone());
    let controller = run.join();

    let samples = registry.expect("a live run serves a registry").snapshot();
    let st = controller.status();
    let completed = st.committed + st.user_aborted + st.failed;
    let mut text = format!("completed: {}  spans recorded: {}\n", completed, spans.recorded());
    let phases = spans.phase_summaries();
    let mut with_percentiles = 0;
    for (phase, stages) in &phases {
        let line = bp_obs::format_stage_line(stages[0].count, stages);
        let _ = writeln!(text, "phase {phase}: {line}");
        with_percentiles += usize::from(
            line.contains("queue p50/p95/p99=") && line.contains("commit p50/p95/p99="),
        );
    }
    let metric_families = samples.chunk_by(|a, b| a.name == b.name).count();
    let _ = writeln!(
        text,
        "/metrics exposition: {} families, {} bytes",
        metric_families,
        bp_obs::render_samples(&samples).len()
    );
    Outcome {
        text,
        measured: vec![
            ("spans_per_request", spans.recorded() as f64 / completed as f64),
            ("phases_with_percentiles_share", with_percentiles as f64 / phases.len() as f64),
            ("metric_families", metric_families as f64),
        ],
    }
}

/// E12 — chaos & resilience: throughput dip-and-recovery under a fault
/// scenario armed over the live HTTP control API mid-run, with the circuit
/// breaker shedding load while the engine is sick and re-closing after the
/// faults are disarmed.
pub fn run_resilience(seconds: f64) -> Outcome {
    let cfg = RunConfig {
        max_retries: 2,
        breaker: true,
        ..steady(4, Rate::Limited(400.0), seconds)
    };
    let run = LiveRun::start(&voter(0.3, 13, Personality::test()), cfg);
    let third = seconds / 3.0;

    // Phase 1: healthy baseline.
    sleep_s(third);
    let c1 = run.committed();

    // Phase 2: arm the error burst mid-run over HTTP.
    run.http.post("/chaos", &Json::obj().set("scenario", "error-burst").set("seed", 7u64));
    sleep_s(third);
    let c2 = run.committed();
    let breaker_opened = run.breaker_opened();

    // Phase 3: disarm and let the breaker probe its way back to Closed.
    run.http.delete("/chaos");
    sleep_s(third);
    let c3 = run.committed();

    let metrics = run.http.scrape("/metrics");
    let controller = run.stop();
    let (baseline_tps, faulted_tps, recovered_tps) =
        (c1 as f64 / third, (c2 - c1) as f64 / third, (c3 - c2) as f64 / third);
    let injected = controller.chaos().injected_total(bp_chaos::FaultKind::InjectedError);
    let shed = controller.breaker().map_or(0, |b| b.shed_total());
    let breaker_reclosed = breaker_reclosed(&controller);
    let metrics_ok = metrics.value("bp_chaos_injected_total", &[]) > 0.0
        && metrics.value("bp_resilience_shed_total", &[]) > 0.0
        && metrics.has("bp_resilience_breaker_state");
    Outcome {
        text: format!(
            "committed tx/s: baseline {baseline_tps:.0} → faulted {faulted_tps:.0} → recovered {recovered_tps:.0}\n\
             faults injected: {injected}   requests shed: {shed}\n\
             breaker opened: {breaker_opened}   re-closed after disarm: {breaker_reclosed}   /metrics ok: {metrics_ok}\n"
        ),
        measured: vec![
            ("injected", injected as f64),
            ("breaker_opened", f64::from(breaker_opened)),
            ("shed", shed as f64),
            ("breaker_reclosed", f64::from(breaker_reclosed)),
            ("metrics_ok", f64::from(metrics_ok)),
            ("faulted_over_baseline", faulted_tps / baseline_tps),
            ("recovered_over_faulted", recovered_tps / faulted_tps),
        ],
    }
}

/// E14 — closed-loop SLO admission control, driven end-to-end over the
/// live HTTP control surface. Part (a): hand-find the max-throughput-
/// under-p99 operating point with a fixed-rate scan, then let the AIMD
/// loop find it on its own. Part (b): arm a chaos latency-spike +
/// error-burst plan mid-run; the breaker opens, the loop backs the
/// offered rate off hard, and both recover after disarm.
pub fn run_slo(seconds: f64) -> Outcome {
    // ---- part (a): convergence to the hand-found operating point ----
    // The mysql-like personality pays lock waits and IO in the cost model,
    // so with 8 terminals the p99-vs-rate curve climbs steadily and then
    // cliffs at saturation — a real knee for the loop to find, in debug
    // and release builds alike. (The zero-cost test personality's curve is
    // flat to within scheduler noise in release.)
    let scan_rates = [0.3, 0.45, 0.6, 0.75, 0.9, 1.05];
    let part_a_s = 9.0 + scan_rates.len() as f64 * 2.6 + seconds + 6.0;
    let cfg = steady(8, Rate::Limited(500.0), part_a_s);
    let run = LiveRun::start(&voter(0.3, 17, Personality::mysql_like()), cfg);
    let set_rate = |body: Json| run.http.post("/workloads/voter/rate", &body);
    let stats = run.handle.controller.stats().clone();

    // The run manager applies phase 0 when its thread spins up, and a new
    // phase clears API overrides — a rate change racing it gets undone.
    // Let the phase land before steering.
    sleep_s(0.3);

    // Saturate to measure capacity and the saturated p99 tail. The
    // completion-rate window lags by up to a second (it counts complete
    // seconds), so the probe must outlast the 500-tps startup second.
    set_rate(Json::obj().set("rate", "unlimited"));
    sleep_s(3.0);
    let sat = stats.window_snapshot(2);
    let capacity = sat.throughput.max(1.0);
    // ...then idle along at a trickle for the healthy p99 baseline. Long
    // dwell: the lagging window must shed the saturated-tail samples.
    set_rate(Json::obj().set("tps", (capacity * 0.1).max(100.0)));
    sleep_s(3.1);
    let low = stats.window_snapshot(2);
    // The SLO limit sits geometrically between the relaxed and the
    // saturated tail, so the operating point is in the scan's interior.
    let limit_us = ((low.p99_us.max(50) as f64) * (sat.p99_us.max(100) as f64)).sqrt();
    let limit_ms = limit_us / 1_000.0;

    // Fixed-rate scan: measure the p99-vs-rate curve.
    let mut curve: Vec<(f64, f64)> = Vec::new();
    for frac in scan_rates {
        let rate = capacity * frac;
        set_rate(Json::obj().set("tps", rate));
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
    // (the tail grows multiplicatively near the knee, and a coarse grid
    // read from below can miss the crossing by a whole step).
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
    run.http.post(
        "/slo",
        &Json::obj()
            .set("target", "p99")
            .set("limit_ms", limit_ms)
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
    let slo_rate = |run: &LiveRun| {
        run.http.get("/slo/status").get("rate").and_then(Json::as_f64).unwrap_or(0.0)
    };
    let mut rate_sum = 0.0;
    const RATE_SAMPLES: usize = 8;
    for _ in 0..RATE_SAMPLES {
        rate_sum += slo_rate(&run);
        sleep_s(0.3);
    }
    let converged_rate = rate_sum / RATE_SAMPLES as f64;
    let converged_tps = stats.window_snapshot(1).throughput;
    run.http.delete("/slo");
    run.stop();

    // ---- part (b): chaos latency spike -> breaker backoff -> recovery ----
    let chaos_s = seconds.max(4.5);
    let third = chaos_s / 3.0;
    let cfg = RunConfig {
        max_retries: 2,
        breaker: true,
        ..steady(4, Rate::Limited(300.0), chaos_s + 3.0)
    };
    let run = LiveRun::start(&voter(0.3, 17, Personality::test()), cfg);
    run.http.post(
        "/slo",
        &Json::obj()
            .set("target", "p99")
            .set("limit_ms", 20.0)
            .set("initial_rate", 400.0)
            .set("step", 25.0)
            .set("tick_ms", 100u64)
            .set("window_s", 1u64)
            .set("min_rate", 20.0)
            .set("min_samples", 10u64),
    );

    // Phase 1: healthy — the loop probes upward from its initial rate.
    sleep_s(third);
    let healthy_rate = slo_rate(&run);

    // Phase 2: latency spike plus an error burst; the errors trip the
    // breaker and the open breaker forces the hard multiplicative backoff.
    run.http.post(
        "/chaos",
        &chaos_plan("slo-spike", 7, &[("latency_spike", 1.0, 20_000), ("injected_error", 0.6, 0)]),
    );
    sleep_s(third);
    let spike_rate = slo_rate(&run);
    let breaker_opened = run.breaker_opened();

    // Phase 3: disarm; the breaker re-closes and the loop re-probes.
    run.http.delete("/chaos");
    sleep_s(third);
    let recovered_rate = slo_rate(&run);
    let breaker_backoffs = run
        .http
        .get("/slo/status")
        .get("adjustments")
        .and_then(|a| a.get("breaker_backoff"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let metrics = run.http.scrape("/metrics");
    run.http.delete("/slo");
    let controller = run.stop();

    let converged_ratio = converged_rate / reference_rate.max(1.0);
    let breaker_reclosed = breaker_reclosed(&controller);
    let metrics_ok = metrics.has("bp_slo_current_rate")
        && metrics.value("bp_slo_ticks_total", &[]) > 0.0
        && metrics.value("bp_slo_breaker_backoffs_total", &[]) > 0.0;
    Outcome {
        text: format!(
            "capacity ~{capacity:.0} tx/s, p99 limit {limit_ms:.2} ms, hand-found operating point {reference_rate:.0} tx/s\n\
             SLO loop converged to {converged_rate:.0} tx/s (x{converged_ratio:.2} of reference), delivering {converged_tps:.0} tx/s\n\
             chaos spike: rate {healthy_rate:.0} -> {spike_rate:.0} -> {recovered_rate:.0} tx/s (healthy/spike/recovered)\n\
             breaker opened: {breaker_opened}, re-closed: {breaker_reclosed}, SLO breaker backoffs: {breaker_backoffs}\n\
             /metrics exposes live bp_slo_* series: {metrics_ok}\n"
        ),
        measured: vec![
            // The scan's operating point is at least 0.3x capacity, so it is
            // found whenever capacity is.
            ("capacity_tps", capacity),
            // How far the ratio lies outside [0.6, 1.45]; negative inside.
            ("converged_ratio_outside_band", (0.6 - converged_ratio).max(converged_ratio - 1.45)),
            ("breaker_opened", f64::from(breaker_opened)),
            ("breaker_backoffs", breaker_backoffs as f64),
            ("spike_over_healthy", spike_rate / healthy_rate),
            ("recovered_over_spike", recovered_rate / spike_rate),
            ("breaker_reclosed", f64::from(breaker_reclosed)),
            ("metrics_ok", f64::from(metrics_ok)),
        ],
    }
}

/// Ablation: centralized-queue gating on/off — how much the delivered rate
/// overshoots the target while draining a backlog (why the central queue
/// gates dispatches, §2.2.1).
pub fn run_queue_ablation() -> Outcome {
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
    let gated_overshoot_seconds = if gated > target * 1.05 { 1 } else { 0 };
    Outcome {
        text: format!(
            "target: {target} tx/s with a 2s backlog\ngated drain overshoot seconds:  {gated_overshoot_seconds}\n\
             ungated drain burst: {ungated:.0} tx/s\n"
        ),
        measured: vec![
            ("gated_overshoot_seconds", f64::from(gated_overshoot_seconds)),
            ("ungated_over_target", ungated / target),
        ],
    }
}

/// E13 — record → replay → divergence, over the live HTTP control surface.
pub fn run_replay() -> Outcome {
    use bp_replay::{
        capture_artifact, fit, start_recorded, start_replay, synthesize, ReplaySurface, ReplayTiming,
    };

    let setup =
        Setup { workload: "smallbank", scale: 0.2, seed: 13, personality: Personality::test() };

    let weights0 = vec![40.0, 12.0, 12.0, 12.0, 12.0, 12.0];
    let weights1 = vec![10.0, 18.0, 18.0, 18.0, 18.0, 18.0];
    let script = PhaseScript::new(vec![
        Phase::new(Rate::Limited(500.0), 2.0).with_weights(weights0.clone()),
        Phase::new(Rate::Limited(800.0), 2.0)
            .with_weights(weights1.clone())
            .with_arrival(ArrivalDist::Exponential),
    ]);
    let cfg =
        RunConfig { terminals: 4, script, seed: 42, collect_trace: true, ..Default::default() };

    // Record the run twice with the same seed: the schedule sections must
    // be byte-identical regardless of wall-clock slippage.
    let t0 = Instant::now();
    let (db, w) = setup.load();
    let (handle, recorder) = start_recorded(db, w.clone(), cfg.clone());
    let trace = handle.trace.clone();
    let _ = handle.join();
    let recorded_wall_s = t0.elapsed().as_secs_f64();
    let artifact = capture_artifact(&cfg, w.as_ref(), "test", &recorder, trace.as_deref());

    let (db2, w2) = setup.load();
    let (handle2, recorder2) = start_recorded(db2, w2.clone(), cfg.clone());
    let _ = handle2.join();
    let artifact2 = capture_artifact(&cfg, w2.as_ref(), "test", &recorder2, None);
    let deterministic =
        !artifact.schedule.is_empty() && artifact.schedule_text() == artifact2.schedule_text();

    // The client flow over a live socket: download the capture from
    // GET /record, POST it to /replay, poll /replay/status to completion.
    let (rdb, rw) = setup.load();
    let registry = Arc::new(bp_obs::MetricsRegistry::new());
    registry.register("recorder", recorder.clone());
    let api = Arc::new(bp_api::ApiServer::new().with_registry(registry.clone()));
    let text = artifact.to_text();
    api.mount(ReplaySurface::new(
        move |a, t| Ok(start_replay(rdb.clone(), rw.clone(), a, t)?.session),
        move || Some(text.clone()),
    ));
    let http = Endpoint::serve(&api);

    let downloaded = http.text("/record");
    http.post("/replay", &Json::obj().set("artifact", downloaded.as_str()));
    let mut replay_divergence = f64::NAN;
    wait_until(30.0, || {
        let body = http.get("/replay/status");
        let complete = body.get("complete").and_then(Json::as_bool) == Some(true);
        if complete {
            replay_divergence = body
                .get("divergence")
                .and_then(|d| d.get("score"))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
        }
        complete
    });
    let divergence_ok = replay_divergence.is_finite() && replay_divergence <= 0.15;
    let metrics = http.scrape("/metrics");
    let metrics_ok = ["captured_total", "fed_total", "done", "divergence_score"]
        .iter()
        .all(|series| metrics.has(&format!("bp_replay_{series}")));

    // ×4 time warp: the same schedule in about a quarter of the wall time.
    let (wdb, ww) = setup.load();
    let t1 = Instant::now();
    let run = start_replay(wdb, ww, &artifact, ReplayTiming::Warp(4.0))
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

    // No fitted phase leaves nothing to compare: the error is unmeasured.
    let mixture_error = if synth.phases.is_empty() { f64::NAN } else { synth_mixture_err };
    Outcome {
        text: format!(
            "recorded {} requests in {recorded_wall_s:.1}s; same-seed schedule byte-identical: {deterministic}\n\
             as-recorded replay divergence: {replay_divergence:.4} (within 0.15: {divergence_ok})\n\
             warp x4 wall time: {warp_wall_s:.1}s vs {recorded_wall_s:.1}s recorded (ok: {warp_ok})\n\
             synthesized {} phases, max mixture error {synth_mixture_err:.4}   bp_replay_* metrics: {metrics_ok}\n",
            artifact.schedule.len(),
            synth.phases.len(),
        ),
        measured: vec![
            ("deterministic", f64::from(deterministic)),
            ("divergence", replay_divergence),
            ("warp_over_recorded", warp_wall_s / recorded_wall_s),
            ("mixture_error", mixture_error),
            ("metrics_ok", f64::from(metrics_ok)),
        ],
    }
}

/// E15 — the flight recorder end-to-end: a live HTTP run is pushed through
/// two chaos-induced bottlenecks (a lock storm, then an fsync stall) and
/// bp-doctor must name each one correctly, citing the journal event that
/// caused it. Also checks the `#bp-report v2` artifact round-trips.
pub fn run_doctor(phase_s: f64) -> Outcome {
    // Fine-grained telemetry so each chaos window spans several samples.
    let cfg = RunConfig {
        telemetry_interval_us: 250_000,
        ..steady(4, Rate::Limited(300.0), phase_s * 3.0 + 5.0)
    };
    let run = LiveRun::start(&voter(0.3, 29, Personality::test()), cfg);

    // Phase 1: healthy baseline — the doctor's 25th-percentile reference.
    sleep_s(phase_s);

    // Phase 2: lock storm — forced wait-die victims push deadlocks/txn far
    // past the 0.1/txn contention threshold.
    run.http.post("/chaos", &chaos_plan("lock-storm", 21, &[("deadlock_storm", 0.5, 0)]));
    sleep_s(phase_s);
    run.http.delete("/chaos");
    sleep_s(0.5);

    // Phase 3: fsync stall — every commit pays a 20ms fsync, so fsync_us/txn
    // dwarfs the healthy baseline.
    run.http.post("/chaos", &chaos_plan("fsync-wall", 22, &[("fsync_stall", 1.0, 20_000)]));
    sleep_s(phase_s);
    run.http.delete("/chaos");
    sleep_s(0.5);

    // Pull the whole flight recorder over the live socket. The lock storm
    // journals thousands of deadlock-victim events, so the window must be
    // wide enough to reach back past them to the chaos arms.
    let events_body = run.http.get("/events?last=5000");
    let report_text = run.http.text("/report");
    let doctor_body = run.http.get("/doctor");
    run.stop();

    let parsed = bp_obs::Report::from_text(&report_text);
    let report_round_trip = parsed.as_ref().is_ok_and(|r| r.to_text() == report_text);
    let (samples, events) = parsed.map(|r| (r.samples.len(), r.events.len())).unwrap_or((0, 0));

    let chaos_arms_journaled = journaled(&events_body, "chaos_armed");
    let mut text = format!(
        "report: {samples} samples, {events} events, round-trip ok: {report_round_trip}   chaos arms journaled: {}\n",
        chaos_arms_journaled >= 2
    );
    for f in doctor_body.get("findings").and_then(Json::as_arr).unwrap_or_default() {
        let Some(bottleneck) = f.get("bottleneck").and_then(Json::as_str) else { continue };
        let score = f.get("score").and_then(Json::as_f64).unwrap_or(0.0);
        let causal = f.get("causal_kind").and_then(Json::as_str).unwrap_or("");
        let _ =
            writeln!(text, "finding: {bottleneck:<18} score {score:>6.1}   caused by: {causal}");
    }
    let (lock_evidence, lock_causal_kind) = finding(&doctor_body, "lock_contention").unzip();
    let (io_evidence, io_causal_kind) = finding(&doctor_body, "io_saturation").unzip();
    let _ = writeln!(
        text,
        "lock storm  -> {}\nfsync stall -> {}",
        lock_evidence.as_deref().unwrap_or("NOT CLASSIFIED"),
        io_evidence.as_deref().unwrap_or("NOT CLASSIFIED")
    );
    // The io peak can land just after disarm, so either edge of the chaos
    // window counts as the cause.
    let cites_chaos =
        |kind: Option<String>| f64::from(kind.is_some_and(|k| k.starts_with("chaos_")));
    Outcome {
        text,
        measured: vec![
            ("samples", samples as f64),
            ("report_round_trip", f64::from(report_round_trip)),
            ("chaos_arms_journaled", chaos_arms_journaled as f64),
            ("lock_classified", f64::from(lock_evidence.is_some())),
            ("io_classified", f64::from(io_evidence.is_some())),
            ("lock_cites_chaos", cites_chaos(lock_causal_kind)),
            ("io_cites_chaos", cites_chaos(io_causal_kind)),
        ],
    }
}

/// E16 (`recovery`): crash the engine under live load, let the supervisor
/// bring it back, and verify the workload resumes at its pre-crash rate —
/// all observed through the HTTP control surface (`/recovery`, `/readyz`,
/// `/doctor`, `/metrics`, `/events`).
pub fn run_recovery(phase_s: f64) -> Outcome {
    let cfg = RunConfig {
        telemetry_interval_us: 250_000,
        ..steady(4, Rate::Limited(300.0), phase_s * 3.0 + 10.0)
    };
    let run = LiveRun::start(&voter(0.3, 31, Personality::test()), cfg);
    let crashed = || run.http.get("/recovery/status").get("crashed").and_then(Json::as_bool);
    let readyz = || run.http.request("GET", "/readyz", None).0;
    let window_tps = || {
        sleep_s(0.5);
        let c0 = run.committed();
        sleep_s(phase_s);
        (run.committed() - c0) as f64 / phase_s
    };

    // Healthy window: measure the pre-crash rate.
    let pre_tps = window_tps();

    // Kill the engine mid-commit (crashpoint 1: after-append-before-fsync,
    // the torn-record case). No supervisor armed yet, so it stays down.
    run.http.post("/chaos", &chaos_plan("kill", 33, &[("server_crash", 1.0, 1)]));
    assert!(wait_until(5.0, || crashed() == Some(true)), "ServerCrash fault never fired");
    let not_ready_during_outage = readyz() == 503;
    run.http.delete("/chaos");

    // Arm the supervisor; it notices the dead engine within a few polls.
    run.http.post("/recovery", &Json::obj().set("poll_ms", 2u64).set("checkpoint_ms", 500u64));
    assert!(wait_until(5.0, || crashed() == Some(false)), "supervisor never recovered the engine");
    let ready_after_recovery = readyz() == 200;

    // Post-recovery window: the workload must resume at its old rate.
    let post_tps = window_tps();

    let rec_status = run.http.get("/recovery/status");
    let metrics = run.http.scrape("/metrics");
    let doctor_body = run.http.get("/doctor");
    let events_body = run.http.get("/events?last=5000");
    run.stop();

    let counter = |name: &str| rec_status.get(name).and_then(Json::as_u64).unwrap_or(0);
    let (crashes, recoveries) = (counter("crashes"), counter("recoveries"));
    let supervisor_recoveries = rec_status
        .get("supervisor")
        .and_then(|s| s.get("recoveries_run"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let ratio = if pre_tps > 0.0 { post_tps / pre_tps } else { 0.0 };
    let doctor_evidence = finding(&doctor_body, "crash_recovery").map(|(evidence, _)| evidence);
    let metrics_ok = ["crashes_total", "recoveries_total", "replayed_records_total"]
        .iter()
        .all(|series| metrics.has(&format!("bp_recovery_{series}")));
    let journal_ok = journaled(&events_body, "server_crash") > 0
        && journaled(&events_body, "recovery_complete") > 0;
    Outcome {
        text: format!(
            "throughput: {pre_tps:.0} tx/s before crash, {post_tps:.0} tx/s after recovery (x{ratio:.2})\n\
             crashes: {crashes}   recoveries: {recoveries} ({supervisor_recoveries} by supervisor)   readyz 503 during outage: {not_ready_during_outage}   200 after: {ready_after_recovery}\n\
             doctor: {}\n\
             bp_recovery_* on /metrics: {metrics_ok}   crash+recovery journaled: {journal_ok}\n",
            doctor_evidence.as_deref().unwrap_or("NOT CLASSIFIED"),
        ),
        measured: vec![
            ("pre_tps", pre_tps),
            ("crashes", crashes as f64),
            ("supervised_recoveries", recoveries.min(supervisor_recoveries) as f64),
            ("not_ready_in_outage", f64::from(not_ready_during_outage)),
            ("ready_after_recovery", f64::from(ready_after_recovery)),
            ("post_over_pre", ratio),
            ("doctor_classified", f64::from(doctor_evidence.is_some())),
            ("metrics_ok", f64::from(metrics_ok)),
            ("journal_ok", f64::from(journal_ok)),
        ],
    }
}

/// E17: bp-cluster — a 3-agent fleet over real localhost sockets. The
/// coordinator splits a fleet-wide rate by capacity, one agent is killed
/// via a chaos `ServerCrash`, the missed-heartbeat detector declares it
/// dead, traffic re-splits to the survivors, and aggregate throughput
/// recovers.
pub fn run_cluster() -> Outcome {
    const GLOBAL_RATE: f64 = 3_000.0;
    const NODES: usize = 3;

    // Three agent nodes: voter on the test engine, each behind its own API
    // server, joined to the coordinator.
    let cfg = steady(8, Rate::Limited(100.0), 120.0);
    let fleet = Fleet::start(NODES, &voter(0.3, 11, Personality::test()), &cfg);
    let nodes = || -> Vec<Json> {
        let status = fleet.http.get("/cluster/status");
        status.get("nodes").and_then(Json::as_arr).map(<[Json]>::to_vec).unwrap_or_default()
    };
    let state_is = |n: &Json, state: &str| n.get("state").and_then(Json::as_str) == Some(state);
    let window_tps = || {
        sleep_s(2.0);
        let c0 = fleet.committed();
        sleep_s(1.5);
        (fleet.committed() - c0) as f64 / 1.5
    };

    // Split the fleet-wide rate.
    let body = fleet.http.post("/cluster/rate", &Json::obj().set("tps", GLOBAL_RATE));
    let split: Vec<(String, f64)> = body
        .get("split")
        .and_then(Json::as_arr)
        .map(|arr| {
            arr.iter()
                .filter_map(|s| {
                    Some((s.get("node")?.as_str()?.to_string(), s.get("rate")?.as_f64()?))
                })
                .collect()
        })
        .unwrap_or_default();

    // Pre-kill window: warm up, then measure aggregate committed tx/s.
    let pre_kill_tps = window_tps();

    // Kill n2: a ServerCrash plan fanned out to just that node. The engine
    // dies on its next commit, the agent goes silent, and the detector does
    // the rest.
    let kill_at = Instant::now();
    fleet
        .http
        .post("/cluster/chaos?node=n2", &chaos_plan("kill-n2", 1, &[("server_crash", 1.0, 0)]));

    // The membership table declares n2 dead once it has missed two
    // heartbeat intervals.
    let died = wait_until(5.0, || {
        nodes()
            .iter()
            .any(|n| n.get("node").and_then(Json::as_str) == Some("n2") && state_is(n, "dead"))
    });
    assert!(died, "n2 never declared dead");
    let dead_after_intervals = kill_at.elapsed().as_secs_f64() / Fleet::HEARTBEAT.as_secs_f64();

    // Survivors absorb the dead node's share.
    let survivor_sum = || -> f64 {
        nodes()
            .iter()
            .filter(|n| state_is(n, "joined"))
            .filter_map(|n| n.get("assigned_rate").and_then(Json::as_f64))
            .sum()
    };
    let resplit = wait_until(5.0, || (survivor_sum() - GLOBAL_RATE).abs() < 1.0);
    assert!(resplit, "rate never re-split to survivors");
    let survivor_rate_sum = survivor_sum();

    // Post-kill window: survivors at their larger shares. (The dead node's
    // counter is frozen, so the fleet-wide delta is survivor throughput.)
    let post_kill_tps = window_tps();

    // Merged telemetry over the coordinator: dead gauge, deduped families.
    // A survivor can flicker through `suspect` when its heartbeat thread
    // loses a scheduling race on a loaded box, so re-scrape for up to two
    // heartbeat intervals rather than judging one snapshot.
    let merged_metrics_ok = wait_until(2.0 * Fleet::HEARTBEAT.as_secs_f64(), || {
        let merged = fleet.http.scrape("/cluster/metrics");
        merged.value("bp_cluster_nodes", &[("state", "dead")]) == 1.0
            && merged.value("bp_cluster_nodes", &[("state", "joined")]) == 2.0
            && merged.has("bp_client_committed_total")
    });

    let events = fleet.coordinator.journal().recent(usize::MAX, bp_obs::Severity::Debug);
    let journal_ok = ["node_join", "node_suspect", "node_dead", "rate_resplit"]
        .iter()
        .all(|kind| events.iter().any(|e| e.kind == *kind));
    fleet.stop();

    let recovery_ratio = post_kill_tps / pre_kill_tps.max(1.0);
    let split_sum: f64 = split.iter().map(|(_, x)| x).sum();
    let split_error = if split.len() == NODES { (split_sum - GLOBAL_RATE).abs() } else { f64::NAN };
    let split = split.iter().map(|(n, x)| format!("{n}={x:.0}")).collect::<Vec<_>>().join(" ");
    Outcome {
        text: format!(
            "joined: {NODES} nodes   global rate {GLOBAL_RATE:.0} tx/s split {split}\n\
             kill n2 -> dead in {dead_after_intervals:.2} heartbeat intervals; survivors re-split to {survivor_rate_sum:.0} tx/s\n\
             aggregate throughput: {pre_kill_tps:.0} tx/s pre-kill -> {post_kill_tps:.0} tx/s post-kill (x{recovery_ratio:.2})\n\
             merged /cluster/metrics ok: {merged_metrics_ok}   membership journaled: {journal_ok}\n"
        ),
        measured: vec![
            ("split_error_tps", split_error),
            ("pre_kill_tps", pre_kill_tps),
            ("dead_after_intervals", dead_after_intervals),
            ("survivor_rate_error", (survivor_rate_sum - GLOBAL_RATE).abs()),
            ("post_over_pre", recovery_ratio),
            ("merged_metrics_ok", f64::from(merged_metrics_ok)),
            ("journal_ok", f64::from(journal_ok)),
        ],
    }
}

/// E18: end-to-end distributed tracing — under a chaos latency spike on
/// one node of a two-node fleet, the tail-based sampler retains every
/// slow request while ratio-sampling the bulk under its span budget, and
/// an exemplar trace id scraped from the node's `/metrics` resolves
/// through the coordinator's `GET /cluster/trace/{id}` to a merged stage
/// breakdown naming the dominant stage. All measurements over live HTTP.
pub fn run_trace() -> Outcome {
    use bp_obs::{ObsConfig, SpanMode};

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

    let cfg = RunConfig {
        seed: SEED,
        obs: ObsConfig {
            mode: SpanMode::Sampled,
            sample_ratio: 0.05,
            ring_capacity: SPAN_BUDGET,
        },
        // Tick the sensor fast so the slow threshold locks onto the live
        // p99 within the warm-up window.
        telemetry_interval_us: 250_000,
        ..steady(8, Rate::Limited(400.0), 120.0)
    };
    // A personality with real (busy-wait) delays: latency spikes must turn
    // into wall-clock latency for the tail sampler and the client histogram
    // to see them.
    let fleet = Fleet::start(2, &voter(0.3, 11, Personality::mysql_like()), &cfg);

    // Warm up: traffic flows and the tail sampler learns its slow
    // threshold from the live window p99.
    sleep_s(2.5);

    // Latency spike on n1 only, armed through the coordinator.
    fleet.http.post(
        "/cluster/chaos?node=n1",
        &chaos_plan("spike-n1", 1, &[("latency_spike", SPIKE_INTENSITY, SPIKE_MAGNITUDE_US)]),
    );
    sleep_s(5.0);

    // Freeze the fleet, let in-flight requests drain, then measure
    // everything over the live HTTP surfaces.
    for n in &fleet.nodes {
        n.handle.controller.pause();
    }
    sleep_s(0.4);

    let n1 = &fleet.nodes[0].http;
    let metrics = n1.scrape("/metrics");
    let slow_requests = metrics.above("bp_client_latency_us", SLOW_FLOOR_US);
    let retained_slow =
        n1.text(&format!("/trace/spans?last=1000000&min_us={SLOW_FLOOR_US}")).lines().count()
            as u64;
    let all_spans = n1.text("/trace/spans?last=1000000");
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
    let exemplar = metrics.exemplar().unwrap_or_default();
    let (st, body) = fleet.http.request("GET", &format!("/cluster/trace/{exemplar}"), None);
    let dominant_stage = body
        .get("merged")
        .and_then(|m| m.get("dominant_stage"))
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    let cluster_trace_ok = st == 200 && !dominant_stage.is_empty();
    fleet.stop();

    let retention = if slow_requests == 0 {
        1.0
    } else {
        (retained_slow as f64 / slow_requests as f64).min(1.0)
    };
    Outcome {
        text: format!(
            "slow requests (>100ms) on spiked node: {slow_requests}   retained by tail sampler: {retained_slow} ({:.1}%)\n\
             retained spans total: {retained_total} (budget {SPAN_BUDGET})   trace ids deterministic: {ids_deterministic}\n\
             exemplar {exemplar} -> /cluster/trace: ok={cluster_trace_ok} dominant stage {dominant_stage}\n",
            retention * 100.0,
        ),
        measured: vec![
            ("slow_requests", slow_requests as f64),
            ("retention", retention),
            ("retained_over_budget", retained_total as f64 / SPAN_BUDGET as f64),
            ("exemplar_resolves", f64::from(!exemplar.is_empty() && cluster_trace_ok)),
            ("ids_deterministic", f64::from(ids_deterministic)),
        ],
    }
}
