//! Experiment runners, one per paper artifact. Each `run_*` returns a
//! report; the report's [`Outcome`] renders the table the harness prints
//! and names the pass criteria that do not hold.

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
use crate::{failed, Outcome};

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
#[derive(Default)]
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

impl Outcome for Table1Report {
    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Table 1: The set of benchmarks supported in OLTP-Bench\n");
        let _ = writeln!(
            out,
            "{:<16}{:<18}{:<30}{:>6}{:>10}{:>8}{:>6}",
            "Class", "Benchmark", "Application Domain", "Txns", "Rows", "Tables", "OK"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<16}{:<18}{:<30}{:>6}{:>10}{:>8}{:>6}",
                r.class,
                r.benchmark,
                r.domain,
                r.txn_types,
                r.loaded_rows,
                r.tables,
                if r.sampled_txns_ok { "yes" } else { "NO" }
            );
        }
        out
    }

    fn check(&self) -> Vec<&'static str> {
        let class = |c: &str| self.rows.iter().filter(|r| r.class == c).count();
        failed(&[
            (
                "15 benchmarks in classes of 7 / 4 / 4",
                (class("Transactional"), class("Web-Oriented"), class("Feature Testing"))
                    == (7, 4, 4),
            ),
            (
                "every benchmark loads rows and runs all its transaction types",
                self.rows.iter().all(|r| r.sampled_txns_ok && r.loaded_rows > 0),
            ),
        ])
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
        out.push(RateControlReport {
            arrival: name,
            target_tps,
            delivered_mean: Summary::of(&report.delivered).mean,
            mean_abs_error: report.mean_abs_error,
            overshoot_seconds: report.overshoot_seconds,
        });
    }
    out
}

impl Outcome for Vec<RateControlReport> {
    fn render(&self) -> String {
        let mut out = format!(
            "{:<14}{:>10}{:>14}{:>10}{:>12}\n",
            "arrival", "target", "delivered", "MAE", "overshoot-s"
        );
        for r in self {
            let _ = writeln!(
                out,
                "{:<14}{:>10.0}{:>14.1}{:>10.2}{:>12}",
                r.arrival, r.target_tps, r.delivered_mean, r.mean_abs_error, r.overshoot_seconds
            );
        }
        out
    }

    fn check(&self) -> Vec<&'static str> {
        failed(&[
            (
                "no second exceeds the target rate, under either arrival process",
                self.len() == 2 && self.iter().all(|r| r.overshoot_seconds == 0),
            ),
            (
                "mean delivered rate within 10 % of target",
                !self.is_empty()
                    && self.iter().all(|r| (r.delivered_mean / r.target_tps - 1.0).abs() <= 0.10),
            ),
        ])
    }
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
        out.push(MixtureReport {
            preset: name,
            throughput: controller.stats().total_completed() as f64 / seconds,
            lock_waits: m.lock_waits,
            deadlocks: m.deadlocks,
        });
    }
    out
}

impl Outcome for Vec<MixtureReport> {
    fn render(&self) -> String {
        let mut out = format!(
            "{:<14}{:>14}{:>12}{:>11}\n",
            "mixture", "tput (tx/s)", "lock waits", "deadlocks"
        );
        for r in self {
            let _ = writeln!(
                out,
                "{:<14}{:>14.0}{:>12}{:>11}",
                r.preset, r.throughput, r.lock_waits, r.deadlocks
            );
        }
        out
    }

    fn check(&self) -> Vec<&'static str> {
        let of = |preset: &str| self.iter().find(|r| r.preset == preset);
        let (Some(writes), Some(default), Some(reads)) =
            (of("super-writes"), of("default"), of("read-only"))
        else {
            return vec!["all three mixtures measured"];
        };
        failed(&[
            (
                "read-only out-runs the default and the super-writes mixture",
                reads.throughput > default.throughput && reads.throughput > writes.throughput,
            ),
            (
                "read-only waits on no lock and meets no deadlock",
                reads.lock_waits == 0 && reads.deadlocks == 0,
            ),
        ])
    }
}

/// E5 — §2.2.3 multi-tenancy: a tenant's throughput alone vs alongside a
/// second tenant on the same instance, each tenant a run of its own.
#[derive(Default)]
pub struct TenancyReport {
    pub solo_tps: f64,
    pub contended_tps: f64,
    pub neighbor_tps: f64,
}

pub fn run_tenancy(seconds: f64) -> TenancyReport {
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
    TenancyReport { solo_tps: solo, contended_tps: contended, neighbor_tps: neighbor }
}

impl Outcome for TenancyReport {
    fn render(&self) -> String {
        format!(
            "solo:      {:>10.0} tx/s\ncontended: {:>10.0} tx/s (neighbor {:.0} tx/s)\n\
             interference: {:.0}% slowdown\n",
            self.solo_tps,
            self.contended_tps,
            self.neighbor_tps,
            (1.0 - self.contended_tps / self.solo_tps.max(1.0)) * 100.0
        )
    }

    fn check(&self) -> Vec<&'static str> {
        failed(&[
            ("both tenants complete work", self.contended_tps > 0.0 && self.neighbor_tps > 0.0),
            ("a tenant is slower beside a neighbor than alone", self.contended_tps < self.solo_tps),
        ])
    }
}

/// E6 — §4.1.2 challenge shapes across DBMS personalities: the autopilot
/// plays each course against each personality's stage, on the driver in
/// virtual time.
pub struct ChallengeReport {
    pub dbms: &'static str,
    pub course: String,
    pub outcome: &'static str,
    pub survived_s: f64,
    pub score: u64,
}

pub fn run_challenges(scale_tps: f64) -> Vec<ChallengeReport> {
    let mut out = Vec::new();
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
            out.push(ChallengeReport {
                dbms,
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

impl Outcome for Vec<ChallengeReport> {
    fn render(&self) -> String {
        let mut out = format!(
            "{:<10}{:<12}{:<9}{:>11}{:>9}\n",
            "dbms", "course", "outcome", "survived-s", "score"
        );
        for r in self {
            let _ = writeln!(
                out,
                "{:<10}{:<12}{:<9}{:>11.1}{:>9}",
                r.dbms, r.course, r.outcome, r.survived_s, r.score
            );
        }
        out
    }

    fn check(&self) -> Vec<&'static str> {
        let passes =
            |dbms: &str| self.iter().filter(|r| r.dbms == dbms && r.outcome == "pass").count();
        failed(&[
            ("four DBMS stages play four courses each", self.len() == 16),
            (
                "oracle passes at least as many courses as derby",
                passes("oracle") >= passes("derby"),
            ),
            (
                "derby crashes in the tunnel",
                self.iter()
                    .any(|r| r.dbms == "derby" && r.course == "tunnel" && r.outcome == "crash"),
            ),
        ])
    }
}

/// E7 — game physics determinism: the same seed must reproduce the same
/// trajectory, and gravity/jump laws must hold.
#[derive(Default)]
pub struct PhysicsReport {
    pub deterministic: bool,
    pub gravity_linear: bool,
    pub crash_halts: bool,
}

pub fn run_physics() -> PhysicsReport {
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

    PhysicsReport { deterministic, gravity_linear, crash_halts }
}

impl Outcome for PhysicsReport {
    fn render(&self) -> String {
        format!(
            "deterministic trajectories: {}\ngravity linear to zero:     {}\n\
             crash halts, drops work:    {}\n",
            self.deterministic, self.gravity_linear, self.crash_halts
        )
    }

    fn check(&self) -> Vec<&'static str> {
        failed(&[
            ("the same seed replays the same trajectory", self.deterministic),
            ("gravity lowers the requested rate linearly", self.gravity_linear),
            ("a crash halts the benchmark and drops its queued and in-flight work", self.crash_halts),
        ])
    }
}

/// E8 — Fig. 2b: the same saturating workload against every personality on
/// the embedded engine, live (peak throughput and abort rates) and on E6's
/// stage in virtual time.
pub struct PersonalityReport {
    pub personality: &'static str,
    pub throughput: f64,
    pub p95_latency_us: u64,
    pub failed: u64,
    pub jitter_cv: f64,
    /// Saturated throughput of the virtual-time stage, one transaction at
    /// a time (deterministic).
    pub virtual_tps: f64,
}

pub fn run_personalities(seconds: f64) -> Vec<PersonalityReport> {
    let mut out = Vec::new();
    for p in Personality::all() {
        let name = p.name;
        let virtual_tps = VirtualRun::saturated_tps(p.clone(), by_name("voter").unwrap(), None, 5);
        let cfg = RunConfig { collect_trace: true, ..steady(6, Rate::Unlimited, seconds) };
        let controller = LiveRun::start(&voter(0.3, 5, p), cfg).join();
        let st = controller.stats().status(seconds as usize);
        let series = controller.stats().throughput_series();
        let steady = if series.len() > 2 { &series[1..series.len() - 1] } else { &series[..] };
        out.push(PersonalityReport {
            personality: name,
            throughput: controller.stats().total_completed() as f64 / seconds,
            p95_latency_us: st.p95_latency_us,
            failed: st.failed,
            jitter_cv: Summary::of(steady).cv(),
            virtual_tps,
        });
    }
    out
}

impl Outcome for Vec<PersonalityReport> {
    fn render(&self) -> String {
        let mut out = format!(
            "{:<12}{:>14}{:>14}{:>9}{:>12}{:>16}\n",
            "personality", "tput (tx/s)", "p95 (µs)", "failed", "jitter CV", "virtual (tx/s)"
        );
        for r in self {
            let _ = writeln!(
                out,
                "{:<12}{:>14.0}{:>14}{:>9}{:>12.3}{:>16.0}",
                r.personality, r.throughput, r.p95_latency_us, r.failed, r.jitter_cv, r.virtual_tps
            );
        }
        out
    }

    fn check(&self) -> Vec<&'static str> {
        let Some(derby) = self.iter().find(|r| r.personality == "derby") else {
            return vec!["the derby-like stage is measured"];
        };
        let others = || self.iter().filter(|r| r.personality != "derby");
        failed(&[
            (
                "all four personalities complete work",
                self.len() == 4 && self.iter().all(|r| r.throughput > 0.0),
            ),
            (
                "coarse-locking derby delivers the lowest throughput",
                others().all(|r| r.throughput > derby.throughput),
            ),
            ("mysql, postgres and oracle fail no transaction", others().all(|r| r.failed == 0)),
            (
                "in virtual time oracle > mysql > postgres > derby",
                ["oracle", "mysql", "postgres", "derby"]
                    .map(|name| self.iter().find(|r| r.personality == name).map_or(0.0, |r| r.virtual_tps))
                    .windows(2)
                    .all(|pair| pair[0] > pair[1]),
            ),
        ])
    }
}

/// E9 — §2.2.4 control API: command-to-effect latency for a rate change on
/// a live run (seconds until the delivered rate reaches the new target band).
#[derive(Default)]
pub struct ApiReport {
    pub old_rate: f64,
    pub new_rate: f64,
    pub effect_latency_s: f64,
    pub feedback_ok: bool,
}

pub fn run_api(old_rate: f64, new_rate: f64) -> ApiReport {
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
    ApiReport { old_rate, new_rate, effect_latency_s, feedback_ok }
}

impl Outcome for ApiReport {
    fn render(&self) -> String {
        format!(
            "instantaneous feedback available: {}\n\
             rate-change effect latency: {:.1}s ({} → {} tps)\n",
            self.feedback_ok, self.effect_latency_s, self.old_rate, self.new_rate
        )
    }

    fn check(&self) -> Vec<&'static str> {
        failed(&[
            ("status feedback carries the current throughput", self.feedback_ok),
            // NaN (never reached the band) fails the comparison too.
            ("a rate change takes effect within 3 s", self.effect_latency_s <= 3.0),
        ])
    }
}

/// E10 — §2.1 dialect management: every statement a benchmark sends — its
/// statement table *is* its catalog — rendered in all four dialects. A DML
/// rendering is good when it parses back to the statement the canonical
/// text is; a DDL rendering when it parses and, in the two dialects whose
/// type names this engine takes, builds the schema in declaration order.
pub struct DialectReport {
    pub benchmark: String,
    pub statements: usize,
    pub dialects_ok: usize,
    pub total_renderings: usize,
}

pub fn run_dialects() -> Vec<DialectReport> {
    let mut out = Vec::new();
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
        out.push(DialectReport {
            benchmark: b.name.to_string(),
            statements: cat.len(),
            dialects_ok: ok,
            total_renderings: total,
        });
    }
    out
}

impl Outcome for Vec<DialectReport> {
    fn render(&self) -> String {
        let mut out = format!("{:<18}{:>12}{:>16}\n", "benchmark", "statements", "renderings OK");
        for r in self {
            let _ = writeln!(
                out,
                "{:<18}{:>12}{:>13}/{}",
                r.benchmark, r.statements, r.dialects_ok, r.total_renderings
            );
        }
        out
    }

    fn check(&self) -> Vec<&'static str> {
        failed(&[
            (
                "all 15 benchmarks carry catalog statements",
                self.len() == 15 && self.iter().all(|r| r.statements > 0),
            ),
            (
                "every statement renders in every dialect and re-parses to the same statement \
                 (DDL: re-parses, and builds the schema as MySQL and Postgres render it)",
                self.iter().all(|r| r.dialects_ok == r.total_renderings),
            ),
        ])
    }
}

/// E11 — observability (flight recorder + unified registry): run a
/// two-phase workload with span recording in full mode and report the
/// per-phase stage-latency lines plus the Prometheus exposition the
/// `/metrics` endpoint would serve.
#[derive(Default)]
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
    let script = PhaseScript::new(vec![
        Phase::new(Rate::Limited(400.0), seconds / 2.0),
        Phase::new(Rate::Limited(800.0), seconds / 2.0),
    ]);
    let cfg = RunConfig { terminals: 4, script, ..Default::default() };
    let run = LiveRun::start(&voter(0.5, 7, Personality::test()), cfg);
    let (registry, spans) = (run.api.registry().cloned(), run.handle.spans.clone());
    let controller = run.join();

    let samples = registry.expect("a live run serves a registry").snapshot();
    let phase_lines = spans
        .phase_summaries()
        .into_iter()
        .map(|(phase, stages)| (phase, bp_obs::format_stage_line(stages[0].count, &stages)))
        .collect();
    let st = controller.status();
    ObservabilityReport {
        completed: st.committed + st.user_aborted + st.failed,
        spans_recorded: spans.recorded(),
        phase_lines,
        metric_families: samples.chunk_by(|a, b| a.name == b.name).count(),
        exposition_bytes: bp_obs::render_samples(&samples).len(),
    }
}

impl Outcome for ObservabilityReport {
    fn render(&self) -> String {
        let mut out =
            format!("completed: {}  spans recorded: {}\n", self.completed, self.spans_recorded);
        for (phase, line) in &self.phase_lines {
            let _ = writeln!(out, "phase {phase}: {line}");
        }
        let _ = writeln!(
            out,
            "/metrics exposition: {} families, {} bytes",
            self.metric_families, self.exposition_bytes
        );
        out
    }

    fn check(&self) -> Vec<&'static str> {
        failed(&[
            (
                "full mode records one span per completed request",
                self.completed > 0 && self.spans_recorded == self.completed,
            ),
            (
                "every phase reports queue and commit percentiles",
                !self.phase_lines.is_empty()
                    && self.phase_lines.iter().all(|(_, l)| {
                        l.contains("queue p50/p95/p99=") && l.contains("commit p50/p95/p99=")
                    }),
            ),
            ("the registry exposes at least 10 metric families", self.metric_families >= 10),
        ])
    }
}

/// E12 — chaos & resilience: throughput dip-and-recovery under a fault
/// scenario armed over the live HTTP control API mid-run, with the circuit
/// breaker shedding load while the engine is sick and re-closing after the
/// faults are disarmed.
#[derive(Default)]
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
    /// `/metrics` exposes chaos + resilience series above zero.
    pub metrics_ok: bool,
}

pub fn run_resilience(seconds: f64) -> ResilienceReport {
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
    ResilienceReport {
        baseline_tps: c1 as f64 / third,
        faulted_tps: (c2 - c1) as f64 / third,
        recovered_tps: (c3 - c2) as f64 / third,
        injected: controller.chaos().injected_total(bp_chaos::FaultKind::InjectedError),
        shed: controller.breaker().map_or(0, |b| b.shed_total()),
        breaker_opened,
        breaker_reclosed: breaker_reclosed(&controller),
        metrics_ok: metrics.value("bp_chaos_injected_total", &[]) > 0.0
            && metrics.value("bp_resilience_shed_total", &[]) > 0.0
            && metrics.has("bp_resilience_breaker_state"),
    }
}

impl Outcome for ResilienceReport {
    fn render(&self) -> String {
        format!(
            "committed tx/s: baseline {:.0} → faulted {:.0} → recovered {:.0}\n\
             faults injected: {}   requests shed: {}\n\
             breaker opened: {}   re-closed after disarm: {}   /metrics ok: {}\n",
            self.baseline_tps,
            self.faulted_tps,
            self.recovered_tps,
            self.injected,
            self.shed,
            self.breaker_opened,
            self.breaker_reclosed,
            self.metrics_ok
        )
    }

    fn check(&self) -> Vec<&'static str> {
        failed(&[
            ("chaos injects faults", self.injected > 0),
            ("breaker opens under the error burst", self.breaker_opened),
            ("open breaker sheds load", self.shed > 0),
            ("breaker re-closes after disarm", self.breaker_reclosed),
            ("/metrics shows live chaos and resilience series", self.metrics_ok),
            (
                "faulted throughput below 80 % of baseline",
                self.faulted_tps < self.baseline_tps * 0.8,
            ),
            (
                "recovered throughput above 1.5x faulted",
                self.recovered_tps > self.faulted_tps * 1.5,
            ),
        ])
    }
}

/// E14 — closed-loop SLO admission control, driven end-to-end over the
/// live HTTP control surface. Part (a): hand-find the max-throughput-
/// under-p99 operating point with a fixed-rate scan, then let the AIMD
/// loop find it on its own. Part (b): arm a chaos latency-spike +
/// error-burst plan mid-run; the breaker opens, the loop backs the
/// offered rate off hard, and both recover after disarm.
#[derive(Default)]
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
    /// `/metrics` exposes live `bp_slo_*` series above zero.
    pub metrics_ok: bool,
}

pub fn run_slo(seconds: f64) -> SloReport {
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
        breaker_reclosed: breaker_reclosed(&controller),
        breaker_backoffs,
        metrics_ok: metrics.has("bp_slo_current_rate")
            && metrics.value("bp_slo_ticks_total", &[]) > 0.0
            && metrics.value("bp_slo_breaker_backoffs_total", &[]) > 0.0,
    }
}

impl Outcome for SloReport {
    fn render(&self) -> String {
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

    fn check(&self) -> Vec<&'static str> {
        failed(&[
            (
                "probe and scan find an operating point",
                self.capacity_tps > 100.0 && self.reference_rate > 0.0,
            ),
            (
                "loop converges to 0.6x-1.45x the hand-found rate",
                (0.6..=1.45).contains(&self.converged_ratio),
            ),
            ("breaker opens under the chaos spike", self.breaker_opened),
            ("open breaker forces SLO backoffs", self.breaker_backoffs > 0),
            ("spike rate below 60 % of healthy rate", self.spike_rate < self.healthy_rate * 0.6),
            ("recovered rate above 1.4x spike rate", self.recovered_rate > self.spike_rate * 1.4),
            ("breaker re-closes after disarm", self.breaker_reclosed),
            ("bp_slo_* series live on /metrics", self.metrics_ok),
        ])
    }
}

/// Ablation: centralized-queue gating on/off — how much the delivered rate
/// overshoots the target while draining a backlog (why the central queue
/// gates dispatches, §2.2.1).
#[derive(Default)]
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

impl Outcome for QueueAblationReport {
    fn render(&self) -> String {
        format!(
            "target: {} tx/s with a 2s backlog\ngated drain overshoot seconds:  {}\n\
             ungated drain burst: {:.0} tx/s\n",
            self.target_tps, self.gated_overshoot_seconds, self.ungated_burst_tps
        )
    }

    fn check(&self) -> Vec<&'static str> {
        failed(&[
            ("gated drain never exceeds the target", self.gated_overshoot_seconds == 0),
            (
                "ungated drain bursts above 1.5x the target",
                self.ungated_burst_tps > self.target_tps * 1.5,
            ),
        ])
    }
}

/// E13 — record → replay → divergence, over the live HTTP control surface.
#[derive(Default)]
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

impl Outcome for ReplayReport {
    fn render(&self) -> String {
        format!(
            "recorded {} requests in {:.1}s; same-seed schedule byte-identical: {}\n\
             as-recorded replay divergence: {:.4} (within 0.15: {})\n\
             warp x4 wall time: {:.1}s vs {:.1}s recorded (ok: {})\n\
             synthesized {} phases, max mixture error {:.4}   bp_replay_* metrics: {}\n",
            self.recorded_requests,
            self.recorded_wall_s,
            self.deterministic,
            self.replay_divergence,
            self.divergence_ok,
            self.warp_wall_s,
            self.recorded_wall_s,
            self.warp_ok,
            self.synth_phases,
            self.synth_mixture_err,
            self.metrics_ok
        )
    }

    fn check(&self) -> Vec<&'static str> {
        failed(&[
            ("two same-seed recordings have byte-identical schedules", self.deterministic),
            ("the as-recorded replay diverges by at most 0.15", self.divergence_ok),
            ("warp x4 replays in under 60 % of the recorded wall time", self.warp_ok),
            (
                "fitted mixtures within 2 % of scripted weights",
                self.synth_phases > 0 && self.synth_mixture_err < 0.02,
            ),
            ("bp_replay_* series are exposed on /metrics", self.metrics_ok),
        ])
    }
}

/// E15 — the flight recorder end-to-end: a live HTTP run is pushed through
/// two chaos-induced bottlenecks (a lock storm, then an fsync stall) and
/// bp-doctor must name each one correctly, citing the journal event that
/// caused it. Also checks the `#bp-report v2` artifact round-trips.
#[derive(Default)]
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

    let findings: Vec<(String, f64, String)> = doctor_body
        .get("findings")
        .and_then(Json::as_arr)
        .map(|fs| {
            fs.iter()
                .filter_map(|f| {
                    Some((
                        f.get("bottleneck")?.as_str()?.to_string(),
                        f.get("score").and_then(Json::as_f64).unwrap_or(0.0),
                        f.get("causal_kind").and_then(Json::as_str).unwrap_or("").to_string(),
                    ))
                })
                .collect()
        })
        .unwrap_or_default();
    let (lock_evidence, lock_causal_kind) = finding(&doctor_body, "lock_contention").unzip();
    let (io_evidence, io_causal_kind) = finding(&doctor_body, "io_saturation").unzip();

    DoctorReport {
        samples,
        events,
        report_round_trip,
        chaos_events_journaled: journaled(&events_body, "chaos_armed") >= 2,
        findings,
        lock_evidence,
        lock_causal_kind: lock_causal_kind.unwrap_or_default(),
        io_evidence,
        io_causal_kind: io_causal_kind.unwrap_or_default(),
    }
}

impl Outcome for DoctorReport {
    fn render(&self) -> String {
        let mut out = format!(
            "report: {} samples, {} events, round-trip ok: {}   chaos arms journaled: {}\n",
            self.samples, self.events, self.report_round_trip, self.chaos_events_journaled
        );
        for (bottleneck, score, causal) in &self.findings {
            let _ =
                writeln!(out, "finding: {bottleneck:<18} score {score:>6.1}   caused by: {causal}");
        }
        let _ = writeln!(
            out,
            "lock storm  -> {}\nfsync stall -> {}",
            self.lock_evidence.as_deref().unwrap_or("NOT CLASSIFIED"),
            self.io_evidence.as_deref().unwrap_or("NOT CLASSIFIED")
        );
        out
    }

    fn check(&self) -> Vec<&'static str> {
        failed(&[
            ("telemetry covers the run with more than 10 samples", self.samples > 10),
            (
                "the #bp-report v2 text parses and re-renders byte-identically",
                self.report_round_trip,
            ),
            ("both chaos arms are journaled", self.chaos_events_journaled),
            ("the lock storm is classified as lock_contention", self.lock_evidence.is_some()),
            ("the fsync stall is classified as io_saturation", self.io_evidence.is_some()),
            // The io peak can land just after disarm, so either edge of the
            // chaos window counts as the cause.
            ("lock finding cites a chaos event", self.lock_causal_kind.starts_with("chaos_")),
            ("io finding cites a chaos event", self.io_causal_kind.starts_with("chaos_")),
        ])
    }
}

/// E16 (`recovery`): crash the engine under live load, let the supervisor
/// bring it back, and verify the workload resumes at its pre-crash rate —
/// all observed through the HTTP control surface (`/recovery`, `/readyz`,
/// `/doctor`, `/metrics`, `/events`).
#[derive(Default)]
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
    /// `bp_recovery_*` series live on `/metrics`.
    pub metrics_ok: bool,
    /// `server_crash` + `recovery_complete` both journaled.
    pub journal_ok: bool,
}

pub fn run_recovery(phase_s: f64) -> RecoveryExperimentReport {
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
        doctor_evidence: finding(&doctor_body, "crash_recovery").map(|(evidence, _)| evidence),
        metrics_ok: ["crashes_total", "recoveries_total", "replayed_records_total"]
            .iter()
            .all(|series| metrics.has(&format!("bp_recovery_{series}"))),
        journal_ok: journaled(&events_body, "server_crash") > 0
            && journaled(&events_body, "recovery_complete") > 0,
    }
}

impl Outcome for RecoveryExperimentReport {
    fn render(&self) -> String {
        format!(
            "throughput: {:.0} tx/s before crash, {:.0} tx/s after recovery (x{:.2})\n\
             crashes: {}   recoveries: {} ({} by supervisor)   readyz 503 during outage: {}   200 after: {}\n\
             doctor: {}\n\
             bp_recovery_* on /metrics: {}   crash+recovery journaled: {}\n",
            self.pre_tps,
            self.post_tps,
            self.ratio,
            self.crashes,
            self.recoveries,
            self.supervisor_recoveries,
            self.not_ready_during_outage,
            self.ready_after_recovery,
            self.doctor_evidence.as_deref().unwrap_or("NOT CLASSIFIED"),
            self.metrics_ok,
            self.journal_ok
        )
    }

    fn check(&self) -> Vec<&'static str> {
        failed(&[
            ("the healthy window commits work", self.pre_tps > 0.0),
            ("the ServerCrash fault fires", self.crashes >= 1),
            (
                "the armed supervisor runs the recovery",
                self.recoveries >= 1 && self.supervisor_recoveries >= 1,
            ),
            ("/readyz answers 503 while the engine is down", self.not_ready_during_outage),
            ("/readyz answers 200 once recovered", self.ready_after_recovery),
            ("post-crash throughput is within 10 % of pre-crash", self.ratio >= 0.9),
            ("the doctor names crash_recovery", self.doctor_evidence.is_some()),
            ("bp_recovery_* series are exposed on /metrics", self.metrics_ok),
            ("server_crash and recovery_complete are journaled", self.journal_ok),
        ])
    }
}

/// E17: bp-cluster — a 3-agent fleet over real localhost sockets. The
/// coordinator splits a fleet-wide rate by capacity, one agent is killed
/// via a chaos `ServerCrash`, the missed-heartbeat detector declares it
/// dead, traffic re-splits to the survivors, and aggregate throughput
/// recovers.
#[derive(Default)]
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
    /// node_join / node_suspect / node_dead / rate_resplit all journaled.
    pub journal_ok: bool,
}

pub fn run_cluster() -> ClusterReport {
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

    ClusterReport {
        nodes_joined: NODES as u64,
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

impl Outcome for ClusterReport {
    fn render(&self) -> String {
        let split =
            self.split.iter().map(|(n, x)| format!("{n}={x:.0}")).collect::<Vec<_>>().join(" ");
        format!(
            "joined: {} nodes   global rate {:.0} tx/s split {split}\n\
             kill n2 -> dead in {:.2} heartbeat intervals; survivors re-split to {:.0} tx/s\n\
             aggregate throughput: {:.0} tx/s pre-kill -> {:.0} tx/s post-kill (x{:.2})\n\
             merged /cluster/metrics ok: {}   membership journaled: {}\n",
            self.nodes_joined,
            self.global_rate,
            self.dead_after_intervals,
            self.survivor_rate_sum,
            self.pre_kill_tps,
            self.post_kill_tps,
            self.recovery_ratio,
            self.merged_metrics_ok,
            self.journal_ok
        )
    }

    fn check(&self) -> Vec<&'static str> {
        let split_sum: f64 = self.split.iter().map(|(_, x)| x).sum();
        failed(&[
            (
                "initial split gives three nodes the whole global rate",
                self.split.len() == 3 && (split_sum - self.global_rate).abs() < 1e-6,
            ),
            ("the fleet commits work before the kill", self.pre_kill_tps > 0.0),
            ("killed node dead within 2.6 heartbeat intervals", self.dead_after_intervals <= 2.6),
            (
                "survivors carry the whole global rate",
                (self.survivor_rate_sum - self.global_rate).abs() < 1.0,
            ),
            ("post-kill throughput is within 10 % of pre-kill", self.recovery_ratio >= 0.9),
            ("merged metrics: 1 dead, 2 joined, families deduplicated", self.merged_metrics_ok),
            ("node_join, node_suspect, node_dead and rate_resplit are journaled", self.journal_ok),
        ])
    }
}

/// E18: end-to-end distributed tracing — under a chaos latency spike on
/// one node of a two-node fleet, the tail-based sampler retains every
/// slow request while ratio-sampling the bulk under its span budget, and
/// an exemplar trace id scraped from the node's `/metrics` resolves
/// through the coordinator's `GET /cluster/trace/{id}` to a merged stage
/// breakdown naming the dominant stage. All measurements over live HTTP.
#[derive(Default)]
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

pub fn run_trace() -> TraceReport {
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

impl Outcome for TraceReport {
    fn render(&self) -> String {
        format!(
            "slow requests (>100ms) on spiked node: {}   retained by tail sampler: {} ({:.1}%)\n\
             retained spans total: {} (budget {})   trace ids deterministic: {}\n\
             exemplar {} -> /cluster/trace: ok={} dominant stage {}\n",
            self.slow_requests,
            self.retained_slow,
            self.retention * 100.0,
            self.retained_total,
            self.span_budget,
            self.ids_deterministic,
            self.exemplar,
            self.cluster_trace_ok,
            self.dominant_stage
        )
    }

    fn check(&self) -> Vec<&'static str> {
        failed(&[
            ("the latency spike slows some requests past 100 ms", self.slow_requests > 0),
            ("the tail sampler retains at least 99 % of the slow requests", self.retention >= 0.99),
            ("retained spans within the span budget", self.retained_total <= self.span_budget),
            (
                "a /metrics exemplar resolves via /cluster/trace",
                !self.exemplar.is_empty() && self.cluster_trace_ok,
            ),
            ("every retained trace id re-derives from (seed, seq)", self.ids_deterministic),
        ])
    }
}
