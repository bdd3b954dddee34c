//! Chaos & resilience end to end: seeded fault plans armed over a live
//! HTTP socket reproduce identical injection sequences, deadlock storms on
//! a high-contention workload are broken without starvation, per-tenant
//! blackouts fail only the targeted tenant, and the circuit breaker opens
//! under an error burst, sheds load, and re-closes after disarm — all
//! visible through `/chaos/status` and `/metrics`, and exactly so on a
//! virtual stage.

use std::sync::Arc;

use benchpress::api::{http_request, http_request_text, ApiServer};
use benchpress::chaos::{FaultKind, FaultPlan, FaultWindow};
use benchpress::core::{
    BreakerState, ControlState, Controller, Mixture, Phase, PhaseScript, Rate, RequestQueue,
    RequestOutcome, RunConfig, StatsCollector, TransactionType, VirtualRun,
};
use benchpress::obs::{parse_samples, MetricValue, MetricsRegistry, ObsConfig, SpanRecorder};
use benchpress::sql::Connection;
use benchpress::storage::{Database, Personality, Value};
use benchpress::util::clock::MICROS_PER_SEC;
use benchpress::util::json::Json;
use benchpress::util::rng::{next_backoff, Rng};
use benchpress::workloads::by_name;

/// A registered workload that never runs: its controller is built, not
/// started.
fn idle_controller() -> Controller {
    let clock = benchpress::util::clock::wall_clock();
    let types = vec![TransactionType::new("Read", 100.0, true)];
    let state = ControlState::new(Rate::Limited(100.0), Mixture::default_of(&types), 10_000.0);
    let queue = Arc::new(RequestQueue::new(clock.clone()));
    let stats = Arc::new(StatsCollector::new(clock, &["Read"]));
    let spans = Arc::new(SpanRecorder::new(ObsConfig::default()));
    Controller::new(state, queue, stats, spans, Database::new(Personality::test()), types, "idle")
}

#[test]
fn same_seed_reproduces_injection_sequence_over_http() {
    // An idle workload: `/chaos` arms its engine's controller.
    let api = Arc::new(ApiServer::new());
    api.register("idle", idle_controller());
    let chaos = api.controller("idle").unwrap().chaos().clone();
    let guard = api.serve_http("127.0.0.1:0").unwrap();

    let arm = |seed: u64| {
        let (status, body) = http_request(
            guard.addr(),
            "POST",
            "/chaos",
            Some(&Json::obj().set("scenario", "error-burst").set("seed", seed)),
        )
        .unwrap();
        assert_eq!(status, 200, "{body}");
        assert_eq!(body.get("armed").unwrap().as_bool(), Some(true));
    };
    let sequence = || -> Vec<bool> {
        (0..300).map(|_| chaos.roll(FaultKind::InjectedError).is_some()).collect()
    };

    arm(123);
    let first = sequence();
    // Re-arming the same plan resets the probe ordinals: the exact same
    // injection decisions must come back.
    arm(123);
    let second = sequence();
    assert_eq!(first, second, "same seed must reproduce the same sequence");
    assert!(first.iter().any(|&b| b), "intensity 0.6 must inject");
    assert!(first.iter().any(|&b| !b), "intensity 0.6 must also pass requests");

    // A different seed gives a different sequence.
    arm(124);
    assert_ne!(first, sequence(), "different seed, different sequence");

    // /chaos/status reports the probe/injection counters.
    let (status, body) = http_request(guard.addr(), "GET", "/chaos/status", None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(body.get("armed").unwrap().as_bool(), Some(true));
    let faults = body.get("faults").unwrap();
    let err = faults.get("injected_error").unwrap();
    assert_eq!(err.get("probes").unwrap().as_u64(), Some(300));
    assert!(err.get("injected").unwrap().as_u64().unwrap() > 0);
}

/// Satellite 4: a deadlock storm on a genuinely contended workload. Every
/// request must finish inside its retry budget (no starvation, no hang)
/// and the lock manager must actually break deadlocks.
///
/// The storm intensity is 0.12 per lock acquisition, not the named
/// scenario's 0.4: a two-statement transfer probes the gate ~8 times per
/// attempt (table + row locks, reentrant acquisitions included), so 0.4
/// leaves only a 0.6^8 ≈ 1.7% success rate — the named scenario is meant
/// for the executor's bounded-retry loop where failures are *counted*,
/// while this client retries every transfer to completion.
#[test]
fn deadlock_storm_breaks_deadlocks_without_starvation() {
    let db = Database::new(Personality::test());
    let mut conn = Connection::open(&db);
    conn.execute_batch("CREATE TABLE acct (id INT PRIMARY KEY, bal INT);").unwrap();
    for i in 0..4i64 {
        conn.execute("INSERT INTO acct VALUES (?, 100)", &[Value::Int(i)]).unwrap();
    }
    db.chaos().arm(
        FaultPlan::new("storm", 9)
            .with_window(FaultWindow::always(FaultKind::DeadlockStorm, 0.12, 0)),
    );

    const THREADS: usize = 8;
    const TXNS: usize = 40;
    const RETRY_BUDGET: u32 = 120;
    let before = db.metrics().snapshot();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let db = db.clone();
            std::thread::spawn(move || {
                let mut conn = Connection::open(&db);
                let mut rng = Rng::new(t as u64 + 1);
                let mut committed = 0u64;
                let mut max_attempts = 0u32;
                for _ in 0..TXNS {
                    let a = rng.int_range(0, 3);
                    let b = rng.int_range(0, 3);
                    let mut attempts = 0u32;
                    loop {
                        attempts += 1;
                        let r = (|| {
                            conn.begin()?;
                            conn.execute(
                                "UPDATE acct SET bal = bal - 1 WHERE id = ?",
                                &[Value::Int(a)],
                            )?;
                            conn.execute(
                                "UPDATE acct SET bal = bal + 1 WHERE id = ?",
                                &[Value::Int(b)],
                            )?;
                            conn.commit()
                        })();
                        match r {
                            Ok(()) => {
                                committed += 1;
                                break;
                            }
                            Err(e) => {
                                if conn.in_transaction() {
                                    let _ = conn.rollback();
                                }
                                assert!(
                                    e.is_retryable(),
                                    "storm must only produce retryable errors: {e}"
                                );
                                assert!(
                                    attempts <= RETRY_BUDGET,
                                    "starved past the retry budget ({attempts} attempts)"
                                );
                                // Back off so contending retries de-correlate.
                                let us = benchpress::util::rng::next_backoff(
                                    attempts - 1,
                                    20,
                                    500,
                                    t as u64,
                                );
                                std::thread::sleep(std::time::Duration::from_micros(us));
                            }
                        }
                    }
                    max_attempts = max_attempts.max(attempts);
                }
                (committed, max_attempts)
            })
        })
        .collect();

    let mut committed = 0u64;
    for h in handles {
        let (c, _) = h.join().expect("worker must not panic or hang");
        committed += c;
    }
    db.chaos().disarm();
    assert_eq!(committed, (THREADS * TXNS) as u64, "every request must eventually commit");
    let m = db.metrics().snapshot().delta(&before);
    assert!(m.deadlocks > 0, "the storm must surface broken deadlocks");
    assert!(
        db.chaos().injected_total(FaultKind::DeadlockStorm) > 0,
        "chaos must have injected storm deadlocks"
    );
    // Money conservation across all the retries and victim aborts.
    let total: i64 = conn
        .query("SELECT bal FROM acct", &[])
        .unwrap()
        .rows
        .iter()
        .map(|r| match r[0] {
            Value::Int(v) => v,
            _ => 0,
        })
        .sum();
    assert_eq!(total, 400, "aborted transactions must not leak partial writes");
}

/// A per-tenant blackout fails only the targeted tenant's requests and
/// lifts cleanly on disarm.
#[test]
fn blackout_targets_single_tenant() {
    let run = |tenant: u16| -> (u64, u64) {
        let db = Database::new(Personality::test());
        let workload = by_name("voter").unwrap();
        let mut conn = Connection::open(&db);
        workload.setup(&mut conn, 0.3, &mut Rng::new(4)).unwrap();
        db.chaos().arm(FaultPlan::new("blackout-t1", 5).with_window(FaultWindow {
            kind: FaultKind::Blackout,
            start_us: 0,
            end_us: u64::MAX,
            intensity: 1.0,
            magnitude: 0,
            tenant: Some(1),
        }));
        let cfg = RunConfig {
            terminals: 2,
            script: PhaseScript::new(vec![Phase::new(Rate::Limited(200.0), 1.0)]),
            tenant,
            ..Default::default()
        };
        let controller = benchpress::core::start(db, workload, cfg).join();
        let st = controller.stats().status(1);
        (st.committed, st.failed)
    };

    let (committed, failed) = run(0);
    assert!(committed > 0, "tenant 0 must be unaffected");
    assert_eq!(failed, 0, "tenant 0 must see no blackout failures");

    let (committed, failed) = run(1);
    assert_eq!(committed, 0, "tenant 1 is blacked out");
    assert!(failed > 0, "tenant 1's requests must fail (after retries)");
}

/// The full loop: error burst armed over HTTP mid-run, breaker opens and
/// sheds, disarm, breaker probes its way back to Closed; `/metrics` shows
/// the chaos and resilience series.
#[test]
fn breaker_opens_sheds_and_recloses_over_http() {
    let db = Database::new(Personality::test());
    let workload = by_name("voter").unwrap();
    let mut conn = Connection::open(&db);
    workload.setup(&mut conn, 0.3, &mut Rng::new(8)).unwrap();
    let cfg = RunConfig {
        terminals: 4,
        script: PhaseScript::new(vec![Phase::new(Rate::Limited(400.0), 4.0)]),
        collect_trace: false,
        max_retries: 2,
        breaker: true,
        ..Default::default()
    };
    let handle = benchpress::core::start(db, workload, cfg);
    let registry = Arc::new(MetricsRegistry::new());
    let api = Arc::new(ApiServer::new().with_registry(registry));
    api.register("voter", handle.controller.clone());
    let guard = api.serve_http("127.0.0.1:0").unwrap();

    // Healthy start, then the burst.
    std::thread::sleep(std::time::Duration::from_millis(800));
    let (status, _) = http_request(
        guard.addr(),
        "POST",
        "/chaos",
        Some(&Json::obj().set("scenario", "error-burst").set("seed", 7u64)),
    )
    .unwrap();
    assert_eq!(status, 200);
    std::thread::sleep(std::time::Duration::from_millis(1400));

    let breaker = handle.controller.breaker().cloned().expect("breaker configured");
    assert!(
        breaker.transitions_to(BreakerState::Open) > 0,
        "burst must open the breaker"
    );
    assert!(breaker.shed_total() > 0, "open breaker must shed");

    // Disarm and recover.
    let (status, _) = http_request(guard.addr(), "DELETE", "/chaos", None).unwrap();
    assert_eq!(status, 200);
    std::thread::sleep(std::time::Duration::from_millis(1400));
    let controller = handle.stop_and_join();

    assert!(
        breaker.transitions_to(BreakerState::Closed) > 0,
        "breaker must re-close after disarm"
    );
    assert_eq!(breaker.state(), BreakerState::Closed);
    assert!(
        controller.chaos().injected_total(FaultKind::InjectedError) > 0,
        "faults were injected"
    );
    // Shed requests are not errors and not throughput.
    let st = controller.stats().status(1);
    assert!(st.shed > 0, "sheds must be counted in their own bucket");
    assert_eq!(
        controller.stats().total_completed(),
        st.committed + st.user_aborted + st.failed,
        "sheds must stay out of the completion count"
    );

    // The serialized view: /metrics carries all three series.
    let (status, text) = http_request_text(guard.addr(), "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let samples = parse_samples(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    let nonzero = |name: &str| {
        samples.iter().any(|s| {
            let value = match s.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => v,
                MetricValue::Histogram { .. } => 0.0,
            };
            s.name == name && value > 0.0
        })
    };
    assert!(nonzero("bp_chaos_injected_total"), "{text}");
    assert!(nonzero("bp_resilience_shed_total"), "{text}");
    assert!(nonzero("bp_client_shed_total"), "{text}");
    let breaker = [("workload".to_string(), "voter".to_string())];
    assert!(
        samples.iter().any(|s| s.name == "bp_resilience_breaker_state" && s.labels == breaker),
        "breaker gauge missing"
    );
    assert!(samples.iter().any(|s| s.name == "bp_chaos_armed"), "armed gauge missing");
}

/// E12's dip-and-recovery, exactly, on a virtual stage: a voter tenant
/// behind a breaker with two retries, offered 400 tx/s for six virtual
/// seconds, with `error-burst` armed at second 2 and disarmed at 4. Each
/// run returns what it saw: committed per third, the journal's kinds and
/// fields, the throughput and requested series.
fn virtual_dip_and_recovery() -> ([u64; 3], Vec<String>, Vec<f64>, Vec<f64>) {
    const SEED: u64 = 7;
    let mut stage = VirtualRun::new(Personality::test(), by_name("voter").unwrap(), 13);
    let tenant = stage.add_tenant(RunConfig {
        script: PhaseScript::constant(Rate::Limited(400.0), 6.0),
        seed: SEED,
        max_retries: 2,
        breaker: true,
        ..Default::default()
    });
    let breaker = tenant.breaker().cloned().expect("the virtual tenant has its breaker");
    let committed = || tenant.stats().status(1).committed;

    stage.run_until(2 * MICROS_PER_SEC - 1);
    let c1 = committed();
    assert_eq!(breaker.transitions_to(BreakerState::Open), 0, "a healthy baseline");
    tenant.chaos().arm(FaultPlan::scenario("error-burst", 7).unwrap());
    stage.run_until(4 * MICROS_PER_SEC - 1);
    let c2 = committed();
    assert!(breaker.transitions_to(BreakerState::Open) > 0, "the burst opens the breaker");
    assert!(breaker.shed_total() > 0, "an open breaker sheds");
    tenant.chaos().disarm();
    stage.run_until(6 * MICROS_PER_SEC - 1);
    let c3 = committed();
    assert!(breaker.transitions_to(BreakerState::Closed) > 0, "the breaker re-closes after disarm");
    assert_eq!(breaker.state(), BreakerState::Closed);

    let (faulted, recovered) = (c2 - c1, c3 - c2);
    assert!(c1 > 790, "baseline committed {c1} of 800 offered");
    assert!(faulted * 10 < c1 * 8, "committed dips under the burst: {c1} -> {faulted}");
    assert!(recovered * 2 > faulted * 3, "and recovers after disarm: {faulted} -> {recovered}");
    assert!(recovered * 10 > c1 * 8, "to within 20 % of the baseline: {c1} -> {recovered}");
    let status = tenant.stats().status(1);
    assert!(status.shed > 0 && status.retries > 0, "{status:?}");
    assert_eq!(
        tenant.stats().total_completed(),
        status.committed + status.user_aborted + status.failed,
        "sheds stay out of the completion count"
    );

    // A retried request ends its backoff after its dispatch, unscaled: the
    // stage charges nothing on `Personality::test()`, so its span's service
    // time is exactly the backoff drawn for each retry (base 100 µs, cap
    // 10 ms, seeded by the run seed and the request's sequence number).
    // One thread writes the tenant: one shard each for its collector and
    // its span ring, which keeps every request's span at the default size.
    assert_eq!(tenant.stats().shard_count(), 1);
    let spans = tenant.spans().recent(usize::MAX);
    assert!(spans.len() < ObsConfig::default().ring_capacity, "{} spans", spans.len());
    assert_eq!(spans.len() as u64, tenant.stats().total_completed() + status.shed, "every request's span is kept");
    let retried = spans.iter().find(|s| s.retries > 0).expect("a retried request's span");
    let backoff: u64 = (0..u32::from(retried.retries)).map(|k| next_backoff(k, 100, 10_000, SEED ^ retried.seq)).sum();
    assert!(backoff > 0);
    assert_eq!(retried.end_us, retried.dequeued_us + backoff, "{retried:?}");
    assert!(spans.iter().any(|s| s.outcome == RequestOutcome::Shed), "a shed request's span");

    let journal = tenant.journal().all().iter().map(|e| format!("{} {:?}", e.kind, e.fields)).collect();
    let stats = tenant.stats();
    ([c1, faulted, recovered], journal, stats.throughput_series(), stats.requested_series())
}

/// The breaker opens, sheds and re-closes on the virtual stage as it does
/// live, and one seed gives one journal and one series.
#[test]
fn breaker_dips_and_recovers_exactly_on_a_virtual_stage() {
    let first = virtual_dip_and_recovery();
    assert!(first.1.iter().any(|e| e.starts_with("breaker_transition ")), "{:?}", first.1);
    assert_eq!(first, virtual_dip_and_recovery());
}
