//! End-to-end bp-cluster tests: a real in-process fleet over localhost
//! sockets, plus deterministic failure-detector and straggler scenarios
//! driven through the coordinator's route extension directly.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bp_api::router::RouteExtension;
use bp_api::{http_request, http_request_text, ApiServer, Request};
use bp_cluster::{start_agent, AgentConfig, ClusterCoordinator, CoordinatorConfig, NodeState};
use bp_core::{
    ControlState, Controller, Mixture, Phase, PhaseScript, Rate, RequestQueue,
    RunConfig, RunHandle, SloConfig, SloTarget, StatsCollector, TransactionType, WorkloadConfig,
};
use bp_obs::{parse_samples, MetricValue, MetricsRegistry, Sample, Severity};
use bp_sql::Connection;
use bp_storage::{Database, Personality};
use bp_util::clock::{sim_clock, wall_clock};
use bp_util::json::Json;
use bp_util::rng::Rng;
use bp_workloads::by_name;

/// A coordinator with its `/cluster/*` routes served over a real socket
/// and the failure detector running.
fn coordinator_stack(
    heartbeat: Duration,
) -> (Arc<ClusterCoordinator>, bp_api::http::HttpServerGuard, bp_util::Periodic) {
    let coordinator = ClusterCoordinator::new(CoordinatorConfig { heartbeat });
    let registry = Arc::new(MetricsRegistry::new());
    registry.register("cluster", coordinator.clone());
    coordinator.set_registry(registry.clone());
    let api = Arc::new(ApiServer::new().with_registry(registry));
    api.set_extension(coordinator.clone());
    let guard = api.serve_http("127.0.0.1:0").expect("bind coordinator");
    let detector = coordinator.start_detector();
    (coordinator, guard, detector)
}

struct AgentStack {
    handle: RunHandle,
    _api_guard: bp_api::http::HttpServerGuard,
    _agent: bp_util::Periodic,
    addr: SocketAddr,
}

/// One full agent node: voter workload on the test engine, API server on a
/// random port, joined to the coordinator.
fn agent_stack(node: &str, coordinator: SocketAddr, heartbeat: Duration) -> AgentStack {
    let db = Database::new(Personality::test());
    let w = by_name("voter").unwrap();
    let mut conn = Connection::open(&db);
    w.setup(&mut conn, 0.2, &mut Rng::new(7)).unwrap();
    let cfg = RunConfig {
        terminals: 2,
        script: PhaseScript::new(vec![Phase::new(Rate::Limited(100.0), 60.0)]),
        collect_trace: false,
        node: node.to_string(),
        ..Default::default()
    };
    let handle = bp_core::start(db, w, wall_clock(), cfg);
    let api = Arc::new(ApiServer::new().with_registry(Arc::new(MetricsRegistry::new())));
    api.register(node, handle.controller.clone());
    let api_guard = api.serve_http("127.0.0.1:0").expect("bind agent");
    let addr = api_guard.addr();
    let agent = start_agent(
        AgentConfig::new(node, coordinator, addr).with_heartbeat(heartbeat),
        handle.controller.clone(),
    );
    AgentStack { handle, _api_guard: api_guard, _agent: agent, addr }
}

fn wait_until(deadline: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    pred()
}

/// The sum of counter `name` over its label sets on a parsed page.
fn counter_sum(samples: &[Sample], name: &str) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match s.value {
            MetricValue::Counter(v) => v,
            ref other => panic!("{name} is not a counter: {other:?}"),
        })
        .sum()
}

#[test]
fn three_agent_fleet_merges_telemetry_and_splits_rate() {
    let hb = Duration::from_millis(50);
    let (coordinator, coord_guard, _detector) = coordinator_stack(hb);
    let fleet: Vec<AgentStack> =
        ["n1", "n2", "n3"].iter().map(|n| agent_stack(n, coord_guard.addr(), hb)).collect();

    // All three join and heartbeat.
    assert!(
        wait_until(Duration::from_secs(10), || {
            let (status, body) =
                http_request(coord_guard.addr(), "GET", "/cluster/status", None).unwrap();
            status == 200 && body.get("joined").and_then(Json::as_u64) == Some(3)
        }),
        "fleet never fully joined"
    );

    // Split a fleet-wide rate: equal thirds before capacity history built up
    // is fine; the sum must be exact either way.
    let (status, body) = http_request(
        coord_guard.addr(),
        "POST",
        "/cluster/rate",
        Some(&Json::obj().set("tps", 600.0)),
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    let split = body.get("split").and_then(Json::as_arr).unwrap().to_vec();
    assert_eq!(split.len(), 3);
    let total: f64 = split.iter().filter_map(|s| s.get("rate").and_then(Json::as_f64)).sum();
    assert!((total - 600.0).abs() < 1e-6, "split sums to {total}");

    // Agents pick their shares up (heartbeat responses or rate push): each
    // node runs a positive fraction of the global rate and the fractions
    // sum to the whole.
    assert!(
        wait_until(Duration::from_secs(10), || {
            let rates: Vec<f64> = fleet
                .iter()
                .filter_map(|a| match a.handle.controller.current_rate() {
                    Rate::Limited(r) => Some(r),
                    _ => None,
                })
                .collect();
            rates.len() == 3
                && rates.iter().all(|r| *r > 0.0 && *r < 600.0)
                && (rates.iter().sum::<f64>() - 600.0).abs() < 1.0
        }),
        "agents never applied their rate shares"
    );

    // Let traffic flow, then freeze the counters so merged-vs-local sums
    // are comparable.
    assert!(
        wait_until(Duration::from_secs(10), || {
            fleet.iter().all(|a| a.handle.controller.stats().status(60).committed > 0)
        }),
        "no commits on some node"
    );
    for a in &fleet {
        a.handle.controller.stop();
    }
    std::thread::sleep(Duration::from_millis(100));

    let (status, text) =
        http_request_text(coord_guard.addr(), "GET", "/cluster/metrics", None).unwrap();
    assert_eq!(status, 200);
    // The parse refuses a family declared twice: three agents exporting
    // the same families still give one header each.
    let merged = parse_samples(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));

    // The coordinator's own gauges are in the merged view.
    let joined = merged.iter().find(|s| {
        s.name == "bp_cluster_nodes" && s.labels == [("state".to_string(), "joined".to_string())]
    });
    assert_eq!(joined.map(|s| &s.value), Some(&MetricValue::Gauge(3.0)), "{text}");
    for family in [
        "bp_cluster_heartbeats_total",
        "bp_client_committed_total",
        "bp_client_latency_us",
        "bp_server_commits_total",
    ] {
        assert!(merged.iter().any(|s| s.name == family), "no {family} in:\n{text}");
    }

    // Counters are summed across the fleet: merged committed equals the
    // sum of each agent's own exposition (counters are frozen post-stop).
    let mut local_sum = 0.0;
    for a in &fleet {
        let (_, text) = http_request_text(a.addr, "GET", "/metrics", None).unwrap();
        local_sum += counter_sum(&parse_samples(&text).unwrap(), "bp_client_committed_total");
    }
    let merged_sum = counter_sum(&merged, "bp_client_committed_total");
    assert!(local_sum > 0.0);
    assert!(
        (merged_sum - local_sum).abs() < 1e-6,
        "merged {merged_sum} != sum of locals {local_sum}"
    );

    // The journal recorded the membership story.
    let events = coordinator.journal().recent(usize::MAX, Severity::Debug);
    assert!(events.iter().any(|e| e.kind == "node_join"));
    assert!(events.iter().any(|e| e.kind == "rate_resplit"));

    for a in fleet {
        a.handle.stop_and_join();
    }
}

#[test]
fn missed_heartbeats_mark_suspect_then_dead_and_resplit() {
    // Driven deterministically through the route extension: no sockets, no
    // real agents — "a" heartbeats, "b" goes silent.
    let hb = Duration::from_millis(40);
    let coordinator = ClusterCoordinator::new(CoordinatorConfig { heartbeat: hb });
    let post = |path: &str, body: Json| {
        coordinator.handle(&Request::post(path, body)).expect("cluster route")
    };
    let join = |node: &str| {
        post("/cluster/join", Json::obj().set("node", node).set("addr", "127.0.0.1:9"))
    };
    assert!(join("a").is_ok());
    assert!(join("b").is_ok());
    let r = post("/cluster/rate", Json::obj().set("tps", 100.0));
    assert!(r.is_ok(), "{r:?}");

    // Keep "a" fresh for > 2 intervals while "b" stays silent.
    let end = Instant::now() + 4 * hb;
    while Instant::now() < end {
        post("/cluster/heartbeat", Json::obj().set("node", "a"));
        coordinator.tick();
        std::thread::sleep(Duration::from_millis(10));
    }
    coordinator.tick();

    let status = coordinator.handle(&Request::get("/cluster/status")).unwrap();
    let state_of = |node: &str| {
        status
            .body
            .get("nodes")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .find(|n| n.get("node").and_then(Json::as_str) == Some(node))
            .and_then(|n| n.get("state").and_then(Json::as_str).map(str::to_string))
            .unwrap()
    };
    assert_eq!(state_of("a"), NodeState::Joined.name());
    assert_eq!(state_of("b"), NodeState::Dead.name());

    // The dead node's share moved to the survivor.
    let rate_of = |node: &str| {
        status
            .body
            .get("nodes")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .find(|n| n.get("node").and_then(Json::as_str) == Some(node))
            .and_then(|n| n.get("assigned_rate").and_then(Json::as_f64))
            .unwrap()
    };
    assert!((rate_of("a") - 100.0).abs() < 1e-6, "survivor has the full rate");

    let events = coordinator.journal().recent(usize::MAX, Severity::Debug);
    let kinds: Vec<&str> = events.iter().map(|e| &*e.kind).collect();
    assert!(kinds.contains(&"node_suspect"), "{kinds:?}");
    assert!(kinds.contains(&"node_dead"), "{kinds:?}");
    let dead = events.iter().find(|e| e.kind == "node_dead").unwrap();
    assert_eq!(dead.field("node"), Some("b"));

    // A fresh heartbeat revives the dead node and re-splits again.
    post("/cluster/heartbeat", Json::obj().set("node", "b"));
    let status = coordinator.handle(&Request::get("/cluster/status")).unwrap();
    assert_eq!(status.body.get("dead").and_then(Json::as_u64), Some(0));
}

#[test]
fn cluster_slo_loop_steers_global_rate_on_merged_latency() {
    // Long heartbeat interval (nobody dies during the test) but a 1ms SLO
    // tick so the loop acts as soon as we ask it to.
    let coordinator =
        ClusterCoordinator::new(CoordinatorConfig { heartbeat: Duration::from_millis(500) });
    let post = |path: &str, body: Json| coordinator.handle(&Request::post(path, body)).unwrap();
    for n in ["a", "b"] {
        post("/cluster/join", Json::obj().set("node", n).set("addr", "127.0.0.1:9"));
    }
    // Arm: p99 limit 10ms, AIMD step 50, backoff 0.5, tick every ms.
    let r = post(
        "/cluster/slo",
        Json::obj()
            .set("target", "p99")
            .set("limit_ms", 10.0)
            .set("step", 50.0)
            .set("backoff", 0.5)
            .set("initial_rate", 1_000.0)
            .set("tick_ms", 1u64),
    );
    assert!(r.is_ok(), "{r:?}");
    assert_eq!(r.body.get("active").and_then(Json::as_bool), Some(true));

    let beat = |node: &str, p99: u64| {
        post(
            "/cluster/heartbeat",
            Json::obj().set("node", node).set(
                "window",
                Json::obj()
                    .set("count", 50u64)
                    .set("p50_us", p99 / 4)
                    .set("p99_us", p99)
                    .set("throughput", 100.0),
            ),
        );
    };

    // Healthy merged latency: additive increase.
    beat("a", 2_000);
    beat("b", 2_000);
    std::thread::sleep(Duration::from_millis(3));
    coordinator.tick();
    let after_increase = coordinator.global_rate().unwrap();
    assert!((after_increase - 1_050.0).abs() < 1e-6, "{after_increase}");

    // Merged p99 blows the limit: multiplicative backoff.
    beat("a", 40_000);
    beat("b", 35_000);
    std::thread::sleep(Duration::from_millis(3));
    coordinator.tick();
    let after_backoff = coordinator.global_rate().unwrap();
    assert!((after_backoff - after_increase * 0.5).abs() < 1e-6, "{after_backoff}");

    let status = coordinator.handle(&Request::get("/cluster/slo")).unwrap();
    let adj = status.body.get("adjustments").unwrap();
    assert_eq!(adj.get("increase").and_then(Json::as_u64), Some(1));
    assert_eq!(adj.get("decrease").and_then(Json::as_u64), Some(1));

    // Disarm: loop stops, rate stays where the controller left it.
    let r = coordinator
        .handle(&Request { method: bp_api::Method::Delete, path: "/cluster/slo".into(), body: None })
        .unwrap();
    assert_eq!(r.body.get("active").and_then(Json::as_bool), Some(false));
    std::thread::sleep(Duration::from_millis(3));
    coordinator.tick();
    assert_eq!(coordinator.global_rate().unwrap(), after_backoff);
}

/// A violation stays in the agents' windows for `window_s`: the fleet loop
/// cuts the rate for it once and holds, as a node's does, where a cut on
/// every tick would compound one violation into a collapse.
#[test]
fn cluster_slo_decreases_once_until_the_window_has_flushed() {
    let coordinator =
        ClusterCoordinator::new(CoordinatorConfig { heartbeat: Duration::from_secs(60) });
    let post = |path: &str, body: Json| coordinator.handle(&Request::post(path, body)).unwrap();
    post("/cluster/join", Json::obj().set("node", "a").set("addr", "127.0.0.1:9"));
    // A one-second window read every 250 ms has flushed after four ticks.
    let r = post(
        "/cluster/slo",
        Json::obj()
            .set("limit_ms", 10.0)
            .set("backoff", 0.5)
            .set("initial_rate", 1_000.0)
            .set("window_s", 1u64)
            .set("tick_ms", 250u64),
    );
    assert!(r.is_ok(), "{r:?}");
    let window = Json::obj()
        .set("count", 50u64)
        .set("p50_us", 10_000u64)
        .set("p99_us", 40_000u64)
        .set("throughput", 100.0);
    let decreases = || {
        let status = coordinator.handle(&Request::get("/cluster/slo")).unwrap();
        status.body.get("adjustments").unwrap().get("decrease").and_then(Json::as_u64).unwrap()
    };
    let mut seen = Vec::new();
    for _ in 0..6 {
        post("/cluster/heartbeat", Json::obj().set("node", "a").set("window", window.clone()));
        std::thread::sleep(Duration::from_millis(250));
        coordinator.tick();
        seen.push((decreases(), coordinator.global_rate().unwrap()));
    }
    let expected: Vec<(u64, f64)> =
        [(1, 500.0), (1, 500.0), (1, 500.0), (1, 500.0), (1, 500.0), (2, 250.0)].into();
    assert_eq!(seen, expected, "one cut, four holds while the window flushes, then the next cut");
}

/// A node's controller with no run behind it: enough to arm `POST /slo` on.
fn bare_controller() -> Controller {
    let (_, clock) = sim_clock();
    let types = vec![TransactionType::new("Read", 100.0, true)];
    let state = ControlState::new(Rate::Limited(100.0), Mixture::default_of(&types), 10_000.0);
    let queue = Arc::new(RequestQueue::new(clock.clone()));
    let stats = Arc::new(StatsCollector::new(clock, &["Read"]));
    Controller::new(state, queue, stats, Database::new(Personality::test()), types, "demo")
}

/// One table of settings, read three ways: the `<slo>` block of a config
/// file, a `POST /slo` body and a `POST /cluster/slo` body. A valid row is
/// the same `SloConfig` in all three; an invalid row is refused by all
/// three and arms nothing.
#[test]
fn slo_settings_read_the_same_from_xml_node_body_and_fleet_body() {
    type Row = &'static [(&'static str, &'static str)];
    // The keys on which the fleet's starting values differ from a node's.
    const PINNED: Row = &[
        ("window_s", "2"), ("tick_ms", "100"), ("step", "40"), ("min_rate", "25"),
        ("initial_rate", "150"),
    ];
    let pinned = SloConfig {
        window_s: 2,
        tick_us: 100_000,
        additive_step: 40.0,
        min_rate: 25.0,
        initial_rate: 150.0,
        ..SloConfig::default()
    };
    let valid: [(Row, SloConfig); 4] = [
        (&[], pinned.clone()),
        (
            &[("target", "p50"), ("limit_ms", "7.5"), ("backoff", "0.6"), ("min_samples", "5")],
            SloConfig {
                target: SloTarget::P50BelowUs(7_500),
                backoff: 0.6,
                min_samples: 5,
                ..pinned.clone()
            },
        ),
        (
            &[("target", "max-throughput")],
            SloConfig { target: SloTarget::MaxThroughput, ..pinned.clone() },
        ),
        (
            &[("max_rate", "900"), ("breaker_backoff", "0.25"), ("limit_ms", "20")],
            SloConfig {
                target: SloTarget::P99BelowUs(20_000),
                max_rate: 900.0,
                breaker_backoff: 0.25,
                ..pinned.clone()
            },
        ),
    ];
    // The loop is AIMD: the retired `law` and PID gains are refused, even
    // `law=aimd`, so no client asking for PID silently gets AIMD.
    let invalid: [Row; 13] = [
        &[("min_rate", "100"), ("max_rate", "50")],
        &[("backoff", "0")],
        &[("backoff", "1")],
        &[("breaker_backoff", "2")],
        &[("limit_ms", "0")],
        &[("min_rate", "NaN")],
        &[("initial_rate", "NaN")],
        &[("target", "p42")],
        &[("law", "pid")],
        &[("law", "aimd")],
        &[("kp", "0.4")],
        &[("ki", "0.2")],
        &[("kd", "0.1")],
    ];

    let xml = |row: &[(&str, &str)]| {
        let settings: String = row
            .iter()
            .map(|(key, v)| {
                let element = if *key == "window_s" { "window".into() } else { key.replace('_', "") };
                format!("<{element}>{v}</{element}>")
            })
            .collect();
        WorkloadConfig::parse(&format!(
            "<parameters><dbtype>test</dbtype><benchmark>voter</benchmark>\
             <works><work><time>1</time></work></works><slo>{settings}</slo></parameters>"
        ))
    };
    let body = |row: &[(&str, &str)]| {
        row.iter().fold(Json::obj(), |body, (key, v)| match v.parse::<f64>() {
            Ok(n) => body.set(key, n),
            Err(_) => body.set(key, *v),
        })
    };
    let node = ApiServer::new();
    node.register("demo", bare_controller());
    let controller = node.controller("demo").unwrap();
    let coordinator = ClusterCoordinator::new(CoordinatorConfig::default());
    let fleet = |req: &Request| coordinator.handle(req).unwrap();
    let delete = |path: &str| Request { method: bp_api::Method::Delete, path: path.into(), body: None };

    for (row, expected) in &valid {
        let row: Vec<_> = row.iter().chain(PINNED).copied().collect();
        assert_eq!(xml(&row).unwrap().slo.as_ref(), Some(expected), "<slo> {row:?}");
        let r = node.handle(&Request::post("/slo", body(&row)));
        assert!(r.is_ok(), "POST /slo {row:?}: {r:?}");
        assert_eq!(controller.slo().config().as_ref(), Some(expected), "POST /slo {row:?}");
        let r = fleet(&Request::post("/cluster/slo", body(&row)));
        assert!(r.is_ok(), "POST /cluster/slo {row:?}: {r:?}");
        assert_eq!(coordinator.slo().config().as_ref(), Some(expected), "POST /cluster/slo {row:?}");
        assert!(node.handle(&delete("/slo")).is_ok());
        assert!(fleet(&delete("/cluster/slo")).is_ok());
    }
    let fleet_rate = coordinator.global_rate();
    for row in invalid {
        assert!(xml(row).is_err(), "<slo> accepted {row:?}");
        let r = node.handle(&Request::post("/slo", body(row)));
        assert_eq!(r.status, 400, "POST /slo {row:?}: {r:?}");
        let r = fleet(&Request::post("/cluster/slo", body(row)));
        assert_eq!(r.status, 400, "POST /cluster/slo {row:?}: {r:?}");
        assert!(!controller.slo().is_active(), "{row:?} armed the node");
        assert!(!coordinator.slo().is_active(), "{row:?} armed the fleet");
        assert_eq!(coordinator.global_rate(), fleet_rate, "{row:?} set a fleet rate");
    }
}

#[test]
fn straggler_heartbeats_become_doctor_finding() {
    let coordinator = ClusterCoordinator::new(CoordinatorConfig::default());
    let post = |path: &str, body: Json| coordinator.handle(&Request::post(path, body)).unwrap();
    for n in ["a", "b", "c"] {
        post("/cluster/join", Json::obj().set("node", n).set("addr", "127.0.0.1:9"));
    }
    let beat = |node: &str, p99: u64| {
        post(
            "/cluster/heartbeat",
            Json::obj().set("node", node).set(
                "window",
                Json::obj()
                    .set("count", 100u64)
                    .set("p50_us", 500u64)
                    .set("p99_us", p99)
                    .set("throughput", 100.0),
            ),
        );
    };
    beat("a", 2_000);
    beat("b", 2_200);
    beat("c", 30_000); // 13x the median of its peers
    coordinator.tick();
    coordinator.tick();

    let events = coordinator.journal().recent(usize::MAX, Severity::Debug);
    let straggles: Vec<_> = events.iter().filter(|e| e.kind == "node_straggler").collect();
    assert!(!straggles.is_empty(), "no straggler event emitted");
    for e in &straggles {
        assert_eq!(e.field("node"), Some("c"));
    }

    // The doctor turns the event run into a ranked straggler_node finding.
    let report = bp_obs::Report {
        version: 1,
        interval_us: 1_000_000,
        samples: Vec::new(),
        events: events.clone(),
    };
    let findings = bp_obs::diagnose(&report);
    let f = findings
        .iter()
        .find(|f| f.bottleneck == bp_obs::Bottleneck::StragglerNode)
        .expect("straggler finding");
    assert!(f.evidence.contains("node c"), "{}", f.evidence);
    assert_eq!(f.causal_kind.as_deref(), Some("node_straggler"));
}
