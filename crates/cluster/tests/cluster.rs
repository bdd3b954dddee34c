//! End-to-end bp-cluster tests: a real in-process fleet over localhost
//! sockets, plus deterministic failure-detector, SLO and straggler
//! scenarios driven through the coordinator's route extension directly, on
//! a virtual clock.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bp_api::{http_request, http_request_text, ApiServer, Request, Response};
use bp_cluster::{start_agent, AgentConfig, ClusterCoordinator, CoordinatorConfig, NodeState};
use bp_core::{
    ControlState, Controller, Mixture, Phase, PhaseScript, Rate, RequestQueue,
    RunConfig, RunHandle, SloConfig, SloTarget, StatsCollector, TransactionType, WorkloadConfig,
};
use bp_obs::{
    parse_samples, MetricValue, MetricsRegistry, ObsConfig, Sample, Severity, SpanRecorder,
};
use bp_sql::Connection;
use bp_storage::{Database, Personality};
use bp_util::clock::{sim_clock, SimClock};
use bp_util::json::Json;
use bp_util::rng::Rng;
use bp_workloads::by_name;

/// A coordinator with its `/cluster/*` routes served over a real socket
/// and the failure detector running, on a virtual clock that nothing
/// advances: heartbeats travel the real sockets, and however late one
/// arrives on a loaded host no node turns suspect (the detector's
/// transitions are pinned in virtual time by
/// `missed_heartbeats_mark_suspect_then_dead_and_resplit`).
fn coordinator_stack(
    heartbeat: Duration,
) -> (Arc<ClusterCoordinator>, bp_api::http::HttpServerGuard, bp_util::Periodic) {
    let coordinator = ClusterCoordinator::new(CoordinatorConfig { heartbeat }, sim_clock().1);
    let registry = Arc::new(MetricsRegistry::new());
    registry.register("cluster", coordinator.clone());
    let api = Arc::new(ApiServer::new().with_registry(registry));
    api.mount(coordinator.clone());
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
    let handle = bp_core::start(db, w, cfg);
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

/// A coordinator on a virtual clock, driven through its routes: no
/// sockets, no detector thread, and time moves only when the test says so.
fn sim_coordinator(heartbeat: Duration) -> (Arc<ClusterCoordinator>, Arc<SimClock>) {
    let (sim, clock) = sim_clock();
    (ClusterCoordinator::new(CoordinatorConfig { heartbeat }, clock), sim)
}

/// `req` as an API server with `coordinator` mounted on it serves it.
fn route(coordinator: &Arc<ClusterCoordinator>, req: &Request) -> Response {
    let api = ApiServer::new();
    api.mount(coordinator.clone());
    api.handle(req)
}

fn post(coordinator: &Arc<ClusterCoordinator>, path: &str, body: Json) -> Response {
    route(coordinator, &Request::post(path, body))
}

/// A heartbeat from `node` at `addr`, with a latency window when given.
fn beat_from(
    coordinator: &Arc<ClusterCoordinator>,
    node: &str,
    addr: &str,
    window: Option<Json>,
) -> Response {
    let body = Json::obj().set("node", node).set("addr", addr);
    let body = match window {
        Some(w) => body.set("window", w),
        None => body,
    };
    post(coordinator, "/cluster/heartbeat", body)
}

/// A heartbeat from a node nothing ever dials in these tests.
fn beat(coordinator: &Arc<ClusterCoordinator>, node: &str, window: Option<Json>) -> Response {
    beat_from(coordinator, node, "127.0.0.1:9", window)
}

fn window(count: u64, p50_us: u64, p99_us: u64) -> Json {
    Json::obj()
        .set("count", count)
        .set("p50_us", p50_us)
        .set("p99_us", p99_us)
        .set("throughput", 100.0)
}

/// `field` of `node` in `GET /cluster/status`.
fn node_field(coordinator: &Arc<ClusterCoordinator>, node: &str, field: &str) -> Json {
    let status = route(coordinator, &Request::get("/cluster/status"));
    let nodes = status.body.get("nodes").and_then(Json::as_arr).unwrap().to_vec();
    let n = nodes.iter().find(|n| n.get("node").and_then(Json::as_str) == Some(node));
    n.and_then(|n| n.get(field)).cloned().unwrap_or_else(|| panic!("no {field} for {node}"))
}

fn state_of(coordinator: &Arc<ClusterCoordinator>, node: &str) -> String {
    node_field(coordinator, node, "state").as_str().unwrap().to_string()
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

    // The heartbeat carried each agent's address.
    let (_, status) = http_request(coord_guard.addr(), "GET", "/cluster/status", None).unwrap();
    let nodes = status.get("nodes").and_then(Json::as_arr).unwrap();
    for (node, a) in nodes.iter().zip(&fleet) {
        assert_eq!(node.get("addr").and_then(Json::as_str), Some(a.addr.to_string().as_str()));
    }

    // Agents pick their shares up from heartbeat responses: each node runs
    // a positive fraction of the global rate and the fractions sum to the
    // whole.
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

    // A global rate of 0 is a share of 0 on every node: the fleet stops
    // offering load.
    let stop = Json::obj().set("tps", 0.0);
    let (status, _) =
        http_request(coord_guard.addr(), "POST", "/cluster/rate", Some(&stop)).unwrap();
    assert_eq!(status, 200);
    assert!(
        wait_until(Duration::from_secs(10), || {
            fleet.iter().all(|a| a.handle.controller.current_rate() == Rate::Limited(0.0))
        }),
        "agents never applied a share of 0"
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

/// Exact failure-detector transitions in virtual time: "a" heartbeats,
/// "b" goes silent — suspect just past one interval, dead at two — and the
/// dead node's share moves to the survivor in the survivor's next
/// heartbeat response.
#[test]
fn missed_heartbeats_mark_suspect_then_dead_and_resplit() {
    const HB: u64 = 40_000;
    let (coordinator, sim) = sim_coordinator(Duration::from_micros(HB));
    assert!(beat(&coordinator, "a", None).is_ok());
    assert!(beat(&coordinator, "b", None).is_ok());
    let r = post(&coordinator, "/cluster/rate", Json::obj().set("tps", 100.0));
    assert!(r.is_ok(), "{r:?}");
    let kinds = || -> Vec<String> {
        let events = coordinator.journal().recent(usize::MAX, Severity::Debug);
        events.iter().map(|e| e.kind.to_string()).collect()
    };

    // Silent for exactly one interval: still joined.
    sim.advance_to(HB);
    beat(&coordinator, "a", None);
    coordinator.tick();
    assert_eq!(state_of(&coordinator, "b"), NodeState::Joined.name());
    assert!(!kinds().iter().any(|k| k == "node_suspect"), "{:?}", kinds());

    // Just past one interval: suspect, and it keeps its share.
    sim.advance_to(HB + 1);
    coordinator.tick();
    assert_eq!(state_of(&coordinator, "b"), NodeState::Suspect.name());
    assert_eq!(node_field(&coordinator, "b", "assigned_rate").as_f64(), Some(50.0));

    // One µs short of two intervals: still suspect.
    sim.advance_to(2 * HB - 1);
    beat(&coordinator, "a", None);
    coordinator.tick();
    assert_eq!(state_of(&coordinator, "b"), NodeState::Suspect.name());

    // Two intervals: dead, and its share re-split to the survivor.
    sim.advance_to(2 * HB);
    coordinator.tick();
    assert_eq!(state_of(&coordinator, "a"), NodeState::Joined.name());
    assert_eq!(state_of(&coordinator, "b"), NodeState::Dead.name());
    assert_eq!(node_field(&coordinator, "a", "assigned_rate").as_f64(), Some(100.0));
    let r = beat(&coordinator, "a", None);
    assert_eq!(r.body.get("assigned_rate").and_then(Json::as_f64), Some(100.0), "{r:?}");

    let events = coordinator.journal().recent(usize::MAX, Severity::Debug);
    let of = |kind: &str| events.iter().filter(|e| e.kind == kind).collect::<Vec<_>>();
    assert_eq!(of("node_suspect").len(), 1, "{:?}", kinds());
    assert_eq!(of("node_dead").len(), 1, "{:?}", kinds());
    assert_eq!(of("node_dead")[0].field("node"), Some("b"));

    // A fresh heartbeat revives the dead node and re-splits again.
    let r = beat(&coordinator, "b", None);
    assert_eq!(r.body.get("assigned_rate").and_then(Json::as_f64), Some(50.0), "{r:?}");
    let status = route(&coordinator, &Request::get("/cluster/status"));
    assert_eq!(status.body.get("dead").and_then(Json::as_u64), Some(0));
}

/// The detector and `/cluster/rate` dial no agent: with a live node whose
/// address accepts connections but never answers, setting the rate and a
/// tick that declares another node dead each return at once, where a rate
/// push would wait out `FANOUT_TIMEOUT` (500 ms) on the mute node.
#[test]
fn the_coordinator_does_not_block_on_a_mute_node() {
    const HB: u64 = 100_000;
    let mute = TcpListener::bind("127.0.0.1:0").unwrap(); // bound, never accepted
    let mute_addr = mute.local_addr().unwrap().to_string();
    let (coordinator, sim) = sim_coordinator(Duration::from_micros(HB));
    assert!(beat_from(&coordinator, "mute", &mute_addr, None).is_ok());
    assert!(beat(&coordinator, "b", None).is_ok());

    let t0 = Instant::now();
    let r = post(&coordinator, "/cluster/rate", Json::obj().set("tps", 200.0));
    let rate_took = t0.elapsed();
    assert!(r.is_ok(), "{r:?}");

    sim.advance_to(2 * HB);
    beat_from(&coordinator, "mute", &mute_addr, None);
    let t0 = Instant::now();
    coordinator.tick();
    let tick_took = t0.elapsed();
    assert_eq!(state_of(&coordinator, "b"), NodeState::Dead.name());
    assert_eq!(node_field(&coordinator, "mute", "assigned_rate").as_f64(), Some(200.0));

    assert!(rate_took < Duration::from_millis(50), "POST /cluster/rate took {rate_took:?}");
    assert!(tick_took < Duration::from_millis(50), "the tick declaring b dead took {tick_took:?}");
}

/// After `POST /cluster/rate` the next heartbeat response carries each
/// node's new share — 0 included, which is a share like any other.
#[test]
fn one_heartbeat_response_carries_the_share() {
    let (coordinator, _) = sim_coordinator(Duration::from_millis(100));
    let r = beat(&coordinator, "a", None);
    assert_eq!(r.body.get("assigned_rate"), None, "no share before a global rate is set");
    beat(&coordinator, "b", None);
    for tps in [600.0, 0.0] {
        post(&coordinator, "/cluster/rate", Json::obj().set("tps", tps));
        for node in ["a", "b"] {
            let r = beat(&coordinator, node, None);
            assert_eq!(r.body.get("assigned_rate").and_then(Json::as_f64), Some(tps / 2.0));
        }
    }
}

/// A coordinator that never saw a node — it restarted, say — admits it on
/// its first heartbeat at the address the beat carries, so the fan-outs
/// reach it: `/cluster/metrics` includes the node's own series.
#[test]
fn a_heartbeat_from_an_unknown_node_admits_it_at_its_address() {
    let agent = Arc::new(ApiServer::new().with_registry(Arc::new(MetricsRegistry::new())));
    agent.register("n1", bare_controller());
    let guard = agent.serve_http("127.0.0.1:0").expect("bind agent");
    let addr = guard.addr().to_string();

    let (coordinator, _) = sim_coordinator(Duration::from_millis(100));
    assert!(beat_from(&coordinator, "n1", &addr, None).is_ok());
    assert_eq!(node_field(&coordinator, "n1", "addr").as_str(), Some(addr.as_str()));
    let events = coordinator.journal().recent(usize::MAX, Severity::Debug);
    assert!(events.iter().any(|e| e.kind == "node_join" && e.field("node") == Some("n1")));

    // The coordinator has no registry of its own here: every sample in the
    // merged page came from the agent.
    let r = route(&coordinator, &Request::get("/cluster/metrics"));
    let (_, text) = r.raw.expect("exposition");
    let merged = parse_samples(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    assert!(merged.iter().any(|s| s.name == "bp_server_commits_total"), "{text}");
}

/// A heartbeat's window is read strictly: a field that is present but does
/// not parse is refused naming it, and the node is not admitted. A beat
/// without a window is a liveness-only beat.
#[test]
fn a_garbled_heartbeat_window_is_refused_naming_the_field() {
    let (coordinator, _) = sim_coordinator(Duration::from_millis(100));
    let garbled = [
        ("p99_us", Json::from("40ms")),
        ("count", Json::Num(-1.0)),
        ("p50_us", Json::Num(2.5)),
        ("throughput", Json::from("fast")),
        ("slow_trace", Json::from("not-hex")),
    ];
    for (field, value) in garbled {
        let r = beat(&coordinator, "a", Some(window(50, 500, 2_000).set(field, value)));
        assert_eq!(r.status, 400, "{field}: {r:?}");
        assert!(r.body.to_string().contains(field), "{field}: {r:?}");
    }
    let r = beat(&coordinator, "a", Some(Json::obj().set("count", 50u64)));
    assert_eq!(r.status, 400, "a window without p50_us/p99_us/throughput: {r:?}");
    let r = post(&coordinator, "/cluster/heartbeat", Json::obj().set("node", "a"));
    assert_eq!(r.status, 400, "a heartbeat without addr: {r:?}");
    let status = route(&coordinator, &Request::get("/cluster/status"));
    assert_eq!(status.body.get("joined").and_then(Json::as_u64), Some(0), "{status:?}");

    assert!(beat(&coordinator, "a", None).is_ok(), "liveness-only beat");
    assert!(beat(&coordinator, "a", Some(window(50, 500, 2_000))).is_ok());
    let p99 = node_field(&coordinator, "a", "window").get("p99_us").and_then(Json::as_u64);
    assert_eq!(p99, Some(2_000));
}

#[test]
fn cluster_slo_loop_steers_global_rate_on_merged_latency() {
    // Long heartbeat interval (nobody dies during the test) but a 1ms SLO
    // tick so the loop acts as soon as time moves.
    let (coordinator, sim) = sim_coordinator(Duration::from_millis(500));
    for n in ["a", "b"] {
        beat(&coordinator, n, None);
    }
    // Arm: p99 limit 10ms, AIMD step 50, backoff 0.5, tick every ms.
    let r = post(
        &coordinator,
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

    // Healthy merged latency: additive increase.
    beat(&coordinator, "a", Some(window(50, 500, 2_000)));
    beat(&coordinator, "b", Some(window(50, 500, 2_000)));
    sim.advance(1_000);
    coordinator.tick();
    let after_increase = coordinator.global_rate().unwrap();
    assert!((after_increase - 1_050.0).abs() < 1e-6, "{after_increase}");

    // Merged p99 blows the limit: multiplicative backoff.
    beat(&coordinator, "a", Some(window(50, 10_000, 40_000)));
    beat(&coordinator, "b", Some(window(50, 8_750, 35_000)));
    sim.advance(1_000);
    coordinator.tick();
    let after_backoff = coordinator.global_rate().unwrap();
    assert!((after_backoff - after_increase * 0.5).abs() < 1e-6, "{after_backoff}");

    let status = route(&coordinator, &Request::get("/cluster/slo"));
    let adj = status.body.get("adjustments").unwrap();
    assert_eq!(adj.get("increase").and_then(Json::as_u64), Some(1));
    assert_eq!(adj.get("decrease").and_then(Json::as_u64), Some(1));

    // Disarm: loop stops, rate stays where the controller left it.
    let r = route(
        &coordinator,
        &Request { method: bp_api::Method::Delete, path: "/cluster/slo".into(), body: None },
    );
    assert_eq!(r.body.get("active").and_then(Json::as_bool), Some(false));
    sim.advance(1_000);
    coordinator.tick();
    assert_eq!(coordinator.global_rate().unwrap(), after_backoff);
}

/// A violation stays in the agents' windows for `window_s`: the fleet loop
/// cuts the rate for it once and holds, as a node's does, where a cut on
/// every tick would compound one violation into a collapse.
#[test]
fn cluster_slo_decreases_once_until_the_window_has_flushed() {
    let (coordinator, sim) = sim_coordinator(Duration::from_secs(60));
    beat(&coordinator, "a", None);
    // A one-second window read every 250 ms has flushed after eight ticks:
    // its whole second, and the one the cut fell in.
    let r = post(
        &coordinator,
        "/cluster/slo",
        Json::obj()
            .set("limit_ms", 10.0)
            .set("backoff", 0.5)
            .set("initial_rate", 1_000.0)
            .set("window_s", 1u64)
            .set("tick_ms", 250u64),
    );
    assert!(r.is_ok(), "{r:?}");
    let decreases = || {
        let status = route(&coordinator, &Request::get("/cluster/slo"));
        status.body.get("adjustments").unwrap().get("decrease").and_then(Json::as_u64).unwrap()
    };
    let mut seen = Vec::new();
    for _ in 0..10 {
        beat(&coordinator, "a", Some(window(50, 10_000, 40_000)));
        sim.advance(250_000);
        coordinator.tick();
        seen.push((decreases(), coordinator.global_rate().unwrap()));
    }
    let mut expected = vec![(1, 500.0); 9];
    expected.push((2, 250.0));
    assert_eq!(seen, expected, "one cut, eight holds while the window flushes, then the next cut");
}

/// A node's controller with no run behind it: enough to arm `POST /slo` on.
fn bare_controller() -> Controller {
    let (_, clock) = sim_clock();
    let types = vec![TransactionType::new("Read", 100.0, true)];
    let state = ControlState::new(Rate::Limited(100.0), Mixture::default_of(&types), 10_000.0);
    let queue = Arc::new(RequestQueue::new(clock.clone()));
    let stats = Arc::new(StatsCollector::new(clock, &["Read"]));
    let spans = Arc::new(SpanRecorder::new(ObsConfig::default()));
    Controller::new(state, queue, stats, spans, Database::new(Personality::test()), types, "demo")
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
    let (coordinator, _) = sim_coordinator(CoordinatorConfig::default().heartbeat);
    let fleet = |req: &Request| route(&coordinator, req);
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
    let (coordinator, _) = sim_coordinator(CoordinatorConfig::default().heartbeat);
    beat(&coordinator, "a", Some(window(100, 500, 2_000)));
    beat(&coordinator, "b", Some(window(100, 500, 2_200)));
    beat(&coordinator, "c", Some(window(100, 500, 30_000))); // 13x the median of its peers
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
