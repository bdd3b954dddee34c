//! The one bring-up every live (wall-clock) experiment shares: a loaded
//! database with a workload running on it, its control API on a real
//! localhost socket, a client that checks each response status once, and a
//! reader for the Prometheus text the API serves.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bp_api::{http::HttpServerGuard, ApiServer};
use bp_cluster::{start_agent, AgentConfig, ClusterCoordinator, CoordinatorConfig};
use bp_core::{BreakerState, Controller, RunConfig, RunHandle, Workload};
use bp_obs::{parse_samples, MetricValue, MetricsRegistry, Sample, BUCKETS, LATENCY_BOUNDS_US};
use bp_sql::Connection;
use bp_storage::{Database, Personality};
use bp_util::clock::wall_clock;
use bp_util::json::Json;
use bp_util::rng::Rng;
use bp_util::Periodic;

/// What to load before a run: which benchmark, how much of it, from which
/// seed, on which DBMS personality.
#[derive(Clone)]
pub struct Setup {
    pub workload: &'static str,
    pub scale: f64,
    pub seed: u64,
    pub personality: Personality,
}

impl Setup {
    /// A fresh database with the benchmark's tables loaded.
    pub fn load(&self) -> (Arc<Database>, Arc<dyn Workload>) {
        let db = Database::new(self.personality.clone());
        let w = bp_workloads::by_name(self.workload).expect("bundled workload");
        w.setup(&mut Connection::open(&db), self.scale, &mut Rng::new(self.seed)).expect("setup");
        (db, w)
    }
}

pub fn sleep_s(seconds: f64) {
    std::thread::sleep(Duration::from_secs_f64(seconds));
}

/// Poll `pred` every 20 ms until it holds or `seconds` have passed.
pub fn wait_until(seconds: f64, mut pred: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < end {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    pred()
}

/// An [`ApiServer`] on a localhost socket plus the client for it. `get`,
/// `post`, `delete` and `text` panic on any status but 200, so experiment
/// bodies carry no status checks of their own; `request` returns the status
/// for the few places where a refusal is the measurement.
pub struct Endpoint {
    guard: HttpServerGuard,
}

impl Endpoint {
    pub fn serve(api: &Arc<ApiServer>) -> Endpoint {
        Endpoint { guard: api.serve_http("127.0.0.1:0").expect("bind http") }
    }

    pub fn addr(&self) -> SocketAddr {
        self.guard.addr()
    }

    pub fn request(&self, method: &str, path: &str, body: Option<&Json>) -> (u16, Json) {
        bp_api::http_request(self.addr(), method, path, body)
            .unwrap_or_else(|e| panic!("{method} {path}: {e}"))
    }

    fn checked(&self, method: &str, path: &str, body: Option<&Json>) -> Json {
        let (status, resp) = self.request(method, path, body);
        assert_eq!(status, 200, "{method} {path} failed: {resp}");
        resp
    }

    pub fn get(&self, path: &str) -> Json {
        self.checked("GET", path, None)
    }

    pub fn post(&self, path: &str, body: &Json) -> Json {
        self.checked("POST", path, Some(body))
    }

    pub fn delete(&self, path: &str) -> Json {
        self.checked("DELETE", path, None)
    }

    /// `GET` a text surface (`/metrics`, `/report`, `/trace/spans`, …).
    pub fn text(&self, path: &str) -> String {
        let (status, body) = bp_api::http_request_text(self.addr(), "GET", path, None)
            .unwrap_or_else(|e| panic!("GET {path}: {e}"));
        assert_eq!(status, 200, "GET {path} failed: {body}");
        body
    }

    /// `GET` an exposition and parse it; panics on a page that does not parse.
    pub fn scrape(&self, path: &str) -> Scrape {
        Scrape::parse(&self.text(path))
    }
}

/// A parsed Prometheus exposition, queried the way the experiments need it.
pub struct Scrape(Vec<Sample>);

impl Scrape {
    fn parse(text: &str) -> Scrape {
        Scrape(parse_samples(text).unwrap_or_else(|e| panic!("exposition does not parse: {e}")))
    }

    /// Sum of the counters and gauges of `name` whose labels include every
    /// pair of `labels` (`&[]` matches every series).
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        let carries = |s: &Sample| {
            labels.iter().all(|&(k, v)| s.labels.iter().any(|l| l.0 == k && l.1 == v))
        };
        self.0.iter().filter(|s| s.name == name && carries(s)).map(|s| match s.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => v,
            MetricValue::Histogram { .. } => 0.0,
        }).sum()
    }

    /// Is there a sample of family `name`?
    pub fn has(&self, name: &str) -> bool {
        self.0.iter().any(|s| s.name == name)
    }

    /// Observations above `bound`, one of [`LATENCY_BOUNDS_US`], in
    /// histogram `name` summed over its series: exact, `bound` being an edge.
    pub fn above(&self, name: &str, bound: u64) -> u64 {
        let edge = LATENCY_BOUNDS_US.iter().position(|&b| b == bound).expect("a bucket bound");
        self.0.iter().filter(|s| s.name == name).map(|s| match &s.value {
            MetricValue::Histogram { buckets, .. } => buckets[BUCKETS - 1] - buckets[edge],
            _ => 0,
        }).sum()
    }

    /// The first exemplar's trace id on the page.
    pub fn exemplar(&self) -> Option<String> {
        self.0.iter().find_map(|s| match &s.value {
            MetricValue::Histogram { exemplars, .. } => Some(exemplars.first()?.trace_id.clone()),
            _ => None,
        })
    }
}

/// One workload running on its own engine, registered on its own API
/// server with a metrics registry, served over HTTP. Every live experiment
/// gets all of it; one that never calls `http` leaves an accept thread
/// blocked on an idle socket, which costs its measurement nothing.
pub struct LiveRun {
    pub db: Arc<Database>,
    pub handle: RunHandle,
    pub api: Arc<ApiServer>,
    pub http: Endpoint,
}

impl LiveRun {
    /// Load, start and serve; the run is registered under the workload's
    /// name (`/workloads/voter/rate`).
    pub fn start(setup: &Setup, cfg: RunConfig) -> LiveRun {
        LiveRun::start_as(setup.workload, setup, cfg)
    }

    fn start_as(id: &str, setup: &Setup, cfg: RunConfig) -> LiveRun {
        let (db, w) = setup.load();
        let handle = bp_core::start(db.clone(), w, cfg);
        let api = Arc::new(ApiServer::new().with_registry(Arc::new(MetricsRegistry::new())));
        api.register(id, handle.controller.clone());
        let http = Endpoint::serve(&api);
        LiveRun { db, handle, api, http }
    }

    /// Transactions committed since the run began.
    pub fn committed(&self) -> u64 {
        self.handle.controller.stats().status(1).committed
    }

    /// Has the run's circuit breaker opened at least once?
    pub fn breaker_opened(&self) -> bool {
        self.handle.controller.breaker().is_some_and(|b| b.transitions_to(BreakerState::Open) > 0)
    }

    /// Wait for the script to end.
    pub fn join(self) -> Controller {
        self.handle.join()
    }

    /// Stop the run now and wait for its threads.
    pub fn stop(self) -> Controller {
        self.handle.stop_and_join()
    }
}

/// Did the breaker of a finished run close again after having been open?
pub fn breaker_reclosed(controller: &Controller) -> bool {
    controller.breaker().is_some_and(|b| {
        b.state() == BreakerState::Closed && b.transitions_to(BreakerState::Closed) > 0
    })
}

/// A coordinator with its failure detector running and `n` agent nodes
/// (`n1`…), every surface on a real localhost socket.
pub struct Fleet {
    pub coordinator: Arc<ClusterCoordinator>,
    /// The coordinator's `/cluster/*` surface.
    pub http: Endpoint,
    pub nodes: Vec<LiveRun>,
    _tickers: Vec<Periodic>,
}

impl Fleet {
    pub const HEARTBEAT: Duration = Duration::from_millis(100);

    /// Start the fleet and wait until every node has joined. Each node
    /// runs `cfg` under its own name.
    pub fn start(n: usize, setup: &Setup, cfg: &RunConfig) -> Fleet {
        let heartbeat = CoordinatorConfig { heartbeat: Fleet::HEARTBEAT };
        let coordinator = ClusterCoordinator::new(heartbeat, wall_clock());
        let registry = Arc::new(MetricsRegistry::new());
        registry.register("cluster", coordinator.clone());
        let api = Arc::new(ApiServer::new().with_registry(registry));
        api.mount(coordinator.clone());
        let http = Endpoint::serve(&api);
        let mut tickers = vec![coordinator.start_detector()];

        let nodes: Vec<LiveRun> = (1..=n)
            .map(|i| {
                let name = format!("n{i}");
                let run = LiveRun::start_as(
                    &name,
                    setup,
                    RunConfig { node: name.clone(), ..cfg.clone() },
                );
                tickers.push(start_agent(
                    AgentConfig::new(&name, http.addr(), run.http.addr())
                        .with_heartbeat(Fleet::HEARTBEAT),
                    run.handle.controller.clone(),
                ));
                run
            })
            .collect();

        let fleet = Fleet { coordinator, http, nodes, _tickers: tickers };
        let joined = wait_until(10.0, || {
            fleet.http.get("/cluster/status").get("joined").and_then(Json::as_u64) == Some(n as u64)
        });
        assert!(joined, "fleet never fully joined");
        fleet
    }

    /// Transactions committed across the fleet (a dead node's count stays
    /// frozen).
    pub fn committed(&self) -> u64 {
        self.nodes.iter().map(LiveRun::committed).sum()
    }

    pub fn stop(self) {
        for node in self.nodes {
            node.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_obs::MetricsBuf;
    use bp_util::histogram::Histogram;

    #[test]
    fn scrape_reads_values_buckets_and_exemplars() {
        let mut buf = MetricsBuf::new();
        buf.counter("bp_x_total", "x", &[], 3.0);
        buf.counter("bp_x_total_more", "more", &[], 100.0);
        buf.gauge("bp_nodes", "nodes", &[("state", "dead")], 1.0);
        buf.gauge("bp_nodes", "nodes", &[("state", "joined")], 2.0);
        for (kind, values) in [("a", &[50, 50_000, 2_000_000][..]), ("b", &[500_000, 60])] {
            let mut h = Histogram::latency();
            let observed: Vec<(u64, String)> =
                values.iter().map(|&v| (v, format!("{v:x}"))).collect();
            for (v, _) in &observed {
                h.record(*v);
            }
            buf.histogram_with_exemplars("bp_lat", "lat", &[("type", kind)], &h, &observed);
        }
        let s = Scrape::parse(&bp_obs::render_samples(&buf.into_samples()));
        assert_eq!(s.value("bp_x_total", &[]), 3.0, "a longer name is another metric");
        assert_eq!(s.value("bp_nodes", &[("state", "dead")]), 1.0);
        assert_eq!(s.value("bp_nodes", &[]), 3.0);
        assert_eq!(s.value("bp_absent", &[]), 0.0);
        assert_eq!(s.above("bp_lat", 25_000), 3, "summed across label sets");
        assert_eq!(s.exemplar().as_deref(), Some("32"));
        assert!(s.has("bp_nodes") && !s.has("bp_absent") && !s.has("bp_x"));
    }

    #[test]
    #[should_panic(expected = "line 2: unknown type `summary`")]
    fn a_page_that_does_not_parse_panics() {
        Scrape::parse("# HELP bp_x x\n# TYPE bp_x summary\n");
    }
}
