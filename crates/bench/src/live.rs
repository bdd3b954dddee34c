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
use bp_obs::MetricsRegistry;
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

    pub fn scrape(&self, path: &str) -> Scrape {
        Scrape(self.text(path))
    }
}

/// A Prometheus text exposition, read the way the experiments need it.
pub struct Scrape(pub String);

impl Scrape {
    /// Sum of the samples of `name` whose label set contains `labels`
    /// (`""` matches every series, and a series without labels). A sample
    /// line is `name{labels} value` with an optional ` # {exemplar}` tail,
    /// so the value is the first token after the labels.
    pub fn value(&self, name: &str, labels: &str) -> f64 {
        let mut sum = 0.0;
        for line in self.0.lines() {
            let Some(rest) = line.strip_prefix(name) else {
                continue;
            };
            let (series, tail) = match rest.strip_prefix('{').and_then(|r| r.split_once('}')) {
                Some(split) => split,
                None if rest.starts_with(' ') => ("", rest),
                None => continue, // a longer metric name
            };
            if series.contains(labels) {
                sum += tail.split_whitespace().next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
            }
        }
        sum
    }

    /// Is any series of `name` present?
    pub fn has(&self, name: &str) -> bool {
        self.0.contains(name)
    }

    /// Observations above `bound` in histogram `bucket_metric`: the
    /// cumulative count at `+Inf` minus the one at `le="bound"`, which is
    /// exact when `bound` is a bucket edge.
    pub fn above(&self, bucket_metric: &str, bound: u64) -> u64 {
        let le = format!("le=\"{bound}\"");
        (self.value(bucket_metric, "le=\"+Inf\"") - self.value(bucket_metric, &le)).max(0.0).round()
            as u64
    }

    /// The first `# {trace_id="…"}` exemplar on the page.
    pub fn exemplar(&self) -> Option<String> {
        let (_, rest) = self.0.split_once("# {trace_id=\"")?;
        Some(rest.split_once('"')?.0.to_string())
    }

    /// `# TYPE` lines whose family name starts with `prefix`.
    pub fn families(&self, prefix: &str) -> usize {
        let needle = format!("# TYPE {prefix}");
        self.0.lines().filter(|l| l.starts_with(&needle)).count()
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
    pub registry: Arc<MetricsRegistry>,
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
        let handle = bp_core::start(db.clone(), w, wall_clock(), cfg);
        let registry = Arc::new(MetricsRegistry::new());
        let api = Arc::new(ApiServer::new().with_registry(registry.clone()));
        api.register(id, handle.controller.clone());
        let http = Endpoint::serve(&api);
        LiveRun { db, handle, api, registry, http }
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
        let coordinator =
            ClusterCoordinator::new(CoordinatorConfig { heartbeat: Fleet::HEARTBEAT });
        let registry = Arc::new(MetricsRegistry::new());
        registry.register("cluster", coordinator.clone());
        coordinator.set_registry(registry.clone());
        let api = Arc::new(ApiServer::new().with_registry(registry));
        api.set_extension(coordinator.clone());
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
                    &run.api,
                    run.registry.clone(),
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

    const PAGE: &str = "# HELP bp_x_total x\n# TYPE bp_x_total counter\nbp_x_total 3\n\
        bp_x_total_more 100\n# TYPE bp_nodes gauge\nbp_nodes{state=\"dead\"} 1\n\
        bp_nodes{state=\"joined\"} 2\n# TYPE bp_lat_bucket histogram\n\
        bp_lat_bucket{type=\"a\",le=\"100\"} 7\n\
        bp_lat_bucket{type=\"a\",le=\"+Inf\"} 9 # {trace_id=\"00ab\"} 512\n\
        bp_lat_bucket{type=\"b\",le=\"100\"} 1\nbp_lat_bucket{type=\"b\",le=\"+Inf\"} 4\n";

    #[test]
    fn scrape_reads_values_buckets_and_exemplars() {
        let s = Scrape(PAGE.to_string());
        assert_eq!(s.value("bp_x_total", ""), 3.0, "a longer name is another metric");
        assert_eq!(s.value("bp_nodes", "state=\"dead\""), 1.0);
        assert_eq!(s.value("bp_nodes", ""), 3.0);
        assert_eq!(s.value("bp_absent", ""), 0.0);
        assert_eq!(s.above("bp_lat_bucket", 100), 5, "summed across label sets, exemplar ignored");
        assert_eq!(s.exemplar().as_deref(), Some("00ab"));
        assert_eq!(s.families("bp_"), 3);
        assert_eq!(s.families("bp_nodes"), 1);
        assert!(s.has("bp_nodes") && !s.has("bp_absent"));
    }
}
