//! The cluster coordinator: membership authority, control fan-out, merged
//! telemetry, and the cluster-wide SLO loop.
//!
//! The coordinator owns no workload. Its `/cluster/*` routes are a
//! [`bp_api::RouteExtension`] mounted on a plain [`bp_api::ApiServer`], and it
//! runs one background detector thread that:
//!
//! * sweeps the [`MembershipTable`] (joined → suspect → dead on missed
//!   heartbeats), journaling `node_suspect` / `node_dead`;
//! * re-splits the global rate across survivors whenever the live set or
//!   the global rate changes (`rate_resplit`); each agent picks its share
//!   up from the response to its next heartbeat;
//! * flags stragglers — one live node whose windowed p99 dominates the
//!   median of its peers (`node_straggler`, picked up by bp-doctor);
//! * when armed, feeds the *merged* windowed latency across the fleet to
//!   the same [`bp_core::SloCore`] law a node runs and applies its
//!   decisions to the global rate (`cluster_slo`).
//!
//! The detector does no I/O and reads time only from the injected clock, so
//! a test can drive it exactly in virtual time. The only calls the
//! coordinator makes to agents are operator fan-outs (pause, resume, stop,
//! mixture, chaos, trace lookup, metrics).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bp_api::http::{http_request_text_timeout, http_request_timeout};
use bp_api::router::{query_param, RouteExtension};
use bp_api::{ApiServer, Method, Request, Response, PROMETHEUS_CONTENT_TYPE};
use bp_core::{Adjustment, BreakerState, Rate, SloConfig, SloHandle, WindowSnapshot};
use bp_obs::{
    merge_samples, parse_samples, render_samples, EventJournal, MetricsBuf, MetricsSource, Sample,
    Severity, Stage,
};
use bp_util::clock::SharedClock;
use bp_util::json::Json;
use bp_util::sync::Mutex;
use bp_util::Periodic;

use crate::member::{Admission, Member, MembershipTable, NodeState};

/// How long one call between coordinator and agent may take: an agent's
/// heartbeat, or one node's part of an operator fan-out.
pub const FANOUT_TIMEOUT: Duration = Duration::from_millis(500);

/// A fan-out's HTTP client: `http_request_timeout` for JSON bodies,
/// `http_request_text_timeout` for text.
type Client<T> = fn(SocketAddr, &str, &str, Option<&Json>, Duration) -> std::io::Result<(u16, T)>;

/// A node is a straggler when its windowed p99 is at least this multiple
/// of the median of its live peers.
const STRAGGLER_FACTOR: f64 = 3.0;

/// ...and above this floor, so an idle fleet with microsecond latencies
/// doesn't flag noise.
const STRAGGLER_FLOOR_US: u64 = 1_000;

/// Minimum windowed completions per node before it participates in the
/// straggler comparison.
const STRAGGLER_MIN_COUNT: u64 = 20;

/// Coordinator tuning.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Expected agent heartbeat period. Suspect after >1 missed interval,
    /// dead after >2 (the failure-detection contract the harness asserts).
    pub heartbeat: Duration,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig { heartbeat: Duration::from_millis(200) }
    }
}

/// The coordinator. Construct with [`ClusterCoordinator::new`], mount on an
/// [`bp_api::ApiServer`] with `mount`, and keep the [`Periodic`]
/// from [`ClusterCoordinator::start_detector`] alive for the run.
pub struct ClusterCoordinator {
    membership: Mutex<MembershipTable>,
    /// Operator-or-SLO commanded fleet-wide rate; `None` until first set.
    global_rate: Mutex<Option<f64>>,
    /// The fleet's SLO loop: the node's law and status, ticked by the
    /// detector. While armed it owns the global rate, as a node's does.
    slo: Arc<SloHandle>,
    slo_last_tick_us: AtomicU64,
    journal: Arc<EventJournal>,
    clock: SharedClock,
    heartbeat_us: u64,
    heartbeats_total: AtomicU64,
    resplits_total: AtomicU64,
    stragglers_total: AtomicU64,
}

/// A heartbeat's `window`, strictly: the node's `WindowSnapshot` and the
/// trace id of its slowest retained span (`slow_trace`, 0 when absent).
fn heartbeat_window(j: &Json) -> Result<(WindowSnapshot, u64), String> {
    let slow_trace = j.get("slow_trace").map(|v| {
        (v.as_str().and_then(bp_obs::parse_trace_id))
            .ok_or("window.slow_trace must be a trace id of 1-16 hex digits")
    });
    Ok((WindowSnapshot::from_json(j)?, slow_trace.transpose()?.unwrap_or(0)))
}

impl ClusterCoordinator {
    /// `clock` is the membership clock — the detector's only source of
    /// time, as `bp_core::start`'s is the executor's.
    pub fn new(cfg: CoordinatorConfig, clock: SharedClock) -> Arc<ClusterCoordinator> {
        let heartbeat_us = cfg.heartbeat.as_micros().max(1) as u64;
        Arc::new(ClusterCoordinator {
            membership: Mutex::new(MembershipTable::new(heartbeat_us)),
            global_rate: Mutex::new(None),
            slo: Arc::new(SloHandle::new("cluster")),
            slo_last_tick_us: AtomicU64::new(0),
            journal: Arc::new(EventJournal::new()),
            clock,
            heartbeat_us,
            heartbeats_total: AtomicU64::new(0),
            resplits_total: AtomicU64::new(0),
            stragglers_total: AtomicU64::new(0),
        })
    }

    /// The coordinator's own event journal (`node_join`, `node_dead`,
    /// `rate_resplit`, `node_straggler`, `cluster_slo`, …).
    pub fn journal(&self) -> &Arc<EventJournal> {
        &self.journal
    }

    /// The fleet's SLO loop, as [`bp_core::Controller::slo`] is a node's.
    pub fn slo(&self) -> &Arc<SloHandle> {
        &self.slo
    }

    /// The membership clock's time, in microseconds.
    pub fn now_us(&self) -> u64 {
        self.clock.now()
    }

    /// Set the fleet-wide rate and split it across live agents by observed
    /// capacity. Returns the split; each agent runs its share from its next
    /// heartbeat on.
    pub fn set_global_rate(&self, tps: f64) -> Vec<(String, f64)> {
        *self.global_rate.lock() = Some(tps);
        self.resplit("operator")
    }

    pub fn global_rate(&self) -> Option<f64> {
        *self.global_rate.lock()
    }

    /// Re-split the current global rate across live members and store each
    /// share, which the member's next heartbeat response carries. No-op
    /// (empty) until a global rate is set. Dials no agent.
    fn resplit(&self, reason: &'static str) -> Vec<(String, f64)> {
        let Some(global) = *self.global_rate.lock() else {
            return Vec::new();
        };
        let split = self.membership.lock().split_rate(global);
        if split.is_empty() {
            return split;
        }
        self.resplits_total.fetch_add(1, Ordering::Relaxed);
        self.journal.emit_with(Severity::Info, "cluster", "rate_resplit", || {
            let shares = split
                .iter()
                .map(|(id, r)| format!("{id}={r:.1}"))
                .collect::<Vec<_>>()
                .join(" ");
            (
                format!("global rate {global:.1} tx/s re-split ({reason}): {shares}"),
                vec![
                    ("reason", reason.to_string()),
                    ("global_rate", format!("{global}")),
                    ("nodes", format!("{}", split.len())),
                ],
            )
        });
        split
    }

    /// Send one request to every live node (to `only`, when given) through
    /// `client`, the JSON or the text one; `request` builds a node's path
    /// and body. Yields each node with the status and body that came back;
    /// a node that could not be reached is journaled here.
    fn fan_out<T>(
        &self,
        only: Option<&str>,
        method: &str,
        request: impl Fn(&str) -> (String, Option<Json>),
        client: Client<T>,
    ) -> Vec<(String, std::io::Result<(u16, T)>)> {
        let targets: Vec<(String, SocketAddr)> = self
            .membership
            .lock()
            .live()
            .iter()
            .filter(|m| only.is_none_or(|id| id == m.id))
            .map(|m| (m.id.clone(), m.addr))
            .collect();
        targets
            .into_iter()
            .map(|(id, addr)| {
                let (path, body) = request(&id);
                let result = client(addr, method, &path, body.as_ref(), FANOUT_TIMEOUT);
                if let Err(e) = &result {
                    self.fanout_error(&id, format!("{method} {path} to {id} ({addr}) failed: {e}"));
                }
                (id, result)
            })
            .collect()
    }

    /// Journal a fan-out call that failed, or answered what it should not.
    fn fanout_error(&self, node: &str, message: String) {
        self.journal.emit_with(Severity::Debug, "cluster", "fanout_error", || {
            (message, vec![("node", node.to_string())])
        });
    }

    /// One detector pass: sweep membership, journal transitions, re-split
    /// on deaths, run the straggler check, tick the SLO loop. Public so
    /// in-process tests can drive it deterministically.
    pub fn tick(&self) {
        let now = self.now_us();
        let transitions = self.membership.lock().sweep(now);
        for (id, state) in &transitions {
            let (severity, kind, what) = match state {
                NodeState::Suspect => (Severity::Warn, "node_suspect", "missed a heartbeat interval"),
                NodeState::Dead => {
                    (Severity::Error, "node_dead", "missed 2 heartbeat intervals; declared dead")
                }
                NodeState::Joined => continue,
            };
            self.journal.emit_with(severity, "cluster", kind, || {
                (format!("node {id} {what}"), vec![("node", id.clone())])
            });
        }
        if transitions.iter().any(|(_, state)| *state == NodeState::Dead) {
            self.resplit("node_dead");
        }
        self.straggler_check();
        self.slo_tick(now);
    }

    /// Flag a live node whose windowed p99 is `STRAGGLER_FACTOR`× the
    /// median of its peers. bp-doctor folds the resulting event run into a
    /// `straggler_node` finding.
    fn straggler_check(&self) {
        let table = self.membership.lock();
        let nodes: Vec<&Member> =
            table.live().into_iter().filter(|m| m.window.count >= STRAGGLER_MIN_COUNT).collect();
        if nodes.len() < 2 {
            return;
        }
        for m in &nodes {
            let mut others: Vec<u64> =
                nodes.iter().filter(|o| o.id != m.id).map(|o| o.window.p99_us).collect();
            others.sort_unstable();
            let (id, p99, median) = (&m.id, m.window.p99_us, others[others.len() / 2]);
            if p99 >= STRAGGLER_FLOOR_US && p99 as f64 >= STRAGGLER_FACTOR * median as f64 {
                self.stragglers_total.fetch_add(1, Ordering::Relaxed);
                self.journal.emit_with(Severity::Warn, "cluster", "node_straggler", || {
                    let mut fields = vec![
                        ("node", id.clone()),
                        ("p99_us", format!("{p99}")),
                        ("cluster_p99_us", format!("{median}")),
                    ];
                    if m.slow_trace != 0 {
                        fields.push(("trace_id", bp_obs::format_trace_id(m.slow_trace)));
                    }
                    (format!("node {id} window p99 {p99}us vs cluster median {median}us"), fields)
                });
            }
        }
    }

    /// One SLO control step once a tick period has passed: fold the live
    /// nodes' heartbeat windows into one, let the law decide, and re-split a
    /// changed rate.
    fn slo_tick(&self, now: u64) {
        let Some(cfg) = self.slo.config() else { return };
        if now.saturating_sub(self.slo_last_tick_us.load(Ordering::Relaxed)) < cfg.tick_us {
            return;
        }
        self.slo_last_tick_us.store(now, Ordering::Relaxed);
        let fleet = WindowSnapshot::merge(self.membership.lock().live().iter().map(|m| &m.window));
        // The fleet has no breaker of its own.
        let Some((before, d)) = self.slo.tick(&fleet, BreakerState::Closed) else { return };
        if d.adjustment != Adjustment::Hold {
            self.journal.emit_with(Severity::Debug, "cluster", "cluster_slo", || {
                let observed = self.slo.status().observed_us;
                (
                    format!(
                        "merged {} {observed}us vs limit {}us: {} {before:.1} -> {:.1} tx/s",
                        cfg.target.kind(),
                        cfg.target.limit_us(),
                        d.adjustment.name(),
                        d.rate,
                    ),
                    vec![("observed_us", format!("{observed}")), ("rate", format!("{:.1}", d.rate))],
                )
            });
        }
        if self.global_rate() != Some(d.rate) {
            *self.global_rate.lock() = Some(d.rate);
            self.resplit("slo");
        }
    }

    /// Spawn the background detector (membership sweep + straggler check +
    /// SLO loop), ticking a few times per heartbeat interval so deaths are
    /// declared promptly after the 2-interval deadline. Stops when the
    /// returned handle drops.
    pub fn start_detector(self: &Arc<Self>) -> Periodic {
        let me = self.clone();
        Periodic::spawn("bp-cluster-detector", (self.heartbeat_us / 4).max(5_000), move || {
            me.tick();
            true
        })
    }

    // ---- route handlers -------------------------------------------------

    /// `POST /cluster/heartbeat {node, addr, window}`: the one message an
    /// agent sends. The first beat from an unknown id is its join; the
    /// response carries the node's rate share once a global rate is set.
    fn heartbeat(&self, req: &Request) -> Response {
        let body = req.body.clone().unwrap_or(Json::Null);
        let Some(node) = body.get("node").and_then(Json::as_str) else {
            return Response::error(400, "body must contain node");
        };
        let Some(addr) = body.get("addr").and_then(Json::as_str) else {
            return Response::error(400, "body must contain addr (host:port)");
        };
        let Ok(addr) = addr.parse::<SocketAddr>() else {
            return Response::error(400, &format!("invalid addr {addr}"));
        };
        // A beat without a window is a liveness-only beat.
        let (window, slow_trace) = match body.get("window").map(heartbeat_window).transpose() {
            Ok(window) => window.unwrap_or_default(),
            Err(e) => return Response::error(400, &e),
        };
        self.heartbeats_total.fetch_add(1, Ordering::Relaxed);
        let now = self.now_us();
        let admission = self.membership.lock().heartbeat(node, addr, window, slow_trace, now);
        let joined = match admission {
            Admission::New => Some(("joined", "node_join")),
            Admission::Rejoined => Some(("rejoined", "node_rejoin")),
            Admission::Refreshed => None,
        };
        if let Some((verb, reason)) = joined {
            self.journal.emit_with(Severity::Info, "cluster", "node_join", || {
                (format!("node {node} {verb} from {addr}"), vec![("node", node.to_string())])
            });
            self.resplit(reason);
        }
        let mut resp = Json::obj().set("node", node);
        if self.global_rate.lock().is_some() {
            let assigned = self.membership.lock().get(node).map_or(0.0, |m| m.assigned_rate);
            resp = resp.set("assigned_rate", assigned);
        }
        Response::ok(resp)
    }

    fn status(&self) -> Response {
        let table = self.membership.lock();
        let nodes: Vec<Json> = table
            .members()
            .iter()
            .map(|m| {
                let mut window = m.window.to_json();
                if m.slow_trace != 0 {
                    window = window.set("slow_trace", bp_obs::format_trace_id(m.slow_trace).as_str());
                }
                Json::obj()
                    .set("node", m.id.as_str())
                    .set("addr", m.addr.to_string().as_str())
                    .set("state", m.state.name())
                    .set("assigned_rate", m.assigned_rate)
                    .set("weight", m.weight)
                    .set("heartbeats", m.heartbeats)
                    .set("last_seen_us", m.last_seen_us)
                    .set("window", window)
            })
            .collect();
        let (joined, suspect, dead) = table.counts();
        drop(table);
        Response::ok(
            Json::obj()
                .set("heartbeat_ms", self.heartbeat_us / 1_000)
                .set("global_rate", self.global_rate_json())
                .set("joined", joined as u64)
                .set("suspect", suspect as u64)
                .set("dead", dead as u64)
                .set("heartbeats", self.heartbeats_total.load(Ordering::Relaxed))
                .set("resplits", self.resplits_total.load(Ordering::Relaxed))
                .set("nodes", Json::Arr(nodes)),
        )
    }

    fn set_rate(&self, req: &Request) -> Response {
        let body = req.body.clone().unwrap_or(Json::Null);
        let tps = body
            .get("tps")
            .and_then(Json::as_f64)
            .or_else(|| body.get("rate").and_then(Json::as_f64));
        let Some(tps) = tps else {
            return Response::error(400, "body must contain tps");
        };
        if Rate::limited(tps).is_none() {
            return Response::error(400, "tps must be a finite non-negative number");
        }
        let split = self.set_global_rate(tps);
        Response::ok(
            Json::obj().set("global_rate", tps).set(
                "split",
                Json::Arr(
                    split
                        .into_iter()
                        .map(|(id, r)| Json::obj().set("node", id.as_str()).set("rate", r))
                        .collect(),
                ),
            ),
        )
    }

    /// Fan a request out to agents: `path(id)` builds the per-agent path,
    /// `body` is forwarded verbatim. `only` restricts to one node id.
    fn fanout(
        &self,
        method: &str,
        path: impl Fn(&str) -> String,
        body: Option<&Json>,
        only: Option<&str>,
    ) -> Response {
        let results: Vec<Json> = self
            .fan_out(only, method, |id| (path(id), body.cloned()), http_request_timeout)
            .into_iter()
            .map(|(id, result)| {
                let item = Json::obj().set("node", id.as_str());
                match result {
                    Ok((status, body)) => item.set("status", status as u64).set("body", body),
                    Err(e) => item.set("error", e.to_string().as_str()),
                }
            })
            .collect();
        if results.is_empty() {
            return Response::error(
                404,
                &only.map_or("no live nodes".to_string(), |id| format!("no live node {id}")),
            );
        }
        Response::ok(Json::obj().set("results", Json::Arr(results)))
    }

    /// `GET /cluster/trace/{id}`: fan the trace lookup out to every live
    /// agent's `GET /trace/{id}` and merge the per-node views — stages
    /// summed across nodes, the dominant stage named on the merged
    /// breakdown. 404 only when no live node retained the trace.
    fn cluster_trace(&self, id_hex: &str) -> Response {
        let Some(id) = bp_obs::parse_trace_id(id_hex) else {
            return Response::error(
                400,
                &format!("invalid trace id {id_hex}: expected 1-16 hex digits"),
            );
        };
        let hex = bp_obs::format_trace_id(id);
        let mut nodes: Vec<Json> = Vec::new();
        let mut stage_sums = [0u64; Stage::ALL.len()];
        let mut total_us = 0u64;
        let path = |_: &str| (format!("/trace/{hex}"), None);
        for (nid, result) in self.fan_out(None, "GET", path, http_request_timeout) {
            match result {
                Ok((200, body)) => {
                    for st in body.get("stages").and_then(Json::as_arr).unwrap_or_default() {
                        let name = st.get("stage").and_then(Json::as_str);
                        let at = Stage::ALL.iter().position(|s| Some(s.name()) == name);
                        if let (Some(i), Some(us)) = (at, st.get("us").and_then(Json::as_u64)) {
                            stage_sums[i] += us;
                        }
                    }
                    total_us += body.get("total_us").and_then(Json::as_u64).unwrap_or(0);
                    nodes.push(Json::obj().set("node", nid.as_str()).set("trace", body));
                }
                // 404 just means this node never retained the trace.
                Ok((404, _)) | Err(_) => {}
                Ok((status, _)) => {
                    self.fanout_error(&nid, format!("trace lookup on {nid} returned {status}"))
                }
            }
        }
        if nodes.is_empty() {
            return Response::error(404, &format!("trace {hex} not retained on any live node"));
        }
        let merged = Stage::ALL.map(|stage| (stage.name(), stage_sums[stage as usize]));
        let dominant = merged.iter().max_by_key(|(_, us)| *us).map_or("", |(name, _)| *name);
        let stages_json = Json::Arr(
            merged.iter().map(|(name, us)| Json::obj().set("stage", *name).set("us", *us)).collect(),
        );
        Response::ok(
            Json::obj().set("trace_id", hex.as_str()).set("nodes", Json::Arr(nodes)).set(
                "merged",
                Json::obj()
                    .set("stages", stages_json)
                    .set("total_us", total_us)
                    .set("dominant_stage", dominant),
            ),
        )
    }

    /// `GET /cluster/metrics`: read every live agent's own `GET /metrics`
    /// page, fold the pages with the registry of the server the coordinator
    /// is mounted on (typically carrying its own [`MetricsSource`]), and render
    /// one exposition with families deduped and counters summed. A page
    /// that does not parse is journaled and left out whole.
    fn merged_metrics(&self, api: &ApiServer) -> Response {
        let mut sets: Vec<Vec<Sample>> = Vec::new();
        if let Some(reg) = api.registry() {
            sets.push(reg.snapshot());
        }
        let path = |_: &str| ("/metrics".to_string(), None);
        for (id, result) in self.fan_out(None, "GET", path, http_request_text_timeout) {
            match result {
                Ok((200, text)) => match parse_samples(&text) {
                    Ok(samples) => sets.push(samples),
                    Err(e) => self.fanout_error(&id, format!("/metrics from {id}: {e}")),
                },
                Ok((status, _)) => {
                    self.fanout_error(&id, format!("/metrics from {id} returned {status}"))
                }
                Err(_) => {}
            }
        }
        let merged = merge_samples(sets);
        Response::text(PROMETHEUS_CONTENT_TYPE, render_samples(&merged))
    }

    /// `POST /cluster/slo`: the body of `POST /slo`, over the fleet's
    /// starting values. Without `initial_rate` the loop continues from the
    /// current global rate (raised to `min_rate` where none is set).
    fn slo_arm(&self, api: &ApiServer, req: &Request) -> Response {
        let base = SloConfig {
            // A violation stays visible for as long as the agents' windows
            // hold it (`AgentConfig::window_s`, 2 s unless set), and two
            // heartbeats bring fresh windows from them all.
            window_s: 2,
            tick_us: 2 * self.heartbeat_us,
            additive_step: 100.0,
            min_rate: 50.0,
            initial_rate: self.global_rate().unwrap_or(0.0),
            ..SloConfig::default()
        };
        let cfg = match base.with_json(req.body.as_ref().unwrap_or(&Json::Null)) {
            Ok(cfg) => cfg,
            Err(e) => return Response::error(400, &e),
        };
        self.slo.arm(cfg);
        self.slo_last_tick_us.store(self.now_us(), Ordering::Relaxed);
        if let Some(reg) = api.registry() {
            // Arc-pointer dedupe in the registry makes re-arming a no-op.
            reg.register("slo:cluster", self.slo.clone());
        }
        *self.global_rate.lock() = Some(self.slo.current_rate());
        self.resplit("slo_arm");
        self.slo_status()
    }

    fn slo_disarm(&self) -> Response {
        self.slo.disarm();
        self.slo_status()
    }

    /// `GET /cluster/slo`: the loop's status as a node reports it, plus
    /// the global rate.
    fn slo_status(&self) -> Response {
        Response::ok(self.slo.status_json().set("global_rate", self.global_rate_json()))
    }

    fn global_rate_json(&self) -> Json {
        self.global_rate().map_or(Json::Null, Json::Num)
    }
}

impl RouteExtension for ClusterCoordinator {
    fn handle(&self, api: &ApiServer, req: &Request, path: &[&str], query: &str) -> Option<Response> {
        let resp = match (req.method, path) {
            (Method::Post, ["cluster", "heartbeat"]) => self.heartbeat(req),
            (Method::Get, ["cluster", "status"]) => self.status(),
            (Method::Get, ["cluster", "metrics"]) => self.merged_metrics(api),
            (Method::Post, ["cluster", "rate"]) => self.set_rate(req),
            (Method::Post, ["cluster", action @ ("pause" | "resume" | "stop")]) => {
                let action = action.to_string();
                self.fanout(
                    "POST",
                    |id| format!("/workloads/{id}/{action}"),
                    Some(&Json::obj()),
                    query_param(query, "node"),
                )
            }
            (Method::Post, ["cluster", "mixture"]) => self.fanout(
                "POST",
                |id| format!("/workloads/{id}/mixture"),
                req.body.as_ref(),
                query_param(query, "node"),
            ),
            (Method::Post, ["cluster", "chaos"]) => self.fanout(
                "POST",
                |_| "/chaos".to_string(),
                req.body.as_ref(),
                query_param(query, "node"),
            ),
            (Method::Delete, ["cluster", "chaos"]) => self.fanout(
                "DELETE",
                |_| "/chaos".to_string(),
                None,
                query_param(query, "node"),
            ),
            (Method::Get, ["cluster", "trace", id]) => self.cluster_trace(id),
            (Method::Post, ["cluster", "slo"]) => self.slo_arm(api, req),
            (Method::Delete, ["cluster", "slo"]) => self.slo_disarm(),
            (Method::Get, ["cluster", "slo"]) => self.slo_status(),
            _ => return None,
        };
        Some(resp)
    }
}

impl MetricsSource for ClusterCoordinator {
    fn collect(&self, buf: &mut MetricsBuf) {
        let (joined, suspect, dead) = self.membership.lock().counts();
        for (state, n) in [("joined", joined), ("suspect", suspect), ("dead", dead)] {
            buf.gauge(
                "bp_cluster_nodes",
                "Cluster members by failure-detector state.",
                &[("state", state)],
                n as f64,
            );
        }
        buf.gauge(
            "bp_cluster_global_rate",
            "Fleet-wide commanded rate (tx/s); 0 until set.",
            &[],
            self.global_rate().unwrap_or(0.0),
        );
        buf.counter(
            "bp_cluster_heartbeats_total",
            "Heartbeats received from agents.",
            &[],
            self.heartbeats_total.load(Ordering::Relaxed) as f64,
        );
        buf.counter(
            "bp_cluster_resplits_total",
            "Re-splits of the global rate across the live nodes.",
            &[],
            self.resplits_total.load(Ordering::Relaxed) as f64,
        );
        buf.counter(
            "bp_cluster_stragglers_total",
            "Straggler detections (node_straggler events).",
            &[],
            self.stragglers_total.load(Ordering::Relaxed) as f64,
        );
        buf.gauge(
            "bp_cluster_slo_active",
            "1 while the cluster SLO loop is armed.",
            &[],
            if self.slo.is_active() { 1.0 } else { 0.0 },
        );
    }
}
