//! The API router: endpoints, request/response model and handlers.

use std::collections::BTreeMap;
use std::str::FromStr;
use std::sync::Arc;

use bp_util::sync::RwLock;

use bp_chaos::FaultPlan;
use bp_core::{Controller, MixturePreset, Rate, SloConfig, StatusSnapshot};
use bp_storage::RecoveryConfig;
use bp_obs::{Event, EventJournal, MetricsRegistry, Severity, Stage};
use bp_util::json::Json;

/// Prometheus text exposition content type.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// JSON-lines content type used by `/trace/spans`.
pub const JSONL_CONTENT_TYPE: &str = "application/x-ndjson";

/// Content type for the text artifacts: `GET /report` and replay's
/// `GET /record`.
pub const ARTIFACT_CONTENT_TYPE: &str = "text/plain; charset=utf-8";

/// Cap on correlated events returned by `GET /trace/{id}` (most recent
/// win).
const TRACE_EVENT_CAP: usize = 50;

/// HTTP-style method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Get,
    Post,
    Delete,
}

impl Method {
    pub fn parse(s: &str) -> Option<Method> {
        match s.to_ascii_uppercase().as_str() {
            "GET" => Some(Method::Get),
            "POST" | "PUT" => Some(Method::Post),
            "DELETE" => Some(Method::Delete),
            _ => None,
        }
    }
}

/// An API request.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: Method,
    pub path: String,
    pub body: Option<Json>,
}

impl Request {
    pub fn get(path: &str) -> Request {
        Request { method: Method::Get, path: path.to_string(), body: None }
    }

    pub fn post(path: &str, body: Json) -> Request {
        Request { method: Method::Post, path: path.to_string(), body: Some(body) }
    }
}

/// An API response. Most endpoints return JSON (`body`); text-exposition
/// endpoints (`/metrics`, `/trace/spans`) set `raw` instead, which the HTTP
/// transport serves verbatim under its content type.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub status: u16,
    pub body: Json,
    /// `(content_type, payload)` for non-JSON responses.
    pub raw: Option<(String, String)>,
}

impl Response {
    pub fn ok(body: Json) -> Response {
        Response { status: 200, body, raw: None }
    }

    pub fn error(status: u16, message: &str) -> Response {
        Response { status, body: Json::obj().set("error", message), raw: None }
    }

    /// A 200 response carrying a raw text payload.
    pub fn text(content_type: &str, payload: String) -> Response {
        Response { status: 200, body: Json::Null, raw: Some((content_type.to_string(), payload)) }
    }

    pub fn is_ok(&self) -> bool {
        self.status == 200
    }
}

/// Pluggable hook for adding benchmarks on the fly (POST /workloads):
/// the embedding application decides how to set up and start a workload.
pub trait Launcher: Send + Sync {
    /// Benchmarks this launcher can start.
    fn available(&self) -> Vec<String>;

    /// Set up (if needed) and start the named benchmark; returns the new
    /// tenant's controller.
    fn launch(&self, benchmark: &str, body: &Json) -> Result<Controller, String>;
}

/// A set of routes a layer above bp-api mounts on an [`ApiServer`] with
/// [`ApiServer::mount`] (the cluster's `/cluster/*`, replay's `/record` and
/// `/replay`). The router offers each mounted surface, in mount order, the
/// requests its own routes do not claim; `None` passes a request on, and
/// one that no surface claims is a 404.
pub trait RouteExtension: Send + Sync {
    /// `path` is the request's path split on `/`, `query` its raw query
    /// string; `api` is the server the surface is mounted on.
    fn handle(&self, api: &ApiServer, req: &Request, path: &[&str], query: &str) -> Option<Response>;
}

/// The API server: a named set of workload controllers, an optional
/// launcher and metrics registry, and the surfaces mounted on it.
pub struct ApiServer {
    /// By id, so "the first registered workload" and every listing are in
    /// id order.
    workloads: RwLock<BTreeMap<String, Controller>>,
    launcher: Option<Arc<dyn Launcher>>,
    registry: Option<Arc<MetricsRegistry>>,
    mounted: RwLock<Vec<Arc<dyn RouteExtension>>>,
}

impl Default for ApiServer {
    fn default() -> Self {
        ApiServer::new()
    }
}

fn status_json(st: &StatusSnapshot) -> Json {
    Json::obj()
        .set("throughput", st.throughput)
        .set(
            "latency_by_type",
            Json::Arr(
                st.latency_by_type
                    .iter()
                    .map(|(n, l)| Json::obj().set("type", n.as_str()).set("avg_latency_us", *l))
                    .collect(),
            ),
        )
        .set("p95_latency_us", st.p95_latency_us)
        .set("committed", st.committed)
        .set("user_aborted", st.user_aborted)
        .set("failed", st.failed)
        .set("shed", st.shed)
        .set("retries", st.retries)
        .set("elapsed_s", st.elapsed_s)
}

/// Look up a `key=value` pair in a raw query string (no percent-decoding —
/// the API's parameters are all simple tokens).
pub fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// Strict query parameter: absent is `Ok(None)`; present but not a valid `T`
/// is a 400 whose message ends in `expects` (not a silent default — a
/// typo'd `last=1e4` silently returning 100 events is a debugging trap).
fn param<T: FromStr>(query: &str, key: &str, expects: &str) -> Result<Option<T>, Response> {
    query_param(query, key)
        .map(|v| {
            v.parse().map_err(|_| Response::error(400, &format!("invalid {key}={v}{expects}")))
        })
        .transpose()
}

const EXPECTS_COUNT: &str = ": must be a non-negative integer";

/// Optional `/trace/spans` filters; each absent field means "no filter".
struct SpanFilters {
    outcome: Option<bp_obs::SpanOutcome>,
    tenant: Option<u16>,
    min_us: Option<u64>,
}

impl SpanFilters {
    fn matches(&self, s: &bp_obs::Span) -> bool {
        self.outcome.is_none_or(|o| s.outcome == o)
            && self.tenant.is_none_or(|t| s.tenant == t)
            && self.min_us.is_none_or(|us| s.total_us() >= us)
    }
}

fn rate_json(rate: Rate) -> Json {
    match rate {
        Rate::Unlimited => Json::Str("unlimited".into()),
        Rate::Disabled => Json::Str("disabled".into()),
        Rate::Limited(tps) => Json::Num(tps),
    }
}

/// The `GET /slo/status` body: the handle's own status under the id the
/// workload is registered as.
fn slo_status_json(id: &str, c: &Controller) -> Json {
    c.slo().status_json().set("workload", id)
}

/// GET /healthz — process liveness. Always 200: if the router runs, the
/// process is alive. Readiness (can the testbed do useful work?) is a
/// separate, stricter question answered by `/readyz`.
fn healthz() -> Response {
    Response::ok(Json::obj().set("ok", true))
}

/// The `GET /recovery/status` body: one snapshot of the addressed
/// workload's database — its crash/recovery counters and its supervisor.
fn recovery_status_json(id: &str, c: &Controller) -> Json {
    let s = c.database().recovery_status();
    let (poll_us, checkpoint_us) = match s.supervisor {
        Some(cfg) => (cfg.poll_interval_us, cfg.checkpoint_interval_us),
        None => (0, 0),
    };
    Json::obj()
        .set("workload", id)
        .set("crashed", s.crashed)
        .set("crashes", s.crashes)
        .set("recoveries", s.recoveries)
        .set("replayed_records", s.replayed_records)
        .set("torn_truncations", s.torn_truncations)
        .set("checkpoints", s.checkpoints)
        .set("segments_truncated", s.segments_truncated)
        .set("last_recovery_us", s.last_recovery_us)
        .set(
            "last_crashpoint",
            match s.last_crashpoint {
                Some(p) => Json::Str(p.name().to_string()),
                None => Json::Null,
            },
        )
        .set("checkpoint_lsn", s.checkpoint_lsn)
        .set("durable_lsn", s.durable_lsn)
        .set("redo_bytes", s.redo_bytes)
        .set("generation", s.generation)
        .set(
            "supervisor",
            Json::obj()
                .set("active", s.supervisor.is_some())
                .set("poll_us", poll_us)
                .set("checkpoint_us", checkpoint_us)
                .set("recoveries_run", s.recoveries_run)
                .set("checkpoints_run", s.checkpoints_run)
                .set("ticks", s.ticks),
        )
}

impl ApiServer {
    pub fn new() -> ApiServer {
        ApiServer {
            workloads: RwLock::new(BTreeMap::new()),
            launcher: None,
            registry: None,
            mounted: RwLock::new(Vec::new()),
        }
    }

    /// Mount a surface: it sees, after every surface mounted before it,
    /// each request the built-in routes do not claim.
    pub fn mount(&self, surface: Arc<dyn RouteExtension>) {
        self.mounted.write().push(surface);
    }

    pub fn with_launcher(mut self, launcher: Arc<dyn Launcher>) -> ApiServer {
        self.launcher = Some(launcher);
        self
    }

    /// Attach a unified metrics registry. GET /metrics then renders the
    /// Prometheus text exposition, and every controller registered with
    /// [`ApiServer::register`] has its stats / server counters / span
    /// recorder wired into it automatically.
    pub fn with_registry(mut self, registry: Arc<MetricsRegistry>) -> ApiServer {
        self.registry = Some(registry);
        self
    }

    /// The attached metrics registry, if any.
    pub fn registry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.registry.as_ref()
    }

    /// Register a running workload under an id.
    pub fn register(&self, id: &str, controller: Controller) {
        if let Some(reg) = &self.registry {
            controller.register_metrics(reg);
        }
        controller.journal().emit_with(Severity::Info, "api", "run_start", || {
            (
                format!("workload {id} registered ({})", controller.workload_name()),
                vec![("workload", id.to_string())],
            )
        });
        self.workloads.write().insert(id.to_string(), controller);
    }

    pub fn controller(&self, id: &str) -> Option<Controller> {
        self.workloads.read().get(id).cloned()
    }

    pub fn workload_ids(&self) -> Vec<String> {
        self.workloads.read().keys().cloned().collect()
    }

    /// Route and handle a request.
    pub fn handle(&self, req: &Request) -> Response {
        self.route(req).unwrap_or_else(|refusal| refusal)
    }

    /// `Err` is the 4xx a handler's `?` refused the request with.
    fn route(&self, req: &Request) -> Result<Response, Response> {
        let (path, query) = match req.path.split_once('?') {
            Some((p, q)) => (p, q),
            None => (req.path.as_str(), ""),
        };
        let path = path.trim_matches('/');
        let parts: Vec<&str> = if path.is_empty() { Vec::new() } else { path.split('/').collect() };
        Ok(match (req.method, parts.as_slice()) {
            (Method::Get, ["status"]) | (Method::Get, []) => self.all_status(),
            (Method::Get, ["workloads"]) => Response::ok(
                Json::Arr(self.workload_ids().into_iter().map(Json::Str).collect()),
            ),
            (Method::Post, ["workloads"]) => self.add_workload(req),
            (Method::Get, ["benchmarks"]) => match &self.launcher {
                Some(l) => Response::ok(Json::Arr(
                    l.available().into_iter().map(Json::Str).collect(),
                )),
                None => Response::error(501, "no launcher configured"),
            },
            (Method::Get, ["metrics"]) => self.metrics_response(),
            (Method::Post, ["chaos"]) => self.chaos_arm(req, query)?,
            (Method::Delete, ["chaos"]) => self.chaos_disarm(req, query)?,
            (Method::Get, ["chaos", "status"]) => self.chaos_status(req, query)?,
            (Method::Get, ["healthz"]) => healthz(),
            (Method::Get, ["readyz"]) => self.readyz(),
            (Method::Post, ["recovery"]) => self.recovery_arm(req, query)?,
            (Method::Delete, ["recovery"]) => self.recovery_disarm(req, query)?,
            (Method::Get, ["recovery", "status"]) => self.recovery_status(req, query)?,
            (Method::Post, ["slo"]) => self.slo_arm(req, query)?,
            (Method::Delete, ["slo"]) => self.slo_disarm(req, query)?,
            (Method::Get, ["slo", "status"]) => self.slo_status(req, query)?,
            (Method::Get, ["trace", "spans"]) => self.trace_spans(query)?,
            (Method::Get, ["trace", "summary"]) => self.trace_summary(),
            (Method::Get, ["trace", id]) => self.trace_detail(id),
            (Method::Get, ["events"]) => self.events(query)?,
            (Method::Get, ["report"]) => self.report(req, query)?,
            (Method::Get, ["doctor"]) => self.doctor(req, query)?,
            (Method::Get, ["workloads", id]) => self.workload_status(id),
            (Method::Post, ["workloads", id, action]) => self.workload_action(id, action, req),
            (_, parts) => {
                // A snapshot: a surface may take its time, or mount another.
                let mounted = self.mounted.read().clone();
                match mounted.iter().find_map(|m| m.handle(self, req, parts, query)) {
                    Some(resp) => resp,
                    None => Response::error(404, &format!("no route for {}", req.path)),
                }
            }
        })
    }

    /// POST /chaos — arm a fault scenario mid-run on the addressed
    /// workload's engine. Body is either `{"scenario": "error-burst",
    /// "seed": 7}` (a named preset) or `{"plan": {...}}` (an inline
    /// [`FaultPlan`]); `DELETE /chaos` disarms.
    fn chaos_arm(&self, req: &Request, query: &str) -> Result<Response, Response> {
        let (_, c) = self.addressed_workload(req, query)?;
        let chaos = c.chaos();
        let body = req.body.clone().unwrap_or(Json::Null);
        let plan = if let Some(name) = body.get("scenario").and_then(Json::as_str) {
            let seed = body.get("seed").and_then(Json::as_u64).unwrap_or(42);
            FaultPlan::scenario(name, seed).ok_or_else(|| {
                Response::error(
                    400,
                    &format!(
                        "unknown scenario {name}; known: {}",
                        FaultPlan::scenario_names().join(", ")
                    ),
                )
            })?
        } else if let Some(p) = body.get("plan") {
            FaultPlan::from_json(p).ok_or_else(|| Response::error(400, "invalid fault plan"))?
        } else {
            return Err(Response::error(400, "body must contain scenario or plan"));
        };
        chaos.arm(plan);
        Ok(Response::ok(chaos.status_json()))
    }

    /// DELETE /chaos — disarm fault injection (counters are kept).
    fn chaos_disarm(&self, req: &Request, query: &str) -> Result<Response, Response> {
        let (_, c) = self.addressed_workload(req, query)?;
        c.chaos().disarm();
        Ok(Response::ok(c.chaos().status_json()))
    }

    /// GET /chaos/status — armed flag, plan, and per-kind probe/injection
    /// counters.
    fn chaos_status(&self, req: &Request, query: &str) -> Result<Response, Response> {
        let (_, c) = self.addressed_workload(req, query)?;
        Ok(Response::ok(c.chaos().status_json()))
    }

    /// The workload a `/chaos`, `/slo`, `/recovery`, `/report` or `/doctor`
    /// request addresses: the `workload` field of the body (or query
    /// parameter), falling back to the first registered workload id.
    fn addressed_workload(
        &self,
        req: &Request,
        query: &str,
    ) -> Result<(String, Controller), Response> {
        let explicit = req
            .body
            .as_ref()
            .and_then(|b| b.get("workload"))
            .and_then(Json::as_str)
            .or_else(|| query_param(query, "workload"));
        let map = self.workloads.read();
        match explicit {
            Some(id) => match map.get(id) {
                Some(c) => Ok((id.to_string(), c.clone())),
                None => Err(Response::error(404, &format!("unknown workload {id}"))),
            },
            None => match map.iter().next() {
                Some((id, c)) => Ok((id.clone(), c.clone())),
                None => Err(Response::error(404, "no workloads registered")),
            },
        }
    }

    /// POST /slo — arm the closed-loop admission controller on a workload.
    /// Body (all fields optional): `"workload": "<id>"` and the settings
    /// [`SloConfig::with_settings`] reads, over the crate's defaults.
    fn slo_arm(&self, req: &Request, query: &str) -> Result<Response, Response> {
        let (id, c) = self.addressed_workload(req, query)?;
        let cfg = SloConfig::default()
            .with_json(req.body.as_ref().unwrap_or(&Json::Null))
            .map_err(|e| Response::error(400, &e))?;
        c.start_slo(cfg);
        if let Some(reg) = &self.registry {
            // Arc-pointer dedupe in the registry makes re-arming a no-op.
            reg.register(&format!("slo:{id}"), c.slo().clone());
        }
        Ok(Response::ok(slo_status_json(&id, &c)))
    }

    /// DELETE /slo — disarm the SLO loop; the last commanded rate sticks
    /// (operators use POST /workloads/{id}/rate to change it afterwards).
    fn slo_disarm(&self, req: &Request, query: &str) -> Result<Response, Response> {
        let (id, c) = self.addressed_workload(req, query)?;
        c.stop_slo();
        Ok(Response::ok(slo_status_json(&id, &c)))
    }

    /// GET /slo/status — the controller's live state: target, commanded
    /// rate, windowed observation and per-adjustment counters.
    fn slo_status(&self, req: &Request, query: &str) -> Result<Response, Response> {
        let (id, c) = self.addressed_workload(req, query)?;
        Ok(Response::ok(slo_status_json(&id, &c)))
    }

    /// GET /readyz — readiness probe: 200 once at least one workload is
    /// registered and no workload's engine is crashed (i.e. mid-outage,
    /// waiting on recovery). Load balancers and harnesses poll this to know
    /// when to (re)start driving traffic.
    fn readyz(&self) -> Response {
        let map = self.workloads.read();
        let crashed: Vec<Json> = map
            .iter()
            .filter(|(_, c)| c.database().is_crashed())
            .map(|(id, _)| Json::Str(id.clone()))
            .collect();
        let ready = !map.is_empty() && crashed.is_empty();
        let reason = if map.is_empty() {
            "no workloads registered"
        } else if !crashed.is_empty() {
            "engine crashed; awaiting recovery"
        } else {
            "ok"
        };
        let body = Json::obj()
            .set("ready", ready)
            .set("reason", reason)
            .set("workloads", map.len() as u64)
            .set("crashed", Json::Arr(crashed));
        Response { status: if ready { 200 } else { 503 }, body, raw: None }
    }

    /// POST /recovery — arm the recovery supervisor (watchdog + periodic
    /// checkpointer) of the addressed workload's database, which every
    /// workload on that database shares; arming again replaces it. Body
    /// (all optional): `{"poll_ms": 5, "checkpoint_ms": 2000, "workload":
    /// "<id>"}`. `checkpoint_ms: 0` disables periodic checkpoints.
    fn recovery_arm(&self, req: &Request, query: &str) -> Result<Response, Response> {
        let (id, c) = self.addressed_workload(req, query)?;
        let body = req.body.clone().unwrap_or(Json::Null);
        let mut cfg = RecoveryConfig::default();
        let micros = |key: &str| match body.get(key).and_then(Json::as_u64) {
            None => Ok(None),
            Some(ms) => ms.checked_mul(1_000).map(Some).ok_or_else(|| {
                Response::error(400, &format!("{key} {ms} overflows a µs interval"))
            }),
        };
        if let Some(us) = micros("poll_ms")? {
            if us == 0 {
                return Err(Response::error(400, "poll_ms must be > 0"));
            }
            cfg.poll_interval_us = us;
        }
        if let Some(us) = micros("checkpoint_ms")? {
            cfg.checkpoint_interval_us = us;
        }
        c.database().supervise(cfg);
        Ok(Response::ok(recovery_status_json(&id, &c)))
    }

    /// DELETE /recovery — disarm the database's supervisor. A crashed
    /// engine then stays down until re-armed or recovered manually.
    fn recovery_disarm(&self, req: &Request, query: &str) -> Result<Response, Response> {
        let (id, c) = self.addressed_workload(req, query)?;
        c.database().unsupervise();
        Ok(Response::ok(recovery_status_json(&id, &c)))
    }

    /// GET /recovery/status — the database's crash/recovery counters and
    /// its supervisor's state.
    fn recovery_status(&self, req: &Request, query: &str) -> Result<Response, Response> {
        let (id, c) = self.addressed_workload(req, query)?;
        Ok(Response::ok(recovery_status_json(&id, &c)))
    }

    /// Every distinct event journal across the registered workloads
    /// (controllers sharing one database share one journal; dedupe by
    /// pointer), in sorted-workload-id order.
    fn journals(&self) -> Vec<Arc<EventJournal>> {
        let mut out: Vec<Arc<EventJournal>> = Vec::new();
        for c in self.workloads.read().values() {
            if !out.iter().any(|seen| Arc::ptr_eq(seen, c.journal())) {
                out.push(c.journal().clone());
            }
        }
        out
    }

    /// GET /events?last=N&severity=S — the merged event journal across all
    /// workloads, oldest first, newest N kept (default 100).
    fn events(&self, query: &str) -> Result<Response, Response> {
        let last = param(query, "last", EXPECTS_COUNT)?.unwrap_or(100);
        let min = param(query, "severity", "; known: debug, info, warn, error")?
            .unwrap_or(Severity::Debug);
        let mut events: Vec<Event> = Vec::new();
        for j in self.journals() {
            events.extend(j.recent(usize::MAX, min));
        }
        events.sort_by_key(|e| (e.ts_us, e.seq));
        if events.len() > last {
            let cut = events.len() - last;
            events.drain(..cut);
        }
        Ok(Response::ok(
            Json::obj()
                .set("count", events.len() as u64)
                .set("events", Json::Arr(events.iter().map(Event::to_json).collect())),
        ))
    }

    /// The workload a `/report` or `/doctor` request addresses, plus its
    /// telemetry recorder.
    fn recorder_workload(
        &self,
        req: &Request,
        query: &str,
    ) -> Result<(String, Controller, Arc<bp_obs::TelemetryRecorder>), Response> {
        let (id, c) = self.addressed_workload(req, query)?;
        match c.recorder().cloned() {
            Some(r) => Ok((id, c, r)),
            None => Err(Response::error(
                404,
                &format!("workload {id} has no telemetry recorder wired"),
            )),
        }
    }

    /// GET /report — the `#bp-report v2` flight-recorder artifact: the
    /// telemetry sample timeline plus the event journal, as text.
    fn report(&self, req: &Request, query: &str) -> Result<Response, Response> {
        let (_, c, recorder) = self.recorder_workload(req, query)?;
        Ok(Response::text(ARTIFACT_CONTENT_TYPE, recorder.report(c.journal()).to_text()))
    }

    /// GET /doctor — ranked bottleneck findings from `bp_obs::diagnose`
    /// over the current report, as JSON.
    fn doctor(&self, req: &Request, query: &str) -> Result<Response, Response> {
        let (id, c, recorder) = self.recorder_workload(req, query)?;
        let report = recorder.report(c.journal());
        let findings = bp_obs::diagnose(&report);
        Ok(Response::ok(
            Json::obj()
                .set("workload", id.as_str())
                .set("samples", report.samples.len() as u64)
                .set("events", report.events.len() as u64)
                .set("findings", Json::Arr(findings.iter().map(|f| f.to_json()).collect())),
        ))
    }

    /// GET /metrics — the registry's Prometheus text; 501 without one.
    fn metrics_response(&self) -> Response {
        match &self.registry {
            Some(reg) => Response::text(PROMETHEUS_CONTENT_TYPE, reg.render_prometheus()),
            None => Response::error(501, "no metrics registry attached"),
        }
    }

    /// GET /trace/spans?last=N — the most recent N spans across every
    /// workload's flight recorder, oldest first, one JSON object per line.
    /// Optional filters: `outcome=` (committed/user_aborted/failed/shed),
    /// `tenant=` and `min_us=` (end-to-end latency floor).
    fn trace_spans(&self, query: &str) -> Result<Response, Response> {
        let last = param(query, "last", EXPECTS_COUNT)?.unwrap_or(100);
        let filters = SpanFilters {
            outcome: param(query, "outcome", "; known: committed, user_aborted, failed, shed")?,
            tenant: param(query, "tenant", ": must be an integer in 0..=65535")?,
            min_us: param(query, "min_us", EXPECTS_COUNT)?,
        };
        let mut spans: Vec<(String, bp_obs::Span)> = Vec::new();
        {
            let map = self.workloads.read();
            for (id, c) in map.iter() {
                spans.extend(
                    (c.spans().recent(usize::MAX).into_iter())
                        .filter(|s| filters.matches(s))
                        .map(|s| (id.clone(), s)),
                );
            }
        }
        spans.sort_by_key(|(_, s)| (s.end_us, s.seq));
        if spans.len() > last {
            let cut = spans.len() - last;
            spans.drain(..cut);
        }
        let mut out = String::new();
        use std::fmt::Write as _;
        for (id, s) in &spans {
            let _ = writeln!(out, "{}", s.to_json().set("workload", id.as_str()));
        }
        Ok(Response::text(JSONL_CONTENT_TYPE, out))
    }

    /// GET /trace/summary — per-workload per-stage latency summaries plus
    /// the one-line rendering used by run logs.
    fn trace_summary(&self) -> Response {
        let map = self.workloads.read();
        let items: Vec<Json> = map
            .iter()
            .map(|(id, c)| {
                let rec = c.spans();
                let stages = rec.stage_summaries();
                let stages_json = Json::Arr(
                    stages
                        .iter()
                        .map(|st| {
                            Json::obj()
                                .set("stage", st.stage.name())
                                .set("count", st.count)
                                .set("p50_us", st.p50_us)
                                .set("p95_us", st.p95_us)
                                .set("p99_us", st.p99_us)
                                .set("mean_us", st.mean_us)
                        })
                        .collect(),
                );
                Json::obj()
                    .set("id", id.as_str())
                    .set("mode", rec.mode().name())
                    .set("spans", rec.recorded())
                    .set("overwritten", rec.overwritten())
                    .set("line", rec.summary_line())
                    .set("stages", stages_json)
            })
            .collect();
        Response::ok(Json::obj().set("workloads", Json::Arr(items)))
    }

    /// GET /trace/{id} — resolve one retained trace id to its full stage
    /// breakdown plus journal events correlated with the request: events
    /// explicitly tagged `trace_id=<id>` (deadlock victims, crashes), or
    /// events whose timestamp falls inside the span's lifetime.
    fn trace_detail(&self, id_hex: &str) -> Response {
        let Some(id) = bp_obs::parse_trace_id(id_hex) else {
            return Response::error(
                400,
                &format!("invalid trace id {id_hex}: expected 1-16 hex digits"),
            );
        };
        let found = self.workloads.read().iter().find_map(|(wid, c)| {
            let span = c.spans().find_trace(id)?;
            Some((wid.clone(), span, c.clone()))
        });
        let Some((wid, span, c)) = found else {
            return Response::error(
                404,
                &format!("trace {id_hex} not retained (never sampled, or evicted)"),
            );
        };
        let stages = Stage::ALL.map(|stage| (stage.name(), span.stage_us(stage)));
        let dominant = stages.iter().max_by_key(|(_, us)| *us).map_or("queue", |(name, _)| *name);
        // The span and the journal read the database's clock: an untagged
        // event belongs to the span when it was stamped within its life.
        let life = span.submitted_us..=span.end_us;
        let hex = bp_obs::format_trace_id(id);
        let mut events: Vec<Json> = c
            .journal()
            .all()
            .into_iter()
            .filter(|e| {
                let tagged = e.field("trace_id") == Some(hex.as_str());
                tagged || life.contains(&e.ts_us)
            })
            .map(|e| e.to_json())
            .collect();
        if events.len() > TRACE_EVENT_CAP {
            events.drain(..events.len() - TRACE_EVENT_CAP);
        }
        Response::ok(
            span.to_json()
                .set("workload", wid.as_str())
                .set("node", c.node_id())
                .set("total_us", span.total_us())
                .set(
                    "stages",
                    Json::Arr(
                        stages
                            .iter()
                            .map(|(name, us)| Json::obj().set("stage", *name).set("us", *us))
                            .collect(),
                    ),
                )
                .set("dominant_stage", dominant)
                .set("events", Json::Arr(events)),
        )
    }

    fn all_status(&self) -> Response {
        let map = self.workloads.read();
        let items: Vec<Json> = map
            .iter()
            .map(|(id, c)| {
                Json::obj()
                    .set("id", id.as_str())
                    .set("benchmark", c.workload_name())
                    .set("paused", c.is_paused())
                    .set("stopped", c.is_stopped())
                    .set("status", status_json(&c.status()))
            })
            .collect();
        Response::ok(Json::obj().set("workloads", Json::Arr(items)))
    }

    fn workload_status(&self, id: &str) -> Response {
        let Some(c) = self.controller(id) else {
            return Response::error(404, &format!("unknown workload {id}"));
        };
        let mixture = c.current_mixture();
        let breaker = match c.breaker() {
            Some(b) => Json::obj()
                .set("state", b.state().name())
                .set("shed", b.shed_total()),
            None => Json::Null,
        };
        Response::ok(
            Json::obj()
                .set("id", id)
                .set("breaker", breaker)
                .set("benchmark", c.workload_name())
                .set("rate", rate_json(c.current_rate()))
                .set("mixture", mixture.weights().to_vec())
                .set(
                    "transaction_types",
                    Json::Arr(
                        c.transaction_types()
                            .iter()
                            .map(|t| Json::Str(t.name.to_string()))
                            .collect(),
                    ),
                )
                .set("paused", c.is_paused())
                .set("stopped", c.is_stopped())
                .set("backlog", c.backlog() as u64)
                .set("status", status_json(&c.status())),
        )
    }

    fn workload_action(&self, id: &str, action: &str, req: &Request) -> Response {
        let Some(c) = self.controller(id) else {
            return Response::error(404, &format!("unknown workload {id}"));
        };
        let body = req.body.clone().unwrap_or(Json::Null);
        match action {
            "rate" => {
                // {"tps": 500} or {"rate": "unlimited" | "disabled" | 500}
                let rate = match (body.get("tps"), body.get("rate")) {
                    (Some(Json::Num(tps)), _) | (_, Some(Json::Num(tps))) => Rate::limited(*tps),
                    (_, Some(Json::Str(s))) => Rate::parse(s),
                    _ => None,
                };
                match rate {
                    Some(r) => {
                        c.set_rate(r);
                        self.workload_status(id)
                    }
                    None => Response::error(
                        400,
                        "body must contain tps or rate: a finite non-negative number, \
                         \"unlimited\" or \"disabled\"",
                    ),
                }
            }
            "mixture" => {
                // {"weights":[...]} or {"preset":"read_only"}
                if let Some(weights) = body.get("weights").and_then(Json::as_arr) {
                    let w: Option<Vec<f64>> = weights.iter().map(Json::as_f64).collect();
                    match w {
                        Some(w) => match c.set_mixture(w) {
                            Ok(()) => self.workload_status(id),
                            Err(e) => Response::error(400, &e.to_string()),
                        },
                        None => Response::error(400, "weights must be numbers"),
                    }
                } else if let Some(name) = body.get("preset").and_then(Json::as_str) {
                    match MixturePreset::by_name(name) {
                        Some(p) => {
                            c.set_preset(p);
                            self.workload_status(id)
                        }
                        None => Response::error(400, &format!("unknown preset {name}")),
                    }
                } else {
                    Response::error(400, "body must contain weights or preset")
                }
            }
            "pause" => {
                c.pause();
                self.workload_status(id)
            }
            "resume" => {
                c.resume();
                self.workload_status(id)
            }
            "stop" => {
                c.journal().emit_with(Severity::Info, "api", "run_stop", || {
                    (
                        format!("workload {id} stopped via API"),
                        vec![("workload", id.to_string())],
                    )
                });
                c.stop();
                self.workload_status(id)
            }
            "reset" => {
                // The game-over path: halt the benchmark, reset the DB.
                c.journal().emit_with(Severity::Warn, "api", "run_stop", || {
                    (
                        format!("workload {id} halted and reset via API"),
                        vec![("workload", id.to_string()), ("crash", "reset".to_string())],
                    )
                });
                let dropped = c.halt_and_reset();
                Response::ok(Json::obj().set("halted", true).set("dropped_requests", dropped))
            }
            other => Response::error(404, &format!("unknown action {other}")),
        }
    }

    fn add_workload(&self, req: &Request) -> Response {
        let Some(launcher) = &self.launcher else {
            return Response::error(501, "no launcher configured");
        };
        let body = req.body.clone().unwrap_or(Json::Null);
        let Some(benchmark) = body.get("benchmark").and_then(Json::as_str) else {
            return Response::error(400, "body must contain benchmark");
        };
        let id = body
            .get("id")
            .and_then(Json::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| {
                // The benchmark's name, else its first free `-n` suffix: an
                // id the caller did not choose must not collide.
                let existing = self.workload_ids();
                std::iter::once(benchmark.to_string())
                    .chain((1..).map(|n| format!("{benchmark}-{n}")))
                    .find(|id| !existing.contains(id))
                    .expect("some suffix is free")
            });
        if self.controller(&id).is_some() {
            return Response::error(409, &format!("workload {id} already exists"));
        }
        match launcher.launch(benchmark, &body) {
            Ok(controller) => {
                self.register(&id, controller);
                self.workload_status(&id)
            }
            Err(e) => Response::error(400, &e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::{ControlState, Mixture, RequestQueue, StatsCollector, TransactionType};
    use bp_storage::{Database, Personality};
    use bp_util::clock::sim_clock;

    fn controller() -> Controller {
        controller_on(sim_clock().1)
    }

    /// A controller whose run and database share `clock`.
    fn controller_on(clock: bp_util::clock::SharedClock) -> Controller {
        let types = vec![
            TransactionType::new("Read", 60.0, true),
            TransactionType::new("Write", 40.0, false),
        ];
        let mixture = Mixture::default_of(&types);
        let state = ControlState::new(Rate::Limited(100.0), mixture, 10_000.0);
        let queue = Arc::new(RequestQueue::new(clock.clone()));
        let stats = Arc::new(StatsCollector::new(clock.clone(), &["Read", "Write"]));
        let db = Database::with_clock(Personality::test(), clock);
        let spans = Arc::new(bp_obs::SpanRecorder::new(bp_obs::ObsConfig::default()));
        Controller::new(state, queue, stats, spans, db, types, "demo")
    }

    fn server() -> ApiServer {
        let s = ApiServer::new();
        s.register("demo", controller());
        s
    }

    #[test]
    fn list_workloads() {
        let s = server();
        let r = s.handle(&Request::get("/workloads"));
        assert!(r.is_ok());
        assert_eq!(r.body, Json::Arr(vec![Json::Str("demo".into())]));
    }

    /// Listings are in id order, whatever order the workloads registered in.
    #[test]
    fn status_lists_workloads_in_id_order() {
        let s = ApiServer::new();
        for id in ["b", "a", "c"] {
            s.register(id, controller());
        }
        let r = s.handle(&Request::get("/status"));
        assert!(r.is_ok(), "{r:?}");
        let ids: Vec<&str> = r.body.get("workloads").unwrap().as_arr().unwrap()
            .iter()
            .map(|w| w.get("id").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(ids, ["a", "b", "c"]);
        assert_eq!(s.workload_ids(), ["a", "b", "c"]);
    }

    #[test]
    fn get_status() {
        let s = server();
        let r = s.handle(&Request::get("/workloads/demo"));
        assert!(r.is_ok());
        assert_eq!(r.body.get("benchmark").unwrap().as_str(), Some("demo"));
        assert_eq!(r.body.get("rate").unwrap().as_f64(), Some(100.0));
        assert!(r.body.get("status").unwrap().get("throughput").is_some());
    }

    #[test]
    fn throttle_rate() {
        let s = server();
        let r = s.handle(&Request::post("/workloads/demo/rate", Json::obj().set("tps", 750.0)));
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(r.body.get("rate").unwrap().as_f64(), Some(750.0));
        let r = s.handle(&Request::post(
            "/workloads/demo/rate",
            Json::obj().set("rate", "unlimited"),
        ));
        assert_eq!(r.body.get("rate").unwrap().as_str(), Some("unlimited"));
    }

    #[test]
    fn rate_requires_body() {
        let s = server();
        let r = s.handle(&Request::post("/workloads/demo/rate", Json::obj()));
        assert_eq!(r.status, 400);
    }

    /// An infinite rate is refused, not handed to the schedule, whose plan
    /// for it would take the manager thread down.
    #[test]
    fn infinite_rate_is_refused_and_leaves_the_rate_alone() {
        let s = server();
        let rate = || s.controller("demo").unwrap().current_rate();
        let bodies = [r#"{"tps": 1e999}"#, r#"{"rate": 1e999}"#, r#"{"rate": "inf"}"#, r#"{"tps": -1}"#];
        for body in bodies {
            let r = s.handle(&Request::post("/workloads/demo/rate", Json::parse(body).unwrap()));
            assert_eq!(r.status, 400, "{body}: {r:?}");
            assert_eq!(rate(), Rate::Limited(100.0), "{body}");
        }
    }

    #[test]
    fn change_mixture_by_weights_and_preset() {
        let s = server();
        let r = s.handle(&Request::post(
            "/workloads/demo/mixture",
            Json::obj().set("weights", vec![10.0, 90.0]),
        ));
        assert!(r.is_ok(), "{r:?}");
        let mix = r.body.get("mixture").unwrap().as_arr().unwrap();
        assert_eq!(mix[1].as_f64(), Some(90.0));

        let r = s.handle(&Request::post(
            "/workloads/demo/mixture",
            Json::obj().set("preset", "read_only"),
        ));
        assert!(r.is_ok());
        let mix = r.body.get("mixture").unwrap().as_arr().unwrap();
        assert_eq!(mix[1].as_f64(), Some(0.0));
    }

    #[test]
    fn wrong_arity_mixture_rejected() {
        let s = server();
        let r = s.handle(&Request::post(
            "/workloads/demo/mixture",
            Json::obj().set("weights", vec![1.0]),
        ));
        assert_eq!(r.status, 400);
    }

    #[test]
    fn pause_resume_reset() {
        let s = server();
        let r = s.handle(&Request::post("/workloads/demo/pause", Json::obj()));
        assert_eq!(r.body.get("paused").unwrap().as_bool(), Some(true));
        let r = s.handle(&Request::post("/workloads/demo/resume", Json::obj()));
        assert_eq!(r.body.get("paused").unwrap().as_bool(), Some(false));
        let r = s.handle(&Request::post("/workloads/demo/reset", Json::obj()));
        assert!(r.is_ok());
        assert_eq!(r.body.get("halted").unwrap().as_bool(), Some(true));
    }

    /// Crash the workload's engine the same way the chaos layer does in
    /// production: arm `ServerCrash`, push one commit through it.
    fn crash_engine(db: &Arc<Database>) {
        use bp_chaos::{FaultKind, FaultPlan, FaultWindow};
        db.create_table(
            bp_storage::TableSchema::new(
                "crashed_t",
                vec![bp_storage::Column::new("id", bp_storage::DataType::Int)],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        let t = db.table("crashed_t").unwrap();
        db.chaos().arm(FaultPlan::new("crash", 1).with_window(FaultWindow::always(
            FaultKind::ServerCrash,
            1.0,
            0,
        )));
        let mut sess = db.session();
        sess.begin().unwrap();
        sess.insert(&t, vec![bp_storage::Value::Int(1)]).unwrap();
        assert_eq!(sess.commit(), Err(bp_storage::StorageError::Crashed));
        db.chaos().disarm();
        assert!(db.is_crashed());
    }

    #[test]
    fn healthz_always_ok() {
        let empty = ApiServer::new();
        let r = empty.handle(&Request::get("/healthz"));
        assert!(r.is_ok());
        assert_eq!(r.body.get("ok").unwrap().as_bool(), Some(true));
        // Still 200 with workloads registered — liveness never depends on them.
        let r = server().handle(&Request::get("/healthz"));
        assert!(r.is_ok());
    }

    #[test]
    fn readyz_tracks_registration_and_crash() {
        let s = ApiServer::new();
        let r = s.handle(&Request::get("/readyz"));
        assert_eq!(r.status, 503);
        assert_eq!(r.body.get("ready").unwrap().as_bool(), Some(false));
        assert_eq!(r.body.get("reason").unwrap().as_str(), Some("no workloads registered"));

        s.register("demo", controller());
        let r = s.handle(&Request::get("/readyz"));
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(r.body.get("ready").unwrap().as_bool(), Some(true));

        let db = s.controller("demo").unwrap().database().clone();
        crash_engine(&db);
        let r = s.handle(&Request::get("/readyz"));
        assert_eq!(r.status, 503);
        assert_eq!(r.body.get("reason").unwrap().as_str(), Some("engine crashed; awaiting recovery"));
        assert_eq!(r.body.get("crashed").unwrap().as_arr().unwrap().len(), 1);

        db.recover();
        let r = s.handle(&Request::get("/readyz"));
        assert!(r.is_ok());
        assert_eq!(r.body.get("ready").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn recovery_arm_status_disarm_roundtrip() {
        let s = server();
        // Arm with a fast poll; periodic checkpoints off.
        let r = s.handle(&Request::post(
            "/recovery",
            Json::obj().set("poll_ms", 1u64).set("checkpoint_ms", 0u64),
        ));
        assert!(r.is_ok(), "{r:?}");
        let sup = r.body.get("supervisor").unwrap();
        assert_eq!(sup.get("active").unwrap().as_bool(), Some(true));
        assert_eq!(sup.get("poll_us").unwrap().as_u64(), Some(1_000));
        assert_eq!(sup.get("checkpoint_us").unwrap().as_u64(), Some(0));

        // Crash the engine; the supervisor brings it back within a few polls.
        let db = s.controller("demo").unwrap().database().clone();
        crash_engine(&db);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while db.is_crashed() && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(!db.is_crashed(), "supervisor recovered the engine");
        // The tick counts its recovery once `recover()` has returned.
        while db.recovery_status().recoveries_run == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }

        let r = s.handle(&Request::get("/recovery/status"));
        assert!(r.is_ok());
        assert_eq!(r.body.get("workload").unwrap().as_str(), Some("demo"));
        assert_eq!(r.body.get("crashed").unwrap().as_bool(), Some(false));
        assert_eq!(r.body.get("crashes").unwrap().as_u64(), Some(1));
        assert_eq!(r.body.get("recoveries").unwrap().as_u64(), Some(1));
        assert_eq!(r.body.get("last_crashpoint").unwrap().as_str(), Some("before_append"));
        assert!(r.body.get("redo_bytes").unwrap().as_u64().is_some());
        let sup = r.body.get("supervisor").unwrap();
        assert_eq!(sup.get("recoveries_run").unwrap().as_u64(), Some(1));

        let r = s.handle(&Request {
            method: Method::Delete,
            path: "/recovery".into(),
            body: None,
        });
        assert!(r.is_ok());
        let sup = r.body.get("supervisor").unwrap();
        assert_eq!(sup.get("active").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn recovery_arm_validates_input() {
        let s = server();
        let r = s.handle(&Request::post("/recovery", Json::obj().set("poll_ms", 0u64)));
        assert_eq!(r.status, 400);
        // A millisecond count whose µs do not fit a u64 is refused by name,
        // not multiplied into a panic (debug) or a wrapped interval (release).
        for key in ["poll_ms", "checkpoint_ms"] {
            let r = s.handle(&Request::post("/recovery", Json::obj().set(key, 1e17)));
            assert_eq!(r.status, 400, "{key}: {r:?}");
            assert!(r.body.get("error").unwrap().as_str().unwrap().contains(key), "{r:?}");
        }
        let status = s.controller("demo").unwrap().database().recovery_status();
        assert_eq!(status.supervisor, None, "nothing was armed");
        let r = s.handle(&Request::post(
            "/recovery",
            Json::obj().set("workload", "ghost"),
        ));
        assert_eq!(r.status, 404);
        // No workloads at all: 404, same convention as /slo.
        let r = ApiServer::new().handle(&Request::get("/recovery/status"));
        assert_eq!(r.status, 404);
    }

    #[test]
    fn unknown_routes_404() {
        let s = server();
        assert_eq!(s.handle(&Request::get("/nope")).status, 404);
        assert_eq!(s.handle(&Request::get("/workloads/ghost")).status, 404);
        assert_eq!(
            s.handle(&Request::post("/workloads/demo/explode", Json::obj())).status,
            404
        );
    }

    #[test]
    fn add_workload_without_launcher_501() {
        let s = server();
        let r = s.handle(&Request::post("/workloads", Json::obj().set("benchmark", "voter")));
        assert_eq!(r.status, 501);
    }

    struct FakeLauncher;
    impl Launcher for FakeLauncher {
        fn available(&self) -> Vec<String> {
            vec!["demo2".into()]
        }
        fn launch(&self, benchmark: &str, _body: &Json) -> Result<Controller, String> {
            if benchmark == "demo2" {
                Ok(controller())
            } else {
                Err(format!("unknown benchmark {benchmark}"))
            }
        }
    }

    #[test]
    fn add_workload_on_the_fly() {
        let s = ApiServer::new().with_launcher(Arc::new(FakeLauncher));
        let r = s.handle(&Request::get("/benchmarks"));
        assert!(r.is_ok());
        let r = s.handle(&Request::post("/workloads", Json::obj().set("benchmark", "demo2")));
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(s.workload_ids(), vec!["demo2"]);
        // Duplicate id rejected.
        let r = s.handle(&Request::post(
            "/workloads",
            Json::obj().set("benchmark", "demo2").set("id", "demo2"),
        ));
        assert_eq!(r.status, 409);
        // Unknown benchmark surfaces launcher error.
        let r = s.handle(&Request::post("/workloads", Json::obj().set("benchmark", "ghost")));
        assert_eq!(r.status, 400);
    }

    /// A request that names no id gets one nobody holds, even when a caller
    /// took the `-n` suffix the workload count would have picked.
    #[test]
    fn add_workload_picks_a_free_id() {
        let s = ApiServer::new().with_launcher(Arc::new(FakeLauncher));
        let add = |body: Json| s.handle(&Request::post("/workloads", body));
        assert!(add(Json::obj().set("benchmark", "demo2")).is_ok());
        let r = add(Json::obj().set("benchmark", "demo2").set("id", "demo2-2"));
        assert!(r.is_ok(), "{r:?}");
        for _ in 0..2 {
            let r = add(Json::obj().set("benchmark", "demo2"));
            assert!(r.is_ok(), "auto id collided: {r:?}");
        }
        assert_eq!(s.workload_ids(), ["demo2", "demo2-1", "demo2-2", "demo2-3"]);
    }

    #[test]
    fn metrics_endpoint() {
        let r = ApiServer::new().handle(&Request::get("/metrics"));
        assert_eq!(r.status, 501, "no registry, no /metrics");
    }

    use bp_obs::{MetricsRegistry, Span, SpanOutcome};

    fn controller_with_spans() -> Controller {
        with_spans(controller())
    }

    /// `c` with three retained spans; span 1 lives from 100 to 350 µs.
    fn with_spans(c: Controller) -> Controller {
        for seq in 0..3u64 {
            c.spans().offer(Span {
                trace_id: bp_obs::trace_id(42, seq),
                seq,
                submitted_us: seq * 100,
                dequeued_us: seq * 100 + 50,
                end_us: seq * 100 + 250,
                lock_wait_us: 20,
                commit_us: 30,
                tenant: (seq % 2) as u16,
                phase: 0,
                txn_type: (seq % 2) as u16,
                retries: 0,
                outcome: if seq == 2 { SpanOutcome::Failed } else { SpanOutcome::Committed },
            });
        }
        c
    }

    #[test]
    fn metrics_prometheus_with_registry() {
        let reg = Arc::new(MetricsRegistry::new());
        let s = ApiServer::new().with_registry(reg.clone());
        s.register("demo", controller_with_spans());
        assert_eq!(
            reg.source_count(),
            7,
            "stats + queue + server + chaos + spans + journal + recovery"
        );
        let r = s.handle(&Request::get("/metrics"));
        assert!(r.is_ok());
        let (ctype, text) = r.raw.expect("raw payload");
        assert!(ctype.starts_with("text/plain"));
        assert!(text.contains("bp_server_commits_total"), "{text}");
        assert!(text.contains("bp_stage_latency_us_bucket"), "{text}");
        assert!(text.contains("bp_client_committed_total"), "{text}");
    }

    #[test]
    fn trace_spans_jsonl() {
        let s = ApiServer::new();
        s.register("demo", controller_with_spans());
        let r = s.handle(&Request::get("/trace/spans"));
        let (ctype, text) = r.raw.expect("raw payload");
        assert_eq!(ctype, JSONL_CONTENT_TYPE);
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            let j = Json::parse(line).expect("valid JSON line");
            assert_eq!(j.get("workload").unwrap().as_str(), Some("demo"));
            assert!(j.get("queue_us").is_some());
        }
        // ?last=N keeps only the newest N, oldest first.
        let r = s.handle(&Request::get("/trace/spans?last=1"));
        let (_, text) = r.raw.unwrap();
        assert_eq!(text.lines().count(), 1);
        let j = Json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(j.get("seq").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn trace_summary_reports_stages() {
        let s = ApiServer::new();
        s.register("demo", controller_with_spans());
        let r = s.handle(&Request::get("/trace/summary"));
        assert!(r.is_ok());
        let items = r.body.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].get("spans").unwrap().as_u64(), Some(3));
        let line = items[0].get("line").unwrap().as_str().unwrap().to_string();
        assert!(line.contains("spans=3"), "{line}");
        let stages = items[0].get("stages").unwrap().as_arr().unwrap();
        assert_eq!(stages.len(), 4);
        assert!(stages.iter().any(|st| st.get("stage").unwrap().as_str() == Some("queue")));
    }

    #[test]
    fn trace_spans_filters() {
        let s = ApiServer::new();
        s.register("demo", controller_with_spans());
        // outcome= keeps only matching spans (seq 2 is the lone failure).
        let r = s.handle(&Request::get("/trace/spans?outcome=failed"));
        let (_, text) = r.raw.expect("raw payload");
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(text.contains("\"seq\": 2") || text.contains("\"seq\":2"), "{text}");
        // tenant= filters on the issuing tenant (seqs 0 and 2 are tenant 0).
        let r = s.handle(&Request::get("/trace/spans?tenant=0"));
        let (_, text) = r.raw.expect("raw payload");
        assert_eq!(text.lines().count(), 2, "{text}");
        // min_us= is an end-to-end latency floor; every helper span takes
        // 250µs total, so 251 excludes all and 250 keeps all.
        let r = s.handle(&Request::get("/trace/spans?min_us=251"));
        assert_eq!(r.raw.as_ref().unwrap().1.lines().count(), 0);
        let r = s.handle(&Request::get("/trace/spans?min_us=250"));
        assert_eq!(r.raw.as_ref().unwrap().1.lines().count(), 3);
        // Filters compose.
        let r = s.handle(&Request::get("/trace/spans?outcome=committed&tenant=0"));
        assert_eq!(r.raw.as_ref().unwrap().1.lines().count(), 1);
    }

    #[test]
    fn trace_detail_resolves_and_404s() {
        let s = ApiServer::new();
        s.register("demo", controller_with_spans());
        let hex = bp_obs::format_trace_id(bp_obs::trace_id(42, 1));
        let r = s.handle(&Request::get(&format!("/trace/{hex}")));
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(r.body.get("trace_id").unwrap().as_str(), Some(hex.as_str()));
        assert_eq!(r.body.get("workload").unwrap().as_str(), Some("demo"));
        assert_eq!(r.body.get("seq").unwrap().as_u64(), Some(1));
        assert_eq!(r.body.get("total_us").unwrap().as_u64(), Some(250));
        let stages = r.body.get("stages").unwrap().as_arr().unwrap();
        assert_eq!(stages.len(), 4);
        let sum: u64 = stages.iter().map(|st| st.get("us").unwrap().as_u64().unwrap()).sum();
        // queue 50 + lock 20 + exec 150 + commit 30 = end-to-end 250.
        assert_eq!(sum, 250);
        // exec = 200 − 20 − 30 = 150 dominates.
        assert_eq!(r.body.get("dominant_stage").unwrap().as_str(), Some("exec"));
        // Unknown-but-valid id is a 404; garbage is a 400.
        let r = s.handle(&Request::get("/trace/deadbeef"));
        assert_eq!(r.status, 404, "{r:?}");
        let r = s.handle(&Request::get("/trace/nothex!"));
        assert_eq!(r.status, 400, "{r:?}");
        assert!(r.body.get("error").unwrap().as_str().unwrap().contains("invalid"));

        // Spans and events on the database's clock: an untagged event is
        // the span's when stamped within its life, and not 1 µs after it.
        let (sim, clock) = sim_clock();
        let c = with_spans(controller_on(clock));
        let s = ApiServer::new();
        s.register("demo", c.clone());
        sim.advance_to(350);
        c.journal().emit(Severity::Info, "storage", "at_end", "stamped at end_us");
        sim.advance_to(351);
        c.journal().emit(Severity::Info, "storage", "after_end", "stamped 1 µs after end_us");
        let r = s.handle(&Request::get(&format!("/trace/{hex}")));
        let events = r.body.get("events").unwrap().as_arr().unwrap();
        let kinds: Vec<_> = events.iter().map(|e| e.get("kind").unwrap().as_str().unwrap()).collect();
        assert_eq!(kinds, ["at_end"]);
    }

    #[test]
    fn chaos_arm_status_disarm_roundtrip() {
        let s = server();
        // Status while disarmed.
        let r = s.handle(&Request::get("/chaos/status"));
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(r.body.get("armed").unwrap().as_bool(), Some(false));
        // Arm a named scenario with an explicit seed.
        let r = s.handle(&Request::post(
            "/chaos",
            Json::obj().set("scenario", "error-burst").set("seed", 7u64),
        ));
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(r.body.get("armed").unwrap().as_bool(), Some(true));
        assert_eq!(r.body.get("plan").unwrap().as_str(), Some("error-burst"));
        assert_eq!(r.body.get("seed").unwrap().as_u64(), Some(7));
        // Unknown scenario is a 400 listing the known names.
        let r = s.handle(&Request::post("/chaos", Json::obj().set("scenario", "nope")));
        assert_eq!(r.status, 400);
        assert!(r.body.get("error").unwrap().as_str().unwrap().contains("error-burst"));
        // Empty body is a 400.
        let r = s.handle(&Request::post("/chaos", Json::obj()));
        assert_eq!(r.status, 400);
        // Disarm via DELETE.
        let r = s.handle(&Request {
            method: Method::Delete,
            path: "/chaos".into(),
            body: None,
        });
        assert!(r.is_ok());
        assert_eq!(r.body.get("armed").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn chaos_inline_plan_and_disarm_body() {
        let s = server();
        let plan = Json::obj().set("name", "custom").set("seed", 3u64).set(
            "windows",
            Json::Arr(vec![Json::obj()
                .set("kind", "injected_error")
                .set("intensity", 1.0)]),
        );
        let r = s.handle(&Request::post("/chaos", Json::obj().set("plan", plan)));
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(r.body.get("plan").unwrap().as_str(), Some("custom"));
        let r = s.handle(&Request { method: Method::Delete, path: "/chaos".into(), body: None });
        assert!(r.is_ok());
        assert_eq!(r.body.get("armed").unwrap().as_bool(), Some(false));
        // Malformed inline plan.
        let r = s.handle(&Request::post(
            "/chaos",
            Json::obj().set("plan", Json::obj().set("seed", 1u64)),
        ));
        assert_eq!(r.status, 400);
    }

    /// `/chaos` addresses a workload the way `/slo` does: the named one's
    /// engine is armed and the first registered one's is left alone.
    #[test]
    fn chaos_arms_the_addressed_workloads_engine() {
        let s = ApiServer::new();
        s.register("a", controller());
        s.register("b", controller());
        let armed = |id: &str| s.controller(id).unwrap().chaos().status().armed;
        let arm = Json::obj().set("scenario", "error-burst");
        let r = s.handle(&Request::post("/chaos?workload=b", arm.clone()));
        assert!(r.is_ok(), "{r:?}");
        assert!(armed("b") && !armed("a"));
        let r = s.handle(&Request::get("/chaos/status?workload=a"));
        assert_eq!(r.body.get("armed").unwrap().as_bool(), Some(false));
        let r = s.handle(&Request::post("/chaos", arm.set("workload", "ghost")));
        assert_eq!(r.status, 404, "{r:?}");
        let delete = Request { method: Method::Delete, path: "/chaos?workload=b".into(), body: None };
        assert!(s.handle(&delete).is_ok());
        assert!(!armed("b"));
        // Nothing registered: nothing to arm.
        assert_eq!(ApiServer::new().handle(&Request::get("/chaos/status")).status, 404);
    }

    #[test]
    fn status_reports_shed_and_breaker() {
        let s = server();
        let r = s.handle(&Request::get("/workloads/demo"));
        assert!(r.is_ok());
        // No breaker configured on this controller.
        assert_eq!(r.body.get("breaker"), Some(&Json::Null));
        assert_eq!(r.body.get("status").unwrap().get("shed").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn trace_endpoints_over_an_empty_recorder_are_empty() {
        let s = ApiServer::new();
        s.register("demo", controller()); // its recorder holds no span
        let r = s.handle(&Request::get("/trace/spans?last=5"));
        assert_eq!(r.raw.unwrap().1, "");
        let r = s.handle(&Request::get("/trace/summary"));
        let workloads = r.body.get("workloads").unwrap().as_arr().unwrap().to_vec();
        assert_eq!(workloads.len(), 1, "{workloads:?}");
        assert_eq!(workloads[0].get("spans").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn events_endpoint_merges_journal() {
        let s = server(); // register() journals a run_start
        let r = s.handle(&Request::get("/events"));
        assert!(r.is_ok(), "{r:?}");
        let events = r.body.get("events").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());
        assert!(
            events.iter().any(|e| e.get("kind").unwrap().as_str() == Some("run_start")),
            "{events:?}"
        );
        // Severity filter: nothing at error level yet.
        let r = s.handle(&Request::get("/events?severity=error"));
        assert_eq!(r.body.get("count").unwrap().as_u64(), Some(0));
        // Stop journals a run_stop; last=1 keeps only the newest.
        s.handle(&Request::post("/workloads/demo/stop", Json::obj()));
        let r = s.handle(&Request::get("/events?last=1"));
        let events = r.body.get("events").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("kind").unwrap().as_str(), Some("run_stop"));
    }

    #[test]
    fn malformed_query_params_are_400_not_silent_defaults() {
        let s = server();
        for q in [
            "/events?last=abc",
            "/events?last=-1",
            "/events?last=1e3",
            "/events?last=99999999999999999999999999",
            "/events?severity=loud",
            "/trace/spans?last=half",
            "/trace/spans?outcome=exploded",
            "/trace/spans?tenant=-3",
            "/trace/spans?tenant=70000",
            "/trace/spans?min_us=soon",
        ] {
            let r = s.handle(&Request::get(q));
            assert_eq!(r.status, 400, "{q} -> {r:?}");
            assert!(
                r.body.get("error").unwrap().as_str().unwrap().contains("invalid"),
                "{q} -> {r:?}"
            );
        }
    }

    #[test]
    fn report_and_doctor_endpoints() {
        let s = ApiServer::new();
        let rec = Arc::new(bp_obs::TelemetryRecorder::new(1_000_000));
        for i in 0..5u64 {
            rec.record(bp_obs::TelemetrySample {
                t_us: i * 1_000_000,
                rate: f64::INFINITY,
                throughput: 100.0,
                p50_us: 1_000,
                p99_us: 2_000,
                commits: 100,
                ..Default::default()
            });
        }
        s.register("demo", controller().with_recorder(rec));
        let r = s.handle(&Request::get("/report"));
        let (ctype, text) = r.raw.expect("raw payload");
        assert!(ctype.starts_with("text/plain"));
        assert!(text.starts_with("#bp-report v2"), "{text}");
        let parsed = bp_obs::Report::from_text(&text).expect("report round-trips");
        assert_eq!(parsed.samples.len(), 5);
        assert!(!parsed.events.is_empty(), "run_start is in the report");
        let r = s.handle(&Request::get("/doctor"));
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(r.body.get("samples").unwrap().as_u64(), Some(5));
        assert!(r.body.get("findings").unwrap().as_arr().is_some());
        // Controllers without a recorder (and unknown workloads) are 404s.
        let bare = server();
        assert_eq!(bare.handle(&Request::get("/report")).status, 404);
        assert_eq!(bare.handle(&Request::get("/doctor")).status, 404);
        assert_eq!(s.handle(&Request::get("/report?workload=ghost")).status, 404);
    }

    #[test]
    fn slo_arm_status_disarm_roundtrip() {
        let s = server();
        // Status before arming: inactive, no target.
        let r = s.handle(&Request::get("/slo/status"));
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(r.body.get("active").unwrap().as_bool(), Some(false));
        assert_eq!(r.body.get("target").unwrap().as_str(), Some("none"));
        // Arm a p99 target.
        let r = s.handle(&Request::post(
            "/slo",
            Json::obj()
                .set("target", "p99")
                .set("limit_ms", 20.0)
                .set("initial_rate", 500.0)
                .set("min_rate", 50.0),
        ));
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(r.body.get("workload").unwrap().as_str(), Some("demo"));
        assert_eq!(r.body.get("active").unwrap().as_bool(), Some(true));
        assert_eq!(r.body.get("target").unwrap().as_str(), Some("p99"));
        assert_eq!(r.body.get("limit_us").unwrap().as_u64(), Some(20_000));
        assert!(r.body.get("law").is_none(), "one law: the status does not name it");
        assert_eq!(r.body.get("rate").unwrap().as_f64(), Some(500.0));
        // Status mirrors the armed config; with no traffic the loop holds.
        let r = s.handle(&Request::get("/slo/status?workload=demo"));
        assert!(r.is_ok());
        assert_eq!(r.body.get("active").unwrap().as_bool(), Some(true));
        assert_eq!(r.body.get("rate").unwrap().as_f64(), Some(500.0));
        assert!(r.body.get("adjustments").unwrap().get("increase").is_some());
        // Disarm.
        let r = s.handle(&Request {
            method: Method::Delete,
            path: "/slo".into(),
            body: None,
        });
        assert!(r.is_ok());
        assert_eq!(r.body.get("active").unwrap().as_bool(), Some(false));
    }

    /// `controller()` runs on a `SimClock`, whose `sleep` returns at once: a
    /// loop paced by the injected clock spins there (thousands of ticks in
    /// 100 ms). `Periodic` waits out wall time whatever clock the run has,
    /// and a disarm returns only once the thread — and with it the tick's
    /// clone of the SLO handle, or the supervisor's weak handle on the
    /// database, counted here by their `Arc`s — is gone.
    #[test]
    fn slo_and_recovery_loops_neither_spin_nor_outlive_disarm() {
        let s = server();
        let c = s.controller("demo").unwrap();
        let delete = |path: &str| Request { method: Method::Delete, path: path.into(), body: None };
        let (slo_refs, db_refs) = (Arc::strong_count(c.slo()), Arc::weak_count(c.database()));

        assert!(s.handle(&Request::post("/slo", Json::obj())).is_ok());
        let r = s.handle(&Request::post("/recovery", Json::obj().set("poll_ms", 60_000u64)));
        assert!(r.is_ok(), "{r:?}");
        assert!(Arc::strong_count(c.slo()) > slo_refs, "bp-slo thread holds the controller");
        assert_eq!(Arc::weak_count(c.database()), db_refs + 1, "bp-recovery holds the database");
        std::thread::sleep(std::time::Duration::from_millis(100));
        let slo_ticks = c.slo().status().ticks;
        assert!(slo_ticks <= 2, "{slo_ticks} SLO ticks in 100 ms at a 200 ms tick");
        let polls = c.database().recovery_status().ticks;
        assert!(polls <= 2, "{polls} polls in 100 ms");

        assert!(s.handle(&delete("/slo")).is_ok());
        assert_eq!(Arc::strong_count(c.slo()), slo_refs, "bp-slo thread left behind");
        assert!(s.handle(&delete("/recovery")).is_ok());
        assert_eq!(Arc::weak_count(c.database()), db_refs, "bp-recovery thread left behind");
    }

    #[test]
    fn slo_validation_and_unknown_workload() {
        let s = server();
        let r = s.handle(&Request::post("/slo", Json::obj().set("target", "p42")));
        assert_eq!(r.status, 400);
        assert!(r.body.get("error").unwrap().as_str().unwrap().contains("p99"));
        let r = s.handle(&Request::post("/slo", Json::obj().set("law", "pid")));
        assert_eq!(r.status, 400);
        assert!(r.body.get("error").unwrap().as_str().unwrap().contains("AIMD"), "{r:?}");
        let r = s.handle(&Request::post("/slo", Json::obj().set("backoff", 1.5)));
        assert_eq!(r.status, 400);
        let r = s.handle(&Request::post("/slo", Json::obj().set("limit_ms", -3.0)));
        assert_eq!(r.status, 400);
        let r = s.handle(&Request::post(
            "/slo",
            Json::obj().set("min_rate", 100.0).set("max_rate", 10.0),
        ));
        assert_eq!(r.status, 400);
        let r = s.handle(&Request::post("/slo", Json::obj().set("workload", "ghost")));
        assert_eq!(r.status, 404);
        // No workloads registered at all.
        let empty = ApiServer::new();
        assert_eq!(empty.handle(&Request::get("/slo/status")).status, 404);
        assert_eq!(empty.handle(&Request::post("/slo", Json::obj())).status, 404);
    }

    #[test]
    fn slo_arm_registers_metrics_source() {
        let reg = Arc::new(MetricsRegistry::new());
        let s = ApiServer::new().with_registry(reg.clone());
        s.register("demo", controller());
        let base = reg.source_count();
        let r = s.handle(&Request::post("/slo", Json::obj().set("target", "max-throughput")));
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(reg.source_count(), base + 1);
        assert!(reg.source_names().iter().any(|n| n == "slo:demo"), "{:?}", reg.source_names());
        // Re-arming reuses the same handle: no duplicate source.
        let r = s.handle(&Request::post("/slo", Json::obj().set("target", "p50")));
        assert!(r.is_ok());
        assert_eq!(reg.source_count(), base + 1);
        let text = reg.render_prometheus();
        assert!(text.contains("bp_slo_active"), "{text}");
        assert!(text.contains("bp_slo_current_rate"), "{text}");
        let r = s.handle(&Request {
            method: Method::Delete,
            path: "/slo".into(),
            body: None,
        });
        assert!(r.is_ok());
    }
}
