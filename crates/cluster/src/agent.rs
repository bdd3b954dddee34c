//! The cluster agent: one per benchmark node.
//!
//! An agent is just the existing single-node stack — a workload under a
//! [`bp_core::Controller`] behind a [`bp_api::ApiServer`] — plus a
//! background heartbeat thread that joins the coordinator (with retry),
//! reports the controller's windowed latency/throughput every interval,
//! and applies the rate share the coordinator assigns. It serves nothing
//! cluster-specific: the coordinator reads the node's own `GET /metrics`
//! and drives its own `/workloads/<node>/…` and `/chaos` routes.
//!
//! Crash semantics: while the node's storage engine is crashed
//! (`database().is_crashed()` — e.g. a chaos `ServerCrash`), the agent
//! *stops heartbeating*. A node that cannot commit is dead to the fleet,
//! so the coordinator's missed-heartbeat detector declares it suspect and
//! then dead, and traffic re-splits to the survivors — no special kill RPC
//! needed.

use std::net::SocketAddr;
use std::time::Duration;

use bp_api::http::http_request_timeout;
use bp_core::{Controller, Rate};
use bp_obs::Severity;
use bp_util::json::Json;
use bp_util::Periodic;

use crate::coordinator::FANOUT_TIMEOUT;

/// How an agent reaches its coordinator and identifies itself.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Node id; becomes the workload id on this agent's API server and the
    /// member id in the coordinator's table.
    pub node: String,
    /// Coordinator control address.
    pub coordinator: SocketAddr,
    /// This agent's own control address, as the coordinator should dial it.
    pub advertise: SocketAddr,
    /// Heartbeat period.
    pub heartbeat: Duration,
    /// Seconds of history the reported latency window covers.
    pub window_s: usize,
}

impl AgentConfig {
    pub fn new(node: &str, coordinator: SocketAddr, advertise: SocketAddr) -> AgentConfig {
        AgentConfig {
            node: node.to_string(),
            coordinator,
            advertise,
            heartbeat: Duration::from_millis(200),
            window_s: 2,
        }
    }

    pub fn with_heartbeat(mut self, heartbeat: Duration) -> AgentConfig {
        self.heartbeat = heartbeat;
        self
    }
}

/// Start the agent thread, which every heartbeat period tries to join the
/// coordinator until that succeeds (the coordinator may come up after its
/// agents) and from then on reports a heartbeat. The returned handle owns
/// the thread.
///
/// The `controller` must be registered on the node's API server under
/// `cfg.node` — that's the path (`/workloads/<node>/rate`) the coordinator
/// pushes rate shares to — and that server must serve `GET /metrics`,
/// which the coordinator merges.
pub fn start_agent(cfg: AgentConfig, controller: Controller) -> Periodic {
    let mut joined = false;
    let period_us = cfg.heartbeat.as_micros() as u64;
    Periodic::spawn(format!("bp-agent-{}", cfg.node), period_us, move || {
        if joined {
            heartbeat_once(&cfg, &controller);
        } else {
            joined = join_once(&cfg, &controller);
        }
        true
    })
}

/// One join attempt; `true` once the coordinator has admitted this node.
fn join_once(cfg: &AgentConfig, controller: &Controller) -> bool {
    let body = Json::obj()
        .set("node", cfg.node.as_str())
        .set("addr", cfg.advertise.to_string().as_str());
    let Ok((200, resp)) =
        http_request_timeout(cfg.coordinator, "POST", "/cluster/join", Some(&body), FANOUT_TIMEOUT)
    else {
        return false;
    };
    apply_assigned_rate(controller, &resp);
    controller.journal().emit_with(Severity::Info, "cluster", "node_join", || {
        (
            format!("joined coordinator {} as {}", cfg.coordinator, cfg.node),
            vec![("node", cfg.node.clone())],
        )
    });
    true
}

/// Report this node's latency window to the coordinator and apply the rate
/// share it answers with.
fn heartbeat_once(cfg: &AgentConfig, controller: &Controller) {
    // A crashed engine cannot serve its share of the fleet's load; going
    // silent is how this node tells the coordinator so.
    if controller.database().is_crashed() {
        return;
    }
    let w = controller.stats().window_snapshot(cfg.window_s);
    // Slowest recently retained trace: the exemplar the coordinator can
    // cite if this node turns out to be the fleet's straggler.
    let slow_trace = controller.spans().and_then(|rec| {
        rec.recent(64)
            .into_iter()
            .filter(|s| s.trace_id != 0)
            .max_by_key(|s| s.total_us())
            .map(|s| s.trace_id)
    });
    let mut window = Json::obj()
        .set("count", w.count)
        .set("p50_us", w.p50_us)
        .set("p99_us", w.p99_us)
        .set("throughput", w.throughput);
    if let Some(tid) = slow_trace {
        window = window.set("slow_trace", bp_obs::format_trace_id(tid).as_str());
    }
    let body = Json::obj().set("node", cfg.node.as_str()).set("window", window);
    // Coordinator down or unreachable: keep trying — membership recovery is
    // its problem, not ours.
    if let Ok((200, resp)) = http_request_timeout(
        cfg.coordinator,
        "POST",
        "/cluster/heartbeat",
        Some(&body),
        FANOUT_TIMEOUT,
    ) {
        apply_assigned_rate(controller, &resp);
    }
}

/// Apply the coordinator's assigned rate share, if the response carries one
/// and it differs from what we're already running.
fn apply_assigned_rate(controller: &Controller, resp: &Json) {
    let Some(tps) = resp.get("assigned_rate").and_then(Json::as_f64) else {
        return;
    };
    if !tps.is_finite() || tps <= 0.0 {
        return;
    }
    match controller.current_rate() {
        Rate::Limited(cur) if (cur - tps).abs() < 1e-9 => {}
        _ => controller.set_rate(Rate::Limited(tps)),
    }
}
