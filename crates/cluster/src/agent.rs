//! The cluster agent: one per benchmark node.
//!
//! An agent is just the existing single-node stack — a workload under a
//! [`bp_core::Controller`] behind a [`bp_api::ApiServer`] — plus a
//! background thread that sends the coordinator one message every
//! interval, `POST /cluster/heartbeat {node, addr, window}`, and applies
//! the rate share the response carries. The first heartbeat the
//! coordinator sees from a node is its join, so a restarted coordinator
//! re-learns the fleet, addresses included, within one interval. The agent
//! serves nothing cluster-specific: the coordinator reads the node's own
//! `GET /metrics` and drives its own `/workloads/<node>/…` and `/chaos`
//! routes.
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

/// Start the agent thread, which heartbeats every period. The coordinator
/// may come up after its agents: a beat it misses is simply lost, and the
/// next one joins. The returned handle owns the thread.
///
/// The `controller` must be registered on the node's API server under
/// `cfg.node` — that's where the coordinator sends operator commands
/// (`/workloads/<node>/…`) — and that server must serve `GET /metrics`,
/// which the coordinator merges.
pub fn start_agent(cfg: AgentConfig, controller: Controller) -> Periodic {
    let period_us = cfg.heartbeat.as_micros() as u64;
    Periodic::spawn(format!("bp-agent-{}", cfg.node), period_us, move || {
        heartbeat_once(&cfg, &controller);
        true
    })
}

/// Report this node's address and latency window to the coordinator and
/// apply the rate share it answers with.
fn heartbeat_once(cfg: &AgentConfig, controller: &Controller) {
    // A crashed engine cannot serve its share of the fleet's load; going
    // silent is how this node tells the coordinator so.
    if controller.database().is_crashed() {
        return;
    }
    let mut window = controller.stats().window_snapshot(cfg.window_s).to_json();
    // Slowest recently retained trace: the exemplar the coordinator can
    // cite if this node turns out to be the fleet's straggler.
    let spans = controller.spans().recent(64);
    if let Some(s) = spans.iter().filter(|s| s.trace_id != 0).max_by_key(|s| s.total_us()) {
        window = window.set("slow_trace", bp_obs::format_trace_id(s.trace_id).as_str());
    }
    let body = Json::obj()
        .set("node", cfg.node.as_str())
        .set("addr", cfg.advertise.to_string().as_str())
        .set("window", window);
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

/// Apply the coordinator's assigned rate share, if the response carries a
/// valid one ([`Rate::limited`]: finite and ≥ 0, so a share of 0 stops the
/// node) and it differs from what we're already running.
fn apply_assigned_rate(controller: &Controller, resp: &Json) {
    let Some(share) = resp.get("assigned_rate").and_then(Json::as_f64).and_then(Rate::limited)
    else {
        return;
    };
    if controller.current_rate() != share {
        controller.set_rate(share);
    }
}
