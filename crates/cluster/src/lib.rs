//! `bp-cluster`: multi-node coordination for the BenchPress testbed.
//!
//! OLTP-Bench scales out by running one driver process per client machine;
//! the paper's dynamic control story (throttle, mixture, SLO) then has to
//! reach *all* of them. This crate closes that gap over the existing
//! std-only HTTP stack with two roles:
//!
//! * **Agent** ([`start_agent`]) — the familiar single-node stack
//!   (workload + [`bp_core::Controller`] + [`bp_api::ApiServer`]) that
//!   heartbeats its address and windowed latency/throughput — the first
//!   heartbeat is its join — and applies the rate share each response
//!   carries. It serves nothing cluster-specific.
//! * **Coordinator** ([`ClusterCoordinator`]) — the membership authority.
//!   It tracks agents through a joined → suspect → dead missed-heartbeat
//!   state machine ([`MembershipTable`]), splits the fleet-wide rate by
//!   observed per-node capacity (each node pulls its share with its next
//!   heartbeat), fans operator commands (mixture, pause/resume/stop, chaos)
//!   out to live agents' own routes, merges
//!   the `GET /metrics` pages they serve (read through
//!   [`bp_obs::parse_samples`]) into one deduped Prometheus exposition on
//!   `GET /cluster/metrics`, and can run the node's SLO loop
//!   ([`bp_core::SloHandle`]) fleet-wide on the merged windowed latency.
//!
//! The coordinator is a [`bp_api::RouteExtension`] mounted on an
//! [`bp_api::ApiServer`] (`ApiServer::mount`), so bp-api stays ignorant of
//! bp-cluster and the coordinator can share a process with anything else
//! the API server hosts. Everything — transport included — remains
//! std-only.

pub mod agent;
pub mod coordinator;
pub mod member;

pub use agent::{start_agent, AgentConfig};
pub use coordinator::{ClusterCoordinator, CoordinatorConfig, FANOUT_TIMEOUT};
pub use member::{Admission, Member, MembershipTable, NodeState};
