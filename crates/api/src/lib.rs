//! `bp-api`: the RESTful control API (§2.2.4).
//!
//! Exposes runtime control over running workloads — throttle the rate,
//! change the mixture, pause/resume, add benchmarks on the fly — plus
//! instantaneous throughput / per-transaction-type latency feedback. This is
//! the surface the BenchPress game drives.
//!
//! Two transports share one [`ApiServer`] router:
//! * in-process: [`ApiServer::handle`] takes a [`Request`] and returns a
//!   [`Response`] (what the game uses);
//! * HTTP/1.x over `std::net::TcpListener` ([`ApiServer::serve_http`]) with
//!   zero external dependencies, for driving the testbed from real clients.
//!
//! A layer above this crate adds routes one way: it implements
//! [`RouteExtension`] and is [`ApiServer::mount`]ed (bp-cluster's
//! `/cluster/*`, bp-replay's `/record` and `/replay`), so bp-api depends on
//! neither.

pub mod http;
pub mod router;

pub use http::{http_request, http_request_text, http_request_text_timeout, http_request_timeout};
pub use router::{ApiServer, Launcher, Method, Request, Response, RouteExtension};
pub use router::{ARTIFACT_CONTENT_TYPE, JSONL_CONTENT_TYPE, PROMETHEUS_CONTENT_TYPE};
