//! The replay control routes, mounted on an [`ApiServer`]:
//!
//! * `GET /record` — the current capture as artifact text, ready to be fed
//!   back to `POST /replay`;
//! * `POST /replay` — start replaying an artifact. Body: `{"artifact":
//!   "<bp-replay text>", "mode": "as-recorded"|"warp"|"asap", "warp": k}`;
//!   409 while the previous replay still runs;
//! * `GET /replay/status` — progress and (once complete) the divergence
//!   report of the most recently started replay.
//!
//! The embedding application owns the database and the workload, so it
//! hands the surface two closures: one that turns an artifact into a live
//! replay (typically [`crate::start_replay`]) and one that snapshots the
//! capture on demand.

use std::sync::Arc;

use bp_api::{ApiServer, Method, Request, Response, RouteExtension, ARTIFACT_CONTENT_TYPE};
use bp_obs::Severity;
use bp_util::json::Json;
use bp_util::sync::RwLock;

use crate::{Artifact, ReplaySession, ReplayTiming};

type Launch = dyn Fn(&Artifact, ReplayTiming) -> Result<ReplaySession, String> + Send + Sync;
type Record = dyn Fn() -> Option<String> + Send + Sync;

/// The `/record` and `/replay` routes; see the module docs.
pub struct ReplaySurface {
    launch: Box<Launch>,
    record: Box<Record>,
    session: RwLock<Option<Arc<ReplaySession>>>,
}

impl ReplaySurface {
    /// `launch` starts a replay of an artifact; `record` returns the
    /// capture to serve, or `None` while there is nothing to serve.
    pub fn new(
        launch: impl Fn(&Artifact, ReplayTiming) -> Result<ReplaySession, String>
            + Send
            + Sync
            + 'static,
        record: impl Fn() -> Option<String> + Send + Sync + 'static,
    ) -> Arc<ReplaySurface> {
        Arc::new(ReplaySurface {
            launch: Box::new(launch),
            record: Box::new(record),
            session: RwLock::new(None),
        })
    }

    /// The replay most recently started via `POST /replay`.
    pub fn session(&self) -> Option<Arc<ReplaySession>> {
        self.session.read().clone()
    }

    /// `POST /replay`; the session's metrics go to the server's registry.
    fn start(&self, api: &ApiServer, req: &Request) -> Result<Response, Response> {
        if self.session().is_some_and(|s| !s.is_complete()) {
            return Err(Response::error(409, "a replay is already running"));
        }
        let body = req.body.clone().unwrap_or(Json::Null);
        let text = body.get("artifact").and_then(Json::as_str).ok_or_else(|| {
            Response::error(400, "body must contain artifact (bp-replay artifact text)")
        })?;
        let artifact = Artifact::from_text(text)
            .map_err(|e| Response::error(400, &format!("invalid artifact: {e}")))?;
        let timing = ReplayTiming::parse(
            body.get("mode").and_then(Json::as_str),
            body.get("warp").and_then(Json::as_f64),
        )
        .map_err(|e| Response::error(400, &e))?;
        let session =
            Arc::new((self.launch)(&artifact, timing).map_err(|e| Response::error(400, &e))?);
        if let Some(reg) = api.registry() {
            session.register_metrics(reg);
        }
        session
            .controller
            .journal()
            .emit_with(Severity::Info, "api", "replay_launch", || {
                (
                    format!(
                        "replay of {} launched ({} scheduled requests)",
                        session.workload,
                        artifact.schedule.len(),
                    ),
                    vec![("workload", session.workload.clone())],
                )
            });
        let resp = Response::ok(session.status_json());
        *self.session.write() = Some(session);
        Ok(resp)
    }
}

impl RouteExtension for ReplaySurface {
    fn handle(&self, api: &ApiServer, req: &Request, path: &[&str], _: &str) -> Option<Response> {
        Some(match (req.method, path) {
            (Method::Post, ["replay"]) => self.start(api, req).unwrap_or_else(|refusal| refusal),
            (Method::Get, ["replay", "status"]) => match self.session() {
                Some(session) => Response::ok(session.status_json()),
                None => Response::error(404, "no replay started"),
            },
            (Method::Get, ["record"]) => match (self.record)() {
                Some(text) => Response::text(ARTIFACT_CONTENT_TYPE, text),
                None => Response::error(404, "no recorded artifact available"),
            },
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::{
        ControlState, Controller, Mixture, Phase, PhaseScript, Rate, RequestQueue, StatsCollector,
        TransactionType,
    };
    use bp_storage::{Database, Personality};
    use bp_util::clock::sim_clock;

    use crate::{ReplayProgress, ARTIFACT_VERSION};

    /// A controller that is never started, so it never stops: a replay
    /// launched on it never completes.
    fn controller() -> Controller {
        let clock = sim_clock().1;
        let types = vec![
            TransactionType::new("Read", 60.0, true),
            TransactionType::new("Write", 40.0, false),
        ];
        let state = ControlState::new(Rate::Limited(100.0), Mixture::default_of(&types), 10_000.0);
        let queue = Arc::new(RequestQueue::new(clock.clone()));
        let stats = Arc::new(StatsCollector::new(clock.clone(), &["Read", "Write"]));
        let db = Database::with_clock(Personality::test(), clock);
        let spans = Arc::new(bp_obs::SpanRecorder::new(bp_obs::ObsConfig::default()));
        Controller::new(state, queue, stats, spans, db, types, "demo")
    }

    fn script_only_artifact() -> Artifact {
        Artifact {
            version: ARTIFACT_VERSION,
            workload: "demo".into(),
            personality: "test".into(),
            seed: 42,
            terminals: 2,
            tenant: 0,
            unlimited_rate: 50_000.0,
            types: vec!["Read".into(), "Write".into()],
            script: PhaseScript::new(vec![Phase::new(Rate::Limited(100.0), 1.0)]),
            schedule: Vec::new(),
            trace: Vec::new(),
        }
    }

    /// A surface whose replays run on [`controller`] and whose capture is
    /// `record`.
    fn mounted(record: Option<String>) -> ApiServer {
        let api = ApiServer::new();
        api.mount(ReplaySurface::new(
            |artifact, timing| {
                Ok(ReplaySession {
                    controller: controller(),
                    progress: ReplayProgress::new(artifact.schedule.len() as u64),
                    recorded: Arc::new(artifact.recorded_trace()),
                    replayed: None,
                    workload: artifact.workload.clone(),
                    num_types: artifact.types.len(),
                    timing,
                })
            },
            move || record.clone(),
        ));
        api
    }

    #[test]
    fn replay_endpoints_unconfigured() {
        for api in [ApiServer::new(), mounted(None)] {
            assert_eq!(api.handle(&Request::get("/replay/status")).status, 404);
            assert_eq!(api.handle(&Request::get("/record")).status, 404);
        }
        let bare = ApiServer::new();
        assert_eq!(
            bare.handle(&Request::post("/replay", Json::obj())).status,
            404
        );
    }

    #[test]
    fn record_serves_artifact_text() {
        let api = mounted(Some(script_only_artifact().to_text()));
        let r = api.handle(&Request::get("/record"));
        let (ctype, body) = r.raw.expect("raw payload");
        assert!(ctype.starts_with("text/plain"));
        assert!(body.starts_with("#bp-replay v1"), "{body}");
        assert!(Artifact::from_text(&body).is_ok());
    }

    #[test]
    fn replay_start_validates_and_reports_status() {
        let api = mounted(None);
        // Missing / malformed artifact.
        assert_eq!(
            api.handle(&Request::post("/replay", Json::obj())).status,
            400
        );
        let r = api.handle(&Request::post(
            "/replay",
            Json::obj().set("artifact", "not a capture"),
        ));
        assert_eq!(r.status, 400);
        // Bad timing combination.
        let text = script_only_artifact().to_text();
        let r = api.handle(&Request::post(
            "/replay",
            Json::obj().set("artifact", text.as_str()).set("warp", -3.0),
        ));
        assert_eq!(r.status, 400);
        // Valid launch.
        let r = api.handle(&Request::post(
            "/replay",
            Json::obj().set("artifact", text.as_str()).set("warp", 4.0),
        ));
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(r.body.get("mode").unwrap().as_str(), Some("warp"));
        assert_eq!(r.body.get("warp").unwrap().as_f64(), Some(4.0));
        // Status route mirrors the session; the session never completes
        // (its controller never stops), so a second POST is a 409.
        let r = api.handle(&Request::get("/replay/status"));
        assert!(r.is_ok());
        assert_eq!(r.body.get("complete").unwrap().as_bool(), Some(false));
        let r = api.handle(&Request::post(
            "/replay",
            Json::obj().set("artifact", text.as_str()),
        ));
        assert_eq!(r.status, 409);
    }
}
