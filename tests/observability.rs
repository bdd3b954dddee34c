//! Observability end to end: a live run's spans and counters flow into the
//! unified registry, and a real `std::net` HTTP client scrapes `/metrics`
//! (Prometheus text, parsed by `parse_samples`) and `/trace/spans` (JSONL).

use std::collections::HashMap;
use std::sync::Arc;

use benchpress::api::{http_request_text, ApiServer};
use benchpress::core::{Phase, PhaseScript, Rate, RunConfig};
use benchpress::obs::{
    parse_samples, render_samples, MetricValue, MetricsRegistry, ObsConfig, Sample, SpanMode,
    SpanOutcome,
};
use benchpress::sql::Connection;
use benchpress::storage::{Database, Personality};
use benchpress::util::json::Json;
use benchpress::util::rng::Rng;
use benchpress::workloads::by_name;

/// Run voter briefly with full span recording and serve it over HTTP.
fn finished_run() -> (Arc<ApiServer>, benchpress::core::Controller) {
    let db = Database::new(Personality::test());
    let workload = by_name("voter").unwrap();
    let mut conn = Connection::open(&db);
    workload.setup(&mut conn, 0.3, &mut Rng::new(3)).unwrap();
    let cfg = RunConfig {
        terminals: 4,
        script: PhaseScript::new(vec![Phase::new(Rate::Limited(300.0), 1.5)]),
        ..Default::default()
    };
    let handle = benchpress::core::start(db, workload, cfg);
    let controller = handle.join();

    let api = Arc::new(ApiServer::new().with_registry(Arc::new(MetricsRegistry::new())));
    api.register("voter", controller.clone());
    (api, controller)
}

/// Closure: storage times a request's lock waits and commit on the run's
/// own clock, so on a contended run they fit inside its service time.
#[test]
fn lock_and_commit_stages_fit_inside_every_span() {
    let db = Database::new(Personality::mysql_like());
    let workload = by_name("smallbank").unwrap();
    workload.setup(&mut Connection::open(&db), 0.02, &mut Rng::new(5)).unwrap();
    let cfg = RunConfig {
        terminals: 4,
        script: PhaseScript::new(vec![Phase::new(Rate::Unlimited, 1.0)]),
        obs: ObsConfig { mode: SpanMode::Full, ..ObsConfig::default() },
        ..Default::default()
    };
    let controller = benchpress::core::start(db, workload, cfg).join();
    let spans = controller.spans().recent(usize::MAX);
    assert!(spans.iter().any(|s| s.lock_wait_us > 0), "no span waited for a lock");
    for s in &spans {
        assert!(s.lock_wait_us + s.commit_us <= s.end_us - s.dequeued_us, "{s:?}");
    }
}

/// A traced request still times its commit: on mysql without group commit
/// or jitter, every write commit pays the whole fsync, and its commit stage
/// holds at least that.
#[test]
fn a_traced_write_commit_holds_its_fsync() {
    let personality = Personality { jitter: 0.0, group_commit_window_us: 0, ..Personality::mysql_like() };
    let fsync_us = personality.commit_us as u64;
    let db = Database::new(personality);
    let workload = by_name("smallbank").unwrap();
    workload.setup(&mut Connection::open(&db), 0.02, &mut Rng::new(5)).unwrap();
    let writes: Vec<bool> = workload.transaction_types().iter().map(|t| !t.read_only).collect();
    let cfg = RunConfig {
        terminals: 2,
        script: PhaseScript::new(vec![Phase::new(Rate::Limited(400.0), 1.0)]),
        obs: ObsConfig { mode: SpanMode::Full, ..ObsConfig::default() },
        ..Default::default()
    };
    let controller = benchpress::core::start(db, workload, cfg).join();
    let spans = controller.spans().recent(usize::MAX);
    let committed_writes: Vec<_> = spans
        .iter()
        .filter(|s| writes[s.txn_type as usize] && s.outcome == SpanOutcome::Committed)
        .collect();
    assert!(committed_writes.len() > 50, "{} committed writes", committed_writes.len());
    for s in committed_writes {
        assert!(s.commit_us >= fsync_us, "commit stage shorter than its fsync: {s:?}");
    }
}

/// A family's type on a parsed page.
fn kind(samples: &[Sample], family: &str) -> Option<&'static str> {
    samples.iter().find(|s| s.name == family).map(|s| match s.value {
        MetricValue::Counter(_) => "counter",
        MetricValue::Gauge(_) => "gauge",
        MetricValue::Histogram { .. } => "histogram",
    })
}

/// Scrape `/metrics` and parse it with the one codec: the page must parse
/// and re-render byte for byte. The codec carries ±∞ and NaN faithfully; a
/// live page must hold none, nor an empty HELP, a bad name or a trace id
/// that is not 1-16 hex digits.
fn scrape(addr: std::net::SocketAddr) -> (Vec<Sample>, String) {
    let (status, text) = http_request_text(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let samples = parse_samples(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    assert_eq!(render_samples(&samples), text, "the page re-renders byte for byte");
    for s in &samples {
        assert!(!s.help.is_empty(), "HELP without text: {s:?}");
        let name_ok = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == ':';
        assert!(s.name.chars().all(name_ok), "bad metric name: {s:?}");
        match &s.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                assert!(v.is_finite(), "non-finite value: {s:?}")
            }
            MetricValue::Histogram { sum, exemplars, .. } => {
                assert!(sum.is_finite(), "non-finite histogram sum: {s:?}");
                for e in exemplars {
                    assert!(e.value.is_finite(), "non-finite exemplar value: {s:?}");
                    let id = &e.trace_id;
                    let hex = id.chars().all(|c| c.is_ascii_hexdigit());
                    assert!(!id.is_empty() && id.len() <= 16 && hex, "trace id: {s:?}");
                }
            }
        }
    }
    (samples, text)
}

#[test]
fn metrics_scrape_covers_every_silo() {
    let (api, controller) = finished_run();
    let guard = api.serve_http("127.0.0.1:0").unwrap();
    let (samples, text) = scrape(guard.addr());
    let labelled = |family: &str, key: &str, value: &str| {
        let has = |s: &Sample| s.labels.iter().any(|l| l.0 == key && l.1 == value);
        samples.iter().any(|s| s.name == family && has(s))
    };

    // Client stats: per-txn-type outcome counters + latency histograms.
    for f in [
        "bp_client_committed_total",
        "bp_client_user_aborted_total",
        "bp_client_failed_total",
        "bp_client_retries_total",
    ] {
        assert_eq!(kind(&samples, f), Some("counter"), "{f}");
    }
    assert_eq!(kind(&samples, "bp_client_latency_us"), Some("histogram"));
    assert_eq!(kind(&samples, "bp_client_response_us"), Some("histogram"));
    // The driver's own queue: what it dispatched and how often a terminal
    // waited on the rate gate for it.
    for f in ["bp_driver_dispatched_total", "bp_driver_gate_waits_total"] {
        assert_eq!(kind(&samples, f), Some("counter"), "{f}");
    }
    // Voter has a single transaction type; the commit counter must carry
    // its name as the `type` label.
    assert!(labelled("bp_client_committed_total", "type", "Vote"), "per-type commits:\n{text}");
    assert!(labelled("bp_client_user_aborted_total", "type", "Vote"), "per-type aborts:\n{text}");

    // Server engine counters: every ServerMetrics field.
    for f in [
        "commits", "aborts", "rows_read", "rows_written", "lock_waits",
        "lock_wait_us", "deadlocks", "lock_timeouts", "io_reads", "io_writes", "buf_hits",
        "buf_misses", "wal_bytes", "wal_fsyncs", "fsync_us", "busy_us",
    ] {
        let name = format!("bp_server_{f}_total");
        assert_eq!(kind(&samples, &name), Some("counter"), "{name}");
    }
    for f in ["bp_server_active_txns", "bp_server_buf_hit_ratio"] {
        assert_eq!(kind(&samples, f), Some("gauge"), "{f}");
    }

    // Registry self-identification: every scrape carries the build identity
    // and process uptime.
    let build = samples.iter().find(|s| s.name == "bp_build_info").expect("bp_build_info");
    assert_eq!(build.value, MetricValue::Gauge(1.0));
    assert!(build.labels.iter().any(|l| l.0 == "version"), "identity labels: {build:?}");
    assert_eq!(kind(&samples, "bp_uptime_seconds"), Some("gauge"));

    // The run's event journal is registered as a source too.
    assert_eq!(kind(&samples, "bp_events_emitted_total"), Some("counter"));

    // Span stages: one histogram series per lifecycle stage.
    assert_eq!(kind(&samples, "bp_stage_latency_us"), Some("histogram"));
    for stage in ["queue", "lock", "exec", "commit"] {
        assert!(labelled("bp_stage_latency_us", "stage", stage), "missing stage {stage}");
    }
    assert_eq!(kind(&samples, "bp_spans_recorded_total"), Some("counter"));

    // The scraped commit counter agrees with the run's own stats.
    let committed = controller.status().committed;
    assert!(committed > 0);
    let commits = samples.iter().find(|s| s.name == "bp_server_commits_total");
    let Some(MetricValue::Counter(server_commits)) = commits.map(|s| &s.value) else {
        panic!("no bp_server_commits_total counter:\n{text}");
    };
    assert!(
        *server_commits >= committed as f64,
        "server commits {server_commits} < client committed {committed}"
    );
}

#[test]
fn flight_recorder_over_http() {
    let (api, _controller) = finished_run();
    let guard = api.serve_http("127.0.0.1:0").unwrap();

    // The journal saw the run: a phase_change from the script landing and
    // the run_start from registration.
    let (status, text) = http_request_text(guard.addr(), "GET", "/events", None).unwrap();
    assert_eq!(status, 200);
    let events = Json::parse(&text).unwrap();
    let kinds: Vec<String> = events
        .get("events")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(|e| e.get("kind").and_then(Json::as_str).map(str::to_string))
        .collect();
    assert!(kinds.iter().any(|k| k == "phase_change"), "{kinds:?}");
    assert!(kinds.iter().any(|k| k == "run_start"), "{kinds:?}");

    // The default run config records telemetry; the report artifact is
    // versioned, downloadable, and parseable.
    let (status, text) = http_request_text(guard.addr(), "GET", "/report", None).unwrap();
    assert_eq!(status, 200);
    assert!(text.starts_with("#bp-report v2"), "{text}");
    let report = benchpress::obs::Report::from_text(&text).expect("report parses");
    assert!(!report.events.is_empty());

    // The doctor runs over the same artifact.
    let (status, text) = http_request_text(guard.addr(), "GET", "/doctor", None).unwrap();
    assert_eq!(status, 200);
    let j = Json::parse(&text).unwrap();
    assert!(j.get("findings").and_then(Json::as_arr).is_some(), "{text}");
}

#[test]
fn label_values_escape_and_round_trip_over_scrape() {
    use benchpress::obs::{escape_label_value, MetricsBuf, MetricsRegistry, MetricsSource};

    const NASTY: &str = "quote\" backslash\\ newline\n done";
    struct Nasty;
    impl MetricsSource for Nasty {
        fn collect(&self, buf: &mut MetricsBuf) {
            buf.counter("bp_test_nasty_total", "Escaping probe", &[("v", NASTY)], 3.0);
        }
    }
    let reg = Arc::new(MetricsRegistry::new());
    reg.register("nasty", Arc::new(Nasty));
    let api = Arc::new(ApiServer::new().with_registry(reg));
    let guard = api.serve_http("127.0.0.1:0").unwrap();
    // The whole exposition stays parseable despite the hostile value.
    let (samples, text) = scrape(guard.addr());
    let nasty = samples.iter().find(|s| s.name == "bp_test_nasty_total").expect("nasty sample");
    let value = &nasty.labels[0].1;
    assert_eq!(*value, escape_label_value(NASTY), "not escaped at push time:\n{text}");

    // Un-escaping the scraped label value returns the original exactly.
    let mut unescaped = String::new();
    let mut chars = value.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            unescaped.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => unescaped.push('\\'),
            Some('"') => unescaped.push('"'),
            Some('n') => unescaped.push('\n'),
            other => panic!("bad escape sequence \\{other:?} in: {value}"),
        }
    }
    assert_eq!(unescaped, NASTY, "label value must round-trip through the scrape");
}

#[test]
fn histogram_is_cumulative_and_nan_free() {
    use benchpress::obs::MetricsBuf;
    use benchpress::util::histogram::Histogram;

    let mut h = Histogram::latency();
    for v in [5u64, 50, 500, 5_000, 50_000, 5_000_000_000] {
        h.record(v);
    }
    let mut buf = MetricsBuf::new();
    buf.histogram("bp_test_hist", "probe", &[], &h);
    buf.histogram("bp_test_empty", "probe", &[], &Histogram::latency());
    let samples = buf.into_samples();
    let MetricValue::Histogram { buckets, sum, .. } = &samples[0].value else {
        panic!("expected a histogram sample");
    };
    // Cumulative counts never decrease, and the +Inf bucket is the total
    // count, values past the last finite bound included.
    assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "not cumulative: {buckets:?}");
    assert_eq!(buckets.last(), Some(&h.count()));
    assert!(sum.is_finite());

    // An empty histogram renders count=0 with a finite (zero) sum — no NaN
    // may ever reach the exposition.
    let MetricValue::Histogram { buckets, sum, .. } = &samples[1].value else {
        panic!("expected a histogram sample");
    };
    assert_eq!(*sum, 0.0, "empty histogram must not render a NaN sum");
    assert!(buckets.iter().all(|c| *c == 0));
    assert!(!render_samples(&samples).contains("NaN"));
}

#[test]
fn trace_spans_jsonl_over_http() {
    let (api, controller) = finished_run();
    let guard = api.serve_http("127.0.0.1:0").unwrap();
    let (status, text) = http_request_text(guard.addr(), "GET", "/trace/spans?last=25", None).unwrap();
    assert_eq!(status, 200);
    assert!(!text.is_empty(), "run should have recorded spans");
    assert!(text.lines().count() <= 25);

    let mut prev_end = 0u64;
    for line in text.lines() {
        let j = Json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line}: {e:?}"));
        assert_eq!(j.get("workload").and_then(Json::as_str), Some("voter"));
        for key in [
            "seq", "tenant", "phase", "txn_type", "submitted_us", "dequeued_us", "end_us",
            "queue_us", "lock_us", "exec_us", "commit_us", "retries",
        ] {
            assert!(j.get(key).and_then(Json::as_u64).is_some(), "missing {key} in {line}");
        }
        assert!(j.get("outcome").and_then(Json::as_str).is_some());
        let end = j.get("end_us").and_then(Json::as_u64).unwrap();
        assert!(end >= prev_end, "spans not ordered oldest-first");
        prev_end = end;
    }

    // The trace summary over HTTP carries the same recorder's roll-up.
    let (status, text) = http_request_text(guard.addr(), "GET", "/trace/summary", None).unwrap();
    assert_eq!(status, 200);
    let j = Json::parse(&text).unwrap();
    let workloads = j.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(workloads.len(), 1);
    let spans = workloads[0].get("spans").and_then(Json::as_u64).unwrap();
    assert_eq!(spans, controller.spans().recorded());
    assert!(spans > 0);
}

#[test]
fn metric_exemplars_resolve_to_trace_detail_over_http() {
    let (api, _controller) = finished_run();
    let guard = api.serve_http("127.0.0.1:0").unwrap();
    // Exemplars survive the strict parse.
    let (samples, text) = scrape(guard.addr());

    // The latency histograms carry at least one trace-id exemplar after a
    // full-span run.
    let id = samples
        .iter()
        .filter(|s| s.name == "bp_client_latency_us" || s.name == "bp_stage_latency_us")
        .find_map(|s| match &s.value {
            MetricValue::Histogram { exemplars, .. } => exemplars.first(),
            _ => None,
        })
        .map(|e| e.trace_id.as_str())
        .unwrap_or_else(|| panic!("no exemplar on any latency bucket:\n{text}"));
    assert!(
        !id.is_empty() && id.len() <= 16 && id.chars().all(|c| c.is_ascii_hexdigit()),
        "exemplar trace id must be 1-16 hex digits: {id}"
    );

    // The printed id resolves to a full per-request stage breakdown: the
    // debugging loop "see a slow bucket on a dashboard, paste the trace id"
    // works over plain HTTP.
    let (status, body) =
        http_request_text(guard.addr(), "GET", &format!("/trace/{id}"), None).unwrap();
    assert_eq!(status, 200, "exemplar trace id must resolve: {body}");
    let j = Json::parse(&body).unwrap();
    assert_eq!(j.get("trace_id").and_then(Json::as_str), Some(id));
    assert_eq!(j.get("workload").and_then(Json::as_str), Some("voter"));
    let stages = j.get("stages").and_then(Json::as_arr).unwrap();
    assert_eq!(stages.len(), 4, "queue/lock/exec/commit breakdown: {body}");
    let total = j.get("total_us").and_then(Json::as_u64).unwrap();
    let sum: u64 =
        stages.iter().map(|s| s.get("us").and_then(Json::as_u64).unwrap()).sum();
    assert!(sum <= total, "stage sum {sum} exceeds total {total}: {body}");
    assert!(j.get("dominant_stage").and_then(Json::as_str).is_some(), "{body}");
}

#[test]
fn trace_ids_deterministic_across_identical_runs() {
    // Two identical full-span runs with the same seed must stamp the same
    // trace id on every sequence number — a trace id written down from one
    // run identifies the same logical request in a replay.
    fn run_ids(seed: u64) -> HashMap<u64, u64> {
        let db = Database::new(Personality::test());
        let workload = by_name("voter").unwrap();
        let mut conn = Connection::open(&db);
        workload.setup(&mut conn, 0.3, &mut Rng::new(3)).unwrap();
        let cfg = RunConfig {
            terminals: 2,
            seed,
            script: PhaseScript::new(vec![Phase::new(Rate::Limited(200.0), 0.8)]),
            ..Default::default()
        };
        let controller = benchpress::core::start(db, workload, cfg).join();
        let spans = controller.spans().recent(usize::MAX);
        assert!(!spans.is_empty());
        spans.into_iter().map(|s| (s.seq, s.trace_id)).collect()
    }

    let a = run_ids(7);
    let b = run_ids(7);
    for (seq, id) in &a {
        assert_eq!(
            *id,
            benchpress::obs::trace_id(7, *seq),
            "trace id must be a pure function of (seed, seq)"
        );
        if let Some(other) = b.get(seq) {
            assert_eq!(id, other, "seq {seq} got different ids across identical runs");
        }
    }
    // A different seed relabels every request.
    let c = run_ids(8);
    for (seq, id) in &c {
        assert_ne!(
            *id,
            benchpress::obs::trace_id(7, *seq),
            "seed must perturb trace ids (seq {seq})"
        );
    }
}
