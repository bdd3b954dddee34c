//! Observability end to end: a live run's spans and counters flow into the
//! unified registry, and a real `std::net` HTTP client scrapes `/metrics`
//! (Prometheus text, every line parsed) and `/trace/spans` (JSONL).

use std::collections::HashMap;
use std::sync::Arc;

use benchpress::api::{http_request_text, ApiServer};
use benchpress::core::{Phase, PhaseScript, Rate, RunConfig};
use benchpress::obs::MetricsRegistry;
use benchpress::sql::Connection;
use benchpress::storage::{Database, Personality};
use benchpress::util::clock::wall_clock;
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
    let handle = benchpress::core::start(db, workload, wall_clock(), cfg);
    let controller = handle.join();

    let api = Arc::new(ApiServer::new().with_registry(Arc::new(MetricsRegistry::new())));
    api.register("voter", controller.clone());
    (api, controller)
}

/// Parse the exposition strictly: every line must be a well-formed HELP /
/// TYPE comment or a `name[{labels}] value` sample whose family was
/// declared. Returns family name → type.
fn parse_prometheus(text: &str) -> (HashMap<String, String>, Vec<String>) {
    let mut families: HashMap<String, String> = HashMap::new();
    let mut sample_lines = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            assert!(rest.split_whitespace().count() >= 2, "HELP without text: {line}");
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().expect("TYPE name");
            let ty = it.next().expect("TYPE kind");
            assert!(
                matches!(ty, "counter" | "gauge" | "histogram"),
                "unknown metric type: {line}"
            );
            assert!(
                families.insert(name.to_string(), ty.to_string()).is_none(),
                "family {name} declared twice"
            );
        } else {
            assert!(!line.starts_with('#'), "unknown comment form: {line}");
            // OpenMetrics exemplar suffix: `... <count> # {trace_id="<hex>"} <value>`.
            // Validate and strip it before parsing the sample proper; only
            // histogram bucket lines may carry one.
            let line = match line.split_once(" # ") {
                Some((sample, exemplar)) => {
                    assert!(
                        line.contains("_bucket"),
                        "exemplar on a non-bucket line: {line}"
                    );
                    let rest = exemplar
                        .strip_prefix("{trace_id=\"")
                        .unwrap_or_else(|| panic!("malformed exemplar in: {line}"));
                    let (id, val) = rest
                        .split_once("\"} ")
                        .unwrap_or_else(|| panic!("unterminated exemplar in: {line}"));
                    assert!(
                        !id.is_empty()
                            && id.len() <= 16
                            && id.chars().all(|c| c.is_ascii_hexdigit()),
                        "exemplar trace id must be 1-16 hex digits in: {line}"
                    );
                    let v: f64 =
                        val.parse().unwrap_or_else(|_| panic!("bad exemplar value in: {line}"));
                    assert!(v.is_finite(), "non-finite exemplar value in: {line}");
                    sample
                }
                None => line,
            };
            let (name_labels, value) =
                line.rsplit_once(' ').unwrap_or_else(|| panic!("no value in: {line}"));
            let v: f64 = value.parse().unwrap_or_else(|_| panic!("bad value in: {line}"));
            assert!(v.is_finite(), "non-finite value in: {line}");
            let name = match name_labels.split_once('{') {
                Some((n, labels)) => {
                    assert!(labels.ends_with('}'), "unterminated labels in: {line}");
                    for kv in labels[..labels.len() - 1].split("\",") {
                        let kv = kv.trim_end_matches('"');
                        assert!(kv.contains("=\""), "malformed label `{kv}` in: {line}");
                    }
                    n
                }
                None => name_labels,
            };
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name in: {line}"
            );
            let base = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .filter(|b| families.get(*b).map(String::as_str) == Some("histogram"))
                .unwrap_or(name);
            assert!(families.contains_key(base), "sample without TYPE: {line}");
            sample_lines.push(line.to_string());
        }
    }
    (families, sample_lines)
}

#[test]
fn metrics_scrape_covers_every_silo() {
    let (api, controller) = finished_run();
    let guard = api.serve_http("127.0.0.1:0").unwrap();
    let (status, text) = http_request_text(guard.addr(), "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    assert!(!text.is_empty());

    let (families, samples) = parse_prometheus(&text);

    // Client stats: per-txn-type outcome counters + latency histograms.
    for f in [
        "bp_client_committed_total",
        "bp_client_user_aborted_total",
        "bp_client_failed_total",
        "bp_client_retries_total",
    ] {
        assert_eq!(families.get(f).map(String::as_str), Some("counter"), "{f}");
    }
    assert_eq!(families.get("bp_client_latency_us").map(String::as_str), Some("histogram"));
    // Voter has a single transaction type; the commit counter must carry
    // its name as the `type` label.
    assert!(
        samples.iter().any(|l| l.starts_with("bp_client_committed_total{type=\"Vote\"")),
        "expected per-type commit counters:\n{text}"
    );
    assert!(
        samples.iter().any(|l| l.starts_with("bp_client_user_aborted_total{type=\"Vote\"")),
        "expected per-type abort counters:\n{text}"
    );

    // Server engine counters: every ServerMetrics field.
    for f in [
        "commits", "aborts", "rows_read", "rows_written", "lock_waits",
        "lock_wait_us", "deadlocks", "lock_timeouts", "io_reads", "io_writes", "buf_hits",
        "buf_misses", "wal_bytes", "wal_fsyncs", "fsync_us", "busy_us",
    ] {
        let name = format!("bp_server_{f}_total");
        assert_eq!(families.get(&name).map(String::as_str), Some("counter"), "{name}");
    }
    for f in ["bp_server_active_txns", "bp_server_buf_hit_ratio"] {
        assert_eq!(families.get(f).map(String::as_str), Some("gauge"), "{f}");
    }

    // Registry self-identification: every scrape carries the build identity
    // and process uptime.
    assert_eq!(families.get("bp_build_info").map(String::as_str), Some("gauge"));
    assert!(
        samples
            .iter()
            .any(|l| l.starts_with("bp_build_info{") && l.contains("version=\"") && l.ends_with(" 1")),
        "bp_build_info must carry identity labels with value 1:\n{text}"
    );
    assert_eq!(families.get("bp_uptime_seconds").map(String::as_str), Some("gauge"));

    // The run's event journal is registered as a source too.
    assert_eq!(families.get("bp_events_emitted_total").map(String::as_str), Some("counter"));

    // Span stages: one histogram per lifecycle stage, with +Inf buckets,
    // _sum and _count.
    assert_eq!(families.get("bp_stage_latency_us").map(String::as_str), Some("histogram"));
    for stage in ["queue", "lock", "exec", "commit"] {
        let bucket = format!("bp_stage_latency_us_bucket{{stage=\"{stage}\"");
        assert!(samples.iter().any(|l| l.starts_with(&bucket)), "missing {bucket}");
        assert!(
            samples
                .iter()
                .any(|l| l.starts_with(&bucket) && l.contains("le=\"+Inf\"")),
            "missing +Inf bucket for stage {stage}"
        );
    }
    for suffix in ["_sum", "_count"] {
        assert!(
            samples.iter().any(|l| l.starts_with(&format!("bp_stage_latency_us{suffix}"))),
            "missing bp_stage_latency_us{suffix}"
        );
    }
    assert_eq!(families.get("bp_spans_recorded_total").map(String::as_str), Some("counter"));

    // The scraped commit counter agrees with the run's own stats.
    let committed = controller.status().committed;
    assert!(committed > 0);
    let server_commits: f64 = samples
        .iter()
        .find(|l| l.starts_with("bp_server_commits_total "))
        .and_then(|l| l.rsplit_once(' ').unwrap().1.parse().ok())
        .expect("bp_server_commits_total sample");
    assert!(
        server_commits >= committed as f64,
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
    assert!(text.starts_with("#bp-report v1"), "{text}");
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
    let (status, text) = http_request_text(guard.addr(), "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    // The whole exposition stays line-parseable despite the hostile value.
    parse_prometheus(&text);
    let line = text
        .lines()
        .find(|l| l.starts_with("bp_test_nasty_total{"))
        .expect("nasty sample rendered");
    assert!(line.contains(&escape_label_value(NASTY)), "not escaped at push time: {line}");

    // Un-escaping the rendered label value returns the original exactly.
    let start = line.find("v=\"").unwrap() + 3;
    let end = line.rfind('"').unwrap();
    let mut unescaped = String::new();
    let mut chars = line[start..end].chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            unescaped.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => unescaped.push('\\'),
            Some('"') => unescaped.push('"'),
            Some('n') => unescaped.push('\n'),
            other => panic!("bad escape sequence \\{other:?} in: {line}"),
        }
    }
    assert_eq!(unescaped, NASTY, "label value must round-trip through the scrape");
}

#[test]
fn histogram_with_bounds_is_cumulative_and_nan_free() {
    use benchpress::obs::{MetricValue, MetricsBuf};
    use benchpress::util::histogram::Histogram;

    let mut h = Histogram::latency();
    for v in [5u64, 50, 500, 5_000, 50_000, 5_000_000_000] {
        h.record(v);
    }
    let mut buf = MetricsBuf::new();
    buf.histogram_with_bounds("bp_test_hist", "probe", &[], &h, &[10, 100, 1_000, 10_000]);
    let samples = buf.into_samples();
    let MetricValue::Histogram { buckets, sum, count } = &samples[0].value else {
        panic!("expected a histogram sample");
    };
    // Cumulative counts never decrease across increasing bounds.
    for w in buckets.windows(2) {
        assert!(w[0].0 < w[1].0, "bounds must increase: {buckets:?}");
        assert!(w[0].1 <= w[1].1, "cumulative counts must be monotone: {buckets:?}");
    }
    // The +Inf bucket equals the total count, including values past the
    // last finite bound.
    let (inf_bound, inf_count) = buckets.last().unwrap();
    assert!(inf_bound.is_infinite());
    assert_eq!(*inf_count, h.count());
    assert_eq!(*count, h.count());
    assert!(sum.is_finite());

    // An empty histogram renders count=0 with a finite (zero) sum — no NaN
    // may ever reach the exposition.
    let mut buf = MetricsBuf::new();
    buf.histogram_with_bounds("bp_test_empty", "probe", &[], &Histogram::latency(), &[10, 100]);
    let samples = buf.into_samples();
    let MetricValue::Histogram { buckets, sum, count } = &samples[0].value else {
        panic!("expected a histogram sample");
    };
    assert_eq!(*count, 0);
    assert_eq!(*sum, 0.0, "empty histogram must not render a NaN sum");
    assert!(buckets.iter().all(|(_, c)| *c == 0));
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
    assert_eq!(spans, controller.spans().unwrap().recorded());
    assert!(spans > 0);
}

#[test]
fn metric_exemplars_resolve_to_trace_detail_over_http() {
    let (api, _controller) = finished_run();
    let guard = api.serve_http("127.0.0.1:0").unwrap();
    let (status, text) = http_request_text(guard.addr(), "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    // Exemplars survive the strict parse (which validates their syntax).
    parse_prometheus(&text);

    // The latency histograms carry at least one trace-id exemplar after a
    // full-span run.
    let exemplar_line = text
        .lines()
        .find(|l| {
            (l.starts_with("bp_client_latency_us_bucket")
                || l.starts_with("bp_stage_latency_us_bucket"))
                && l.contains(" # {trace_id=\"")
        })
        .unwrap_or_else(|| panic!("no exemplar on any latency bucket:\n{text}"));
    let start = exemplar_line.find("# {trace_id=\"").unwrap() + "# {trace_id=\"".len();
    let id = &exemplar_line[start..start + exemplar_line[start..].find('"').unwrap()];

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
        let controller = benchpress::core::start(db, workload, wall_clock(), cfg).join();
        let spans = controller.spans().unwrap().recent(usize::MAX);
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
