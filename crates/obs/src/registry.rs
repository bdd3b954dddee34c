//! The unified metrics registry.
//!
//! Every metrics silo in the system — the client-side `StatsCollector`,
//! the storage engine's `ServerMetrics`, the resource `Monitor`, the span
//! recorder — implements [`MetricsSource`] and contributes flat samples to
//! a [`MetricsBuf`]. The registry holds the sources and renders their
//! union as one snapshot, either structurally ([`MetricsRegistry::snapshot`])
//! or as Prometheus text exposition format for `GET /metrics`
//! ([`MetricsRegistry::render_prometheus`]).
//!
//! Collection is pull-based and cold-path: sources are only walked when a
//! scrape happens, so registering a source adds zero overhead to the
//! request hot path.

use std::sync::Arc;

use bp_util::histogram::Histogram;
use bp_util::sync::Mutex;

/// Upper bounds (µs) for rendered latency histogram buckets. Chosen to
/// bracket everything from in-memory point reads to multi-second stalls.
pub const LATENCY_BOUNDS_US: [u64; 12] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
];

/// One metric's value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(f64),
    Gauge(f64),
    /// Cumulative buckets `(le, count)`; the final entry is `(+Inf, count)`.
    Histogram {
        buckets: Vec<(f64, u64)>,
        sum: f64,
        count: u64,
    },
}

impl MetricValue {
    fn type_name(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram { .. } => "histogram",
        }
    }
}

/// One OpenMetrics exemplar: a concrete trace id attached to a histogram
/// bucket, rendered as `... # {trace_id="<id>"} <value>` after the bucket
/// line. At most one per bucket (`le` is unique within a sample).
#[derive(Debug, Clone, PartialEq)]
pub struct Exemplar {
    /// Upper bound of the bucket this exemplar belongs to.
    pub le: f64,
    /// Trace id, already escaped like a label value.
    pub trace_id: String,
    /// The observed value (µs) that fell into the bucket.
    pub value: f64,
}

/// One named sample contributed by a source.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub help: String,
    pub value: MetricValue,
    /// Histogram bucket exemplars (empty for counters/gauges and for
    /// histograms without any recent traced observation).
    pub exemplars: Vec<Exemplar>,
}

impl Sample {
    /// Structural JSON encoding, used by the cluster snapshot endpoint to
    /// ship a registry's samples to the coordinator without a Prometheus
    /// text parser on the other end.
    pub fn to_json(&self) -> bp_util::json::Json {
        use bp_util::json::Json;
        let labels = Json::Arr(
            self.labels
                .iter()
                .map(|(k, v)| Json::Arr(vec![Json::Str(k.clone()), Json::Str(v.clone())]))
                .collect(),
        );
        let mut j = Json::obj()
            .set("name", self.name.as_str())
            .set("help", self.help.as_str())
            .set("labels", labels);
        if !self.exemplars.is_empty() {
            j = j.set(
                "exemplars",
                Json::Arr(
                    self.exemplars
                        .iter()
                        .map(|e| {
                            let le = if e.le.is_infinite() {
                                Json::Str("+Inf".into())
                            } else {
                                Json::Num(e.le)
                            };
                            Json::obj()
                                .set("le", le)
                                .set("trace_id", e.trace_id.as_str())
                                .set("value", e.value)
                        })
                        .collect(),
                ),
            );
        }
        match &self.value {
            MetricValue::Counter(v) => j.set("type", "counter").set("value", *v),
            MetricValue::Gauge(v) => j.set("type", "gauge").set("value", *v),
            MetricValue::Histogram { buckets, sum, count } => j
                .set("type", "histogram")
                .set("sum", *sum)
                .set("count", *count)
                .set(
                    "buckets",
                    Json::Arr(
                        buckets
                            .iter()
                            .map(|(le, c)| {
                                // +Inf is not representable as a JSON number.
                                let le = if le.is_infinite() {
                                    Json::Str("+Inf".into())
                                } else {
                                    Json::Num(*le)
                                };
                                Json::Arr(vec![le, Json::Num(*c as f64)])
                            })
                            .collect(),
                    ),
                ),
        }
    }

    /// Inverse of [`Sample::to_json`]. Returns `None` on any structural
    /// mismatch — a peer speaking a different version is skipped, not
    /// trusted.
    pub fn from_json(j: &bp_util::json::Json) -> Option<Sample> {
        use bp_util::json::Json;
        let name = j.get("name")?.as_str()?.to_string();
        let help = j.get("help").and_then(Json::as_str).unwrap_or("").to_string();
        let labels = j
            .get("labels")?
            .as_arr()?
            .iter()
            .map(|pair| {
                let kv = pair.as_arr()?;
                Some((kv.first()?.as_str()?.to_string(), kv.get(1)?.as_str()?.to_string()))
            })
            .collect::<Option<Vec<_>>>()?;
        let value = match j.get("type")?.as_str()? {
            "counter" => MetricValue::Counter(j.get("value")?.as_f64()?),
            "gauge" => MetricValue::Gauge(j.get("value")?.as_f64()?),
            "histogram" => {
                let buckets = j
                    .get("buckets")?
                    .as_arr()?
                    .iter()
                    .map(|b| {
                        let pair = b.as_arr()?;
                        let le = match pair.first()? {
                            Json::Str(s) if s == "+Inf" => f64::INFINITY,
                            v => v.as_f64()?,
                        };
                        Some((le, pair.get(1)?.as_f64()? as u64))
                    })
                    .collect::<Option<Vec<_>>>()?;
                MetricValue::Histogram {
                    buckets,
                    sum: j.get("sum")?.as_f64()?,
                    count: j.get("count")?.as_u64()?,
                }
            }
            _ => return None,
        };
        // Exemplars are optional on the wire: older peers omit the key.
        let exemplars = match j.get("exemplars").and_then(Json::as_arr) {
            Some(arr) => arr
                .iter()
                .map(|e| {
                    let le = match e.get("le")? {
                        Json::Str(s) if s == "+Inf" => f64::INFINITY,
                        v => v.as_f64()?,
                    };
                    Some(Exemplar {
                        le,
                        trace_id: e.get("trace_id")?.as_str()?.to_string(),
                        value: e.get("value")?.as_f64()?,
                    })
                })
                .collect::<Option<Vec<_>>>()?,
            None => Vec::new(),
        };
        Some(Sample { name, labels, help, value, exemplars })
    }
}

/// Collection buffer handed to [`MetricsSource::collect`].
#[derive(Debug, Default)]
pub struct MetricsBuf {
    samples: Vec<Sample>,
}

/// Replace characters Prometheus forbids in metric/label names.
fn sanitize_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Escape a label value per the Prometheus text exposition format:
/// backslash, double-quote, and newline become `\\`, `\"`, `\n`. Applied
/// once at [`MetricsBuf`] push time, so stored samples are already
/// scrape-safe and the renderer writes them verbatim.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

impl MetricsBuf {
    pub fn new() -> MetricsBuf {
        MetricsBuf::default()
    }

    fn push(&mut self, name: &str, help: &'static str, labels: &[(&str, &str)], value: MetricValue) {
        self.push_with_exemplars(name, help, labels, value, Vec::new());
    }

    fn push_with_exemplars(
        &mut self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
        value: MetricValue,
        exemplars: Vec<Exemplar>,
    ) {
        self.samples.push(Sample {
            name: sanitize_name(name),
            labels: labels
                .iter()
                .map(|(k, v)| (sanitize_name(k), escape_label_value(v)))
                .collect(),
            help: help.to_string(),
            value,
            exemplars,
        });
    }

    /// A monotonically increasing total.
    pub fn counter(&mut self, name: &str, help: &'static str, labels: &[(&str, &str)], v: f64) {
        self.push(name, help, labels, MetricValue::Counter(v));
    }

    /// A point-in-time value that can go up or down.
    pub fn gauge(&mut self, name: &str, help: &'static str, labels: &[(&str, &str)], v: f64) {
        self.push(name, help, labels, MetricValue::Gauge(v));
    }

    /// Render a [`Histogram`] into cumulative Prometheus buckets using the
    /// standard latency bounds.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
        h: &Histogram,
    ) {
        self.histogram_with_bounds(name, help, labels, h, &LATENCY_BOUNDS_US);
    }

    /// Render a [`Histogram`] with explicit bucket upper bounds (µs).
    pub fn histogram_with_bounds(
        &mut self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
        h: &Histogram,
        bounds: &[u64],
    ) {
        let value = project_histogram(h, bounds);
        self.push(name, help, labels, value);
    }

    /// Render a [`Histogram`] on the standard latency bounds, attaching at
    /// most one exemplar per bucket from `(observed_us, trace_id)` pairs.
    /// Pairs are expected oldest-first; the most recent observation per
    /// bucket wins. Trace ids are escaped here like label values, so
    /// hostile content cannot break out of the exemplar braces.
    pub fn histogram_with_exemplars(
        &mut self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
        h: &Histogram,
        observations: &[(u64, String)],
    ) {
        let bounds = &LATENCY_BOUNDS_US;
        let value = project_histogram(h, bounds);
        // One slot per bound plus +Inf; later (more recent) pairs overwrite.
        let mut slots: Vec<Option<Exemplar>> = vec![None; bounds.len() + 1];
        for (us, trace) in observations {
            let (i, le) = match bounds.iter().position(|&b| *us <= b) {
                Some(i) => (i, bounds[i] as f64),
                None => (bounds.len(), f64::INFINITY),
            };
            slots[i] = Some(Exemplar {
                le,
                trace_id: escape_label_value(trace),
                value: *us as f64,
            });
        }
        let exemplars = slots.into_iter().flatten().collect();
        self.push_with_exemplars(name, help, labels, value, exemplars);
    }

    pub fn into_samples(self) -> Vec<Sample> {
        self.samples
    }
}

/// Project a log-linear [`Histogram`] onto fixed bounds: each internal
/// bucket's count lands in the first bound that covers its lower edge
/// (≤3% representative error, same as the histogram).
fn project_histogram(h: &Histogram, bounds: &[u64]) -> MetricValue {
    let mut per_bound = vec![0u64; bounds.len()];
    let mut overflow = 0u64;
    for (low, count) in h.iter() {
        match bounds.iter().position(|&b| low <= b) {
            Some(i) => per_bound[i] += count,
            None => overflow += count,
        }
    }
    let mut buckets = Vec::with_capacity(bounds.len() + 1);
    let mut cum = 0u64;
    for (b, c) in bounds.iter().zip(&per_bound) {
        cum += c;
        buckets.push((*b as f64, cum));
    }
    buckets.push((f64::INFINITY, cum + overflow));
    MetricValue::Histogram {
        buckets,
        // An empty histogram's mean is NaN; its sum must render 0.
        sum: if h.count() == 0 { 0.0 } else { h.mean() * h.count() as f64 },
        count: h.count(),
    }
}

/// Anything that can contribute metrics to a scrape.
pub trait MetricsSource: Send + Sync {
    fn collect(&self, buf: &mut MetricsBuf);
}

/// The registry: a list of sources, snapshotted on demand.
#[derive(Default)]
pub struct MetricsRegistry {
    sources: Mutex<Vec<(String, Arc<dyn MetricsSource>)>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Register a source under a diagnostic name. Registering the same
    /// `Arc` twice is a no-op (controllers sharing one database would
    /// otherwise double-count its `ServerMetrics`).
    pub fn register(&self, name: &str, source: Arc<dyn MetricsSource>) {
        let mut sources = self.sources.lock();
        let new_ptr = Arc::as_ptr(&source) as *const ();
        if sources.iter().any(|(_, s)| Arc::as_ptr(s) as *const () == new_ptr) {
            return;
        }
        sources.push((name.to_string(), source));
    }

    pub fn source_count(&self) -> usize {
        self.sources.lock().len()
    }

    pub fn source_names(&self) -> Vec<String> {
        self.sources.lock().iter().map(|(n, _)| n.clone()).collect()
    }

    /// Collect every source into one flat, name-sorted sample list. Build
    /// identity and uptime are always appended so scrapes are
    /// self-identifying regardless of which sources got registered.
    pub fn snapshot(&self) -> Vec<Sample> {
        let sources: Vec<Arc<dyn MetricsSource>> =
            self.sources.lock().iter().map(|(_, s)| s.clone()).collect();
        let mut buf = MetricsBuf::new();
        for s in &sources {
            s.collect(&mut buf);
        }
        collect_build_info(&mut buf);
        let mut samples = buf.into_samples();
        samples.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        samples
    }

    /// Render the current snapshot in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        render_samples(&self.snapshot())
    }
}

/// Render a name-sorted sample list in Prometheus text exposition format.
/// One `# HELP`/`# TYPE` header per metric family, however many sample
/// sets the list was merged from.
pub fn render_samples(samples: &[Sample]) -> String {
    let mut out = String::with_capacity(4096 + samples.len() * 64);
    let mut last_family = "";
    for s in samples {
        if s.name != last_family {
            out.push_str("# HELP ");
            out.push_str(&s.name);
            out.push(' ');
            out.push_str(&s.help);
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(&s.name);
            out.push(' ');
            out.push_str(s.value.type_name());
            out.push('\n');
            last_family = &s.name;
        }
        render_sample(&mut out, s);
    }
    out
}

/// Merge several snapshots (e.g. one per cluster node) into one
/// name-sorted sample list. Samples with the same name *and* label set
/// fold into a single series — counters and gauges sum, histograms merge
/// bucket-wise over the union of their bounds — so scraping the merged
/// set never emits duplicate series or duplicate `HELP`/`TYPE` lines.
/// Same-name samples with different labels stay separate series under one
/// family, exactly as a single registry renders them.
pub fn merge_samples(sets: Vec<Vec<Sample>>) -> Vec<Sample> {
    let mut all: Vec<Sample> = sets.into_iter().flatten().collect();
    all.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    let mut out: Vec<Sample> = Vec::with_capacity(all.len());
    for s in all {
        match out.last_mut() {
            Some(prev) if prev.name == s.name && prev.labels == s.labels => {
                if !fold_value(&mut prev.value, &s.value) {
                    out.push(s);
                } else {
                    // Keep at most one exemplar per bucket across nodes;
                    // the first node's exemplar wins on a shared bound.
                    for e in s.exemplars {
                        if !prev.exemplars.iter().any(|p| p.le.total_cmp(&e.le).is_eq()) {
                            prev.exemplars.push(e);
                        }
                    }
                }
            }
            _ => out.push(s),
        }
    }
    out
}

/// Fold `b` into `a` when the two values are the same metric type;
/// returns false (leaving both untouched) on a type clash.
fn fold_value(a: &mut MetricValue, b: &MetricValue) -> bool {
    match (a, b) {
        (MetricValue::Counter(x), MetricValue::Counter(y)) => {
            *x += y;
            true
        }
        (MetricValue::Gauge(x), MetricValue::Gauge(y)) => {
            *x += y;
            true
        }
        (
            MetricValue::Histogram { buckets, sum, count },
            MetricValue::Histogram { buckets: b2, sum: s2, count: c2 },
        ) => {
            *buckets = merge_buckets(buckets, b2);
            *sum += s2;
            *count += c2;
            true
        }
        _ => false,
    }
}

/// Merge two cumulative bucket lists over the union of their bounds.
/// Works on per-bound increments so peers with different bound sets still
/// produce a monotone cumulative result.
fn merge_buckets(a: &[(f64, u64)], b: &[(f64, u64)]) -> Vec<(f64, u64)> {
    let increments = |list: &[(f64, u64)]| {
        let mut prev = 0u64;
        list.iter()
            .map(|&(le, c)| {
                let inc = c.saturating_sub(prev);
                prev = c;
                (le, inc)
            })
            .collect::<Vec<_>>()
    };
    let mut bounds: Vec<f64> = a.iter().chain(b).map(|&(le, _)| le).collect();
    bounds.sort_by(f64::total_cmp);
    bounds.dedup();
    let mut merged: Vec<(f64, u64)> = bounds.into_iter().map(|le| (le, 0)).collect();
    for (le, inc) in increments(a).into_iter().chain(increments(b)) {
        // Each increment lands at its own bound, which is always present
        // in the union (`==` is exact here: both sides are the same
        // literal bound or +Inf).
        if let Some(slot) = merged.iter_mut().find(|(b, _)| b.total_cmp(&le).is_eq()) {
            slot.1 += inc;
        }
    }
    let mut cum = 0u64;
    for slot in &mut merged {
        cum += slot.1;
        slot.1 = cum;
    }
    merged
}

/// The always-on self-identification samples: `bp_build_info` (value 1,
/// identity in the labels, Prometheus `*_build_info` convention) and
/// `bp_uptime_seconds` on the journal's process-wide clock origin.
fn collect_build_info(buf: &mut MetricsBuf) {
    let journal_shards = crate::journal::SHARDS.to_string();
    buf.gauge(
        "bp_build_info",
        "Build identity; value is constant 1, identity is in the labels",
        &[
            ("version", env!("CARGO_PKG_VERSION")),
            ("git_hash", option_env!("BP_GIT_HASH").unwrap_or("unknown")),
            ("profile", if cfg!(debug_assertions) { "debug" } else { "release" }),
            ("journal_shards", journal_shards.as_str()),
        ],
        1.0,
    );
    buf.gauge(
        "bp_uptime_seconds",
        "Seconds since this process first touched the observability clock",
        &[],
        crate::journal::journal_now_us() as f64 / 1e6,
    );
}

fn render_sample(out: &mut String, s: &Sample) {
    match &s.value {
        MetricValue::Counter(v) | MetricValue::Gauge(v) => {
            out.push_str(&s.name);
            render_labels(out, &s.labels, None);
            out.push(' ');
            render_value(out, *v);
            out.push('\n');
        }
        MetricValue::Histogram { buckets, sum, count } => {
            for (le, c) in buckets {
                out.push_str(&s.name);
                out.push_str("_bucket");
                render_labels(out, &s.labels, Some(*le));
                out.push(' ');
                out.push_str(&c.to_string());
                // OpenMetrics exemplar: `# {trace_id="..."} <value>` after
                // the bucket count. Ids were escaped at push time.
                if let Some(e) = s.exemplars.iter().find(|e| e.le.total_cmp(le).is_eq()) {
                    out.push_str(" # {trace_id=\"");
                    out.push_str(&e.trace_id);
                    out.push_str("\"} ");
                    render_value(out, e.value);
                }
                out.push('\n');
            }
            out.push_str(&s.name);
            out.push_str("_sum");
            render_labels(out, &s.labels, None);
            out.push(' ');
            render_value(out, *sum);
            out.push('\n');
            out.push_str(&s.name);
            out.push_str("_count");
            render_labels(out, &s.labels, None);
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
    }
}

fn render_labels(out: &mut String, labels: &[(String, String)], le: Option<f64>) {
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        // Values were escaped at push time (`escape_label_value`), so they
        // are written verbatim — escaping again would double the slashes.
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str("le=\"");
        if le.is_infinite() {
            out.push_str("+Inf");
        } else {
            render_value(out, le);
        }
        out.push('"');
    }
    out.push('}');
}

/// Prometheus floats: integral values print without a trailing `.0`.
fn render_value(out: &mut String, v: f64) {
    if v.is_finite() && v == v.trunc() && v.abs() < 1e15 {
        out.push_str(&format!("{}", v as i64));
    } else {
        out.push_str(&format!("{v}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeSource;

    impl MetricsSource for FakeSource {
        fn collect(&self, buf: &mut MetricsBuf) {
            buf.counter("fake_total", "a counter", &[("kind", "x")], 3.0);
            buf.counter("fake_total", "a counter", &[("kind", "y")], 4.0);
            buf.gauge("fake_gauge", "a gauge", &[], 1.5);
            let mut h = Histogram::latency();
            h.record(120);
            h.record(700);
            h.record(2_000_000);
            buf.histogram("fake_latency_us", "a histogram", &[], &h);
        }
    }

    #[test]
    fn render_groups_families_once() {
        let reg = MetricsRegistry::new();
        reg.register("fake", Arc::new(FakeSource));
        let text = reg.render_prometheus();
        assert_eq!(text.matches("# HELP fake_total ").count(), 1);
        assert_eq!(text.matches("# TYPE fake_total counter").count(), 1);
        assert!(text.contains("fake_total{kind=\"x\"} 3\n"));
        assert!(text.contains("fake_total{kind=\"y\"} 4\n"));
        assert!(text.contains("fake_gauge 1.5\n"));
        assert!(text.contains("# TYPE fake_latency_us histogram"));
        assert!(text.contains("fake_latency_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("fake_latency_us_count 3\n"));
    }

    #[test]
    fn histogram_buckets_cumulative_and_complete() {
        let mut h = Histogram::latency();
        for v in [50u64, 400, 800, 30_000, 2_000_000] {
            h.record(v);
        }
        let mut buf = MetricsBuf::new();
        buf.histogram("lat", "h", &[], &h);
        let s = &buf.into_samples()[0];
        let MetricValue::Histogram { buckets, count, .. } = &s.value else {
            panic!("not a histogram");
        };
        assert_eq!(*count, 5);
        // Cumulative counts never decrease and end at the total.
        let mut prev = 0;
        for (_, c) in buckets {
            assert!(*c >= prev);
            prev = *c;
        }
        let (last_le, last_c) = buckets.last().unwrap();
        assert!(last_le.is_infinite());
        assert_eq!(*last_c, 5, "out-of-range value lands in +Inf");
    }

    #[test]
    fn register_dedupes_same_arc() {
        let reg = MetricsRegistry::new();
        let src: Arc<dyn MetricsSource> = Arc::new(FakeSource);
        reg.register("a", src.clone());
        reg.register("b", src.clone());
        assert_eq!(reg.source_count(), 1);
        reg.register("c", Arc::new(FakeSource));
        assert_eq!(reg.source_count(), 2);
    }

    #[test]
    fn sanitizes_names_and_escapes_labels() {
        let mut buf = MetricsBuf::new();
        buf.counter("9bad-name.total", "c", &[("work load", "a\"b\\c\nd")], 1.0);
        let s = &buf.into_samples()[0];
        assert_eq!(s.name, "_9bad_name_total");
        assert_eq!(s.labels[0].0, "work_load");
        let reg = MetricsRegistry::new();
        struct One;
        impl MetricsSource for One {
            fn collect(&self, buf: &mut MetricsBuf) {
                buf.counter("m_total", "c", &[("l", "a\"b")], 1.0);
            }
        }
        reg.register("one", Arc::new(One));
        assert!(reg.render_prometheus().contains("m_total{l=\"a\\\"b\"} 1\n"));
    }

    #[test]
    fn empty_histogram_renders_zero_sum() {
        let h = Histogram::latency();
        let mut buf = MetricsBuf::new();
        buf.histogram("lat", "h", &[], &h);
        let s = &buf.into_samples()[0];
        let MetricValue::Histogram { buckets, sum, count } = &s.value else {
            panic!("not a histogram");
        };
        assert_eq!(*count, 0);
        assert_eq!(*sum, 0.0, "empty histogram must not render NaN sum");
        assert!(buckets.iter().all(|(_, c)| *c == 0));
        let mut out = String::new();
        render_sample(&mut out, s);
        assert!(out.contains("lat_sum 0\n"), "{out}");
        assert!(out.contains("lat_count 0\n"), "{out}");
        assert!(!out.contains("NaN"), "{out}");
    }

    #[test]
    fn build_info_and_uptime_always_present() {
        let reg = MetricsRegistry::new();
        let text = reg.render_prometheus();
        assert!(text.contains("bp_build_info{"), "{text}");
        assert!(text.contains(&format!("version=\"{}\"", env!("CARGO_PKG_VERSION"))), "{text}");
        assert!(text.contains("git_hash=\""), "{text}");
        assert!(text.contains("bp_uptime_seconds "), "{text}");
    }

    #[test]
    fn label_values_escaped_once_at_push() {
        let mut buf = MetricsBuf::new();
        buf.counter("m_total", "c", &[("l", "a\"b\\c\nd")], 1.0);
        let s = &buf.into_samples()[0];
        assert_eq!(s.labels[0].1, "a\\\"b\\\\c\\nd", "stored pre-escaped");
        let mut out = String::new();
        render_sample(&mut out, s);
        assert!(out.contains("m_total{l=\"a\\\"b\\\\c\\nd\"} 1\n"), "no double escape: {out}");
    }

    #[test]
    fn merged_registries_dedupe_families_and_sum_counters() {
        // Two nodes exposing the same families: the merged scrape must
        // carry ONE HELP/TYPE per family and the *sum* of each counter,
        // not duplicate exposition lines.
        let node = |commits: f64, lat: u64| {
            struct Src(f64, u64);
            impl MetricsSource for Src {
                fn collect(&self, buf: &mut MetricsBuf) {
                    buf.counter("bp_client_committed_total", "commits", &[("type", "T")], self.0);
                    buf.gauge("bp_queue_depth", "depth", &[], 2.0);
                    let mut h = Histogram::latency();
                    h.record(self.1);
                    buf.histogram("bp_latency_us", "lat", &[], &h);
                }
            }
            let reg = MetricsRegistry::new();
            reg.register("stats", Arc::new(Src(commits, lat)));
            reg
        };
        let (a, b) = (node(10.0, 120), node(32.0, 600_000));
        let merged = merge_samples(vec![a.snapshot(), b.snapshot()]);
        let text = render_samples(&merged);

        assert_eq!(text.matches("# HELP bp_client_committed_total").count(), 1, "{text}");
        assert_eq!(text.matches("# TYPE bp_client_committed_total").count(), 1);
        assert!(text.contains("bp_client_committed_total{type=\"T\"} 42\n"), "{text}");
        // Gauges sum across nodes (cluster-wide totals).
        assert!(text.contains("bp_queue_depth 4\n"), "{text}");
        // Histograms merge bucket-wise: one series, count 2, both samples.
        assert_eq!(text.matches("# TYPE bp_latency_us histogram").count(), 1);
        assert!(text.contains("bp_latency_us_count 2\n"), "{text}");
        assert!(text.contains("bp_latency_us_bucket{le=\"+Inf\"} 2\n"), "{text}");
        // Exactly one series line per (name, labels): no duplicates.
        let dup = text
            .lines()
            .filter(|l| l.starts_with("bp_client_committed_total{"))
            .count();
        assert_eq!(dup, 1, "{text}");
        // Per-node build_info gauges share one family header too.
        assert_eq!(text.matches("# TYPE bp_build_info gauge").count(), 1);
    }

    #[test]
    fn merge_keeps_distinct_label_sets_separate() {
        let mut buf = MetricsBuf::new();
        buf.counter("m_total", "c", &[("w", "a")], 1.0);
        buf.counter("m_total", "c", &[("w", "b")], 2.0);
        let s1 = buf.into_samples();
        let mut buf = MetricsBuf::new();
        buf.counter("m_total", "c", &[("w", "a")], 5.0);
        let s2 = buf.into_samples();
        let merged = merge_samples(vec![s1, s2]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].value, MetricValue::Counter(6.0));
        assert_eq!(merged[1].value, MetricValue::Counter(2.0));
    }

    #[test]
    fn exemplar_renders_after_bucket_line() {
        let mut h = Histogram::latency();
        h.record(120);
        h.record(30_000);
        let mut buf = MetricsBuf::new();
        buf.histogram_with_exemplars(
            "lat_us",
            "h",
            &[("stage", "exec")],
            &h,
            &[(120, "00ab12cd34ef5678".to_string()), (30_000, "ffffffffffffffff".to_string())],
        );
        let s = &buf.into_samples()[0];
        let mut out = String::new();
        render_sample(&mut out, s);
        // 120µs lands in the first (le=250) bucket; 30ms in le=50000.
        assert!(
            out.contains("lat_us_bucket{stage=\"exec\",le=\"250\"} 1 # {trace_id=\"00ab12cd34ef5678\"} 120\n"),
            "{out}"
        );
        assert!(
            out.contains("le=\"50000\"} 2 # {trace_id=\"ffffffffffffffff\"} 30000\n"),
            "{out}"
        );
        // Buckets without an exemplar render bare.
        assert!(out.contains("lat_us_bucket{stage=\"exec\",le=\"100\"} 0\n"), "{out}");
    }

    #[test]
    fn at_most_one_exemplar_per_bucket_most_recent_wins() {
        let mut h = Histogram::latency();
        for v in [150u64, 160, 170] {
            h.record(v);
        }
        let mut buf = MetricsBuf::new();
        // All three land in the le=250 bucket; pairs are oldest-first.
        buf.histogram_with_exemplars(
            "lat_us",
            "h",
            &[],
            &h,
            &[
                (150, "aaaa".to_string()),
                (160, "bbbb".to_string()),
                (170, "cccc".to_string()),
            ],
        );
        let s = &buf.into_samples()[0];
        assert_eq!(s.exemplars.len(), 1, "one exemplar per bucket");
        assert_eq!(s.exemplars[0].trace_id, "cccc", "most recent wins");
        let mut out = String::new();
        render_sample(&mut out, s);
        assert_eq!(out.matches(" # {").count(), 1, "{out}");
    }

    #[test]
    fn exemplar_trace_ids_escaped_inside_braces() {
        let mut h = Histogram::latency();
        h.record(120);
        let mut buf = MetricsBuf::new();
        buf.histogram_with_exemplars(
            "lat_us",
            "h",
            &[],
            &h,
            &[(120, "bad\"id\\with\nstuff".to_string())],
        );
        let s = &buf.into_samples()[0];
        assert_eq!(s.exemplars[0].trace_id, "bad\\\"id\\\\with\\nstuff", "stored pre-escaped");
        let mut out = String::new();
        render_sample(&mut out, s);
        assert!(out.contains("# {trace_id=\"bad\\\"id\\\\with\\nstuff\"} 120"), "{out}");
        // No raw quote/newline survives inside the braces.
        let brace = out.split(" # {").nth(1).unwrap();
        assert!(!brace.contains('\n') || brace.ends_with('\n'), "{out}");
    }

    #[test]
    fn overflow_observation_lands_in_inf_exemplar() {
        let mut h = Histogram::latency();
        h.record(5_000_000);
        let mut buf = MetricsBuf::new();
        buf.histogram_with_exemplars("lat_us", "h", &[], &h, &[(5_000_000, "abcd".to_string())]);
        let s = &buf.into_samples()[0];
        assert_eq!(s.exemplars.len(), 1);
        assert!(s.exemplars[0].le.is_infinite());
        let mut out = String::new();
        render_sample(&mut out, s);
        assert!(out.contains("le=\"+Inf\"} 1 # {trace_id=\"abcd\"} 5000000\n"), "{out}");
    }

    #[test]
    fn exemplars_survive_json_round_trip_and_merge() {
        let mut h = Histogram::latency();
        h.record(120);
        let mut buf = MetricsBuf::new();
        buf.histogram_with_exemplars("lat_us", "h", &[], &h, &[(120, "aaaa".to_string())]);
        let s = buf.into_samples().remove(0);
        let back = Sample::from_json(&s.to_json()).expect("round-trip");
        assert_eq!(back, s);
        // Merge: same bound keeps the first node's exemplar; a bound only
        // the second node has comes through.
        let mut h2 = Histogram::latency();
        h2.record(130);
        h2.record(40_000);
        let mut buf = MetricsBuf::new();
        buf.histogram_with_exemplars(
            "lat_us",
            "h",
            &[],
            &h2,
            &[(130, "bbbb".to_string()), (40_000, "cccc".to_string())],
        );
        let s2 = buf.into_samples().remove(0);
        let merged = merge_samples(vec![vec![s], vec![s2]]);
        assert_eq!(merged.len(), 1);
        let ids: Vec<&str> = merged[0].exemplars.iter().map(|e| e.trace_id.as_str()).collect();
        assert!(ids.contains(&"aaaa"), "first node's exemplar kept: {ids:?}");
        assert!(ids.contains(&"cccc"), "second node's unique bound merged: {ids:?}");
        assert!(!ids.contains(&"bbbb"), "shared bound keeps one exemplar: {ids:?}");
    }

    #[test]
    fn sample_json_round_trip() {
        let mut h = Histogram::latency();
        h.record(300);
        h.record(40_000);
        h.record(5_000_000); // lands in +Inf
        let mut buf = MetricsBuf::new();
        buf.counter("c_total", "a counter", &[("k", "v\"q")], 7.5);
        buf.gauge("g", "a gauge", &[], -1.25);
        buf.histogram("h_us", "a histogram", &[("node", "n1")], &h);
        for s in buf.into_samples() {
            let back = Sample::from_json(&s.to_json()).expect("round-trip");
            assert_eq!(back, s);
        }
        // Garbage is rejected, not misparsed.
        assert!(Sample::from_json(&bp_util::json::Json::obj()).is_none());
    }

    #[test]
    fn snapshot_sorted_by_name() {
        let reg = MetricsRegistry::new();
        reg.register("fake", Arc::new(FakeSource));
        let names: Vec<String> = reg.snapshot().into_iter().map(|s| s.name).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
