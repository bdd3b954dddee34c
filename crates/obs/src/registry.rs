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
//! [`parse_samples`] is the exact inverse of [`render_samples`]: the text is
//! the one form in which metrics travel, and every exposition reader (the
//! cluster coordinator's merge among them) goes through it.
//!
//! Collection is pull-based and cold-path: sources are only walked when a
//! scrape happens, so registering a source adds zero overhead to the
//! request hot path.

use std::sync::Arc;

use bp_util::clock::{Clock, WallClock};
use bp_util::histogram::Histogram;
use bp_util::sync::Mutex;

/// Upper bounds (µs) of every rendered histogram's buckets. Chosen to
/// bracket everything from in-memory point reads to multi-second stalls.
pub const LATENCY_BOUNDS_US: [u64; 12] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
];

/// Buckets of a rendered histogram: one per bound, then `+Inf`.
pub const BUCKETS: usize = LATENCY_BOUNDS_US.len() + 1;

/// One metric's value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(f64),
    Gauge(f64),
    /// Cumulative counts at each of [`LATENCY_BOUNDS_US`] and then at
    /// `+Inf`, which is the total count; the observations' sum; and at most
    /// one exemplar per bucket, in bucket order.
    Histogram { buckets: [u64; BUCKETS], sum: f64, exemplars: Vec<Exemplar> },
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
/// line.
#[derive(Debug, Clone, PartialEq)]
pub struct Exemplar {
    /// The bucket: an index into [`LATENCY_BOUNDS_US`], or `BUCKETS - 1`
    /// for `+Inf`.
    pub bucket: usize,
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

/// The bucket a value (µs) falls in: the first bound at or above it, else
/// `+Inf`.
fn bucket_of(us: u64) -> usize {
    LATENCY_BOUNDS_US.iter().position(|&b| us <= b).unwrap_or(BUCKETS - 1)
}

/// A bucket's `le` label value.
fn le_label(bucket: usize) -> String {
    LATENCY_BOUNDS_US.get(bucket).map_or("+Inf".to_string(), u64::to_string)
}

impl MetricsBuf {
    pub fn new() -> MetricsBuf {
        MetricsBuf::default()
    }

    fn push(&mut self, name: &str, help: &'static str, labels: &[(&str, &str)], value: MetricValue) {
        self.samples.push(Sample {
            name: sanitize_name(name),
            labels: labels
                .iter()
                .map(|(k, v)| (sanitize_name(k), escape_label_value(v)))
                .collect(),
            help: help.to_string(),
            value,
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

    /// Render a [`Histogram`] into cumulative buckets on
    /// [`LATENCY_BOUNDS_US`].
    pub fn histogram(
        &mut self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
        h: &Histogram,
    ) {
        self.histogram_with_exemplars(name, help, labels, h, &[]);
    }

    /// [`MetricsBuf::histogram`], attaching at most one exemplar per bucket
    /// from `(observed_us, trace_id)` pairs. Pairs are expected
    /// oldest-first; the most recent observation per bucket wins. Trace ids
    /// are escaped here like label values, so hostile content cannot break
    /// out of the exemplar braces.
    pub fn histogram_with_exemplars(
        &mut self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
        h: &Histogram,
        observations: &[(u64, String)],
    ) {
        // Each internal bucket's count lands in the first bound that covers
        // its lower edge (≤3% representative error, same as the histogram).
        let mut buckets = [0u64; BUCKETS];
        for (low, count) in h.iter() {
            buckets[bucket_of(low)] += count;
        }
        let mut cumulative = 0;
        for b in &mut buckets {
            cumulative += *b;
            *b = cumulative;
        }
        let mut slots: [Option<&(u64, String)>; BUCKETS] = [None; BUCKETS];
        for o in observations {
            slots[bucket_of(o.0)] = Some(o);
        }
        let exemplars = (0..BUCKETS)
            .filter_map(|bucket| {
                let (us, trace) = slots[bucket]?;
                Some(Exemplar { bucket, trace_id: escape_label_value(trace), value: *us as f64 })
            })
            .collect();
        let sum = h.mean() * h.count() as f64;
        self.push(name, help, labels, MetricValue::Histogram { buckets, sum, exemplars });
    }

    pub fn into_samples(self) -> Vec<Sample> {
        self.samples
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
    /// Started with the registry; `bp_uptime_seconds` reads it.
    uptime: WallClock,
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
        collect_build_info(&mut buf, self.uptime.now());
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

/// Exact inverse of [`render_samples`]: `parse_samples(&render_samples(&s))
/// == Ok(s)` for any name-sorted list a registry or [`merge_samples`]
/// produces. Label values and trace ids come back escaped, as
/// [`MetricsBuf`] stores them, and a histogram's `_bucket`, `_sum` and
/// `_count` lines fold back into one value. Strict like the artifact
/// readers, naming the line in every error: it refuses a family declared
/// twice, a sample outside its family, an unknown type, an exemplar off a
/// bucket, unterminated labels, a value that is not a number, a `_count`
/// that is not the `+Inf` count and bounds other than [`LATENCY_BOUNDS_US`].
pub fn parse_samples(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    let mut declared = std::collections::HashSet::new();
    // The HELP line waiting for its TYPE, and the family being read.
    let mut help = None;
    let mut family = None;
    let mut lines = text.lines().zip(1..);
    while let Some((line, n)) = lines.next() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            help = Some(rest.split_once(' ').unwrap_or((rest, "")));
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').unwrap_or((rest, ""));
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("line {n}: unknown type `{kind}`"));
            }
            if !declared.insert(name) {
                return Err(format!("line {n}: family {name} declared twice"));
            }
            let text = help.take().filter(|(h, _)| *h == name).map_or("", |(_, text)| text);
            family = Some((name, kind, text));
        } else if line.starts_with('#') {
            return Err(format!("line {n}: a comment that is neither HELP nor TYPE"));
        } else {
            let Some((name, kind, help)) = family else {
                return Err(format!("line {n}: a sample before its # TYPE"));
            };
            let (labels, value) = if kind == "histogram" {
                parse_histogram(name, std::iter::once((line, n)).chain(&mut lines))?
            } else {
                let s = SampleLine::parse(line, n, name, false)?;
                let scalar =
                    if kind == "counter" { MetricValue::Counter } else { MetricValue::Gauge };
                (s.labels, scalar(number(s.value, n)?))
            };
            samples.push(Sample { name: name.to_string(), labels, help: help.to_string(), value });
        }
    }
    Ok(samples)
}

/// One sample line: `name{k="v",…} value`, and on a bucket line an
/// optional ` # {trace_id="…"} value` exemplar.
struct SampleLine<'a> {
    labels: Vec<(String, String)>,
    value: &'a str,
    exemplar: Option<(&'a str, &'a str)>,
}

impl<'a> SampleLine<'a> {
    /// Split line `n`, which must be a sample of `name`.
    fn parse(line: &'a str, n: usize, name: &str, bucket: bool) -> Result<SampleLine<'a>, String> {
        let fail = |what: &str| format!("line {n}: {what}: {line}");
        let rest = line
            .strip_prefix(name)
            .filter(|r| r.starts_with(['{', ' ']))
            .ok_or_else(|| fail(&format!("not a sample of {name}")))?;
        let (labels, rest) = match rest.strip_prefix('{') {
            Some(r) => split_labels(r).ok_or_else(|| fail("unterminated labels"))?,
            None => (Vec::new(), rest),
        };
        let rest = rest.strip_prefix(' ').ok_or_else(|| fail("no value"))?;
        let (value, exemplar) = match rest.split_once(" # ") {
            None => (rest, None),
            Some(_) if !bucket => return Err(fail("an exemplar on a line that is not a bucket")),
            Some((value, e)) => {
                let (id, tail) = e
                    .strip_prefix("{trace_id=\"")
                    .and_then(quoted)
                    .ok_or_else(|| fail("malformed exemplar"))?;
                let v = tail.strip_prefix("} ").ok_or_else(|| fail("malformed exemplar"))?;
                (value, Some((id, v)))
            }
        };
        Ok(SampleLine { labels, value, exemplar })
    }
}

/// `k="v",…}` → the pairs, values still escaped, and the text after `}`.
fn split_labels(mut rest: &str) -> Option<(Vec<(String, String)>, &str)> {
    let mut labels = Vec::new();
    loop {
        if let Some(after) = rest.strip_prefix('}') {
            return Some((labels, after));
        }
        if !labels.is_empty() {
            rest = rest.strip_prefix(',')?;
        }
        let (key, value) = rest.split_once("=\"")?;
        let (value, after) = quoted(value)?;
        labels.push((key.to_string(), value.to_string()));
        rest = after;
    }
}

/// An escaped string up to its closing quote, and the text after it.
fn quoted(s: &str) -> Option<(&str, &str)> {
    let mut escaped = false;
    for (i, c) in s.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' => escaped = true,
            '"' => return Some((&s[..i], &s[i + 1..])),
            _ => {}
        }
    }
    None
}

fn number<T: std::str::FromStr>(text: &str, n: usize) -> Result<T, String> {
    text.parse().map_err(|_| format!("line {n}: value `{text}` is not a number"))
}

/// One series of histogram `family`, `BUCKETS` bucket lines then `_sum`
/// and `_count`, read off `lines`.
fn parse_histogram<'a>(
    family: &str,
    mut lines: impl Iterator<Item = (&'a str, usize)>,
) -> Result<(Vec<(String, String)>, MetricValue), String> {
    let (mut series, mut last) = (None, 0);
    // The next line: `{family}{suffix}` of the series the first line named.
    let mut next = |suffix: &str, bucket: Option<usize>| {
        let name = format!("{family}{suffix}");
        let ended = || format!("line {}: the text ends before {name}", last + 1);
        let (line, n) = lines.next().ok_or_else(ended)?;
        last = n;
        let mut s = SampleLine::parse(line, n, &name, bucket.is_some())?;
        if let Some(bucket) = bucket {
            // `le` is the last label; the others name the series.
            let want = le_label(bucket);
            if !matches!(s.labels.pop(), Some((k, v)) if k == "le" && v == want) {
                return Err(format!(
                    "line {n}: bucket {bucket} is not le=\"{want}\": \
                     histograms are rendered on LATENCY_BOUNDS_US: {line}"
                ));
            }
        }
        if *series.get_or_insert_with(|| s.labels.clone()) != s.labels {
            return Err(format!("line {n}: a line of another series: {line}"));
        }
        Ok((s, n))
    };
    let mut buckets = [0u64; BUCKETS];
    let mut exemplars = Vec::new();
    for bucket in 0..BUCKETS {
        let (s, n) = next("_bucket", Some(bucket))?;
        buckets[bucket] = number(s.value, n)?;
        if bucket > 0 && buckets[bucket] < buckets[bucket - 1] {
            return Err(format!("line {n}: a cumulative bucket count that goes down: {}", s.value));
        }
        if let Some((trace_id, value)) = s.exemplar {
            let value = number(value, n)?;
            exemplars.push(Exemplar { bucket, trace_id: trace_id.to_string(), value });
        }
    }
    let (s, n) = next("_sum", None)?;
    let sum = number(s.value, n)?;
    let (s, n) = next("_count", None)?;
    let total = buckets[BUCKETS - 1];
    if number::<u64>(s.value, n)? != total {
        return Err(format!("line {n}: _count disagrees with the +Inf bucket {total}"));
    }
    Ok((s.labels, MetricValue::Histogram { buckets, sum, exemplars }))
}

/// Merge several snapshots (e.g. one per cluster node) into one
/// name-sorted sample list. Samples with the same name *and* label set
/// fold into a single series — counters and gauges sum, histograms add
/// bucket by bucket — so scraping the merged set never emits duplicate
/// series or duplicate `HELP`/`TYPE` lines. Same-name samples with
/// different labels stay separate series under one family, exactly as a
/// single registry renders them.
pub fn merge_samples(sets: Vec<Vec<Sample>>) -> Vec<Sample> {
    let mut all: Vec<Sample> = sets.into_iter().flatten().collect();
    all.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    let mut out: Vec<Sample> = Vec::with_capacity(all.len());
    for s in all {
        let folded = out.last_mut().is_some_and(|prev| {
            prev.name == s.name && prev.labels == s.labels && fold_value(&mut prev.value, &s.value)
        });
        if !folded {
            out.push(s);
        }
    }
    out
}

/// Fold `b` into `a` when the two values are the same metric type;
/// returns false (leaving both untouched) on a type clash.
fn fold_value(a: &mut MetricValue, b: &MetricValue) -> bool {
    match (a, b) {
        (MetricValue::Counter(x), MetricValue::Counter(y))
        | (MetricValue::Gauge(x), MetricValue::Gauge(y)) => *x += y,
        (
            MetricValue::Histogram { buckets, sum, exemplars },
            MetricValue::Histogram { buckets: b2, sum: s2, exemplars: e2 },
        ) => {
            for (x, y) in buckets.iter_mut().zip(b2) {
                *x += y;
            }
            *sum += s2;
            // At most one exemplar per bucket: the first node's wins.
            for e in e2 {
                if let Err(at) = exemplars.binary_search_by_key(&e.bucket, |x| x.bucket) {
                    exemplars.insert(at, e.clone());
                }
            }
        }
        _ => return false,
    }
    true
}

/// The always-on self-identification samples: `bp_build_info` (value 1,
/// identity in the labels, Prometheus `*_build_info` convention) and
/// `bp_uptime_seconds`, `uptime_us` since the registry was built.
fn collect_build_info(buf: &mut MetricsBuf, uptime_us: u64) {
    buf.gauge(
        "bp_build_info",
        "Build identity; value is constant 1, identity is in the labels",
        &[
            ("version", env!("CARGO_PKG_VERSION")),
            ("git_hash", option_env!("BP_GIT_HASH").unwrap_or("unknown")),
            ("profile", if cfg!(debug_assertions) { "debug" } else { "release" }),
        ],
        1.0,
    );
    buf.gauge(
        "bp_uptime_seconds",
        "Seconds of wall time since this metrics registry was created",
        &[],
        uptime_us as f64 / 1e6,
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
        MetricValue::Histogram { buckets, sum, exemplars } => {
            for (bucket, c) in buckets.iter().enumerate() {
                out.push_str(&s.name);
                out.push_str("_bucket");
                render_labels(out, &s.labels, Some(bucket));
                out.push(' ');
                out.push_str(&c.to_string());
                // OpenMetrics exemplar: `# {trace_id="..."} <value>` after
                // the bucket count. Ids were escaped at push time.
                if let Some(e) = exemplars.iter().find(|e| e.bucket == bucket) {
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
            out.push_str(&buckets[BUCKETS - 1].to_string());
            out.push('\n');
        }
    }
}

fn render_labels(out: &mut String, labels: &[(String, String)], bucket: Option<usize>) {
    if labels.is_empty() && bucket.is_none() {
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
    if let Some(bucket) = bucket {
        if !first {
            out.push(',');
        }
        out.push_str("le=\"");
        out.push_str(&le_label(bucket));
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
    use bp_util::rng::Rng;

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

    fn histogram(s: &Sample) -> (&[u64; BUCKETS], f64, &[Exemplar]) {
        match &s.value {
            MetricValue::Histogram { buckets, sum, exemplars } => (buckets, *sum, exemplars),
            other => panic!("not a histogram: {other:?}"),
        }
    }

    /// A registry's samples as its parent commit rendered them, byte for
    /// byte.
    struct Golden;

    impl MetricsSource for Golden {
        fn collect(&self, buf: &mut MetricsBuf) {
            let mut h = Histogram::latency();
            for v in [0u64, 90, 120, 700, 2_400, 30_000, 2_000_000] {
                h.record(v);
            }
            buf.counter("bp_golden_total", "A counter", &[("type", "a\"b\\c\nd")], 42.0);
            buf.counter("bp_golden_total", "A counter", &[("type", "plain")], f64::INFINITY);
            buf.gauge("bp_golden_ratio", "A gauge", &[], 0.125);
            buf.gauge("bp_golden_neg", "", &[("k", "v")], -3.5);
            buf.histogram_with_exemplars(
                "bp_golden_latency_us",
                "A histogram",
                &[("stage", "exec")],
                &h,
                &[(120, "00ab".to_string()), (2_000_000, "ff\"x".to_string())],
            );
            buf.histogram("bp_golden_empty_us", "Empty", &[], &Histogram::latency());
        }
    }

    const GOLDEN: &str = r#"# HELP bp_golden_empty_us Empty
# TYPE bp_golden_empty_us histogram
bp_golden_empty_us_bucket{le="100"} 0
bp_golden_empty_us_bucket{le="250"} 0
bp_golden_empty_us_bucket{le="500"} 0
bp_golden_empty_us_bucket{le="1000"} 0
bp_golden_empty_us_bucket{le="2500"} 0
bp_golden_empty_us_bucket{le="5000"} 0
bp_golden_empty_us_bucket{le="10000"} 0
bp_golden_empty_us_bucket{le="25000"} 0
bp_golden_empty_us_bucket{le="50000"} 0
bp_golden_empty_us_bucket{le="100000"} 0
bp_golden_empty_us_bucket{le="250000"} 0
bp_golden_empty_us_bucket{le="1000000"} 0
bp_golden_empty_us_bucket{le="+Inf"} 0
bp_golden_empty_us_sum 0
bp_golden_empty_us_count 0
# HELP bp_golden_latency_us A histogram
# TYPE bp_golden_latency_us histogram
bp_golden_latency_us_bucket{stage="exec",le="100"} 2
bp_golden_latency_us_bucket{stage="exec",le="250"} 3 # {trace_id="00ab"} 120
bp_golden_latency_us_bucket{stage="exec",le="500"} 3
bp_golden_latency_us_bucket{stage="exec",le="1000"} 4
bp_golden_latency_us_bucket{stage="exec",le="2500"} 5
bp_golden_latency_us_bucket{stage="exec",le="5000"} 5
bp_golden_latency_us_bucket{stage="exec",le="10000"} 5
bp_golden_latency_us_bucket{stage="exec",le="25000"} 5
bp_golden_latency_us_bucket{stage="exec",le="50000"} 6
bp_golden_latency_us_bucket{stage="exec",le="100000"} 6
bp_golden_latency_us_bucket{stage="exec",le="250000"} 6
bp_golden_latency_us_bucket{stage="exec",le="1000000"} 6
bp_golden_latency_us_bucket{stage="exec",le="+Inf"} 7 # {trace_id="ff\"x"} 2000000
bp_golden_latency_us_sum{stage="exec"} 2033310
bp_golden_latency_us_count{stage="exec"} 7
# HELP bp_golden_neg 
# TYPE bp_golden_neg gauge
bp_golden_neg{k="v"} -3.5
# HELP bp_golden_ratio A gauge
# TYPE bp_golden_ratio gauge
bp_golden_ratio 0.125
# HELP bp_golden_total A counter
# TYPE bp_golden_total counter
bp_golden_total{type="a\"b\\c\nd"} 42
bp_golden_total{type="plain"} inf
"#;

    /// The fixed registry renders what the union-of-bounds histograms
    /// rendered, byte for byte; only the always-on identity samples are
    /// left out, since uptime moves.
    #[test]
    fn render_is_byte_identical_to_the_golden_page() {
        let reg = MetricsRegistry::new();
        reg.register("golden", Arc::new(Golden));
        let mut samples = reg.snapshot();
        samples.retain(|s| s.name.starts_with("bp_golden"));
        assert_eq!(render_samples(&samples), GOLDEN);
    }

    /// Samples of up to six families of every type: label values with `\`,
    /// `"` and newlines; values at 0, at fractions and at ±∞; empty and full
    /// histograms with exemplars on any bucket, `+Inf` among them.
    fn random_samples(rng: &mut Rng) -> Vec<Sample> {
        const VALUES: [f64; 6] = [0.0, 0.5, -2.25, 1e-9, f64::INFINITY, f64::NEG_INFINITY];
        const LABELS: [&str; 5] = ["plain", "back\\slash", "a \"quote\"", "new\nline", ""];
        let mut buf = MetricsBuf::new();
        for family in 0..1 + rng.index(6) {
            let name = format!("bp_f{family}");
            let kind = rng.index(3);
            for series in 0..1 + rng.index(3) {
                let series = format!("s{series}");
                let labels = [("series", series.as_str()), ("v", *rng.choose(&LABELS))];
                let labels = &labels[..rng.index(3)];
                let v = if rng.bool_with(0.5) { *rng.choose(&VALUES) } else { rng.f64() * 1e6 };
                match kind {
                    0 => buf.counter(&name, "a counter", labels, v),
                    1 => buf.gauge(&name, "a gauge", labels, v),
                    _ => {
                        // Log-uniform over 1 µs..5 s: every bucket, +Inf too.
                        let observed: Vec<(u64, String)> = (0..rng.index(60))
                            .map(|_| {
                                let us = 10f64.powf(rng.f64_range(0.0, 6.7)) as u64;
                                (us, format!("{us:x}{}", rng.choose(&LABELS)))
                            })
                            .collect();
                        let mut h = Histogram::latency();
                        for (us, _) in &observed {
                            h.record(*us);
                        }
                        let some = observed.len() / (1 + rng.index(4));
                        let observed = &observed[..some];
                        buf.histogram_with_exemplars(&name, "a histogram", labels, &h, observed);
                    }
                }
            }
        }
        let mut samples = buf.into_samples();
        samples.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        samples
    }

    #[test]
    fn parse_inverts_render_on_random_registries() {
        let mut rng = Rng::new(27);
        // Seen at least once: an exemplar on +Inf, an empty histogram, one
        // with every bucket filled, an infinite value, an escaped label.
        let mut seen = [false; 5];
        for _ in 0..256 {
            let samples = random_samples(&mut rng);
            let text = render_samples(&samples);
            let parsed = parse_samples(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_eq!(parsed, samples, "{text}");
            assert_eq!(render_samples(&parsed), text);
            for s in &samples {
                match &s.value {
                    MetricValue::Histogram { buckets, exemplars, .. } => {
                        seen[0] |= exemplars.iter().any(|e| e.bucket == BUCKETS - 1);
                        seen[1] |= buckets[BUCKETS - 1] == 0;
                        seen[2] |= buckets[0] > 0 && buckets.windows(2).all(|w| w[0] < w[1]);
                    }
                    MetricValue::Counter(v) | MetricValue::Gauge(v) => seen[3] |= v.is_infinite(),
                }
                seen[4] |= s.labels.iter().any(|(_, v)| v.contains("\\n"));
            }
        }
        assert_eq!(seen, [true; 5]);
    }

    #[test]
    fn parse_refuses_what_render_never_writes() {
        assert_eq!(parse_samples(GOLDEN).map(|s| s.len()), Ok(6));
        let cases = [
            (
                "a family declared twice",
                format!("{GOLDEN}# TYPE bp_golden_ratio gauge\n"),
                "line 45: family bp_golden_ratio declared twice",
            ),
            (
                "a sample before its TYPE",
                format!("bp_golden_ratio 1\n{GOLDEN}"),
                "line 1: a sample before its # TYPE",
            ),
            (
                "a sample outside its family",
                GOLDEN.replace("bp_golden_ratio 0", "bp_golden_other 0"),
                "line 40: not a sample of bp_golden_ratio",
            ),
            (
                "an unknown type",
                GOLDEN.replace("ratio gauge", "ratio summary"),
                "line 39: unknown type `summary`",
            ),
            (
                "an exemplar off a bucket",
                GOLDEN.replace("0.125", "0.125 # {trace_id=\"00ab\"} 1"),
                "line 40: an exemplar on a line that is not a bucket",
            ),
            (
                "an exemplar on a _sum",
                GOLDEN.replace("us_sum 0", "us_sum 0 # {trace_id=\"00ab\"} 1"),
                "line 16: an exemplar on a line that is not a bucket",
            ),
            (
                "unterminated labels",
                GOLDEN.replace("{k=\"v\"}", "{k=\"v\""),
                "line 37: unterminated labels",
            ),
            (
                "a value that is not a number",
                GOLDEN.replace("0.125", "fast"),
                "line 40: value `fast` is not a number",
            ),
            (
                "a count that is not a number",
                GOLDEN.replace("\"} 3 #", "\"} 3.5 #"),
                "line 21: value `3.5` is not a number",
            ),
            (
                "a _count that disagrees with +Inf",
                GOLDEN.replace("\"exec\"} 7\n", "\"exec\"} 8\n"),
                "line 34: _count disagrees with the +Inf bucket 7",
            ),
            (
                "bounds other than LATENCY_BOUNDS_US",
                GOLDEN.replace("le=\"250\"", "le=\"300\""),
                "line 4: bucket 1 is not le=\"250\"",
            ),
            (
                "a bucket count that goes down",
                GOLDEN.replace("\"1000\"} 4\n", "\"1000\"} 2\n"),
                "line 23: a cumulative bucket count that goes down: 2",
            ),
            (
                "a bucket missing",
                GOLDEN.replace("bp_golden_empty_us_bucket{le=\"+Inf\"} 0\n", ""),
                "line 15: not a sample of bp_golden_empty_us_bucket",
            ),
            (
                "a series split",
                GOLDEN.replace("exec\",le=\"500", "load\",le=\"500"),
                "line 22: a line of another series",
            ),
            (
                "a histogram cut short",
                GOLDEN.lines().take(10).map(|l| format!("{l}\n")).collect(),
                "line 11: the text ends before bp_golden_empty_us_bucket",
            ),
        ];
        for (case, text, want) in cases {
            let err = parse_samples(&text).expect_err(case);
            assert!(err.starts_with(want), "{case}: {err}");
        }
    }

    struct Node(u64);

    impl MetricsSource for Node {
        fn collect(&self, buf: &mut MetricsBuf) {
            let n = self.0;
            buf.counter("bp_node_total", "commits", &[("type", "T")], 10.0 * n as f64);
            buf.counter("bp_node_total", "commits", &[("type", &format!("only{n}"))], 1.0);
            buf.gauge("bp_node_ratio", "a ratio", &[], 0.25 * n as f64);
            let observed: Vec<(u64, String)> =
                (0..20 * n).map(|i| (i * i * 400 * n, format!("{n}{i:x}"))).collect();
            let mut h = Histogram::latency();
            for (us, _) in &observed {
                h.record(*us);
            }
            buf.histogram_with_exemplars("bp_node_latency_us", "latency", &[], &h, &observed);
        }
    }

    #[test]
    fn merging_parsed_pages_equals_merging_snapshots() {
        let snapshots: Vec<Vec<Sample>> = (1..=3)
            .map(|n| {
                let reg = MetricsRegistry::new();
                reg.register("node", Arc::new(Node(n)));
                reg.snapshot()
            })
            .collect();
        let pages: Vec<Vec<Sample>> =
            snapshots.iter().map(|s| parse_samples(&render_samples(s)).unwrap()).collect();
        let merged = merge_samples(snapshots);
        assert_eq!(merge_samples(pages), merged);
        // The merged list renders to a page that parses back to it.
        assert_eq!(parse_samples(&render_samples(&merged)), Ok(merged.clone()));
        let lat = merged.iter().find(|s| s.name == "bp_node_latency_us").unwrap();
        let (buckets, _, exemplars) = histogram(lat);
        assert_eq!(buckets[BUCKETS - 1], 20 + 40 + 60);
        assert!(exemplars.windows(2).all(|w| w[0].bucket < w[1].bucket), "{exemplars:?}");
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
        let samples = buf.into_samples();
        let (buckets, _, _) = histogram(&samples[0]);
        // Cumulative counts never decrease and end at the total.
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{buckets:?}");
        assert_eq!(buckets[BUCKETS - 1], 5, "out-of-range value lands in +Inf");
        assert_eq!(buckets[BUCKETS - 2], 4);
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
        let (buckets, sum, _) = histogram(s);
        assert_eq!(sum, 0.0, "empty histogram must not render NaN sum");
        assert_eq!(*buckets, [0; BUCKETS]);
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
        assert!(text.contains("bp_latency_us_bucket{le=\"250\"} 1\n"), "{text}");
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
        let (_, _, exemplars) = histogram(s);
        assert_eq!(exemplars.len(), 1, "one exemplar per bucket");
        let kept = (exemplars[0].bucket, exemplars[0].trace_id.as_str());
        assert_eq!(kept, (1, "cccc"), "most recent wins");
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
        assert_eq!(histogram(s).2[0].trace_id, "bad\\\"id\\\\with\\nstuff", "stored pre-escaped");
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
        let (_, _, exemplars) = histogram(s);
        assert_eq!(exemplars.len(), 1);
        assert_eq!(exemplars[0].bucket, BUCKETS - 1);
        let mut out = String::new();
        render_sample(&mut out, s);
        assert!(out.contains("le=\"+Inf\"} 1 # {trace_id=\"abcd\"} 5000000\n"), "{out}");
    }

    #[test]
    fn exemplars_survive_the_text_round_trip_and_merge() {
        let mut h = Histogram::latency();
        h.record(120);
        let mut buf = MetricsBuf::new();
        buf.histogram_with_exemplars("lat_us", "h", &[], &h, &[(120, "aaaa".to_string())]);
        let s = buf.into_samples();
        let back = parse_samples(&render_samples(&s)).expect("round-trip");
        assert_eq!(back, s);
        // Merge: a shared bucket keeps the first node's exemplar; a bucket
        // only the second node has comes through, in bucket order.
        let mut h2 = Histogram::latency();
        h2.record(50);
        h2.record(130);
        h2.record(40_000);
        let mut buf = MetricsBuf::new();
        buf.histogram_with_exemplars(
            "lat_us",
            "h",
            &[],
            &h2,
            &[(50, "dddd".to_string()), (130, "bbbb".to_string()), (40_000, "cccc".to_string())],
        );
        let merged = merge_samples(vec![back, buf.into_samples()]);
        assert_eq!(merged.len(), 1);
        let ids: Vec<&str> = histogram(&merged[0]).2.iter().map(|e| e.trace_id.as_str()).collect();
        assert_eq!(ids, ["dddd", "aaaa", "cccc"]);
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
