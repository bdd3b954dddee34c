//! Statistics collection: per-type latency histograms, per-second
//! throughput series, queue delay, and the instantaneous feedback the
//! control API exposes (§2.2.4).
//!
//! The completion path is the hottest client-side code in the testbed —
//! every finished transaction calls [`StatsCollector::record`] — so the
//! collector is sharded: the executor builds it with one cache-line-padded
//! shard per terminal and hands worker *w* thread slot *w*, so each worker
//! records into a shard guarded by a lock no other recorder touches.
//! Readers (the controller feedback loop, the telemetry sensor, the control
//! API) merge the shards on demand; reads are orders of magnitude rarer than
//! writes, so the merge cost sits on the cold path where it belongs.

use bp_util::clock::{Micros, SharedClock, MICROS_PER_SEC};
use bp_util::histogram::{Histogram, WindowedHistogram};
use bp_util::json::Json;
use bp_util::sync::{thread_slot, CachePadded, Mutex};
use bp_util::timeseries::TimeSeries;

/// Seconds of per-second latency history each shard keeps: the second
/// being written and [`MAX_WINDOW_S`] whole seconds before it. Two minutes
/// covers any control-loop window while bounding memory per shard.
const WINDOW_RING_S: usize = 120;

/// The longest window in whole seconds: a snapshot's and an SLO loop's.
pub(crate) const MAX_WINDOW_S: usize = WINDOW_RING_S - 1;

/// How a dispatched request ended: the span's outcome under the driver's
/// name for it.
pub use bp_obs::SpanOutcome as RequestOutcome;

#[derive(Debug, Clone, Default)]
struct PerType {
    latency: Histogram,
    committed: u64,
    user_aborted: u64,
    failed: u64,
    retries: u64,
    shed: u64,
}

impl PerType {
    fn merge(&mut self, other: &PerType) {
        self.latency.merge(&other.latency);
        self.committed += other.committed;
        self.user_aborted += other.user_aborted;
        self.failed += other.failed;
        self.retries += other.retries;
        self.shed += other.shed;
    }
}

/// The run's totals: what `status`, the per-type summary, the delay
/// distributions and a scrape read, each the same size however long the
/// run.
#[derive(Debug)]
struct Totals {
    per_type: Vec<PerType>,
    queue_delay: Histogram,
    /// Scheduled arrival → end: what a paced client saw, queueing included
    /// (the latency histograms time dequeue → end).
    response: Histogram,
}

impl Totals {
    fn new(num_types: usize) -> Totals {
        Totals {
            per_type: vec![PerType::default(); num_types],
            queue_delay: Histogram::latency(),
            response: Histogram::latency(),
        }
    }

    fn merge(&mut self, other: &Totals) {
        for (pt, o) in self.per_type.iter_mut().zip(&other.per_type) {
            pt.merge(o);
        }
        self.queue_delay.merge(&other.queue_delay);
        self.response.merge(&other.response);
    }
}

/// One worker's private slice of the statistics.
#[derive(Debug)]
struct Shard {
    totals: Totals,
    /// Completions per second, regardless of type.
    all_completions: TimeSeries,
    requested: TimeSeries,
    /// Per-second latency ring for sliding-window percentiles. Recorded
    /// under the same shard lock as everything else: no new locking on
    /// the hot path.
    windowed: WindowedHistogram,
}

impl Shard {
    fn new(num_types: usize) -> Shard {
        Shard {
            totals: Totals::new(num_types),
            all_completions: TimeSeries::default(),
            requested: TimeSeries::default(),
            windowed: WindowedHistogram::new(WINDOW_RING_S),
        }
    }
}

/// Thread-safe statistics collector shared by all workers of one workload.
///
/// Writes go to shard `thread_slot() % shards`; with one shard per worker
/// and the executor's slot assignment, no lock in [`StatsCollector::record`]
/// is shared across recording workers. Readers merge all shards on demand.
pub struct StatsCollector {
    shards: Vec<CachePadded<Mutex<Shard>>>,
    type_names: Vec<String>,
    clock: SharedClock,
    start: Micros,
    /// Span recorder attached by the executor so client latency histograms
    /// can carry trace-id exemplars on scrape (cold path only).
    span_source: Mutex<Option<std::sync::Arc<bp_obs::SpanRecorder>>>,
}

/// One completed-request sample.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub txn_type: usize,
    /// When the request was scheduled to arrive.
    pub arrival: Micros,
    /// When a worker started executing it.
    pub start: Micros,
    /// When it finished.
    pub end: Micros,
    pub outcome: RequestOutcome,
    pub retries: u32,
}

/// A point-in-time view used by the control API and the game.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusSnapshot {
    /// [`StatsCollector::window_snapshot`]'s: a quiet second counts 0.
    pub throughput: f64,
    /// Mean latency (µs) per transaction type over the whole run.
    pub latency_by_type: Vec<(String, f64)>,
    /// p95 latency across all types (µs).
    pub p95_latency_us: u64,
    pub committed: u64,
    pub user_aborted: u64,
    pub failed: u64,
    pub retries: u64,
    /// Requests shed by the admission controller (excluded from
    /// throughput and latency).
    pub shed: u64,
    /// Seconds since the collector started.
    pub elapsed_s: f64,
}

impl StatsCollector {
    /// A collector for one writer (one shard).
    pub fn new(clock: SharedClock, type_names: &[&str]) -> StatsCollector {
        StatsCollector::with_shards(clock, type_names, 1)
    }

    /// One shard per writer: the executor passes its terminal count.
    pub fn with_shards(
        clock: SharedClock,
        type_names: &[&str],
        shards: usize,
    ) -> StatsCollector {
        let shards = shards.max(1);
        let num_types = type_names.len();
        StatsCollector {
            shards: (0..shards)
                .map(|_| CachePadded::new(Mutex::new(Shard::new(num_types))))
                .collect(),
            type_names: type_names.iter().map(|n| (*n).to_string()).collect(),
            start: clock.now(),
            clock,
            span_source: Mutex::new(None),
        }
    }

    /// Attach the run's span recorder; scrapes then decorate
    /// `bp_client_latency_us` buckets with recent trace-id exemplars.
    pub fn set_span_source(&self, spans: std::sync::Arc<bp_obs::SpanRecorder>) {
        *self.span_source.lock() = Some(spans);
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The calling thread's shard: worker *w* of a run holds slot *w*.
    #[inline]
    fn my_shard(&self) -> &Mutex<Shard> {
        &self.shards[thread_slot() % self.shards.len()]
    }

    /// Every shard's totals folded into one (cold path): the per-second
    /// series and the window ring are each read on their own.
    fn merged(&self) -> Totals {
        let mut acc = Totals::new(self.type_names.len());
        for shard in &self.shards {
            acc.merge(&shard.lock().totals);
        }
        acc
    }

    /// One per-second series, `pick`ed from every shard and folded.
    fn series(&self, pick: impl Fn(&Shard) -> &TimeSeries) -> Vec<f64> {
        let mut acc = TimeSeries::default();
        for shard in &self.shards {
            acc.merge(pick(&shard.lock()));
        }
        acc.rates()
    }

    /// Record a completed request. Touches only the calling worker's shard.
    pub fn record(&self, s: Sample) {
        let latency = s.end.saturating_sub(s.start);
        let delay = s.start.saturating_sub(s.arrival);
        let mut shard = self.my_shard().lock();
        if s.outcome == RequestOutcome::Shed {
            // Shed requests never executed: they contribute to no latency
            // histogram and no completion (throughput) series — only their
            // own counter. Graceful degradation must not be reported as
            // either work done or work failed.
            if let Some(pt) = shard.totals.per_type.get_mut(s.txn_type) {
                pt.shed += 1;
            }
            return;
        }
        let end = self.since_start(s.end);
        shard.windowed.record(end, latency);
        shard.totals.queue_delay.record(delay);
        shard.totals.response.record(s.end.saturating_sub(s.arrival));
        shard.all_completions.add(end, 1);
        if let Some(pt) = shard.totals.per_type.get_mut(s.txn_type) {
            pt.latency.record(latency);
            pt.retries += s.retries as u64;
            match s.outcome {
                RequestOutcome::Committed => pt.committed += 1,
                RequestOutcome::UserAborted => pt.user_aborted += 1,
                RequestOutcome::Failed => pt.failed += 1,
                RequestOutcome::Shed => unreachable!("shed handled above"),
            }
        }
    }

    /// Record that `n` requests were generated at time `t` (target side).
    pub fn record_requested(&self, t: Micros, n: usize) {
        let t = self.since_start(t);
        self.my_shard().lock().requested.add(t, n as u64);
    }

    /// Instantaneous status: the run's totals, and the throughput of the
    /// last `window_s` whole seconds.
    pub fn status(&self, window_s: usize) -> StatusSnapshot {
        let throughput = self.window_snapshot(window_s).throughput;
        let merged = self.merged();
        let now = self.since_start(self.clock.now());
        let latency_by_type = self
            .type_names
            .iter()
            .zip(&merged.per_type)
            .map(|(name, pt)| (name.clone(), pt.latency.mean()))
            .collect();
        let mut all_latency = Histogram::latency();
        for pt in &merged.per_type {
            all_latency.merge(&pt.latency);
        }
        StatusSnapshot {
            throughput,
            latency_by_type,
            p95_latency_us: all_latency.p95(),
            committed: merged.per_type.iter().map(|p| p.committed).sum(),
            user_aborted: merged.per_type.iter().map(|p| p.user_aborted).sum(),
            failed: merged.per_type.iter().map(|p| p.failed).sum(),
            retries: merged.per_type.iter().map(|p| p.retries).sum(),
            shed: merged.per_type.iter().map(|p| p.shed).sum(),
            elapsed_s: now as f64 / MICROS_PER_SEC as f64,
        }
    }

    /// Per-second delivered throughput series.
    pub fn throughput_series(&self) -> Vec<f64> {
        self.series(|s| &s.all_completions)
    }

    /// Per-second requested (target) series.
    pub fn requested_series(&self) -> Vec<f64> {
        self.series(|s| &s.requested)
    }

    /// Per-type summary: (name, count, mean µs, p95 µs, committed, aborted).
    pub fn per_type_summary(&self) -> Vec<TypeSummary> {
        let merged = self.merged();
        self.type_names
            .iter()
            .zip(&merged.per_type)
            .map(|(name, pt)| TypeSummary {
                name: name.clone(),
                count: pt.latency.count(),
                mean_us: pt.latency.mean(),
                p95_us: pt.latency.p95(),
                committed: pt.committed,
                user_aborted: pt.user_aborted,
                failed: pt.failed,
            })
            .collect()
    }

    /// Queue-delay distribution snapshot (p50, p95, max in µs).
    pub fn queue_delay(&self) -> (u64, u64, u64) {
        let merged = self.merged();
        (merged.queue_delay.p50(), merged.queue_delay.p95(), merged.queue_delay.max())
    }

    /// Response-time distribution snapshot, scheduled arrival → end (p50,
    /// p95, max in µs).
    pub fn response_time(&self) -> (u64, u64, u64) {
        let h = self.merged().response;
        (h.p50(), h.p95(), h.max())
    }

    pub fn total_completed(&self) -> u64 {
        self.completed_by_shard().sum()
    }

    /// Completions recorded into each shard, in shard order.
    pub(crate) fn completed_by_shard(&self) -> impl Iterator<Item = u64> + '_ {
        self.shards.iter().map(|s| s.lock().totals.per_type.iter().map(|p| p.latency.count()).sum())
    }

    /// The clock this collector stamps and windows against.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Clock time `t` as µs since the collector started: the run's time,
    /// which its series and windows are binned on.
    pub fn since_start(&self, t: Micros) -> Micros {
        t.saturating_sub(self.start)
    }

    /// Latency histogram over the last `window_s` seconds, the current
    /// partial second included: a second later than
    /// [`StatsCollector::window_snapshot`], as the benchmark reads second `s`
    /// as the difference of two of these windows, both ending now.
    pub fn window_histogram(&self, window_s: usize) -> Histogram {
        self.fold_window(window_s.max(1) as u64, 1).0
    }

    /// The last `window_s` whole seconds, `now_sec - w ..= now_sec - 1`
    /// with `w` clamped to `1..=MAX_WINDOW_S`: one lock per shard folds its
    /// ring slice, so a snapshot costs the same late in a run as early.
    pub fn window_snapshot(&self, window_s: usize) -> WindowSnapshot {
        let (hist, seconds) = self.fold_window(window_s.clamp(1, MAX_WINDOW_S) as u64, 0);
        let throughput = hist.count() as f64 / seconds.max(1) as f64;
        WindowSnapshot { count: hist.count(), p50_us: hist.p50(), p99_us: hist.p99(), throughput }
    }

    /// Every shard's ring slice over the `window_s` seconds before second
    /// `now_sec + ahead`, folded, and how many of them the run has had.
    fn fold_window(&self, window_s: u64, ahead: u64) -> (Histogram, u64) {
        let end = self.since_start(self.clock.now()) / MICROS_PER_SEC + ahead;
        let seconds = end.saturating_sub(window_s)..end;
        let mut acc = Histogram::latency();
        for shard in &self.shards {
            acc.merge(&shard.lock().windowed.window(seconds.clone()));
        }
        (acc, seconds.end - seconds.start)
    }
}

/// The last `w` whole seconds, `now_sec - w ..= now_sec - 1`: what the
/// node's SLO loop, the heartbeat, the fleet loop, the telemetry sensor,
/// `/status` and `bp_client_throughput_tps` read. All four fields cover
/// that one range of the per-second ring, and a second with no completions
/// counts 0, so a stage that goes quiet reads 0 once `w` seconds pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowSnapshot {
    /// Completions inside the window.
    pub count: u64,
    pub p50_us: u64,
    pub p99_us: u64,
    /// `count` over the window's seconds since the run started,
    /// `min(w, now_sec)`.
    pub throughput: f64,
}

impl WindowSnapshot {
    /// A fleet's windows folded into one: summed count and throughput, and
    /// count-weighted means of the p50s and p99s. The means approximate the
    /// merged percentile, but are monotone in every node's latency —
    /// exactly what a control loop needs.
    pub fn merge<'a>(windows: impl IntoIterator<Item = &'a WindowSnapshot>) -> WindowSnapshot {
        let (mut count, mut p50_sum, mut p99_sum, mut throughput) = (0u64, 0.0, 0.0, 0.0);
        for w in windows {
            count += w.count;
            p50_sum += w.count as f64 * w.p50_us as f64;
            p99_sum += w.count as f64 * w.p99_us as f64;
            throughput += w.throughput;
        }
        let mean = |sum: f64| (sum / count.max(1) as f64) as u64;
        WindowSnapshot { count, p50_us: mean(p50_sum), p99_us: mean(p99_sum), throughput }
    }

    /// `{count, p50_us, p99_us, throughput}`: a heartbeat's `window` and
    /// each node's in `/cluster/status`.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("count", self.count)
            .set("p50_us", self.p50_us)
            .set("p99_us", self.p99_us)
            .set("throughput", self.throughput)
    }

    /// The inverse of [`WindowSnapshot::to_json`], strictly: each field must
    /// be present and parse, or the window is refused naming it — a garbled
    /// `p99_us` read as 0 would report a healthy node and steer the fleet
    /// loop up. Other keys are the caller's.
    pub fn from_json(j: &Json) -> Result<WindowSnapshot, String> {
        let refuse = |name: &str, what: &str| format!("window.{name} must be {what}");
        let int = |name: &str| {
            j.get(name).and_then(Json::as_u64).ok_or_else(|| refuse(name, "an integer >= 0"))
        };
        Ok(WindowSnapshot {
            count: int("count")?,
            p50_us: int("p50_us")?,
            p99_us: int("p99_us")?,
            throughput: (j.get("throughput").and_then(Json::as_f64))
                .filter(|t| t.is_finite() && *t >= 0.0)
                .ok_or_else(|| refuse("throughput", "a finite number >= 0"))?,
        })
    }
}

impl bp_obs::MetricsSource for StatsCollector {
    fn collect(&self, buf: &mut bp_obs::MetricsBuf) {
        let merged = self.merged();
        // Recent retained spans, oldest first, for per-type latency
        // exemplars (client latency = dispatch → end, matching `Sample`).
        let recent_spans = self
            .span_source
            .lock()
            .as_ref()
            .map(|s| s.recent(256))
            .unwrap_or_default();
        for (idx, (name, pt)) in self.type_names.iter().zip(&merged.per_type).enumerate() {
            let labels: [(&str, &str); 1] = [("type", name)];
            buf.counter(
                "bp_client_committed_total",
                "Requests committed, by transaction type",
                &labels,
                pt.committed as f64,
            );
            buf.counter(
                "bp_client_user_aborted_total",
                "Requests ending in a benchmark-logic abort, by transaction type",
                &labels,
                pt.user_aborted as f64,
            );
            buf.counter(
                "bp_client_failed_total",
                "Requests failed after exhausting retries, by transaction type",
                &labels,
                pt.failed as f64,
            );
            buf.counter(
                "bp_client_retries_total",
                "Retries of retryable aborts, by transaction type",
                &labels,
                pt.retries as f64,
            );
            buf.counter(
                "bp_client_shed_total",
                "Requests shed by the admission controller, by transaction type",
                &labels,
                pt.shed as f64,
            );
            let exemplars: Vec<(u64, String)> = recent_spans
                .iter()
                .filter(|s| s.trace_id != 0 && s.txn_type as usize == idx)
                .map(|s| (s.end_us.saturating_sub(s.dequeued_us), bp_obs::format_trace_id(s.trace_id)))
                .collect();
            buf.histogram_with_exemplars(
                "bp_client_latency_us",
                "Client-observed execution latency in microseconds",
                &labels,
                &pt.latency,
                &exemplars,
            );
        }
        buf.histogram(
            "bp_client_queue_delay_us",
            "Scheduled arrival to dispatch delay in microseconds",
            &[],
            &merged.queue_delay,
        );
        buf.histogram(
            "bp_client_response_us",
            "Scheduled arrival to completion (response time) in microseconds",
            &[],
            &merged.response,
        );
        buf.gauge(
            "bp_client_throughput_tps",
            "Completions per second over the last 3 whole seconds, a quiet second counting 0",
            &[],
            self.window_snapshot(3).throughput,
        );
    }
}

/// Per-transaction-type roll-up.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeSummary {
    pub name: String,
    pub count: u64,
    pub mean_us: f64,
    pub p95_us: u64,
    pub committed: u64,
    pub user_aborted: u64,
    pub failed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_util::clock::sim_clock;

    fn sample(ty: usize, start: Micros, latency: Micros) -> Sample {
        Sample {
            txn_type: ty,
            arrival: start.saturating_sub(50),
            start,
            end: start + latency,
            outcome: RequestOutcome::Committed,
            retries: 0,
        }
    }

    #[test]
    fn record_and_status() {
        let (sim, clock) = sim_clock();
        let c = StatsCollector::new(clock, &["read", "write"]);
        for i in 0..100u64 {
            c.record(sample(0, i * 10_000, 500));
            c.record(sample(1, i * 10_000, 1_500));
        }
        sim.advance_to(2 * MICROS_PER_SEC);
        let st = c.status(1);
        assert_eq!(st.committed, 200);
        assert_eq!(st.latency_by_type[0].0, "read");
        assert!((st.latency_by_type[0].1 - 500.0).abs() < 30.0);
        assert!((st.latency_by_type[1].1 - 1500.0).abs() < 80.0);
        // All 200 completions land in second 0 -> window of second 1 is 0.
        assert_eq!(c.throughput_series()[0], 200.0);
    }

    #[test]
    fn sliding_window_throughput() {
        let (sim, clock) = sim_clock();
        let c = StatsCollector::new(clock, &["t"]);
        // 100 tx in second 0, 300 in second 1.
        for i in 0..100u64 {
            c.record(sample(0, i * 10_000, 100));
        }
        for i in 0..300u64 {
            c.record(sample(0, MICROS_PER_SEC + i * 3_000, 100));
        }
        sim.advance_to(2 * MICROS_PER_SEC);
        let st = c.status(2);
        assert!((st.throughput - 200.0).abs() < 1.0, "{}", st.throughput);
        let st1 = c.status(1);
        assert!((st1.throughput - 300.0).abs() < 1.0, "{}", st1.throughput);
    }

    #[test]
    fn outcome_counters() {
        let (_, clock) = sim_clock();
        let c = StatsCollector::new(clock, &["t"]);
        let mut s = sample(0, 0, 100);
        s.outcome = RequestOutcome::UserAborted;
        c.record(s);
        let mut s = sample(0, 0, 100);
        s.outcome = RequestOutcome::Failed;
        s.retries = 3;
        c.record(s);
        let st = c.status(1);
        assert_eq!(st.user_aborted, 1);
        assert_eq!(st.failed, 1);
        assert_eq!(st.retries, 3);
        assert_eq!(st.committed, 0);
    }

    #[test]
    fn retrying_txn_counts_once_in_throughput_n_in_retries() {
        // Regression pin (satellite 2): a transaction that retries N times
        // and then succeeds is ONE unit of throughput and N units of retry.
        let (sim, clock) = sim_clock();
        let c = StatsCollector::new(clock, &["t"]);
        let mut s = sample(0, 0, 2_000);
        s.retries = 4;
        c.record(s);
        sim.advance_to(MICROS_PER_SEC);
        assert_eq!(c.total_completed(), 1, "one completion, not 1 + retries");
        let st = c.status(1);
        assert_eq!(st.committed, 1);
        assert_eq!(st.retries, 4);
        assert_eq!(c.per_type_summary()[0].count, 1, "latency recorded once");
        assert_eq!(c.throughput_series().iter().sum::<f64>() as u64, 1);
    }

    #[test]
    fn shed_excluded_from_throughput_and_latency() {
        let (sim, clock) = sim_clock();
        let c = StatsCollector::new(clock, &["t"]);
        c.record(sample(0, 0, 100));
        let mut s = sample(0, 0, 100);
        s.outcome = RequestOutcome::Shed;
        c.record(s);
        c.record(s);
        sim.advance_to(MICROS_PER_SEC);
        let st = c.status(1);
        assert_eq!(st.shed, 2);
        assert_eq!(st.committed, 1);
        assert_eq!(st.failed, 0, "shed is not an error");
        assert_eq!(c.total_completed(), 1, "shed is not throughput");
        assert_eq!(c.per_type_summary()[0].count, 1, "shed has no latency");
    }

    #[test]
    fn queue_delay_tracked() {
        let (_, clock) = sim_clock();
        let c = StatsCollector::new(clock, &["t"]);
        c.record(Sample {
            txn_type: 0,
            arrival: 0,
            start: 5_000,
            end: 6_000,
            outcome: RequestOutcome::Committed,
            retries: 0,
        });
        let (p50, _, max) = c.queue_delay();
        assert!(p50 >= 4_800 && max >= 4_800);
    }

    #[test]
    fn response_time_counts_the_queueing_that_latency_leaves_out() {
        let (sim, clock) = sim_clock();
        let c = StatsCollector::new(clock.clone(), &["t"]);
        // Arrives at 1000, waits 500µs in the queue, is served in 10µs.
        sim.advance_to(1_500);
        let start = clock.now();
        sim.advance(10);
        c.record(Sample {
            txn_type: 0,
            arrival: 1_000,
            start,
            end: clock.now(),
            outcome: RequestOutcome::Committed,
            retries: 0,
        });
        let (p50, _, max) = c.response_time();
        let close = |v: u64, want: u64| v.abs_diff(want) <= want / 32 + 1;
        assert!(close(p50, 510) && close(max, 510), "response p50 {p50} max {max}");
        let latency = c.per_type_summary()[0].mean_us;
        assert!((latency - 10.0).abs() < 1.0, "latency {latency}");
    }

    #[test]
    fn per_type_summary() {
        let (_, clock) = sim_clock();
        let c = StatsCollector::new(clock, &["a", "b"]);
        c.record(sample(0, 0, 1_000));
        c.record(sample(0, 0, 3_000));
        let sum = c.per_type_summary();
        assert_eq!(sum[0].count, 2);
        assert_eq!(sum[0].mean_us, 2_000.0);
        assert_eq!(sum[1].count, 0);
    }

    #[test]
    fn requested_series() {
        let (_, clock) = sim_clock();
        let c = StatsCollector::new(clock, &["t"]);
        c.record_requested(0, 50);
        c.record_requested(MICROS_PER_SEC, 70);
        assert_eq!(c.requested_series(), vec![50.0, 70.0]);
    }

    #[test]
    fn multithreaded_records_all_merge() {
        let (sim, clock) = sim_clock();
        let c = std::sync::Arc::new(StatsCollector::new(clock, &["a", "b"]));
        let threads = 8u64;
        let per_thread = 500u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        c.record(sample((t % 2) as usize, i * 1_000, 200 + t * 10));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        sim.advance_to(MICROS_PER_SEC);
        assert_eq!(c.total_completed(), threads * per_thread);
        let st = c.status(1);
        assert_eq!(st.committed, threads * per_thread);
        let sum = c.per_type_summary();
        assert_eq!(sum[0].count + sum[1].count, threads * per_thread);
    }

    #[test]
    fn window_snapshot_tracks_recent_latency_only() {
        let (sim, clock) = sim_clock();
        let c = StatsCollector::new(clock, &["t"]);
        // Second 0: slow (10ms). Seconds 5-6: fast (1ms).
        for i in 0..50u64 {
            c.record(sample(0, i * 10_000, 10_000));
        }
        for i in 0..100u64 {
            c.record(sample(0, 5 * MICROS_PER_SEC + i * 15_000, 1_000));
        }
        sim.advance_to(7 * MICROS_PER_SEC);
        // A 3s window sees only the fast phase.
        let w = c.window_snapshot(3);
        assert_eq!(w.count, 100);
        assert!(w.p99_us < 1_100, "p99 {} should reflect the fast phase", w.p99_us);
        // A huge window sees everything, matching the cumulative histogram.
        let all = c.window_snapshot(1_000);
        assert_eq!(all.count, 150);
        assert!(all.p99_us > 9_000, "cumulative p99 {} includes the slow phase", all.p99_us);
    }

    #[test]
    fn window_histogram_huge_equals_cumulative() {
        let (sim, clock) = sim_clock();
        let c = StatsCollector::new(clock, &["t"]);
        for i in 0..2_000u64 {
            c.record(sample(0, i * 5_000, 100 + (i * 7) % 3_000));
        }
        sim.advance_to(11 * MICROS_PER_SEC);
        let windowed = c.window_histogram(usize::MAX);
        let st = c.status(1);
        assert_eq!(windowed.count(), st.committed);
        assert_eq!(windowed.p95(), c.per_type_summary()[0].p95_us);
    }

    #[test]
    fn window_empty_after_quiet_period() {
        let (sim, clock) = sim_clock();
        let c = StatsCollector::new(clock, &["t"]);
        c.record(sample(0, 0, 500));
        sim.advance_to(30 * MICROS_PER_SEC);
        let w = c.window_snapshot(5);
        assert_eq!(w.count, 0);
        assert_eq!(w.p99_us, 0);
    }

    /// One range of whole seconds for all four fields: with 10, 20, 30 and
    /// 4 completions in seconds 1–4, read at 4.5 s, a window of `w` reads
    /// seconds `4 - w ..= 3`, and the partial second 4 is in none of them.
    #[test]
    fn a_window_is_one_range_of_whole_seconds() {
        let (sim, clock) = sim_clock();
        let c = StatsCollector::new(clock, &["t"]);
        let mut by_second = vec![Histogram::latency(); 5];
        for (second, n) in [(1, 10), (2, 20), (3, 30), (4, 4)] {
            for i in 0..n {
                let latency = 1_000 * second + 37 * i;
                c.record(sample(0, second * MICROS_PER_SEC + i * 1_000, latency));
                by_second[second as usize].record(latency);
            }
        }
        sim.advance_to(MICROS_PER_SEC - 1);
        for w in [1, 2, 3] {
            assert_eq!(
                c.window_snapshot(w),
                WindowSnapshot::default(),
                "no whole second before 1 s"
            );
        }
        sim.advance_to(4 * MICROS_PER_SEC + 500_000);
        for (w, count, throughput) in [(1, 30, 30.0), (2, 50, 25.0), (3, 60, 20.0)] {
            let mut seconds = Histogram::latency();
            by_second[4 - w..4].iter().for_each(|h| seconds.merge(h));
            let want =
                WindowSnapshot { count, p50_us: seconds.p50(), p99_us: seconds.p99(), throughput };
            assert_eq!(c.window_snapshot(w), want, "window {w}");
        }
    }

    /// A collector that goes quiet reads 0 once its window has passed the
    /// last completion: the snapshot, the status and the gauge alike. The
    /// gauge's 3 s window still holds second 0 at 2 s: 500 over 2 seconds.
    #[test]
    fn a_quiet_collector_reads_no_throughput() {
        let (sim, clock) = sim_clock();
        let c = StatsCollector::new(clock, &["t"]);
        for i in 0..500u64 {
            c.record(sample(0, i * 1_000, 100));
        }
        for (now, gauge) in [(2, 250.0), (5, 0.0), (30, 0.0)] {
            sim.advance_to(now * MICROS_PER_SEC);
            let w = c.window_snapshot(1);
            assert_eq!((w.count, w.throughput), (0, 0.0), "snapshot at {now} s");
            assert_eq!(c.status(1).throughput, 0.0, "status at {now} s");
            let mut buf = bp_obs::MetricsBuf::new();
            bp_obs::MetricsSource::collect(&c, &mut buf);
            let read =
                buf.into_samples().into_iter().find(|s| s.name == "bp_client_throughput_tps");
            assert_eq!(
                read.map(|s| s.value),
                Some(bp_obs::MetricValue::Gauge(gauge)),
                "gauge at {now} s"
            );
        }
    }

    /// On a sharded collector the snapshot at `now` reads what the ring
    /// read one second back reads, and `status(w)`'s throughput. While a
    /// completion fell in the current or the previous second, its throughput
    /// is also the full series' last `w` whole seconds over `min(w, now)`.
    #[test]
    fn a_sharded_snapshot_equals_the_ring_read_a_second_back_and_the_status_throughput() {
        let (sim, clock) = sim_clock();
        let c = StatsCollector::with_shards(clock, &["t"], 3);
        for i in 0..2_800u64 {
            bp_util::sync::set_thread_slot((i % 3) as usize);
            c.record(sample(0, i * 1_500, 100 + (i * 37) % 5_000));
        }
        bp_util::sync::set_thread_slot(0);
        let windows = [1, 2, 3, 10, usize::MAX];
        for now in [
            MICROS_PER_SEC + 1,
            2 * MICROS_PER_SEC + 500_000,
            4 * MICROS_PER_SEC + 250_000,
            9 * MICROS_PER_SEC,
        ] {
            sim.advance_to(now - MICROS_PER_SEC);
            let back: Vec<Histogram> = windows.iter().map(|&w| c.window_histogram(w)).collect();
            sim.advance_to(now);
            let series = c.throughput_series();
            let now_sec = (now / MICROS_PER_SEC) as usize;
            for (&w, hist) in windows.iter().zip(&back) {
                let snap = c.window_snapshot(w);
                assert_eq!(
                    (snap.count, snap.p50_us, snap.p99_us),
                    (hist.count(), hist.p50(), hist.p99()),
                    "{w} at {now}"
                );
                assert_eq!(snap.throughput, c.status(w).throughput, "window {w} at {now}");
                if series.len() >= now_sec {
                    let seconds = now_sec.saturating_sub(w)..now_sec;
                    let whole =
                        series[seconds.clone()].iter().sum::<f64>() / seconds.len().max(1) as f64;
                    assert_eq!(snap.throughput, whole, "window {w} at {now}");
                }
            }
        }
    }

    /// The longest window reads every completion of its seconds: all the
    /// whole seconds the ring holds beside the one being written.
    #[test]
    fn the_longest_window_reads_every_whole_second_the_ring_holds() {
        let (sim, clock) = sim_clock();
        let c = StatsCollector::new(clock, &["t"]);
        for second in 0..=300 {
            c.record(sample(0, second * MICROS_PER_SEC, 100));
        }
        sim.advance_to(300 * MICROS_PER_SEC + 1);
        let w = c.window_snapshot(MAX_WINDOW_S);
        assert_eq!((w.count, w.throughput), (MAX_WINDOW_S as u64, 1.0));
        assert_eq!(
            c.window_snapshot(MAX_WINDOW_S + 1),
            w,
            "a longer window reads the same seconds"
        );
    }

    #[test]
    fn a_window_round_trips_through_its_json() {
        let w = WindowSnapshot { count: 1_234, p50_us: 480, p99_us: 9_100, throughput: 617.25 };
        let text = w.to_json().to_string();
        assert_eq!(WindowSnapshot::from_json(&Json::parse(&text).unwrap()), Ok(w));
        let quiet = WindowSnapshot::default();
        assert_eq!(WindowSnapshot::from_json(&quiet.to_json()), Ok(quiet));
        let Json::Obj(fields) = w.to_json() else { panic!("{text}") };
        let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
        assert_eq!(keys, ["count", "p50_us", "p99_us", "throughput"]);
    }

    /// The fleet's window: counts and throughputs add, and the percentiles
    /// are count-weighted means, so a member with no samples adds its
    /// throughput and no latency.
    #[test]
    fn a_fleet_window_weights_each_members_percentiles_by_its_count() {
        let nodes = [
            WindowSnapshot { count: 300, p50_us: 500, p99_us: 2_000, throughput: 310.5 },
            WindowSnapshot { count: 0, p50_us: 7_000, p99_us: 50_000, throughput: 12.0 },
            WindowSnapshot { count: 100, p50_us: 900, p99_us: 9_001, throughput: 99.5 },
        ];
        // p50: (300·500 + 100·900) / 400; p99: (300·2,000 + 100·9,001) / 400
        // = 3,750.25, truncated.
        let fleet = WindowSnapshot { count: 400, p50_us: 600, p99_us: 3_750, throughput: 422.0 };
        assert_eq!(WindowSnapshot::merge(&nodes), fleet);
        let idle = [WindowSnapshot::default(); 2];
        assert_eq!(WindowSnapshot::merge(&idle), WindowSnapshot::default(), "no division by zero");
    }

    #[test]
    fn window_shed_excluded() {
        let (sim, clock) = sim_clock();
        let c = StatsCollector::new(clock, &["t"]);
        c.record(sample(0, 0, 100));
        let mut s = sample(0, 0, 100);
        s.outcome = RequestOutcome::Shed;
        c.record(s);
        sim.advance_to(MICROS_PER_SEC);
        assert_eq!(c.window_snapshot(10).count, 1, "shed never enters the window");
    }

    #[test]
    fn new_is_one_writer_and_with_shards_one_per_writer() {
        let (_, clock) = sim_clock();
        let c = StatsCollector::new(clock.clone(), &["t"]);
        assert_eq!(c.shard_count(), 1);
        c.record(sample(0, 0, 100));
        assert_eq!(c.total_completed(), 1);
        assert_eq!(StatsCollector::with_shards(clock, &["t"], 3).shard_count(), 3);
    }
}
