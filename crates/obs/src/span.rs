//! The request-lifecycle flight recorder and distributed-tracing core.
//!
//! Every request the testbed dispatches passes through the same stages:
//! submitted (scheduled arrival) → dequeued (queue wait ends, execution
//! starts) → lock waits inside the storage engine → commit/abort. A
//! [`Span`] captures that lifecycle as explicit timestamps and stage
//! durations, small enough (~72 bytes) to copy by value. Each span carries
//! a 64-bit [`trace id`](trace_id) derived deterministically from the run
//! seed and the request's schedule sequence number, so same-seed runs
//! produce identical ids and a trace id printed by one tool (an exemplar
//! on `/metrics`, a journal event, a doctor finding) resolves in any other
//! (`GET /trace/{id}`), across every node of a cluster.
//!
//! [`SpanRecorder`] keeps one shard per writer — the executor builds it
//! with one per terminal and worker *w* writes shard *w* — each a
//! [`Ring`] of spans plus four stage histograms. The span budget
//! (`ring_capacity`) is split exactly between the shards. Everything is
//! preallocated when the recorder is built: the hot path takes one
//! uncontended lock, writes one ring slot, and bumps four stage histograms
//! — no allocation, no shared atomics beyond the mode check. When a ring
//! fills, the oldest spans are overwritten (flight-recorder semantics).
//!
//! The stage histograms count every *offered* span, the rings only the
//! retained ones, so percentiles cover the whole run even when the rings
//! hold only the tail or a sample. Sampling is **tail-based** in `Sampled`
//! mode: the keep/drop decision happens at span *completion*
//! ([`SpanRecorder::offer`]), when the outcome and total latency are known.
//! Slow (above the live p99-derived threshold), errored, shed, and
//! crash-straddling requests are always retained; the healthy rest is
//! ratio-sampled by the deterministic splitmix64 head-sampler.
//!
//! Lock-wait and commit durations are produced deep inside `bp-storage`,
//! which knows nothing about requests. Rather than thread a context
//! through every call signature, the storage layer deposits stage time
//! into a thread-local accumulator ([`add_lock_wait_us`] /
//! [`add_commit_us`]); the worker loop drains it per request with
//! [`take_stage_acc`]. Workers execute one request at a time on one
//! thread, so the accumulator needs no synchronization at all. A lock wait
//! is timed anyway, to bound it; the commit stage is timed only while the
//! worker has a trace id set ([`current_trace`] is not 0), which it does
//! only for a request whose span it will offer. An untraced request reads
//! the clock twice: at dispatch and at its end.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use bp_util::histogram::Histogram;
use bp_util::json::Json;
use bp_util::ring::Ring;
use bp_util::sync::{thread_slot, CachePadded, Mutex};

use crate::registry::{MetricsBuf, MetricsSource};

/// Lifecycle stages a request passes through; indexes into per-stage
/// histogram arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Scheduled arrival → dispatched to a worker.
    Queue = 0,
    /// Time blocked waiting for row locks inside the storage engine.
    Lock = 1,
    /// Execution time excluding lock waits and commit.
    Exec = 2,
    /// Commit processing (WAL write + fsync cost model).
    Commit = 3,
}

impl Stage {
    pub const ALL: [Stage; 4] = [Stage::Queue, Stage::Lock, Stage::Exec, Stage::Commit];

    pub fn name(&self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::Lock => "lock",
            Stage::Exec => "exec",
            Stage::Commit => "commit",
        }
    }
}

/// How the request ended; `bp-core` re-exports it as `RequestOutcome`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanOutcome {
    Committed = 0,
    /// Benchmark-logic abort (still a successfully processed request).
    UserAborted = 1,
    /// Lock conflict / timeout; retries exhausted or disabled.
    Failed = 2,
    /// Fast-failed by the admission controller without executing.
    /// Counted in its own bucket: never in throughput, never as an error.
    Shed = 3,
}

impl SpanOutcome {
    pub fn name(&self) -> &'static str {
        match self {
            SpanOutcome::Committed => "committed",
            SpanOutcome::UserAborted => "user_aborted",
            SpanOutcome::Failed => "failed",
            SpanOutcome::Shed => "shed",
        }
    }
}

/// The `?outcome=` filter value of `GET /trace/spans`.
impl std::str::FromStr for SpanOutcome {
    type Err = ();

    fn from_str(s: &str) -> Result<SpanOutcome, ()> {
        match s {
            "committed" => Ok(SpanOutcome::Committed),
            "user_aborted" => Ok(SpanOutcome::UserAborted),
            "failed" => Ok(SpanOutcome::Failed),
            "shed" => Ok(SpanOutcome::Shed),
            _ => Err(()),
        }
    }
}

/// One request's recorded lifecycle. `Copy` and small (~72 bytes) so ring
/// writes are a plain memcpy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 64-bit distributed trace id; deterministic from (run seed, seq) via
    /// [`trace_id`]. Never 0 for real requests (0 means "untraced").
    pub trace_id: u64,
    /// Queue sequence number of the request.
    pub seq: u64,
    /// Scheduled arrival time (µs since run start).
    pub submitted_us: u64,
    /// When a worker pulled it off the queue and began executing.
    pub dequeued_us: u64,
    /// When execution (including retries and commit) finished.
    pub end_us: u64,
    /// Total time blocked on locks inside the storage engine.
    pub lock_wait_us: u64,
    /// Commit processing time.
    pub commit_us: u64,
    /// Tenant that issued the request (0 for single-tenant runs).
    pub tenant: u16,
    /// Phase of the script active when the request executed.
    pub phase: u16,
    /// Transaction type index within the workload.
    pub txn_type: u16,
    /// Retries before the final outcome.
    pub retries: u16,
    pub outcome: SpanOutcome,
}

impl Span {
    /// Queue wait: scheduled arrival → dispatch.
    pub fn queue_wait_us(&self) -> u64 {
        self.dequeued_us.saturating_sub(self.submitted_us)
    }

    /// Execution time excluding lock waits and commit processing.
    pub fn exec_us(&self) -> u64 {
        self.end_us
            .saturating_sub(self.dequeued_us)
            .saturating_sub(self.lock_wait_us)
            .saturating_sub(self.commit_us)
    }

    /// End-to-end latency including queue wait.
    pub fn total_us(&self) -> u64 {
        self.end_us.saturating_sub(self.submitted_us)
    }

    /// Stage duration by stage index.
    pub fn stage_us(&self, stage: Stage) -> u64 {
        match stage {
            Stage::Queue => self.queue_wait_us(),
            Stage::Lock => self.lock_wait_us,
            Stage::Exec => self.exec_us(),
            Stage::Commit => self.commit_us,
        }
    }

    /// JSON object for the `/trace/spans` JSONL endpoint.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("trace_id", format_trace_id(self.trace_id).as_str())
            .set("seq", self.seq)
            .set("tenant", self.tenant as u64)
            .set("phase", self.phase as u64)
            .set("txn_type", self.txn_type as u64)
            .set("submitted_us", self.submitted_us)
            .set("dequeued_us", self.dequeued_us)
            .set("end_us", self.end_us)
            .set("queue_us", self.queue_wait_us())
            .set("lock_us", self.lock_wait_us)
            .set("exec_us", self.exec_us())
            .set("commit_us", self.commit_us)
            .set("retries", self.retries as u64)
            .set("outcome", self.outcome.name())
    }
}

/// Recording mode for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum SpanMode {
    /// Record nothing; the `enabled` gate is a single field read.
    Off = 0,
    /// Record a deterministic pseudo-random subset of requests.
    Sampled = 1,
    /// Record every request.
    #[default]
    Full = 2,
}

impl SpanMode {
    pub fn name(&self) -> &'static str {
        match self {
            SpanMode::Off => "off",
            SpanMode::Sampled => "sampled",
            SpanMode::Full => "full",
        }
    }

    /// Parse the `observability.spans` config value.
    pub fn parse(s: &str) -> Option<SpanMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" => Some(SpanMode::Off),
            "sampled" => Some(SpanMode::Sampled),
            "full" => Some(SpanMode::Full),
            _ => None,
        }
    }
}

/// Per-run observability configuration (`<observability>` in config.xml).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObsConfig {
    pub mode: SpanMode,
    /// Fraction of requests recorded in `Sampled` mode (0.0..=1.0).
    pub sample_ratio: f64,
    /// The span budget: retained-span slots across all writers, split
    /// evenly (floor) between them.
    pub ring_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig { mode: SpanMode::Full, sample_ratio: 0.1, ring_capacity: 8192 }
    }
}

/// Derive the deterministic 64-bit trace id for request `seq` of a run
/// with the given seed. Same (seed, seq) → same id on every node and
/// every rerun; never returns 0 (0 is the "untraced" sentinel).
#[inline]
pub fn trace_id(seed: u64, seq: u64) -> u64 {
    let id = splitmix64(seed ^ splitmix64(seq));
    if id == 0 {
        1
    } else {
        id
    }
}

/// Canonical lowercase 16-hex-digit rendering of a trace id — the form
/// used in exemplars, journal fields, and `/trace/{id}` paths.
pub fn format_trace_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parse a trace id in the canonical hex form (1–16 hex digits, case
/// insensitive). Returns `None` for anything else, including empty
/// strings and ids that would be 0.
pub fn parse_trace_id(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    match u64::from_str_radix(s, 16) {
        Ok(0) | Err(_) => None,
        Ok(id) => Some(id),
    }
}

thread_local! {
    /// Trace id of the request currently executing on this thread, or 0.
    /// Lets deep storage-layer journal events (deadlock victims, crashes)
    /// tag themselves with the request that was on-CPU, without threading
    /// an id through every engine call signature.
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
}

/// Worker loop: mark `id` as the trace executing on this thread (0 to
/// clear between requests). While it is set, the storage engine times the
/// commit stage into this thread's accumulator.
#[inline]
pub fn set_current_trace(id: u64) {
    CURRENT_TRACE.with(|c| c.set(id));
}

/// The trace id currently executing on this thread (0 if none).
#[inline]
pub fn current_trace() -> u64 {
    CURRENT_TRACE.with(|c| c.get())
}

thread_local! {
    /// (lock_wait_us, commit_us) deposited by the storage layer while the
    /// current thread executes one request.
    static STAGE_ACC: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Storage layer: add lock-wait time for the request executing on this
/// thread. No-op cost when nobody drains it.
#[inline]
pub fn add_lock_wait_us(us: u64) {
    STAGE_ACC.with(|c| {
        let (l, m) = c.get();
        c.set((l.saturating_add(us), m));
    });
}

/// Storage layer: add commit-processing time for the request executing on
/// this thread.
#[inline]
pub fn add_commit_us(us: u64) {
    STAGE_ACC.with(|c| {
        let (l, m) = c.get();
        c.set((l, m.saturating_add(us)));
    });
}

/// Worker loop: drain and reset this thread's (lock_wait_us, commit_us)
/// accumulator. Called once per request so stage time cannot leak across
/// requests.
#[inline]
pub fn take_stage_acc() -> (u64, u64) {
    STAGE_ACC.with(|c| c.replace((0, 0)))
}

/// SplitMix64 finalizer: maps sequence numbers to uniform u64s so sampling
/// is deterministic per request yet unbiased across arrival patterns.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One writer's shard: its retained spans plus per-stage latency
/// histograms over every span it offered.
struct Shard {
    ring: Ring<Span>,
    stage_hist: [Histogram; 4],
}

/// Per-stage latency roll-up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSummary {
    pub stage: Stage,
    pub count: u64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    pub mean_us: f64,
}

impl StageSummary {
    pub fn from_hist(stage: Stage, h: &Histogram) -> StageSummary {
        StageSummary {
            stage,
            count: h.count(),
            p50_us: h.p50(),
            p95_us: h.p95(),
            p99_us: h.p99(),
            mean_us: h.mean(),
        }
    }
}

/// Render the standard one-line per-stage summary:
/// `spans=N queue p50/p95/p99=a/b/c lock=... exec=... commit=...` (µs).
pub fn format_stage_line(count: u64, stages: &[StageSummary; 4]) -> String {
    use std::fmt::Write as _;
    let mut out = format!("spans={count}");
    for s in stages {
        let _ = write!(
            out,
            " {} p50/p95/p99={}/{}/{}µs",
            s.stage.name(),
            s.p50_us,
            s.p95_us,
            s.p99_us
        );
    }
    out
}

/// Why the tail sampler retained a span. Indexes into the per-reason
/// counters and the `reason` label on `bp_spans_tail_retained_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum RetainReason {
    /// Total latency exceeded the live slow threshold (tracks window p99).
    Slow = 0,
    /// The request failed (serialization error, deadlock, engine error).
    Error = 1,
    /// Shed by the admission controller without executing.
    Shed = 2,
    /// The request's lifetime straddled a server crash.
    Crash = 3,
    /// Healthy request kept by the deterministic ratio sampler.
    Ratio = 4,
}

impl RetainReason {
    pub const ALL: [RetainReason; 5] = [
        RetainReason::Slow,
        RetainReason::Error,
        RetainReason::Shed,
        RetainReason::Crash,
        RetainReason::Ratio,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            RetainReason::Slow => "slow",
            RetainReason::Error => "error",
            RetainReason::Shed => "shed",
            RetainReason::Crash => "crash",
            RetainReason::Ratio => "ratio",
        }
    }
}

/// Sentinel for "no slow threshold learned yet".
const SLOW_UNSET: u64 = u64::MAX;

/// The sharded flight recorder. See the module docs for the design.
pub struct SpanRecorder {
    shards: Vec<CachePadded<Mutex<Shard>>>,
    mode: SpanMode,
    /// Sampling threshold: record when `splitmix64(seq) <= threshold`.
    threshold: u64,
    /// Tail-sampling slow cutoff in µs ([`SLOW_UNSET`] until the sensor
    /// pushes the first live window p99).
    slow_threshold: AtomicU64,
    /// Span-clock time of the most recent observed server crash (0: none).
    last_crash_us: AtomicU64,
    /// Spans retained by the tail sampler, by [`RetainReason`].
    tail_retained: [AtomicU64; 5],
    /// Retained spans later evicted by budget-ring overwrite (Sampled
    /// mode only — in Full mode overwrites are ordinary flight-recorder
    /// wraparound, not a budget problem).
    tail_evicted: AtomicU64,
    /// Journal for `trace_evict` events (optional: tests and standalone
    /// recorders run without one).
    journal: Option<std::sync::Arc<crate::journal::EventJournal>>,
    /// Last second (journal clock) a `trace_evict` event was emitted;
    /// rate-limits eviction logging to ~1/s.
    evict_logged_s: AtomicU64,
}

impl SpanRecorder {
    /// A recorder for one writer: one shard holding the whole budget.
    pub fn new(cfg: ObsConfig) -> SpanRecorder {
        SpanRecorder::with_writers(cfg, 1)
    }

    /// One shard per writer thread (the executor passes its terminal
    /// count; worker *w* writes shard *w*), each holding
    /// floor(`ring_capacity` / `writers`) spans — at least one.
    pub fn with_writers(cfg: ObsConfig, writers: usize) -> SpanRecorder {
        let writers = writers.max(1);
        let per_writer = cfg.ring_capacity / writers;
        SpanRecorder {
            shards: (0..writers)
                .map(|_| {
                    CachePadded::new(Mutex::new(Shard {
                        ring: Ring::new(per_writer),
                        stage_hist: std::array::from_fn(|_| Histogram::latency()),
                    }))
                })
                .collect(),
            mode: cfg.mode,
            threshold: Self::ratio_to_threshold(cfg.sample_ratio),
            slow_threshold: AtomicU64::new(SLOW_UNSET),
            last_crash_us: AtomicU64::new(0),
            tail_retained: std::array::from_fn(|_| AtomicU64::new(0)),
            tail_evicted: AtomicU64::new(0),
            journal: None,
            evict_logged_s: AtomicU64::new(0),
        }
    }

    /// Attach the event journal so budget-ring evictions of retained spans
    /// surface as `trace_evict` events.
    pub fn with_journal(mut self, journal: std::sync::Arc<crate::journal::EventJournal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Convert a sample ratio to the u64 comparison threshold, rounding
    /// half-up so tiny ratios aren't truncated to "never sample". A ratio
    /// of exactly 1.0 (or more) must map to `u64::MAX` so every hash value
    /// passes the `<=` gate.
    fn ratio_to_threshold(ratio: f64) -> u64 {
        let r = ratio.clamp(0.0, 1.0);
        if r >= 1.0 {
            return u64::MAX;
        }
        // u64::MAX as f64 rounds to 2^64 exactly, so r * 2^64 + 0.5 floors
        // to the half-up-rounded threshold; guard the edge where rounding
        // lands on 2^64 itself.
        let scaled = (r * u64::MAX as f64 + 0.5).floor();
        if scaled >= u64::MAX as f64 {
            u64::MAX
        } else {
            scaled as u64
        }
    }

    pub fn mode(&self) -> SpanMode {
        self.mode
    }

    /// Is any recording active? Workers use this as the cheap per-request
    /// gate; the retain/drop decision itself is tail-based in [`offer`].
    ///
    /// [`offer`]: SpanRecorder::offer
    #[inline]
    pub fn enabled(&self) -> bool {
        self.mode != SpanMode::Off
    }

    /// Update the tail sampler's slow cutoff from the live windowed p99.
    /// Rises slowly (1/8 of the gap per push, so a latency spike can't
    /// drag the cutoff up fast enough to hide its own tail) but falls
    /// fast (adopts a lower p99 immediately, so recovery re-arms slow
    /// detection right away). The first push is adopted directly.
    pub fn set_slow_threshold(&self, p99_us: u64) {
        let target = p99_us.max(1);
        let cur = self.slow_threshold.load(Ordering::Relaxed);
        let next = if cur == SLOW_UNSET || target <= cur {
            target
        } else {
            cur.saturating_add(((target - cur) / 8).max(1))
        };
        self.slow_threshold.store(next, Ordering::Relaxed);
    }

    /// Note a server crash observed at `now_us` (span-clock axis) so
    /// requests whose lifetime straddles it are always retained.
    pub fn note_crash(&self, now_us: u64) {
        self.last_crash_us.store(now_us.max(1), Ordering::Relaxed);
    }

    /// Tail-sampling decision for one *completed* span. In `Off` mode
    /// nothing happens. Otherwise the stage histograms count the span, and
    /// the ring keeps it in `Full` mode always and in `Sampled` mode when
    /// it is slow (above the live threshold), errored, shed, or
    /// crash-straddling, else when the deterministic ratio sampler picks
    /// it. Returns whether the span was retained.
    pub fn offer(&self, span: Span) -> bool {
        let keep = match self.mode {
            SpanMode::Off => return false,
            SpanMode::Full => true,
            SpanMode::Sampled => match self.retain_reason(&span) {
                Some(r) => {
                    self.tail_retained[r as usize].fetch_add(1, Ordering::Relaxed);
                    true
                }
                None => false,
            },
        };
        self.write(span, keep);
        keep
    }

    fn retain_reason(&self, span: &Span) -> Option<RetainReason> {
        if span.outcome == SpanOutcome::Failed {
            Some(RetainReason::Error)
        } else if span.outcome == SpanOutcome::Shed {
            Some(RetainReason::Shed)
        } else if self.is_slow(span) {
            Some(RetainReason::Slow)
        } else if self.straddles_crash(span) {
            Some(RetainReason::Crash)
        } else if splitmix64(span.seq) <= self.threshold {
            Some(RetainReason::Ratio)
        } else {
            None
        }
    }

    /// Compares *service* latency (dequeue → end) against the cutoff — the
    /// same domain the cutoff is learned from (the live windowed latency
    /// p99). Queue wait is excluded deliberately: under saturation every
    /// request queues, and a total-latency comparison would retain nearly
    /// all of them, flooding the budget ring and evicting the genuinely
    /// slow spans.
    fn is_slow(&self, span: &Span) -> bool {
        let cutoff = self.slow_threshold.load(Ordering::Relaxed);
        cutoff != SLOW_UNSET && span.end_us.saturating_sub(span.dequeued_us) > cutoff
    }

    fn straddles_crash(&self, span: &Span) -> bool {
        let crash = self.last_crash_us.load(Ordering::Relaxed);
        crash != 0 && span.submitted_us <= crash && crash <= span.end_us
    }

    /// Spans retained by the tail sampler for `reason`.
    pub fn tail_retained(&self, reason: RetainReason) -> u64 {
        self.tail_retained[reason as usize].load(Ordering::Relaxed)
    }

    /// Retained spans later dropped by budget-ring overwrite (Sampled mode).
    pub fn tail_evicted(&self) -> u64 {
        self.tail_evicted.load(Ordering::Relaxed)
    }

    /// Count `span` in the calling thread's shard and, when `keep`, retain
    /// it there. One uncontended lock, four histogram bumps, one ring-slot
    /// write; no allocation.
    fn write(&self, span: Span, keep: bool) {
        let overwrote = {
            let mut sh = self.shards[thread_slot() % self.shards.len()].lock();
            sh.stage_hist[Stage::Queue as usize].record(span.queue_wait_us());
            sh.stage_hist[Stage::Lock as usize].record(span.lock_wait_us);
            sh.stage_hist[Stage::Exec as usize].record(span.exec_us());
            sh.stage_hist[Stage::Commit as usize].record(span.commit_us);
            keep && sh.ring.push(span).is_some()
        };
        // In Sampled mode every ring slot holds a deliberately retained
        // span, so an overwrite means the budget is too small for the
        // retention rate — count it and (rate limited) journal it.
        // Full-mode wraparound is expected flight-recorder behavior.
        if overwrote && self.mode == SpanMode::Sampled {
            self.log_evict(self.tail_evicted.fetch_add(1, Ordering::Relaxed) + 1);
        }
    }

    /// Emit a rate-limited (~1/s) `trace_evict` journal event.
    fn log_evict(&self, evicted_total: u64) {
        let Some(journal) = &self.journal else { return };
        // Stamp is the journal clock's second + 1 so the very first eviction
        // (second 0 vs the initial 0) still logs; at most one event per second.
        let stamp = journal.clock().now() / 1_000_000 + 1;
        let last = self.evict_logged_s.load(Ordering::Relaxed);
        if stamp == last
            || self
                .evict_logged_s
                .compare_exchange(last, stamp, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        {
            return;
        }
        let budget = self.capacity();
        journal.emit_with(crate::journal::Severity::Warn, "obs", "trace_evict", || {
            (
                format!(
                    "span budget full: {evicted_total} retained spans evicted (budget {budget})"
                ),
                vec![("evicted", evicted_total.to_string()), ("budget", budget.to_string())],
            )
        });
    }

    /// Total spans ever retained (including ones since overwritten).
    pub fn recorded(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().ring.written()).sum()
    }

    /// Spans lost to ring overwrites.
    pub fn overwritten(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().ring.overwritten()).sum()
    }

    /// Total ring slots across all shards (≤ `ring_capacity`).
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.lock().ring.capacity()).sum()
    }

    /// The most recent `n` retained spans, oldest first. Each shard's
    /// writer completes its spans in order, so the newest `n` overall are
    /// among the newest `n` of each shard.
    pub fn recent(&self, n: usize) -> Vec<Span> {
        let mut all: Vec<Span> = Vec::new();
        for s in &self.shards {
            all.extend(s.lock().ring.iter().rev().take(n).copied());
        }
        all.sort_by_key(|s| (s.end_us, s.seq));
        if all.len() > n {
            all.drain(..all.len() - n);
        }
        all
    }

    /// Find the retained span for a trace id, if it is still in a ring.
    /// If multiple spans match (never for real runs — ids are unique per
    /// seq), the most recently completed wins.
    pub fn find_trace(&self, id: u64) -> Option<Span> {
        if id == 0 {
            return None;
        }
        let mut best: Option<Span> = None;
        for s in &self.shards {
            for sp in s.lock().ring.iter() {
                if sp.trace_id == id && best.is_none_or(|b| sp.end_us >= b.end_us) {
                    best = Some(*sp);
                }
            }
        }
        best
    }

    /// Merged per-stage histograms over every offered span (the whole run,
    /// not just the retained rings).
    pub fn stage_histograms(&self) -> [Histogram; 4] {
        let mut acc: [Histogram; 4] = std::array::from_fn(|_| Histogram::latency());
        for s in &self.shards {
            let sh = s.lock();
            for (a, h) in acc.iter_mut().zip(&sh.stage_hist) {
                a.merge(h);
            }
        }
        acc
    }

    /// Per-stage p50/p95/p99/mean across the whole run.
    pub fn stage_summaries(&self) -> [StageSummary; 4] {
        let hists = self.stage_histograms();
        std::array::from_fn(|i| StageSummary::from_hist(Stage::ALL[i], &hists[i]))
    }

    /// One-line per-stage roll-up for logs.
    pub fn summary_line(&self) -> String {
        format_stage_line(self.recorded(), &self.stage_summaries())
    }

    /// Per-phase stage summaries built from the retained spans, ordered by
    /// phase index. Older phases may be partially overwritten in long runs
    /// (flight-recorder semantics).
    pub fn phase_summaries(&self) -> Vec<(u16, [StageSummary; 4])> {
        let spans = self.recent(usize::MAX);
        let mut phases: Vec<u16> = spans.iter().map(|s| s.phase).collect();
        phases.sort_unstable();
        phases.dedup();
        phases
            .into_iter()
            .map(|phase| {
                let mut hists: [Histogram; 4] = std::array::from_fn(|_| Histogram::latency());
                for sp in spans.iter().filter(|s| s.phase == phase) {
                    for stage in Stage::ALL {
                        hists[stage as usize].record(sp.stage_us(stage));
                    }
                }
                (
                    phase,
                    std::array::from_fn(|i| StageSummary::from_hist(Stage::ALL[i], &hists[i])),
                )
            })
            .collect()
    }
}

impl MetricsSource for SpanRecorder {
    fn collect(&self, buf: &mut MetricsBuf) {
        let hists = self.stage_histograms();
        // Exemplars: pair each stage histogram with (duration, trace id)
        // samples from the recently retained spans so a human staring at a
        // bucket can jump straight to one concrete request.
        let recent = self.recent(256);
        for (stage, h) in Stage::ALL.iter().zip(&hists) {
            let exemplars: Vec<(u64, String)> = recent
                .iter()
                .filter(|s| s.trace_id != 0)
                .map(|s| (s.stage_us(*stage), format_trace_id(s.trace_id)))
                .collect();
            buf.histogram_with_exemplars(
                "bp_stage_latency_us",
                "Per-stage request latency in microseconds",
                &[("stage", stage.name())],
                h,
                &exemplars,
            );
        }
        buf.counter(
            "bp_spans_recorded_total",
            "Lifecycle spans recorded by the flight recorder",
            &[],
            self.recorded() as f64,
        );
        buf.counter(
            "bp_spans_overwritten_total",
            "Spans lost to ring-buffer overwrites",
            &[],
            self.overwritten() as f64,
        );
        for reason in RetainReason::ALL {
            buf.counter(
                "bp_spans_tail_retained_total",
                "Spans retained by the tail-based sampler, by reason",
                &[("reason", reason.name())],
                self.tail_retained(reason) as f64,
            );
        }
        buf.counter(
            "bp_spans_tail_evicted_total",
            "Tail-retained spans evicted by span-budget ring overwrites",
            &[],
            self.tail_evicted() as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(seq: u64, phase: u16) -> Span {
        Span {
            trace_id: trace_id(42, seq),
            seq,
            submitted_us: seq * 100,
            dequeued_us: seq * 100 + 40,
            end_us: seq * 100 + 240,
            lock_wait_us: 30,
            commit_us: 20,
            tenant: 0,
            phase,
            txn_type: (seq % 3) as u16,
            retries: 0,
            outcome: SpanOutcome::Committed,
        }
    }

    #[test]
    fn stage_durations_derive() {
        let s = span(1, 0);
        assert_eq!(s.queue_wait_us(), 40);
        assert_eq!(s.lock_wait_us, 30);
        assert_eq!(s.commit_us, 20);
        assert_eq!(s.exec_us(), 200 - 30 - 20);
        assert_eq!(s.total_us(), 240);
    }

    #[test]
    fn exec_never_underflows() {
        let mut s = span(1, 0);
        s.lock_wait_us = 10_000; // accumulator raced past the wall clock
        assert_eq!(s.exec_us(), 0);
    }

    #[test]
    fn full_mode_records_everything() {
        let r = SpanRecorder::new(ObsConfig::default());
        for i in 0..500 {
            assert!(r.offer(span(i, 0)));
        }
        assert_eq!(r.recorded(), 500);
        assert_eq!(r.overwritten(), 0);
        let sums = r.stage_summaries();
        assert_eq!(sums[Stage::Queue as usize].count, 500);
        assert!((sums[Stage::Queue as usize].mean_us - 40.0).abs() < 2.0);
    }

    #[test]
    fn off_mode_records_nothing() {
        let r = SpanRecorder::new(ObsConfig { mode: SpanMode::Off, ..ObsConfig::default() });
        for i in 0..100 {
            assert!(!r.offer(span(i, 0)));
        }
        assert_eq!(r.recorded(), 0);
    }

    #[test]
    fn sampled_mode_hits_ratio() {
        let cfg = ObsConfig { mode: SpanMode::Sampled, sample_ratio: 0.25, ..ObsConfig::default() };
        let (r, again) = (SpanRecorder::new(cfg), SpanRecorder::new(cfg));
        let n = 100_000u64;
        // Healthy spans, no slow cutoff learned: only the ratio gate keeps.
        let kept: Vec<u64> = (0..n).filter(|&i| r.offer(span(i, 0))).collect();
        let ratio = kept.len() as f64 / n as f64;
        assert!((ratio - 0.25).abs() < 0.01, "observed ratio {ratio}");
        assert_eq!(r.tail_retained(RetainReason::Ratio), kept.len() as u64);
        // Deterministic per seq: a rerun of the same schedule samples the
        // same requests.
        assert!((0..n).filter(|&i| again.offer(span(i, 0))).eq(kept.iter().copied()));
    }

    #[test]
    fn ring_overwrites_oldest() {
        let r = SpanRecorder::new(ObsConfig { ring_capacity: 64, ..ObsConfig::default() });
        assert_eq!(r.capacity(), 64);
        for i in 0..100 {
            r.offer(span(i, 0));
        }
        assert_eq!(r.recorded(), 100);
        assert_eq!(r.overwritten(), 36);
        let recent = r.recent(1000);
        assert_eq!(recent.len(), 64);
        // Oldest retained span is #36; newest is #99; order is oldest-first.
        assert_eq!(recent.first().unwrap().seq, 36);
        assert_eq!(recent.last().unwrap().seq, 99);
        // Histograms still cover all 100.
        assert_eq!(r.stage_summaries()[0].count, 100);
    }

    #[test]
    fn recent_caps_at_n() {
        let r = SpanRecorder::new(ObsConfig::default());
        for i in 0..50 {
            r.offer(span(i, 0));
        }
        let recent = r.recent(10);
        assert_eq!(recent.len(), 10);
        assert_eq!(recent.last().unwrap().seq, 49);
    }

    #[test]
    fn stage_accumulator_drains_per_request() {
        take_stage_acc();
        add_lock_wait_us(100);
        add_lock_wait_us(50);
        add_commit_us(25);
        assert_eq!(take_stage_acc(), (150, 25));
        assert_eq!(take_stage_acc(), (0, 0), "drained");
    }

    #[test]
    fn phase_summaries_grouped() {
        let r = SpanRecorder::new(ObsConfig::default());
        for i in 0..10 {
            r.offer(span(i, 0));
        }
        for i in 10..30 {
            r.offer(span(i, 1));
        }
        let phases = r.phase_summaries();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].0, 0);
        assert_eq!(phases[0].1[0].count, 10);
        assert_eq!(phases[1].1[0].count, 20);
    }

    #[test]
    fn summary_line_mentions_all_stages() {
        let r = SpanRecorder::new(ObsConfig::default());
        r.offer(span(1, 0));
        let line = r.summary_line();
        for stage in Stage::ALL {
            assert!(line.contains(stage.name()), "{line}");
        }
        assert!(line.starts_with("spans=1"));
    }

    #[test]
    fn span_json_has_all_stage_fields() {
        let j = span(3, 1).to_json();
        for key in [
            "seq", "tenant", "phase", "txn_type", "queue_us", "lock_us", "exec_us", "commit_us",
            "outcome",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        assert_eq!(j.get("outcome").unwrap().as_str(), Some("committed"));
    }

    #[test]
    fn trace_ids_deterministic_and_distinct() {
        // Same (seed, seq) → same id; different seq or seed → different id.
        assert_eq!(trace_id(42, 7), trace_id(42, 7));
        assert_ne!(trace_id(42, 7), trace_id(42, 8));
        assert_ne!(trace_id(42, 7), trace_id(43, 7));
        assert_ne!(trace_id(42, 7), 0, "0 is the untraced sentinel");
        // 100k seqs under one seed: no collisions (birthday bound is ~3e-10).
        let mut ids: Vec<u64> = (0..100_000).map(|s| trace_id(1, s)).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 100_000);
    }

    #[test]
    fn trace_id_hex_round_trips() {
        let id = trace_id(42, 1234);
        let hex = format_trace_id(id);
        assert_eq!(hex.len(), 16);
        assert_eq!(parse_trace_id(&hex), Some(id));
        assert_eq!(parse_trace_id(&hex.to_uppercase()), Some(id));
        assert_eq!(parse_trace_id("1"), Some(1), "short forms parse");
        for bad in ["", "xyz", "0", "00000000000000000", "12 34", "-1"] {
            assert_eq!(parse_trace_id(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn ratio_to_threshold_rounds_half_up_exactly() {
        // u64::MAX as f64 == 2^64 exactly, so ratios that are exact
        // multiples of 2^-64 map to exact thresholds. The old truncating
        // conversion lost the fractional part and rounded tiny ratios to
        // "never sample".
        let ulp = 2f64.powi(-64);
        assert_eq!(SpanRecorder::ratio_to_threshold(0.0), 0);
        assert_eq!(SpanRecorder::ratio_to_threshold(0.25 * ulp), 0, "below half rounds down");
        assert_eq!(SpanRecorder::ratio_to_threshold(0.5 * ulp), 1, "half rounds up");
        assert_eq!(SpanRecorder::ratio_to_threshold(1.5 * ulp), 2, "half rounds up");
        assert_eq!(SpanRecorder::ratio_to_threshold(2.0 * ulp), 2, "exact multiples exact");
        assert_eq!(SpanRecorder::ratio_to_threshold(1.0), u64::MAX);
        assert_eq!(SpanRecorder::ratio_to_threshold(7.5), u64::MAX, "clamped above");
        assert_eq!(SpanRecorder::ratio_to_threshold(-0.5), 0, "clamped below");
    }

    #[test]
    fn current_trace_tls_round_trips() {
        set_current_trace(0);
        assert_eq!(current_trace(), 0);
        set_current_trace(0xdead_beef);
        assert_eq!(current_trace(), 0xdead_beef);
        set_current_trace(0);
        assert_eq!(current_trace(), 0);
    }

    fn slow_span(seq: u64, total_us: u64) -> Span {
        let mut s = span(seq, 0);
        s.end_us = s.submitted_us + total_us;
        s
    }

    #[test]
    fn tail_sampler_always_keeps_slow_errored_shed_and_crash_spans() {
        let cfg = ObsConfig { mode: SpanMode::Sampled, sample_ratio: 0.0, ..ObsConfig::default() };
        let r = SpanRecorder::new(cfg);
        // Ratio 0: nothing healthy is kept…
        assert!(!r.offer(span(1, 0)));
        // …but errors, sheds always are.
        let mut failed = span(2, 0);
        failed.outcome = SpanOutcome::Failed;
        assert!(r.offer(failed));
        assert_eq!(r.tail_retained(RetainReason::Error), 1);
        let mut shed = span(3, 0);
        shed.outcome = SpanOutcome::Shed;
        assert!(r.offer(shed));
        assert_eq!(r.tail_retained(RetainReason::Shed), 1);
        // Slow: only once a threshold has been learned.
        assert!(!r.offer(slow_span(4, 1_000_000)), "no threshold learned yet");
        r.set_slow_threshold(10_000);
        assert!(r.offer(slow_span(5, 1_000_000)));
        assert_eq!(r.tail_retained(RetainReason::Slow), 1);
        assert!(!r.offer(slow_span(6, 5_000)), "below threshold, healthy, ratio 0");
        // Crash-straddling: submitted ≤ crash ≤ end.
        let sp = span(7, 0); // lives [700, 940]
        r.note_crash(800);
        assert!(r.offer(sp));
        assert_eq!(r.tail_retained(RetainReason::Crash), 1);
        let after = span(9, 0); // lives [900, 1140]; crash at 800 is before
        assert!(!r.offer(after));
    }

    #[test]
    fn slow_threshold_rises_slowly_falls_fast() {
        let r = SpanRecorder::new(ObsConfig::default());
        let cutoff = || r.slow_threshold.load(Ordering::Relaxed);
        assert_eq!(cutoff(), SLOW_UNSET);
        r.set_slow_threshold(10_000);
        assert_eq!(cutoff(), 10_000, "first push adopted directly");
        r.set_slow_threshold(90_000);
        assert_eq!(cutoff(), 20_000, "rises 1/8 of the gap");
        r.set_slow_threshold(5_000);
        assert_eq!(cutoff(), 5_000, "falls immediately");
        r.set_slow_threshold(5_001);
        assert_eq!(cutoff(), 5_001, "tiny rises still move (min 1µs)");
    }

    #[test]
    fn sampled_overwrite_counts_eviction_but_full_does_not() {
        let full = SpanRecorder::new(ObsConfig { ring_capacity: 64, ..ObsConfig::default() });
        for i in 0..100 {
            full.offer(span(i, 0));
        }
        assert_eq!(full.tail_evicted(), 0, "full-mode wraparound is not an eviction");
        let cfg = ObsConfig { mode: SpanMode::Sampled, sample_ratio: 1.0, ring_capacity: 64 };
        let tail = SpanRecorder::new(cfg);
        assert_eq!(tail.capacity(), 64, "one writer holds the whole budget");
        for i in 0..100 {
            assert!(tail.offer(span(i, 0)));
        }
        assert_eq!(tail.tail_evicted(), 36);
    }

    #[test]
    fn eviction_emits_rate_limited_journal_event() {
        let journal = std::sync::Arc::new(crate::journal::EventJournal::new());
        let cfg = ObsConfig { mode: SpanMode::Sampled, sample_ratio: 1.0, ring_capacity: 64 };
        let r = SpanRecorder::new(cfg).with_journal(journal.clone());
        for i in 0..1_000 {
            r.offer(span(i, 0));
        }
        let evicts: Vec<_> = journal
            .recent(usize::MAX, crate::journal::Severity::Debug)
            .into_iter()
            .filter(|e| e.kind == "trace_evict")
            .collect();
        assert!(!evicts.is_empty(), "eviction must journal");
        assert!(evicts.len() <= 2, "rate-limited to ~1/s, got {}", evicts.len());
        let e = &evicts[0];
        assert!(e.field("evicted").is_some());
        assert_eq!(e.field("budget"), Some("64"));
    }

    #[test]
    fn sampled_stage_histograms_count_every_offered_span() {
        let cfg = ObsConfig { mode: SpanMode::Sampled, sample_ratio: 0.0, ..ObsConfig::default() };
        let r = SpanRecorder::new(cfg);
        let with_exec = |seq: u64, exec_us: u64, outcome: SpanOutcome| Span {
            end_us: seq * 100 + 40 + exec_us,
            lock_wait_us: 0,
            commit_us: 0,
            outcome,
            ..span(seq, 0)
        };
        for i in 0..99 {
            assert!(!r.offer(with_exec(i, 10, SpanOutcome::Committed)), "ratio 0 keeps no healthy span");
        }
        assert!(r.offer(with_exec(99, 10_000, SpanOutcome::Failed)));
        let exec = r.stage_summaries()[Stage::Exec as usize];
        assert_eq!(exec.count, 100, "the histograms saw every offered span");
        assert!((9..=11).contains(&exec.p50_us), "p50 {} is the healthy bulk", exec.p50_us);
        assert_eq!(r.recorded(), 1, "the ring kept only the failure");
    }

    #[test]
    fn writers_split_the_budget_and_own_their_shards() {
        let cfg = ObsConfig { ring_capacity: 100, ..ObsConfig::default() };
        let r = std::sync::Arc::new(SpanRecorder::with_writers(cfg, 3));
        assert_eq!(r.capacity(), 99, "floor(100 / 3) per writer, never above the budget");
        let handles: Vec<_> = (0..3u64)
            .map(|w| {
                let r = r.clone();
                std::thread::spawn(move || {
                    bp_util::sync::set_thread_slot(w as usize);
                    // Writer 0 writes 10, writer 1 writes 40, writer 2 writes 60.
                    for i in 0..[10, 40, 60][w as usize] {
                        r.offer(span(w * 1_000 + i, 0));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.recorded(), 110);
        // Each shard wrapped only under its own writer: 0 + 7 + 27.
        assert_eq!(r.overwritten(), 34);
        let kept = r.recent(usize::MAX);
        assert_eq!(kept.iter().filter(|s| s.seq < 1_000).count(), 10);
        assert_eq!(kept.iter().filter(|s| s.seq >= 2_000).count(), 33);
        // `recent(n)` is the newest n overall, oldest first.
        let newest = r.recent(5);
        assert_eq!(newest.iter().map(|s| s.seq).collect::<Vec<_>>(), [2055, 2056, 2057, 2058, 2059]);
    }

    #[test]
    fn find_trace_locates_retained_span() {
        let r = SpanRecorder::new(ObsConfig::default());
        for i in 0..50 {
            r.offer(span(i, 0));
        }
        let want = trace_id(42, 17);
        let found = r.find_trace(want).expect("span retained");
        assert_eq!(found.seq, 17);
        assert_eq!(r.find_trace(0), None);
        assert_eq!(r.find_trace(0x1234_5678), None, "unknown id");
    }

    #[test]
    fn multithreaded_recording_merges() {
        let r = std::sync::Arc::new(SpanRecorder::new(ObsConfig::default()));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        r.offer(span(t * 1000 + i, 0));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.recorded(), 8 * 500);
        assert_eq!(r.stage_summaries()[0].count, 8 * 500);
    }
}
