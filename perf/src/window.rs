//! One run of one workload through the real driver, and the per-second
//! slices read from it.
//!
//! The rule the whole benchmark follows: every timing is a robust mean of
//! per-second slices of the window, each corrected for the host's speed in
//! that second; every count is exact; and the benchmark's own thread sleeps
//! through the window except for one read just before each second boundary.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bp_core::{start_with_source, Controller, RunConfig, RunHandle, StatsCollector, Workload};
use bp_obs::{ObsConfig, SpanMode, SpanRecorder};
use bp_storage::MetricsSnapshot;
use bp_util::clock::{wall_clock, SharedClock, MICROS_PER_SEC};

use crate::host::{self, Cadence, HostRef};
use crate::summary::percentile_interpolated;
use crate::traced::{SpanLog, TracedSource, TracedWorkload};
use crate::workloads::{Drive, Loaded, Spec};

/// How long before a second boundary the counters are read, so the read is
/// over when the boundary comes.
const READ_AHEAD_US: u64 = 5_000;

/// What the driver records while the window runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recording {
    /// Spans off, no trace, no telemetry thread: the measured window.
    Off,
    /// The product defaults: full spans, `trace.txt` records, 1 s telemetry.
    Full,
}

/// One second of the window.
#[derive(Debug, Clone, Copy)]
pub struct Second {
    /// Requests that ended in this clock second (exact).
    pub completed: f64,
    /// Service latency percentiles of those requests, µs.
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
    /// Process CPU time over requests ended, between this second's counter
    /// read and the previous one.
    pub cpu_us_per_tx: f64,
    /// Queue backlog and resident size at the counter read.
    pub backlog: f64,
    pub rss_mb: f64,
    /// Seconds the hypervisor took from this machine's runnable cores
    /// between this second's counter read and the previous one.
    pub stolen_s: f64,
    /// How slow the host was in this second (see [`HostRef`]): `None` when
    /// no reference burst ran in it.
    pub slowdown: Option<f64>,
}

/// Everything read from one window. Counts are totals between the reads at
/// the window's first and last boundary.
pub struct WindowData {
    pub seconds: Vec<Second>,
    /// Requests that ended in the window, however they ended, except shed.
    pub completed: u64,
    /// Of those, the ones that failed after their retries.
    pub failed: u64,
    /// Requests the admission controller refused (never executed).
    pub shed: u64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Median reference burst over the window, ms per 10 000 steps.
    pub burst_ms: f64,
    pub server: MetricsSnapshot,
    /// Whole-run state, read after the run has stopped (for `check`).
    pub controller: Controller,
    /// The driver's own flight recorder.
    pub spans: Arc<SpanRecorder>,
    /// The benchmark's `execute` and `plan` spans (traced pass only).
    pub log: Option<Arc<SpanLog>>,
}

/// A run that has been started and not yet stopped.
pub struct Live {
    pub handle: RunHandle,
    pub clock: SharedClock,
    log: Option<Arc<SpanLog>>,
}

/// Start `spec` on `loaded` with a script long enough for its warm-up plus
/// `seconds` measured seconds.
pub fn start(spec: &Spec, loaded: &Loaded, seed: u64, seconds: u64, recording: Recording) -> Live {
    start_on(
        spec,
        loaded.workload.clone(),
        loaded,
        seed,
        seconds,
        recording,
    )
}

/// [`start`] with `workload` in place of the one that loaded the data (a
/// wrapper around it).
fn start_on(
    spec: &Spec,
    mut workload: Arc<dyn Workload>,
    loaded: &Loaded,
    seed: u64,
    seconds: u64,
    recording: Recording,
) -> Live {
    let full = recording == Recording::Full;
    let cfg = RunConfig {
        terminals: spec.terminals,
        script: spec.script(seconds),
        seed,
        collect_trace: full,
        unlimited_rate: 0.0,
        obs: ObsConfig {
            mode: if full { SpanMode::Full } else { SpanMode::Off },
            ..ObsConfig::default()
        },
        telemetry_interval_us: if full { MICROS_PER_SEC } else { 0 },
        ..RunConfig::default()
    };
    let slot = Arc::new(OnceLock::new());
    let clock = wall_clock();
    let mut source = spec.source(workload.as_ref(), seconds, seed, slot.clone());
    // The traced pass wraps both calls out of the driver in span recorders.
    let log = full.then(|| SpanLog::new(clock.clone()));
    if let Some(log) = &log {
        workload = Arc::new(TracedWorkload {
            inner: workload,
            log: log.clone(),
        });
        source = Box::new(TracedSource {
            inner: source,
            log: log.clone(),
        });
    }
    let handle = start_with_source(loaded.db.clone(), workload, clock.clone(), cfg, source);
    slot.set(handle.controller.clone())
        .unwrap_or_else(|_| unreachable!("slot set once"));
    Live { handle, clock, log }
}

/// Run `spec` on `loaded` for its warm-up plus `seconds` measured seconds.
pub fn run(
    spec: &Spec,
    loaded: &Loaded,
    seed: u64,
    seconds: u64,
    recording: Recording,
) -> WindowData {
    // Service times and CPU per request scale with the host's speed on
    // either drive and are normalised by it. (What a paced run delivers is
    // set by the gate and its timers, and is reported as measured.)
    let cadence = match spec.drive {
        Drive::Saturated => Cadence::SATURATED,
        Drive::Paced { .. } => Cadence::PACED,
    };
    let (host_ref, workload) = HostRef::inside(loaded.workload.clone(), cadence);
    let Live { handle, clock, log } = start_on(spec, workload, loaded, seed, seconds, recording);
    let controller = handle.controller.clone();
    let stats = controller.stats().clone();

    let first = spec.warmup_s();
    clock.sleep_until(first * MICROS_PER_SEC);
    let opened = Instant::now();
    let cpu_0 = host::cpu_seconds();
    let status_0 = controller.status();
    let completed_0 = stats.total_completed();
    let server_0 = loaded.db.metrics().snapshot();

    // (cpu seconds, requests ended, backlog, resident MB, stolen seconds)
    // near each boundary.
    let mut reads = vec![(cpu_0, completed_0, 0, 0.0, host::steal_seconds())];
    for second in first..first + seconds {
        clock.sleep_until((second + 1) * MICROS_PER_SEC - READ_AHEAD_US);
        reads.push((
            host::cpu_seconds(),
            stats.total_completed(),
            controller.backlog(),
            host::rss_mb(),
            host::steal_seconds(),
        ));
    }
    clock.sleep_until((first + seconds) * MICROS_PER_SEC);
    let closed = Instant::now();
    let cpu_s = host::cpu_seconds() - cpu_0;
    let completed = stats.total_completed() - completed_0;
    let status = controller.status();
    let server = loaded.db.metrics().snapshot().delta(&server_0);
    let peak_rss_mb = host::peak_rss_mb();

    let spans = handle.spans.clone();
    handle.stop_and_join();
    let per_second = stats.throughput_series();
    let window = first as usize..(first + seconds) as usize;
    let histograms = second_histograms(&stats, &clock, window.clone());
    let seconds = window
        .zip(histograms)
        .zip(reads.windows(2))
        .enumerate()
        .map(|(k, ((second, hist), read))| {
            let (cpu_a, done_a, .., steal_a) = read[0];
            let (cpu_b, done_b, backlog, rss_mb, steal_b) = read[1];
            let from = opened + Duration::from_secs(k as u64);
            Second {
                completed: per_second.get(second).copied().unwrap_or(0.0),
                p50_us: percentile_interpolated(&hist, 50.0),
                p95_us: percentile_interpolated(&hist, 95.0),
                p99_us: percentile_interpolated(&hist, 99.0),
                cpu_us_per_tx: (cpu_b - cpu_a) * 1e6 / (done_b - done_a).max(1) as f64,
                backlog: backlog as f64,
                rss_mb,
                stolen_s: steal_b - steal_a,
                slowdown: host_ref.slowdown(from, from + Duration::from_secs(1)),
            }
        })
        .collect();

    WindowData {
        seconds,
        completed,
        failed: status.failed - status_0.failed,
        shed: status.shed - status_0.shed,
        cpu_s,
        peak_rss_mb,
        burst_ms: host_ref.burst_ms(opened, closed).unwrap_or(0.0),
        server,
        controller,
        spans,
        log,
    }
}

/// Bucket counts `(bucket_low, count)` of the service-latency histogram of
/// each clock second in `seconds`, oldest first, read after the run has
/// stopped. The collector only exposes windows that end now, so second `s`
/// is the window reaching back to `s` minus the window reaching back to
/// `s + 1`.
fn second_histograms(
    stats: &StatsCollector,
    clock: &SharedClock,
    seconds: std::ops::Range<usize>,
) -> Vec<Vec<(u64, u64)>> {
    loop {
        let now_s = (clock.now() / MICROS_PER_SEC) as usize;
        let reaching_back_to = |s: usize| -> Vec<(u64, u64)> {
            if s > now_s {
                Vec::new()
            } else {
                stats.window_histogram(now_s - s + 1).iter().collect()
            }
        };
        let mut out = Vec::with_capacity(seconds.len());
        let mut newer = reaching_back_to(seconds.end);
        for s in seconds.clone().rev() {
            let this = reaching_back_to(s);
            out.push(subtract(&this, &newer));
            newer = this;
        }
        out.reverse();
        // All windows must have ended in the same second.
        if (clock.now() / MICROS_PER_SEC) as usize == now_s {
            return out;
        }
    }
}

/// `a - b` bucket by bucket; both are sorted by bucket and `b`'s samples
/// are a subset of `a`'s.
fn subtract(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut b = b.iter().peekable();
    a.iter()
        .filter_map(|&(low, count)| {
            let less = b.next_if(|&&(l, _)| l == low).map_or(0, |&(_, c)| c);
            (count > less).then_some((low, count - less))
        })
        .collect()
}
