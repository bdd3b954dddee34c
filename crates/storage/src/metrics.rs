//! Server-side counters sampled by the run's telemetry recorder
//! (`bp_obs::TelemetryRecorder`, fed by `bp-core`'s sensor).
//!
//! These play the role of the host metrics that OLTP-Bench gathers with
//! dstat [7]: CPU work, IO operations, lock activity, WAL traffic. All
//! counters are lock-free atomics so the data path stays cheap.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Monotonic counters describing the work the engine has performed.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    commits: AtomicU64,
    aborts: AtomicU64,
    rows_read: AtomicU64,
    rows_written: AtomicU64,
    lock_waits: AtomicU64,
    lock_wait_micros: AtomicU64,
    deadlocks: AtomicU64,
    lock_timeouts: AtomicU64,
    io_reads: AtomicU64,
    io_writes: AtomicU64,
    buf_hits: AtomicU64,
    buf_misses: AtomicU64,
    wal_bytes: AtomicU64,
    wal_fsyncs: AtomicU64,
    /// Time spent in WAL commit/fsync processing, µs (includes injected
    /// fsync stalls) — lets the doctor tell IO saturation from lock waits.
    fsync_micros: AtomicU64,
    /// Simulated CPU-busy time in µs (sum of service costs applied).
    busy_micros: AtomicU64,
    active_txns: AtomicI64,
}

/// A point-in-time copy of all counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    pub commits: u64,
    pub aborts: u64,
    pub rows_read: u64,
    pub rows_written: u64,
    pub lock_waits: u64,
    pub lock_wait_micros: u64,
    pub deadlocks: u64,
    pub lock_timeouts: u64,
    pub io_reads: u64,
    pub io_writes: u64,
    pub buf_hits: u64,
    pub buf_misses: u64,
    /// Encoded redo bytes the committed transactions appended to the log.
    pub wal_bytes: u64,
    pub wal_fsyncs: u64,
    pub fsync_micros: u64,
    pub busy_micros: u64,
    pub active_txns: i64,
}

impl MetricsSnapshot {
    /// Per-field difference (`self` - `earlier`), used for rate windows.
    /// Saturating: two snapshots taken concurrently with the data path can
    /// observe individual counters "going backwards" relative to each
    /// other, and a window of 0 is the sane reading of such a race.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            commits: self.commits.saturating_sub(earlier.commits),
            aborts: self.aborts.saturating_sub(earlier.aborts),
            rows_read: self.rows_read.saturating_sub(earlier.rows_read),
            rows_written: self.rows_written.saturating_sub(earlier.rows_written),
            lock_waits: self.lock_waits.saturating_sub(earlier.lock_waits),
            lock_wait_micros: self.lock_wait_micros.saturating_sub(earlier.lock_wait_micros),
            deadlocks: self.deadlocks.saturating_sub(earlier.deadlocks),
            lock_timeouts: self.lock_timeouts.saturating_sub(earlier.lock_timeouts),
            io_reads: self.io_reads.saturating_sub(earlier.io_reads),
            io_writes: self.io_writes.saturating_sub(earlier.io_writes),
            buf_hits: self.buf_hits.saturating_sub(earlier.buf_hits),
            buf_misses: self.buf_misses.saturating_sub(earlier.buf_misses),
            wal_bytes: self.wal_bytes.saturating_sub(earlier.wal_bytes),
            wal_fsyncs: self.wal_fsyncs.saturating_sub(earlier.wal_fsyncs),
            fsync_micros: self.fsync_micros.saturating_sub(earlier.fsync_micros),
            busy_micros: self.busy_micros.saturating_sub(earlier.busy_micros),
            active_txns: self.active_txns,
        }
    }

    /// Buffer-pool hit ratio in `[0, 1]`; 1.0 when no accesses.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.buf_hits + self.buf_misses;
        if total == 0 {
            1.0
        } else {
            self.buf_hits as f64 / total as f64
        }
    }
}

impl ServerMetrics {
    pub fn new() -> ServerMetrics {
        ServerMetrics::default()
    }

    #[inline]
    pub fn inc_commits(&self) {
        self.commits.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub fn inc_aborts(&self) {
        self.aborts.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub fn add_rows_read(&self, n: u64) {
        self.rows_read.fetch_add(n, Ordering::Relaxed);
    }
    #[inline]
    pub fn add_rows_written(&self, n: u64) {
        self.rows_written.fetch_add(n, Ordering::Relaxed);
    }
    #[inline]
    pub fn record_lock_wait(&self, waited_us: u64) {
        self.lock_waits.fetch_add(1, Ordering::Relaxed);
        self.lock_wait_micros.fetch_add(waited_us, Ordering::Relaxed);
    }
    #[inline]
    pub fn inc_deadlocks(&self) {
        self.deadlocks.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub fn inc_lock_timeouts(&self) {
        self.lock_timeouts.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub fn add_io_reads(&self, n: u64) {
        self.io_reads.fetch_add(n, Ordering::Relaxed);
    }
    #[inline]
    pub fn add_io_writes(&self, n: u64) {
        self.io_writes.fetch_add(n, Ordering::Relaxed);
    }
    #[inline]
    pub fn inc_buf_hits(&self) {
        self.buf_hits.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub fn inc_buf_misses(&self) {
        self.buf_misses.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub fn add_wal_bytes(&self, n: u64) {
        self.wal_bytes.fetch_add(n, Ordering::Relaxed);
    }
    #[inline]
    pub fn inc_wal_fsyncs(&self) {
        self.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub fn add_fsync_micros(&self, n: u64) {
        self.fsync_micros.fetch_add(n, Ordering::Relaxed);
    }
    #[inline]
    pub fn add_busy_micros(&self, n: u64) {
        self.busy_micros.fetch_add(n, Ordering::Relaxed);
    }
    #[inline]
    pub fn txn_started(&self) {
        self.active_txns.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    pub fn txn_ended(&self) {
        self.active_txns.fetch_sub(1, Ordering::Relaxed);
    }

    /// All counter fields as `(name, value)` pairs, in declaration order.
    /// One source of truth for the Prometheus exposition below and any
    /// other exhaustive dump.
    pub fn counter_fields(s: &MetricsSnapshot) -> [(&'static str, u64); 16] {
        [
            ("commits", s.commits),
            ("aborts", s.aborts),
            ("rows_read", s.rows_read),
            ("rows_written", s.rows_written),
            ("lock_waits", s.lock_waits),
            ("lock_wait_us", s.lock_wait_micros),
            ("deadlocks", s.deadlocks),
            ("lock_timeouts", s.lock_timeouts),
            ("io_reads", s.io_reads),
            ("io_writes", s.io_writes),
            ("buf_hits", s.buf_hits),
            ("buf_misses", s.buf_misses),
            ("wal_bytes", s.wal_bytes),
            ("wal_fsyncs", s.wal_fsyncs),
            ("fsync_us", s.fsync_micros),
            ("busy_us", s.busy_micros),
        ]
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            commits: self.commits.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            rows_read: self.rows_read.load(Ordering::Relaxed),
            rows_written: self.rows_written.load(Ordering::Relaxed),
            lock_waits: self.lock_waits.load(Ordering::Relaxed),
            lock_wait_micros: self.lock_wait_micros.load(Ordering::Relaxed),
            deadlocks: self.deadlocks.load(Ordering::Relaxed),
            lock_timeouts: self.lock_timeouts.load(Ordering::Relaxed),
            io_reads: self.io_reads.load(Ordering::Relaxed),
            io_writes: self.io_writes.load(Ordering::Relaxed),
            buf_hits: self.buf_hits.load(Ordering::Relaxed),
            buf_misses: self.buf_misses.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            wal_fsyncs: self.wal_fsyncs.load(Ordering::Relaxed),
            fsync_micros: self.fsync_micros.load(Ordering::Relaxed),
            busy_micros: self.busy_micros.load(Ordering::Relaxed),
            active_txns: self.active_txns.load(Ordering::Relaxed),
        }
    }
}

impl bp_obs::MetricsSource for ServerMetrics {
    fn collect(&self, buf: &mut bp_obs::MetricsBuf) {
        let s = self.snapshot();
        for (name, v) in ServerMetrics::counter_fields(&s) {
            let full = format!("bp_server_{name}_total");
            buf.counter(&full, "Storage engine counter", &[], v as f64);
        }
        buf.gauge(
            "bp_server_active_txns",
            "Transactions currently open in the storage engine",
            &[],
            s.active_txns as f64,
        );
        buf.gauge(
            "bp_server_buf_hit_ratio",
            "Buffer pool hit ratio over the whole run",
            &[],
            s.hit_ratio(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = ServerMetrics::new();
        m.inc_commits();
        m.inc_commits();
        m.add_rows_read(10);
        m.record_lock_wait(1500);
        let s = m.snapshot();
        assert_eq!(s.commits, 2);
        assert_eq!(s.rows_read, 10);
        assert_eq!(s.lock_waits, 1);
        assert_eq!(s.lock_wait_micros, 1500);
    }

    #[test]
    fn delta() {
        let m = ServerMetrics::new();
        m.inc_commits();
        let a = m.snapshot();
        m.inc_commits();
        m.inc_commits();
        let b = m.snapshot();
        assert_eq!(b.delta(&a).commits, 2);
    }

    #[test]
    fn delta_saturates_on_backwards_counters() {
        // A snapshot race can observe counters "earlier" than a snapshot
        // taken before it; the delta must clamp at 0, not wrap to ~2^64.
        let newer = MetricsSnapshot { commits: 5, busy_micros: 100, ..Default::default() };
        let older = MetricsSnapshot { commits: 9, busy_micros: 40, ..Default::default() };
        let d = newer.delta(&older);
        assert_eq!(d.commits, 0, "backwards counter clamps to 0");
        assert_eq!(d.busy_micros, 60, "forward counters unaffected");
    }

    #[test]
    fn metrics_source_exposes_all_counters() {
        use bp_obs::MetricsSource as _;
        let m = ServerMetrics::new();
        m.inc_commits();
        m.txn_started();
        let mut buf = bp_obs::MetricsBuf::new();
        m.collect(&mut buf);
        let samples = buf.into_samples();
        // 16 counters + 2 gauges.
        assert_eq!(samples.len(), 18);
        for (name, _) in ServerMetrics::counter_fields(&m.snapshot()) {
            let full = format!("bp_server_{name}_total");
            assert!(samples.iter().any(|s| s.name == full), "missing {full}");
        }
    }

    #[test]
    fn active_txn_gauge() {
        let m = ServerMetrics::new();
        m.txn_started();
        m.txn_started();
        m.txn_ended();
        assert_eq!(m.snapshot().active_txns, 1);
    }

    #[test]
    fn hit_ratio() {
        let m = ServerMetrics::new();
        assert_eq!(m.snapshot().hit_ratio(), 1.0);
        m.inc_buf_hits();
        m.inc_buf_hits();
        m.inc_buf_misses();
        let r = m.snapshot().hit_ratio();
        assert!((r - 2.0 / 3.0).abs() < 1e-12);
    }
}
