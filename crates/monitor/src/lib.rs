//! `bp-monitor`: dstat-style server resource monitoring (Fig. 1, §2.1, §4.2).
//!
//! OLTP-Bench launches standard monitoring tools (dstat [7]) next to the
//! DBMS and streams system metrics in real time. Our system under test is
//! the embedded engine, so the monitor samples its internal counters at a
//! fixed tick and converts the deltas into dstat-like rows: CPU busy share,
//! IO ops/s, lock waits/s, WAL throughput, buffer hit rate. A saturation
//! detector implements the §4.2 loop ("the user could lower the percentage
//! of write-intensive transactions if the disk IO activity seems to
//! saturate").

use std::sync::Arc;

use bp_util::sync::Mutex;
use bp_util::Periodic;

use bp_storage::{Database, MetricsSnapshot};
use bp_util::clock::{Micros, SharedClock, MICROS_PER_SEC};

/// One monitoring sample (a dstat output row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceSample {
    /// Sample time (µs since monitor start).
    pub t_us: Micros,
    /// Fraction of the interval the engine spent doing work, per worker-
    /// equivalent (can exceed 1.0 with many workers).
    pub cpu_busy: f64,
    /// Simulated IO reads per second.
    pub io_reads_per_s: f64,
    /// Simulated IO writes per second.
    pub io_writes_per_s: f64,
    /// Lock waits per second.
    pub lock_waits_per_s: f64,
    /// Share of the interval spent waiting on locks (per worker-equivalent).
    pub lock_wait_share: f64,
    /// Deadlocks (wait-die kills) per second.
    pub deadlocks_per_s: f64,
    /// Commits per second.
    pub commits_per_s: f64,
    /// Aborts per second.
    pub aborts_per_s: f64,
    /// WAL bytes per second.
    pub wal_bytes_per_s: f64,
    /// Buffer pool hit ratio over the interval.
    pub buf_hit_ratio: f64,
    /// Active transactions at sample time.
    pub active_txns: i64,
}

/// Which resource looks saturated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Saturation {
    None,
    Cpu,
    Io,
    Locks,
}

impl Saturation {
    pub fn name(&self) -> &'static str {
        match self {
            Saturation::None => "none",
            Saturation::Cpu => "cpu",
            Saturation::Io => "io",
            Saturation::Locks => "locks",
        }
    }
}

/// Thresholds for the saturation detector.
#[derive(Debug, Clone, Copy)]
pub struct SaturationThresholds {
    pub cpu_busy: f64,
    pub io_per_s: f64,
    pub lock_wait_share: f64,
}

impl Default for SaturationThresholds {
    fn default() -> Self {
        SaturationThresholds { cpu_busy: 0.85, io_per_s: 5_000.0, lock_wait_share: 0.4 }
    }
}

impl ResourceSample {
    /// Build a sample from a counter delta over an interval. Tolerates
    /// degenerate inputs — a zero-length interval is clamped to 1µs and a
    /// raced (saturated-to-zero) delta yields all-zero rates — so every
    /// field is always finite.
    pub fn from_delta(t_us: Micros, dt_us: Micros, d: &MetricsSnapshot) -> ResourceSample {
        let dt_us = dt_us.max(1);
        let dt_s = dt_us as f64 / MICROS_PER_SEC as f64;
        ResourceSample {
            t_us,
            cpu_busy: d.busy_micros as f64 / dt_us as f64,
            io_reads_per_s: d.io_reads as f64 / dt_s,
            io_writes_per_s: d.io_writes as f64 / dt_s,
            lock_waits_per_s: d.lock_waits as f64 / dt_s,
            lock_wait_share: d.lock_wait_micros as f64 / dt_us as f64,
            deadlocks_per_s: d.deadlocks as f64 / dt_s,
            commits_per_s: d.commits as f64 / dt_s,
            aborts_per_s: d.aborts as f64 / dt_s,
            wal_bytes_per_s: d.wal_bytes as f64 / dt_s,
            buf_hit_ratio: d.hit_ratio(),
            active_txns: d.active_txns,
        }
    }

    /// True when every field is a finite number (no NaN/Inf).
    pub fn is_finite(&self) -> bool {
        self.cpu_busy.is_finite()
            && self.io_reads_per_s.is_finite()
            && self.io_writes_per_s.is_finite()
            && self.lock_waits_per_s.is_finite()
            && self.lock_wait_share.is_finite()
            && self.deadlocks_per_s.is_finite()
            && self.commits_per_s.is_finite()
            && self.aborts_per_s.is_finite()
            && self.wal_bytes_per_s.is_finite()
            && self.buf_hit_ratio.is_finite()
    }

    /// Classify the dominant saturated resource, if any.
    pub fn saturation(&self, th: &SaturationThresholds) -> Saturation {
        if self.lock_wait_share >= th.lock_wait_share {
            Saturation::Locks
        } else if self.io_reads_per_s + self.io_writes_per_s >= th.io_per_s {
            Saturation::Io
        } else if self.cpu_busy >= th.cpu_busy {
            Saturation::Cpu
        } else {
            Saturation::None
        }
    }

    /// Render as a dstat-like text row.
    pub fn to_row(&self) -> String {
        format!(
            "{:>8.1}s cpu={:>5.1}% io_r={:>7.0}/s io_w={:>7.0}/s lkw={:>6.0}/s dlk={:>4.0}/s \
             cmt={:>7.0}/s abt={:>5.0}/s wal={:>8.0}B/s hit={:>5.1}% act={}",
            self.t_us as f64 / MICROS_PER_SEC as f64,
            self.cpu_busy * 100.0,
            self.io_reads_per_s,
            self.io_writes_per_s,
            self.lock_waits_per_s,
            self.deadlocks_per_s,
            self.commits_per_s,
            self.aborts_per_s,
            self.wal_bytes_per_s,
            self.buf_hit_ratio * 100.0,
            self.active_txns,
        )
    }
}

/// CSV header matching [`Monitor::to_csv`].
pub const CSV_HEADER: &str =
    "t_s,cpu_busy,io_reads_per_s,io_writes_per_s,lock_waits_per_s,lock_wait_share,deadlocks_per_s,commits_per_s,aborts_per_s,wal_bytes_per_s,buf_hit_ratio,active_txns";

/// Samples the engine's counters at a fixed interval.
pub struct Monitor {
    db: Arc<Database>,
    clock: SharedClock,
    start: Micros,
    last: Mutex<(Micros, MetricsSnapshot)>,
    samples: Mutex<Vec<ResourceSample>>,
    thresholds: SaturationThresholds,
    last_saturation: Mutex<Saturation>,
}

impl Monitor {
    pub fn new(db: Arc<Database>, clock: SharedClock) -> Monitor {
        let start = clock.now();
        let snap = db.metrics().snapshot();
        Monitor {
            db,
            clock,
            start,
            last: Mutex::new((start, snap)),
            samples: Mutex::new(Vec::new()),
            thresholds: SaturationThresholds::default(),
            last_saturation: Mutex::new(Saturation::None),
        }
    }

    /// Override the saturation-detector thresholds (builder style).
    pub fn with_thresholds(mut self, thresholds: SaturationThresholds) -> Monitor {
        self.thresholds = thresholds;
        self
    }

    /// Take one sample covering the interval since the previous tick.
    pub fn tick(&self) -> ResourceSample {
        let now = self.clock.now();
        let snap = self.db.metrics().snapshot();
        let mut last = self.last.lock();
        let (last_t, last_snap) = *last;
        let dt_us = now.saturating_sub(last_t);
        let d = snap.delta(&last_snap);
        *last = (now, snap);
        drop(last);

        let sample = ResourceSample::from_delta(now - self.start, dt_us, &d);
        self.samples.lock().push(sample);
        self.note_saturation(&sample);
        sample
    }

    /// Journal a `saturation_change` event when the classification flips
    /// between ticks (§4.2's "seems to saturate" signal as a discrete,
    /// timestamped fact the doctor can cite).
    fn note_saturation(&self, sample: &ResourceSample) {
        let now = sample.saturation(&self.thresholds);
        let mut prev = self.last_saturation.lock();
        if *prev == now {
            return;
        }
        let from = *prev;
        *prev = now;
        drop(prev);
        let sev = if now == Saturation::None {
            bp_obs::Severity::Info
        } else {
            bp_obs::Severity::Warn
        };
        self.db.journal().emit_with(sev, "monitor", "saturation_change", || {
            (
                format!("saturation: {} -> {}", from.name(), now.name()),
                vec![
                    ("from", from.name().to_string()),
                    ("to", now.name().to_string()),
                ],
            )
        });
    }

    /// All samples collected so far.
    pub fn samples(&self) -> Vec<ResourceSample> {
        self.samples.lock().clone()
    }

    /// Most recent sample.
    pub fn latest(&self) -> Option<ResourceSample> {
        self.samples.lock().last().copied()
    }

    /// Export all samples as CSV (with header).
    pub fn to_csv(&self) -> String {
        let samples = self.samples.lock();
        let mut out = String::with_capacity(samples.len() * 96 + CSV_HEADER.len());
        out.push_str(CSV_HEADER);
        out.push('\n');
        for s in samples.iter() {
            out.push_str(&format!(
                "{:.3},{:.4},{:.1},{:.1},{:.1},{:.4},{:.1},{:.1},{:.1},{:.1},{:.4},{}\n",
                s.t_us as f64 / MICROS_PER_SEC as f64,
                s.cpu_busy,
                s.io_reads_per_s,
                s.io_writes_per_s,
                s.lock_waits_per_s,
                s.lock_wait_share,
                s.deadlocks_per_s,
                s.commits_per_s,
                s.aborts_per_s,
                s.wal_bytes_per_s,
                s.buf_hit_ratio,
                s.active_txns,
            ));
        }
        out
    }

    /// Spawn a background thread sampling every `interval_us` until the
    /// returned handle is dropped.
    pub fn spawn(self: &Arc<Self>, interval_us: Micros) -> Periodic {
        let me = self.clone();
        Periodic::spawn("bp-monitor", interval_us, move || {
            me.tick();
            true
        })
    }
}

impl bp_obs::MetricsSource for Monitor {
    /// Expose the latest dstat-style sample as gauges. Rates are window
    /// rates over the last tick interval, not lifetime averages; when no
    /// tick has fired yet nothing is emitted.
    fn collect(&self, buf: &mut bp_obs::MetricsBuf) {
        let Some(s) = self.latest() else { return };
        let rows: [(&str, &str, f64); 10] = [
            ("bp_monitor_cpu_busy", "Busy share of the last interval per worker-equivalent", s.cpu_busy),
            ("bp_monitor_io_reads_per_s", "Simulated IO reads per second", s.io_reads_per_s),
            ("bp_monitor_io_writes_per_s", "Simulated IO writes per second", s.io_writes_per_s),
            ("bp_monitor_lock_waits_per_s", "Lock waits per second", s.lock_waits_per_s),
            ("bp_monitor_lock_wait_share", "Share of the interval spent waiting on locks", s.lock_wait_share),
            ("bp_monitor_deadlocks_per_s", "Wait-die kills per second", s.deadlocks_per_s),
            ("bp_monitor_commits_per_s", "Commits per second", s.commits_per_s),
            ("bp_monitor_wal_bytes_per_s", "WAL bytes per second", s.wal_bytes_per_s),
            ("bp_monitor_buf_hit_ratio", "Buffer pool hit ratio over the interval", s.buf_hit_ratio),
            ("bp_monitor_active_txns", "Active transactions at sample time", s.active_txns as f64),
        ];
        for (name, help, v) in rows {
            buf.gauge(name, help, &[], v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_sql::Connection;
    use bp_storage::Personality;
    use bp_util::clock::wall_clock;

    fn db_with_work() -> Arc<Database> {
        let db = Database::new(Personality::test());
        let mut c = Connection::open(&db);
        c.execute_batch("CREATE TABLE t (id INT PRIMARY KEY, v INT);").unwrap();
        for i in 0..100 {
            c.execute("INSERT INTO t VALUES (?, 0)", &[bp_storage::Value::Int(i)]).unwrap();
        }
        db
    }

    #[test]
    fn tick_reports_rates() {
        let db = db_with_work();
        let clock = wall_clock();
        let mon = Monitor::new(db.clone(), clock.clone());
        let mut c = Connection::open(&db);
        for i in 0..50 {
            c.execute("UPDATE t SET v = v + 1 WHERE id = ?", &[bp_storage::Value::Int(i % 100)])
                .unwrap();
        }
        clock.sleep(10_000);
        let s = mon.tick();
        assert!(s.commits_per_s > 0.0);
        assert!(s.wal_bytes_per_s > 0.0);
        assert_eq!(mon.samples().len(), 1);
    }

    #[test]
    fn deltas_between_ticks() {
        let db = db_with_work();
        let clock = wall_clock();
        let mon = Monitor::new(db.clone(), clock.clone());
        clock.sleep(5_000);
        let quiet = mon.tick();
        assert_eq!(quiet.commits_per_s, 0.0, "no work since monitor start");
        let mut c = Connection::open(&db);
        c.execute("UPDATE t SET v = 1 WHERE id = 5", &[]).unwrap();
        clock.sleep(5_000);
        let busy = mon.tick();
        assert!(busy.commits_per_s > 0.0);
    }

    #[test]
    fn saturation_classification() {
        let th = SaturationThresholds::default();
        let mut s = ResourceSample {
            t_us: 0,
            cpu_busy: 0.1,
            io_reads_per_s: 0.0,
            io_writes_per_s: 0.0,
            lock_waits_per_s: 0.0,
            lock_wait_share: 0.0,
            deadlocks_per_s: 0.0,
            commits_per_s: 0.0,
            aborts_per_s: 0.0,
            wal_bytes_per_s: 0.0,
            buf_hit_ratio: 1.0,
            active_txns: 0,
        };
        assert_eq!(s.saturation(&th), Saturation::None);
        s.cpu_busy = 0.9;
        assert_eq!(s.saturation(&th), Saturation::Cpu);
        s.io_writes_per_s = 6_000.0;
        assert_eq!(s.saturation(&th), Saturation::Io);
        s.lock_wait_share = 0.5;
        assert_eq!(s.saturation(&th), Saturation::Locks);
    }

    #[test]
    fn csv_export() {
        let db = db_with_work();
        let clock = wall_clock();
        let mon = Monitor::new(db, clock.clone());
        clock.sleep(2_000);
        mon.tick();
        mon.tick();
        let csv = mon.to_csv();
        assert!(csv.starts_with("t_s,"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn background_monitor_collects() {
        let db = db_with_work();
        let clock = wall_clock();
        let mon = Arc::new(Monitor::new(db, clock));
        {
            let _guard = mon.spawn(5_000);
            std::thread::sleep(std::time::Duration::from_millis(60));
        }
        assert!(mon.samples().len() >= 3, "{} samples", mon.samples().len());
        assert!(mon.latest().is_some());
    }

    #[test]
    fn first_sample_is_finite() {
        // First tick right after construction: tiny (possibly zero) interval
        // and zero delta must not produce NaN/Inf anywhere.
        let db = db_with_work();
        let (_sim, clock) = bp_util::clock::sim_clock();
        let mon = Monitor::new(db, clock);
        let s = mon.tick(); // sim clock has not advanced: dt == 0
        assert!(s.is_finite(), "non-finite field in {s:?}");
        assert_eq!(s.saturation(&SaturationThresholds::default()), Saturation::None);
    }

    #[test]
    fn zero_length_interval_is_finite() {
        let db = db_with_work();
        let (sim, clock) = bp_util::clock::sim_clock();
        let mon = Monitor::new(db.clone(), clock);
        sim.advance(5_000);
        mon.tick();
        // Second tick at the exact same sim instant: dt_us == 0.
        let mut c = Connection::open(&db);
        c.execute("UPDATE t SET v = 2 WHERE id = 1", &[]).unwrap();
        let s = mon.tick();
        assert!(s.is_finite(), "non-finite field in {s:?}");
        // The work done between ticks is still attributed, just over the
        // clamped 1µs window.
        assert!(s.commits_per_s > 0.0);
    }

    #[test]
    fn backwards_counters_saturate_to_zero_rates() {
        // Two snapshots taken concurrently with the data path can observe
        // individual counters going backwards relative to each other. The
        // saturating delta reads such a window as 0, and the sample built
        // from it must stay finite with no negative rates.
        let newer = MetricsSnapshot { commits: 10, io_reads: 5, ..Default::default() };
        let older = MetricsSnapshot { commits: 12, io_reads: 9, wal_bytes: 100, ..Default::default() };
        let d = newer.delta(&older);
        let s = ResourceSample::from_delta(1_000, 0, &d);
        assert!(s.is_finite(), "non-finite field in {s:?}");
        assert_eq!(s.commits_per_s, 0.0);
        assert_eq!(s.io_reads_per_s, 0.0);
        assert_eq!(s.wal_bytes_per_s, 0.0);
        assert_eq!(s.saturation(&SaturationThresholds::default()), Saturation::None);
    }

    #[test]
    fn metrics_source_exposes_latest_sample() {
        use bp_obs::{MetricsBuf, MetricsSource};
        let db = db_with_work();
        let clock = wall_clock();
        let mon = Monitor::new(db, clock.clone());
        let mut buf = MetricsBuf::new();
        mon.collect(&mut buf);
        assert!(buf.into_samples().is_empty(), "no tick yet, nothing to expose");
        clock.sleep(2_000);
        mon.tick();
        let mut buf = MetricsBuf::new();
        mon.collect(&mut buf);
        let samples = buf.into_samples();
        assert_eq!(samples.len(), 10);
        assert!(samples.iter().any(|s| s.name == "bp_monitor_cpu_busy"));
    }

    #[test]
    fn saturation_crossings_journaled() {
        let db = db_with_work();
        let clock = wall_clock();
        let mon = Monitor::new(db.clone(), clock);
        let quiet = ResourceSample::from_delta(1_000, 1_000, &MetricsSnapshot::default());
        let mut locky = quiet;
        locky.lock_wait_share = 0.9;
        mon.note_saturation(&locky); // none -> locks
        mon.note_saturation(&locky); // unchanged: no event
        mon.note_saturation(&quiet); // locks -> none
        let events = db.journal().all();
        let sats: Vec<_> = events.iter().filter(|e| e.kind == "saturation_change").collect();
        assert_eq!(sats.len(), 2, "{events:?}");
        assert_eq!(sats[0].severity, bp_obs::Severity::Warn);
        assert!(sats[0].fields.contains(&("to", "locks".to_string())));
        assert_eq!(sats[1].severity, bp_obs::Severity::Info);
        assert!(sats[1].fields.contains(&("from", "locks".to_string())));
    }

    #[test]
    fn row_rendering() {
        let db = db_with_work();
        let clock = wall_clock();
        let mon = Monitor::new(db, clock.clone());
        clock.sleep(2_000);
        let row = mon.tick().to_row();
        assert!(row.contains("cpu="));
        assert!(row.contains("wal="));
    }
}
