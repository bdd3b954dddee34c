//! The continuous telemetry recorder and the `#bp-report v2` artifact.
//!
//! A background thread ([`TelemetryRecorder::spawn`]) calls a sensor
//! closure every tick; the closure (built by `bp-core`, which can see the
//! stats collector, the engine counters, the breaker and the commanded
//! rate) returns one [`TelemetrySample`] — client-window latency
//! percentiles plus per-interval engine counter deltas. Samples land in a
//! fixed-capacity in-memory ring, flight-recorder style.
//!
//! [`Report`] is the export: a versioned, self-describing, line-oriented
//! text artifact in the same style as `#bp-replay v1`, carrying the sample
//! timeline *and* the event journal so a single file answers both "what
//! happened" and "what changed right before". A sample is one row of
//! numbers; an event is its `/events` JSON object on one line (v2; v1 wrote
//! a flattened `event …` line that lost `,`, `=` and newlines in field
//! values and messages). [`Report::from_text`] is the
//! exact inverse of [`Report::to_text`]; the doctor consumes the parsed
//! form.

use std::sync::Arc;

use bp_util::artifact::{write_section, Reader, Writer};
use bp_util::json::Json;
use bp_util::ring::Ring;
use bp_util::sync::Mutex;
use bp_util::Periodic;

use crate::journal::{Event, EventJournal};
use crate::registry::{MetricsBuf, MetricsSource};

/// One telemetry tick: client-side window stats plus per-interval deltas
/// of the engine counters the doctor classifies on.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TelemetrySample {
    /// Journal-aligned timestamp (µs, same origin as [`Event::ts_us`]).
    pub t_us: u64,
    /// Commanded offered rate (tx/s); `f64::INFINITY` for unlimited.
    pub rate: f64,
    /// Delivered throughput over the window (tx/s).
    pub throughput: f64,
    pub p50_us: u64,
    pub p99_us: u64,
    /// Failed / completed in the window (0..=1).
    pub error_rate: f64,
    /// Shed / (completed + shed) in the window (0..=1).
    pub shed_rate: f64,
    /// Breaker state gauge: 0 closed, 1 open, 2 half-open.
    pub breaker_state: u8,
    /// Request-queue backlog at sample time.
    pub queue_depth: u64,
    // Engine counter deltas over the interval:
    pub commits: u64,
    pub lock_waits: u64,
    pub lock_wait_us: u64,
    pub deadlocks: u64,
    pub io_reads: u64,
    pub io_writes: u64,
    pub wal_fsyncs: u64,
    pub wal_bytes: u64,
    /// Time spent in commit/fsync processing (includes injected stalls).
    pub fsync_us: u64,
    pub buf_hits: u64,
    pub buf_misses: u64,
    pub busy_us: u64,
}

/// One artifact column: its header name, how to read it off a sample and
/// how to write it back.
type Column = (&'static str, fn(&TelemetrySample) -> f64, fn(&mut TelemetrySample, f64));

/// The artifact's columns, in order: the one table behind
/// [`TelemetrySample::to_line`], [`TelemetrySample::from_line`] and the
/// `columns` header that makes the format self-describing.
const COLUMNS: [Column; 21] = [
    ("t_us", |s| s.t_us as f64, |s, v| s.t_us = v as u64),
    ("rate", |s| s.rate, |s, v| s.rate = v),
    ("tput", |s| s.throughput, |s, v| s.throughput = v),
    ("p50_us", |s| s.p50_us as f64, |s, v| s.p50_us = v as u64),
    ("p99_us", |s| s.p99_us as f64, |s, v| s.p99_us = v as u64),
    ("err", |s| s.error_rate, |s, v| s.error_rate = v),
    ("shed", |s| s.shed_rate, |s, v| s.shed_rate = v),
    ("breaker", |s| s.breaker_state as f64, |s, v| s.breaker_state = v as u8),
    ("qdepth", |s| s.queue_depth as f64, |s, v| s.queue_depth = v as u64),
    ("commits", |s| s.commits as f64, |s, v| s.commits = v as u64),
    ("lock_waits", |s| s.lock_waits as f64, |s, v| s.lock_waits = v as u64),
    ("lock_wait_us", |s| s.lock_wait_us as f64, |s, v| s.lock_wait_us = v as u64),
    ("deadlocks", |s| s.deadlocks as f64, |s, v| s.deadlocks = v as u64),
    ("io_reads", |s| s.io_reads as f64, |s, v| s.io_reads = v as u64),
    ("io_writes", |s| s.io_writes as f64, |s, v| s.io_writes = v as u64),
    ("wal_fsyncs", |s| s.wal_fsyncs as f64, |s, v| s.wal_fsyncs = v as u64),
    ("wal_bytes", |s| s.wal_bytes as f64, |s, v| s.wal_bytes = v as u64),
    ("fsync_us", |s| s.fsync_us as f64, |s, v| s.fsync_us = v as u64),
    ("buf_hits", |s| s.buf_hits as f64, |s, v| s.buf_hits = v as u64),
    ("buf_misses", |s| s.buf_misses as f64, |s, v| s.buf_misses = v as u64),
    ("busy_us", |s| s.busy_us as f64, |s, v| s.busy_us = v as u64),
];

impl TelemetrySample {
    /// One artifact line: the columns space-separated, floats in Rust
    /// round-trip `Display` form (`inf` for unlimited rate).
    pub fn to_line(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(128);
        for (i, (_, get, _)) in COLUMNS.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            let v = get(self);
            let _ = if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                write!(out, "{}", v as i64)
            } else {
                write!(out, "{v}")
            };
        }
        out
    }

    pub fn from_line(line: &str) -> Result<TelemetrySample, String> {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.len() != COLUMNS.len() {
            return Err(format!("sample has {} columns, expected {}", tokens.len(), COLUMNS.len()));
        }
        let mut sample = TelemetrySample::default();
        for ((_, _, set), t) in COLUMNS.iter().zip(tokens) {
            set(&mut sample, t.parse().map_err(|e| format!("bad sample value `{t}`: {e}"))?);
        }
        Ok(sample)
    }
}

/// Fixed-capacity ring of [`TelemetrySample`]s with an optional background
/// sampling thread.
pub struct TelemetryRecorder {
    interval_us: u64,
    ring: Mutex<Ring<TelemetrySample>>,
}

impl TelemetryRecorder {
    pub const DEFAULT_CAPACITY: usize = 1024;

    pub fn new(interval_us: u64) -> TelemetryRecorder {
        TelemetryRecorder::with_capacity(interval_us, Self::DEFAULT_CAPACITY)
    }

    pub fn with_capacity(interval_us: u64, capacity: usize) -> TelemetryRecorder {
        TelemetryRecorder {
            interval_us: interval_us.max(1),
            ring: Mutex::new(Ring::new(capacity.max(4))),
        }
    }

    pub fn interval_us(&self) -> u64 {
        self.interval_us
    }

    /// Record one sample (the background thread's tick body; also the
    /// direct path for DES runs that tick a simulated clock).
    pub fn record(&self, sample: TelemetrySample) {
        self.ring.lock().push(sample);
    }

    /// Samples ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.ring.lock().written()
    }

    /// Retained samples, oldest first.
    pub fn samples(&self) -> Vec<TelemetrySample> {
        self.ring.lock().iter().copied().collect()
    }

    /// Spawn the sampling thread: every `interval_us` of wall time, call
    /// `sensor` and record what it returns. Stops when the handle drops.
    pub fn spawn(
        self: &Arc<Self>,
        mut sensor: Box<dyn FnMut() -> TelemetrySample + Send>,
    ) -> Periodic {
        let recorder = self.clone();
        Periodic::spawn("bp-telemetry", self.interval_us, move || {
            recorder.record(sensor());
            true
        })
    }

    /// Export the recorded timeline plus the journal as a report.
    pub fn report(&self, journal: &EventJournal) -> Report {
        Report {
            version: REPORT_VERSION,
            interval_us: self.interval_us,
            samples: self.samples(),
            events: journal.all(),
        }
    }
}

impl MetricsSource for TelemetryRecorder {
    fn collect(&self, buf: &mut MetricsBuf) {
        buf.counter(
            "bp_report_samples_total",
            "Telemetry samples recorded by the report recorder",
            &[],
            self.recorded() as f64,
        );
        buf.gauge(
            "bp_report_interval_us",
            "Telemetry recorder tick interval in microseconds",
            &[],
            self.interval_us as f64,
        );
    }
}

/// Report artifact version this build writes and understands.
pub const REPORT_VERSION: u32 = 2;
const MAGIC: &str = "#bp-report";

/// The parsed (or about-to-be-serialized) report artifact: a per-run
/// timeline of samples aligned with the event journal.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    pub version: u32,
    pub interval_us: u64,
    pub samples: Vec<TelemetrySample>,
    pub events: Vec<Event>,
}

impl Report {
    /// Serialize: header, column legend, samples, events, `end`.
    pub fn to_text(&self) -> String {
        let capacity = 64 + self.samples.len() * 96 + self.events.len() * 64;
        let mut w = Writer::new(MAGIC, REPORT_VERSION, capacity);
        w.field("interval_us", self.interval_us);
        w.field("columns", COLUMNS.map(|(name, ..)| name).join(" "));
        write_section(&mut w.0, "samples", &self.samples, |out, s| out.push_str(&s.to_line()));
        write_section(&mut w.0, "events", &self.events, |out, e| out.push_str(&e.to_json().to_string()));
        w.finish()
    }

    /// Line-streaming parse; the exact inverse of [`Report::to_text`].
    pub fn from_text(text: &str) -> Result<Report, String> {
        let mut reader = Reader::open(text, "report", MAGIC, REPORT_VERSION)?;
        let mut report = Report { version: REPORT_VERSION, ..Report::default() };
        while let Some(e) = reader.entry()? {
            match e.key {
                "interval_us" => report.interval_us = e.parse()?,
                "columns" => {
                    if !e.value.split_whitespace().eq(COLUMNS.map(|(name, ..)| name)) {
                        return Err(e.err("unknown column layout"));
                    }
                }
                "samples" => report.samples = reader.section(&e, TelemetrySample::from_line)?,
                "events" => {
                    report.events = reader.section(&e, |line| {
                        Event::from_json(&Json::parse(line).map_err(|e| e.to_string())?)
                    })?
                }
                other => return Err(e.err(format_args!("unknown section `{other}`"))),
            }
        }
        Ok(report)
    }

    /// Run duration covered by the samples, µs.
    pub fn duration_us(&self) -> u64 {
        match (self.samples.first(), self.samples.last()) {
            (Some(a), Some(b)) => b.t_us.saturating_sub(a.t_us) + self.interval_us,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Severity;

    fn sample(i: u64) -> TelemetrySample {
        TelemetrySample {
            t_us: i * 1_000_000,
            rate: if i == 0 { f64::INFINITY } else { 300.5 },
            throughput: 295.25,
            p50_us: 180,
            p99_us: 900 + i * 10,
            error_rate: 0.0125,
            shed_rate: 0.0,
            breaker_state: (i % 3) as u8,
            queue_depth: 4,
            commits: 295,
            lock_waits: 12,
            lock_wait_us: 35_000,
            deadlocks: 1,
            io_reads: 40,
            io_writes: 8,
            wal_fsyncs: 295,
            wal_bytes: 29_500,
            fsync_us: 2_400,
            buf_hits: 900,
            buf_misses: 11,
            busy_us: 180_000,
        }
    }

    #[test]
    fn sample_line_round_trips() {
        for i in 0..3 {
            let s = sample(i);
            let back = TelemetrySample::from_line(&s.to_line()).unwrap();
            assert_eq!(back, s, "line: {}", s.to_line());
        }
        assert!(TelemetrySample::from_line("1 2 3").is_err(), "short row rejected");
        assert!(TelemetrySample::from_line(&"x ".repeat(21)).is_err());
    }

    #[test]
    fn report_round_trips_with_events() {
        let journal = EventJournal::new();
        journal.emit_with(Severity::Warn, "chaos", "chaos_armed", || {
            ("plan lock-storm armed".into(), vec![("plan", "lock-storm".to_string())])
        });
        journal.emit(Severity::Info, "core", "phase_change", "phase 0 -> 1");

        let rec = TelemetryRecorder::new(1_000_000);
        for i in 0..5 {
            rec.record(sample(i));
        }
        let report = rec.report(&journal);
        assert_eq!(report.samples.len(), 5);
        assert_eq!(report.events.len(), 2);

        let text = report.to_text();
        assert!(text.starts_with("#bp-report v2\n"));
        assert!(text.contains("columns t_us rate tput"));
        let back = Report::from_text(&text).unwrap();
        assert_eq!(back, report, "byte-identical round trip");
        assert_eq!(back.to_text(), text);
        assert_eq!(report.duration_us(), 5_000_000);
    }

    #[test]
    fn parsed_report_keeps_every_event_name() {
        let journal = EventJournal::new();
        journal.emit_with(Severity::Error, "storage", "server_crash", || {
            ("server crashed".into(), vec![("crashpoint", "after_append_before_fsync".to_string())])
        });
        journal.emit_with(Severity::Warn, "cluster", "recovery_complete", || {
            ("recovered".into(), vec![("replayed", "41".to_string()), ("node", "n2".to_string())])
        });
        let rec = TelemetryRecorder::new(1_000_000);
        for i in 0..3 {
            rec.record(sample(i));
        }
        let report = rec.report(&journal);
        let text = report.to_text();
        let parsed = Report::from_text(&text).unwrap();
        assert_eq!(parsed.to_text(), text, "byte-identical round trip");
        assert_eq!(parsed.events[0].kind, "server_crash");
        assert_eq!(parsed.events[1].source, "cluster");
        assert_eq!(parsed.events[1].field("node"), Some("n2"));
        let findings = crate::diagnose(&report);
        assert!(findings.iter().any(|f| f.bottleneck == crate::Bottleneck::CrashRecovery));
        assert_eq!(crate::diagnose(&parsed), findings);
    }

    #[test]
    fn parser_rejects_malformed() {
        assert!(Report::from_text("").is_err());
        assert!(Report::from_text("#bp-report v1\nend\n").is_err(), "the v1 event lines are gone");
        assert!(Report::from_text("#bp-report v2\nsamples 1\n").is_err(), "truncated");
        assert!(Report::from_text("#bp-report v2\nbogus 3\nend\n").is_err());
        assert!(Report::from_text("#bp-report v2\nsamples 0\nevents 0\n").is_err(), "no end");
        assert!(
            Report::from_text("#bp-report v2\ncolumns a b c\nend\n").is_err(),
            "column mismatch"
        );
    }

    #[test]
    fn ring_overwrites_oldest() {
        let rec = TelemetryRecorder::with_capacity(1_000_000, 4);
        for i in 0..10 {
            rec.record(sample(i));
        }
        assert_eq!(rec.recorded(), 10);
        let kept = rec.samples();
        assert_eq!(kept.len(), 4);
        assert_eq!(kept[0].t_us, 6_000_000, "oldest retained");
        assert_eq!(kept[3].t_us, 9_000_000);
    }

    #[test]
    fn spawned_sensor_ticks_and_stops() {
        let rec = Arc::new(TelemetryRecorder::new(10_000));
        let guard = rec.spawn(Box::new({
            let mut i = 0u64;
            move || {
                i += 1;
                sample(i)
            }
        }));
        std::thread::sleep(std::time::Duration::from_millis(120));
        drop(guard);
        let after = rec.recorded();
        assert!(after >= 2, "expected ticks, got {after}");
        std::thread::sleep(std::time::Duration::from_millis(40));
        assert_eq!(rec.recorded(), after, "no ticks after stop");
    }
}
