//! Result traces (`trace.txt` in Fig. 1) and the Trace Analyzer.
//!
//! Every completed request can be appended to a trace; the analyzer turns a
//! trace back into per-second series, per-type summaries and a target-vs-
//! delivered tracking report — the post-processing step of the testbed
//! pipeline.

use bp_util::artifact::{significant, Writer};
use bp_util::sync::Mutex;

use bp_util::clock::{Micros, MICROS_PER_SEC};
use bp_util::timeseries::{mean_abs_error, TimeSeries};

use crate::rate::PhaseScript;
use crate::stats::RequestOutcome;

/// The header `to_text` writes and `from_text` validates: bump the version
/// when the line format changes so old parsers fail loudly instead of
/// misreading.
pub const TRACE_HEADER: &str = "#bp-trace v1";
const TRACE_MAGIC: &str = "#bp-trace";
const TRACE_VERSION: u32 = 1;

/// One trace record (a line of trace.txt).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    pub start_us: Micros,
    pub latency_us: Micros,
    pub txn_type: usize,
    pub outcome: RequestOutcome,
}

impl TraceRecord {
    /// Parse one `start_us txn_type latency_us outcome` line.
    pub fn parse_line(line: &str) -> Result<TraceRecord, String> {
        let mut parts = line.split_whitespace();
        let start_us = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or("bad start")?;
        let txn_type = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or("bad type")?;
        let latency_us = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or("bad latency")?;
        let outcome = match parts.next() {
            Some("C") => RequestOutcome::Committed,
            Some("U") => RequestOutcome::UserAborted,
            Some("F") => RequestOutcome::Failed,
            Some("S") => RequestOutcome::Shed,
            _ => return Err("bad outcome".to_string()),
        };
        Ok(TraceRecord { start_us, latency_us, txn_type, outcome })
    }

    /// Append this record's line (inverse of `parse_line`).
    pub fn write_line(&self, out: &mut String) {
        use std::fmt::Write as _;
        let o = match self.outcome {
            RequestOutcome::Committed => "C",
            RequestOutcome::UserAborted => "U",
            RequestOutcome::Failed => "F",
            RequestOutcome::Shed => "S",
        };
        // Writing into `out` directly avoids a String allocation per record
        // (writes to a String are infallible).
        let _ = writeln!(out, "{} {} {} {}", self.start_us, self.txn_type, self.latency_us, o);
    }
}

/// An in-memory trace with text import/export.
#[derive(Debug, Default)]
pub struct Trace {
    records: Mutex<Vec<TraceRecord>>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace::default()
    }

    pub fn append(&self, rec: TraceRecord) {
        self.records.lock().push(rec);
    }

    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn records(&self) -> Vec<TraceRecord> {
        self.records.lock().clone()
    }

    /// Build a trace from pre-existing records (replay/analysis helpers).
    pub fn from_records(records: Vec<TraceRecord>) -> Trace {
        Trace { records: Mutex::new(records) }
    }

    /// Serialize in the `trace.txt` line format: a [`TRACE_HEADER`] line,
    /// then one `start_us txn_type latency_us outcome` line per record.
    pub fn to_text(&self) -> String {
        let records = self.records.lock();
        let mut w = Writer::new(TRACE_MAGIC, TRACE_VERSION, 16 + records.len() * 24);
        for r in records.iter() {
            r.write_line(&mut w.0);
        }
        w.0
    }

    /// Parse a `trace.txt` back into a trace.
    pub fn from_text(text: &str) -> Result<Trace, String> {
        Trace::from_lines(text.lines())
    }

    /// Streaming parse: consumes one line at a time without materializing
    /// the whole input (pair with `BufRead::lines` for file-sized traces).
    ///
    /// A `#bp-trace v<N>` header line is validated when present (headerless
    /// input still parses, so pre-versioning traces keep working); other
    /// `#` comments and blank lines are skipped.
    pub fn from_lines<I>(lines: I) -> Result<Trace, String>
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let trace = Trace::new();
        for (lineno, line) in lines.into_iter().enumerate() {
            let numbered = |m: String| format!("line {}: {m}", lineno + 1);
            if let Some(line) =
                significant(line.as_ref(), TRACE_MAGIC, TRACE_VERSION).map_err(numbered)?
            {
                trace.append(TraceRecord::parse_line(line).map_err(numbered)?);
            }
        }
        Ok(trace)
    }
}

/// Analysis results over a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceAnalysis {
    /// Delivered throughput per second.
    pub throughput: Vec<f64>,
    /// Count per transaction type.
    pub per_type_counts: Vec<u64>,
    /// Records whose `txn_type >= num_types` (e.g. a trace analyzed against
    /// the wrong workload). They still count toward outcomes/throughput but
    /// fit no `per_type_counts` slot; reporting them keeps mixture-tracking
    /// reports from silently under-counting.
    pub unknown_type: u64,
    pub committed: u64,
    pub user_aborted: u64,
    pub failed: u64,
    /// Requests shed by the admission controller; excluded from the
    /// throughput series like every other never-executed request.
    pub shed: u64,
}

/// Target-vs-delivered comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackingReport {
    pub target: Vec<f64>,
    pub delivered: Vec<f64>,
    /// Mean absolute error between the two series (tx/s).
    pub mean_abs_error: f64,
    /// Mean signed error (delivered - target).
    pub bias: f64,
    /// Seconds where delivered exceeded target by more than `tolerance`.
    pub overshoot_seconds: usize,
}

/// The Trace Analyzer of Fig. 1.
pub struct TraceAnalyzer;

impl TraceAnalyzer {
    /// Per-second roll-up of a trace.
    pub fn analyze(trace: &Trace, num_types: usize) -> TraceAnalysis {
        let records = trace.records();
        let mut completions = TimeSeries::default();
        let mut per_type_counts = vec![0u64; num_types];
        let mut unknown_type = 0u64;
        let mut committed = 0;
        let mut user_aborted = 0;
        let mut failed = 0;
        let mut shed = 0;
        for r in &records {
            if r.outcome == RequestOutcome::Shed {
                shed += 1;
                continue;
            }
            completions.add(r.start_us + r.latency_us, 1);
            match per_type_counts.get_mut(r.txn_type) {
                Some(c) => *c += 1,
                None => unknown_type += 1,
            }
            match r.outcome {
                RequestOutcome::Committed => committed += 1,
                RequestOutcome::UserAborted => user_aborted += 1,
                RequestOutcome::Failed => failed += 1,
                RequestOutcome::Shed => unreachable!("shed skipped above"),
            }
        }
        TraceAnalysis {
            throughput: completions.rates(),
            per_type_counts,
            unknown_type,
            committed,
            user_aborted,
            failed,
            shed,
        }
    }

    /// Compare a trace against a phase script's target schedule.
    ///
    /// `tolerance` is the relative overshoot allowed before a second counts
    /// as exceeding the target (the never-exceed check).
    pub fn tracking(
        trace: &Trace,
        script: &PhaseScript,
        unlimited_rate: f64,
        tolerance: f64,
    ) -> TrackingReport {
        let analysis = Self::analyze(trace, 1);
        let seconds = script.total_duration_us().div_ceil(MICROS_PER_SEC) as usize;
        let target = script.target_series(seconds, unlimited_rate);
        let mut delivered = analysis.throughput;
        delivered.resize(seconds, 0.0);
        let delivered = delivered[..seconds].to_vec();
        let mae = mean_abs_error(&target, &delivered);
        let bias = delivered
            .iter()
            .zip(&target)
            .map(|(d, t)| d - t)
            .sum::<f64>()
            / seconds.max(1) as f64;
        let overshoot_seconds = delivered
            .iter()
            .zip(&target)
            .filter(|(d, t)| **d > **t * (1.0 + tolerance) + 1.0)
            .count();
        TrackingReport { target, delivered, mean_abs_error: mae, bias, overshoot_seconds }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::{Phase, Rate};

    fn rec(start_us: Micros, ty: usize, latency: Micros) -> TraceRecord {
        TraceRecord { start_us, latency_us: latency, txn_type: ty, outcome: RequestOutcome::Committed }
    }

    #[test]
    fn text_roundtrip() {
        let t = Trace::new();
        t.append(rec(100, 0, 500));
        t.append(TraceRecord {
            start_us: 200,
            latency_us: 900,
            txn_type: 2,
            outcome: RequestOutcome::Failed,
        });
        let text = t.to_text();
        let back = Trace::from_text(&text).unwrap();
        assert_eq!(back.records(), t.records());
    }

    #[test]
    fn from_text_skips_comments_and_rejects_garbage() {
        let t = Trace::from_text("# header\n100 0 10 C\n\n200 1 20 U\n").unwrap();
        assert_eq!(t.len(), 2);
        assert!(Trace::from_text("not a line").is_err());
        assert!(Trace::from_text("1 2 3 X").is_err());
    }

    #[test]
    fn to_text_emits_versioned_header() {
        let t = Trace::new();
        t.append(rec(1, 0, 2));
        let text = t.to_text();
        assert!(text.starts_with(&format!("{TRACE_HEADER}\n")), "{text}");
        // Future versions are rejected, not misread.
        assert!(Trace::from_text("#bp-trace v2\n1 0 2 C").is_err());
        // Headerless (pre-versioning) input still parses.
        assert_eq!(Trace::from_text("1 0 2 C").unwrap().len(), 1);
    }

    #[test]
    fn streaming_parse_from_reader() {
        use std::io::BufRead as _;
        let t = Trace::new();
        for i in 0..1000u64 {
            t.append(TraceRecord {
                start_us: i * 500,
                latency_us: i % 97,
                txn_type: (i % 3) as usize,
                outcome: match i % 4 {
                    0 => RequestOutcome::Committed,
                    1 => RequestOutcome::UserAborted,
                    2 => RequestOutcome::Failed,
                    _ => RequestOutcome::Shed,
                },
            });
        }
        let text = t.to_text();
        // Feed line-by-line through a BufRead, never holding the full text.
        let reader = std::io::BufReader::new(text.as_bytes());
        let back = Trace::from_lines(reader.lines().map(|l| l.unwrap())).unwrap();
        assert_eq!(back.records(), t.records());
    }

    #[test]
    fn unknown_type_bucket_roundtrips() {
        let t = Trace::new();
        t.append(rec(0, 0, 10));
        t.append(rec(1_000, 7, 10)); // out of range for a 2-type workload
        let back = Trace::from_text(&t.to_text()).unwrap();
        let a = TraceAnalyzer::analyze(&back, 2);
        assert_eq!(a.per_type_counts, vec![1, 0]);
        assert_eq!(a.unknown_type, 1);
    }

    #[test]
    fn shed_round_trips_and_stays_out_of_throughput() {
        let t = Trace::new();
        t.append(rec(0, 0, 100));
        t.append(TraceRecord {
            start_us: 1_000,
            latency_us: 0,
            txn_type: 0,
            outcome: RequestOutcome::Shed,
        });
        let back = Trace::from_text(&t.to_text()).unwrap();
        assert_eq!(back.records(), t.records());
        let a = TraceAnalyzer::analyze(&back, 1);
        assert_eq!(a.shed, 1);
        assert_eq!(a.committed, 1);
        assert_eq!(a.per_type_counts, vec![1], "shed fits no type bucket");
        assert_eq!(a.throughput.iter().sum::<f64>() as u64, 1);
    }

    #[test]
    fn analyze_per_second() {
        let t = Trace::new();
        // 100 tx finishing in second 0, 50 in second 1.
        for i in 0..100u64 {
            t.append(rec(i * 9_000, 0, 100));
        }
        for i in 0..50u64 {
            t.append(rec(MICROS_PER_SEC + i * 10_000, 1, 100));
        }
        let a = TraceAnalyzer::analyze(&t, 2);
        assert_eq!(a.throughput[0], 100.0);
        assert_eq!(a.throughput[1], 50.0);
        assert_eq!(a.per_type_counts, vec![100, 50]);
        assert_eq!(a.unknown_type, 0);
        assert_eq!(a.committed, 150);
    }

    #[test]
    fn analyze_counts_out_of_range_types() {
        let t = Trace::new();
        t.append(rec(0, 0, 100));
        t.append(rec(1_000, 5, 100)); // type beyond num_types
        t.append(rec(2_000, 9, 100));
        let a = TraceAnalyzer::analyze(&t, 2);
        assert_eq!(a.per_type_counts, vec![1, 0]);
        assert_eq!(a.unknown_type, 2, "overflow records must be reported");
        // They still count toward outcome totals.
        assert_eq!(a.committed, 3);
    }

    #[test]
    fn tracking_perfect_delivery() {
        let script = PhaseScript::new(vec![Phase::new(Rate::Limited(100.0), 2.0)]);
        let t = Trace::new();
        for s in 0..2u64 {
            for i in 0..100u64 {
                t.append(rec(s * MICROS_PER_SEC + i * 10_000, 0, 100));
            }
        }
        let r = TraceAnalyzer::tracking(&t, &script, 1e6, 0.05);
        assert!(r.mean_abs_error < 1.0, "{}", r.mean_abs_error);
        assert_eq!(r.overshoot_seconds, 0);
    }

    #[test]
    fn tracking_detects_overshoot() {
        let script = PhaseScript::new(vec![Phase::new(Rate::Limited(10.0), 1.0)]);
        let t = Trace::new();
        for i in 0..50u64 {
            t.append(rec(i * 15_000, 0, 100));
        }
        let r = TraceAnalyzer::tracking(&t, &script, 1e6, 0.05);
        assert_eq!(r.overshoot_seconds, 1);
        assert!(r.bias > 30.0);
    }

    #[test]
    fn tracking_underdelivery_has_negative_bias() {
        let script = PhaseScript::new(vec![Phase::new(Rate::Limited(100.0), 1.0)]);
        let t = Trace::new();
        for i in 0..40u64 {
            t.append(rec(i * 20_000, 0, 100));
        }
        let r = TraceAnalyzer::tracking(&t, &script, 1e6, 0.05);
        assert!(r.bias < -50.0);
        assert_eq!(r.overshoot_seconds, 0);
    }
}
