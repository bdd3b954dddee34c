//! bp-doctor: automated "what is my bottleneck" analysis.
//!
//! A pure pass over a [`Report`] (telemetry sample ring + event journal):
//! no locks, no clocks, no side effects — the same report always yields
//! the same findings, so the doctor is unit-testable on synthetic
//! timelines and replayable on exported artifacts.
//!
//! Per sample window the doctor computes class scores from the engine
//! counters (normalized per committed transaction, against a robust
//! baseline taken from the healthiest quartile of the run), picks the
//! dominant class, folds consecutive same-class windows into one finding,
//! and attaches the nearest preceding journal event as the probable
//! cause. Rules (also in DESIGN.md §12):
//!
//! | class              | trigger                                                        |
//! |--------------------|----------------------------------------------------------------|
//! | `shed_dominated`   | shed share > 30% of arrivals, or the breaker is not closed     |
//! | `lock_contention`  | deadlocks/txn > 0.1, or lock_wait_us/txn > 3× baseline (≥1ms)  |
//! | `io_saturation`    | fsync_us/txn > 3× baseline (≥1ms), or IO rate > 3× baseline    |
//! | `buffer_thrash`    | buffer miss ratio > 50% with an elevated read-IO rate          |
//! | `queue_backpressure` | queue backlog > 2 s of delivered throughput                  |
//! | `rate_gate_limit`  | tail healthy, errors low, delivered ≈ commanded finite rate    |
//!
//! A window with none of these and an unremarkable tail is healthy.

use bp_util::json::Json;

use crate::journal::{Event, Name};
use crate::recorder::{Report, TelemetrySample};

/// The bottleneck classes the doctor distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    LockContention,
    IoSaturation,
    BufferThrash,
    RateGateLimit,
    QueueBackpressure,
    ShedDominated,
    CrashRecovery,
    StragglerNode,
    /// The tail sampler's span budget is too small for the retention rate.
    TraceBudget,
}

impl Bottleneck {
    pub fn name(self) -> &'static str {
        match self {
            Bottleneck::LockContention => "lock_contention",
            Bottleneck::IoSaturation => "io_saturation",
            Bottleneck::BufferThrash => "buffer_thrash",
            Bottleneck::RateGateLimit => "rate_gate_limit",
            Bottleneck::QueueBackpressure => "queue_backpressure",
            Bottleneck::ShedDominated => "shed_dominated",
            Bottleneck::CrashRecovery => "crash_recovery",
            Bottleneck::StragglerNode => "straggler_node",
            Bottleneck::TraceBudget => "trace_budget",
        }
    }
}

/// One diagnosed window: the dominant bottleneck, its evidence, and the
/// journal event that most plausibly caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    pub bottleneck: Bottleneck,
    /// Window the finding covers (journal-aligned µs).
    pub start_us: u64,
    pub end_us: u64,
    /// Dominance score; findings are returned ranked by it, descending.
    pub score: f64,
    /// Human-readable evidence, e.g. `"p99 rose 8.2x at t=12s; lock_wait_us/txn rose 11.0x"`.
    pub evidence: String,
    /// Seq of the causal journal event, if one precedes the window onset.
    pub causal_event: Option<u64>,
    /// Kind of the causal event (`chaos_armed`, `phase_change`, …).
    pub causal_kind: Option<Name>,
}

impl Finding {
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .set("bottleneck", self.bottleneck.name())
            .set("start_us", self.start_us)
            .set("end_us", self.end_us)
            .set("score", round2(self.score))
            .set("evidence", self.evidence.as_str());
        if let Some(seq) = self.causal_event {
            j = j.set("causal_event", seq);
            if let Some(kind) = &self.causal_kind {
                j = j.set("causal_kind", &**kind);
            }
        }
        j
    }
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// Per-txn and per-second signals of one sample, baseline-free.
#[derive(Debug, Clone, Copy)]
struct Signals {
    p99_us: f64,
    lock_per_txn: f64,
    fsync_per_txn: f64,
    deadlocks_per_txn: f64,
    io_reads_per_s: f64,
    miss_ratio: f64,
}

impl Signals {
    fn of(s: &TelemetrySample, interval_us: u64) -> Signals {
        let txns = s.commits.max(1) as f64;
        let secs = (interval_us.max(1) as f64) / 1e6;
        let accesses = (s.buf_hits + s.buf_misses).max(1) as f64;
        Signals {
            p99_us: s.p99_us as f64,
            lock_per_txn: s.lock_wait_us as f64 / txns,
            fsync_per_txn: s.fsync_us as f64 / txns,
            deadlocks_per_txn: s.deadlocks as f64 / txns,
            io_reads_per_s: s.io_reads as f64 / secs,
            miss_ratio: s.buf_misses as f64 / accesses,
        }
    }
}

/// Robust baseline: the 25th-percentile value of `f` across samples —
/// "what this run looks like in its healthiest quartile".
fn baseline(samples: &[TelemetrySample], interval_us: u64, f: impl Fn(&Signals) -> f64) -> f64 {
    let mut vals: Vec<f64> = samples
        .iter()
        .map(|s| f(&Signals::of(s, interval_us)))
        .filter(|v| v.is_finite())
        .collect();
    if vals.is_empty() {
        return 0.0;
    }
    vals.sort_by(f64::total_cmp);
    vals[vals.len() / 4]
}

/// The per-window verdict before findings are folded.
#[derive(Debug, Clone, Copy)]
struct WindowVerdict {
    class: Option<Bottleneck>,
    score: f64,
}

fn classify(s: &TelemetrySample, sig: &Signals, base: &Baselines) -> WindowVerdict {
    // Ratios vs the healthy baseline; a floor keeps tiny baselines from
    // inflating noise into 1000x "rises".
    let lock_rise = sig.lock_per_txn / base.lock_per_txn.max(200.0);
    let fsync_rise = sig.fsync_per_txn / base.fsync_per_txn.max(200.0);
    let io_rise = sig.io_reads_per_s / base.io_reads_per_s.max(10.0);

    let mut scored: Vec<(Bottleneck, f64)> = Vec::new();
    if s.shed_rate > 0.3 || s.breaker_state != 0 {
        scored.push((Bottleneck::ShedDominated, 2.0 + s.shed_rate * 4.0 + s.breaker_state as f64));
    }
    if sig.deadlocks_per_txn > 0.1 || (lock_rise > 3.0 && sig.lock_per_txn > 1_000.0) {
        scored.push((
            Bottleneck::LockContention,
            sig.deadlocks_per_txn * 10.0 + lock_rise.min(50.0),
        ));
    }
    if (fsync_rise > 3.0 && sig.fsync_per_txn > 1_000.0) || (io_rise > 3.0 && sig.miss_ratio < 0.5)
    {
        scored.push((Bottleneck::IoSaturation, fsync_rise.min(50.0) + io_rise.min(10.0) * 0.5));
    }
    if sig.miss_ratio > 0.5 && io_rise > 3.0 {
        scored.push((Bottleneck::BufferThrash, sig.miss_ratio * 4.0 + io_rise.min(20.0)));
    }
    if s.queue_depth as f64 > 2.0 * s.throughput.max(10.0) {
        scored.push((
            Bottleneck::QueueBackpressure,
            (s.queue_depth as f64 / s.throughput.max(10.0)).min(20.0),
        ));
    }
    // Rate-gate limit is the "everything is fine and the client is the
    // limiter" verdict: only when nothing above fired.
    if scored.is_empty()
        && s.rate.is_finite()
        && s.rate > 0.0
        && s.error_rate < 0.05
        && sig.p99_us < 2.0 * base.p99_us.max(100.0)
        && (s.throughput - s.rate).abs() <= s.rate * 0.1
    {
        scored.push((Bottleneck::RateGateLimit, 1.0));
    }

    match scored.into_iter().max_by(|a, b| a.1.total_cmp(&b.1)) {
        Some((class, score)) => WindowVerdict { class: Some(class), score },
        None => WindowVerdict { class: None, score: 0.0 },
    }
}

struct Baselines {
    p99_us: f64,
    lock_per_txn: f64,
    fsync_per_txn: f64,
    io_reads_per_s: f64,
}

/// Find the journal event that most plausibly caused a window starting at
/// `onset_us`: the latest event at or before the window's peak, no older
/// than two intervals before onset. Control-plane kinds win over noise.
fn causal_event(
    events: &[Event],
    onset_us: u64,
    peak_us: u64,
    interval_us: u64,
) -> Option<&Event> {
    const CAUSAL_KINDS: [&str; 10] = [
        "chaos_armed", "chaos_disarmed", "phase_change", "rate_change", "mixture_change",
        "slo_decision", "breaker_transition", "replay_launch", "server_crash",
        "recovery_complete",
    ];
    let earliest = onset_us.saturating_sub(2 * interval_us);
    let in_range =
        |e: &&Event| e.ts_us >= earliest && e.ts_us <= peak_us.saturating_add(interval_us);
    events
        .iter()
        .filter(in_range)
        .filter(|e| CAUSAL_KINDS.contains(&&*e.kind))
        .max_by_key(|e| (e.ts_us, e.seq))
        .or_else(|| events.iter().filter(in_range).max_by_key(|e| (e.ts_us, e.seq)))
}

/// Crash → recovery spans are event-driven, not counter-driven: a dead
/// engine produces unremarkable (mostly zero) telemetry windows, so the
/// doctor reads the `server_crash` / `recovery_complete` journal pairs
/// directly. One finding per crash; an unrecovered crash spans to the end
/// of the report.
fn crash_findings(report: &Report) -> Vec<Finding> {
    let report_end = report
        .samples
        .last()
        .map(|s| s.t_us + report.interval_us)
        .or_else(|| report.events.last().map(|e| e.ts_us));
    report
        .events
        .iter()
        .filter(|e| e.kind == "server_crash")
        .map(|crash| {
            let recovered = report
                .events
                .iter()
                .find(|e| e.kind == "recovery_complete" && e.ts_us >= crash.ts_us);
            let end_us = recovered
                .map(|e| e.ts_us)
                .or(report_end)
                .unwrap_or(crash.ts_us);
            let point = crash.field("crashpoint").unwrap_or("unknown");
            let mut evidence = match recovered {
                Some(r) => format!(
                    "engine crashed at {point} and recovered in {:.0}ms (replayed {} redo records, {} torn)",
                    (end_us.saturating_sub(crash.ts_us)) as f64 / 1e3,
                    r.field("replayed").unwrap_or("?"),
                    r.field("torn").unwrap_or("0"),
                ),
                None => format!("engine crashed at {point} and has not recovered"),
            };
            cite_trace(&mut evidence, crash);
            Finding {
                bottleneck: Bottleneck::CrashRecovery,
                start_us: crash.ts_us,
                end_us,
                // Outranks every counter-driven class: a dead engine is the
                // bottleneck no matter what else the windows show.
                score: 60.0,
                evidence,
                causal_event: Some(crash.seq),
                causal_kind: Some("server_crash".into()),
            }
        })
        .collect()
}

/// Event-driven trace-budget findings: the span recorder journals a
/// rate-limited `trace_evict` whenever the tail sampler's budget ring
/// overwrites a retained span. All evict events fold into one finding
/// spanning the episode — the fix (a larger `ringcapacity`) is the same no
/// matter how often it fired.
fn trace_findings(report: &Report) -> Vec<Finding> {
    let evicts: Vec<&Event> =
        report.events.iter().filter(|e| e.kind == "trace_evict").collect();
    let (Some(first), Some(last)) = (evicts.first(), evicts.last()) else {
        return Vec::new();
    };
    let evicted = last.field("evicted").unwrap_or("?");
    let budget = last.field("budget").unwrap_or("?");
    vec![Finding {
        bottleneck: Bottleneck::TraceBudget,
        start_us: first.ts_us,
        end_us: last.ts_us.max(first.ts_us + report.interval_us),
        // A hint, not a bottleneck: evidence quality suffers, the
        // workload doesn't. Ranks below every performance class.
        score: 20.0,
        evidence: format!(
            "tail sampler evicted {evicted} retained spans (budget {budget}); \
             raise <ringcapacity> or lower the sample ratio to keep slow-request traces"
        ),
        causal_event: Some(first.seq),
        causal_kind: Some("trace_evict".into()),
    }]
}

/// If the causal event carries a `trace_id` field, cite it in the
/// evidence so the finding links straight to `GET /trace/{id}`.
fn cite_trace(evidence: &mut String, e: &Event) {
    if let Some(id) = e.field("trace_id") {
        use std::fmt::Write as _;
        let _ = write!(evidence, "; trace {id}");
    }
}

/// Diagnose a report: classify each window, fold consecutive same-class
/// windows into findings, attach causal events, rank by score descending.
pub fn diagnose(report: &Report) -> Vec<Finding> {
    let samples = &report.samples;
    if samples.is_empty() {
        let mut findings = crash_findings(report);
        findings.extend(straggler_findings(report));
        findings.extend(trace_findings(report));
        findings.sort_by(|a, b| b.score.total_cmp(&a.score));
        return findings;
    }
    let interval = report.interval_us.max(1);
    let base = Baselines {
        p99_us: baseline(samples, interval, |s| s.p99_us),
        lock_per_txn: baseline(samples, interval, |s| s.lock_per_txn),
        fsync_per_txn: baseline(samples, interval, |s| s.fsync_per_txn),
        io_reads_per_s: baseline(samples, interval, |s| s.io_reads_per_s),
    };

    let verdicts: Vec<(usize, WindowVerdict, Signals)> = samples
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let sig = Signals::of(s, interval);
            (i, classify(s, &sig, &base), sig)
        })
        .collect();

    let mut findings: Vec<Finding> = Vec::new();
    let mut i = 0;
    while i < verdicts.len() {
        let Some(class) = verdicts[i].1.class else {
            i += 1;
            continue;
        };
        // Fold the run of consecutive windows with the same class.
        let start = i;
        let mut end = i;
        while end + 1 < verdicts.len() && verdicts[end + 1].1.class == Some(class) {
            end += 1;
        }
        i = end + 1;

        let (peak_idx, peak) = (start..=end)
            .map(|k| (k, &verdicts[k]))
            .max_by(|a, b| a.1 .1.score.total_cmp(&b.1 .1.score))
            .expect("non-empty run");
        let peak_sample = &samples[peak_idx];
        let peak_sig = &peak.2;
        let start_us = samples[start].t_us;
        let end_us = samples[end].t_us + interval;

        let p99_rise = peak_sig.p99_us / base.p99_us.max(100.0);
        let mut evidence = format!(
            "p99 {} at t={:.0}s",
            if p99_rise >= 1.5 { format!("rose {p99_rise:.1}x") } else { "steady".to_string() },
            peak_sample.t_us as f64 / 1e6,
        );
        let detail = match class {
            Bottleneck::LockContention => format!(
                "lock_wait_us/txn rose {:.1}x ({:.0}us), deadlocks/txn {:.2}",
                peak_sig.lock_per_txn / base.lock_per_txn.max(200.0),
                peak_sig.lock_per_txn,
                peak_sig.deadlocks_per_txn,
            ),
            Bottleneck::IoSaturation => format!(
                "fsync_us/txn rose {:.1}x ({:.0}us), io_reads/s {:.0}",
                peak_sig.fsync_per_txn / base.fsync_per_txn.max(200.0),
                peak_sig.fsync_per_txn,
                peak_sig.io_reads_per_s,
            ),
            Bottleneck::BufferThrash => format!(
                "buffer miss ratio {:.0}%, io_reads/s rose {:.1}x",
                peak_sig.miss_ratio * 100.0,
                peak_sig.io_reads_per_s / base.io_reads_per_s.max(10.0),
            ),
            Bottleneck::QueueBackpressure => format!(
                "queue backlog {} vs {:.0} tx/s delivered",
                peak_sample.queue_depth, peak_sample.throughput,
            ),
            Bottleneck::ShedDominated => format!(
                "shed share {:.0}%, breaker state {}",
                peak_sample.shed_rate * 100.0, peak_sample.breaker_state,
            ),
            Bottleneck::RateGateLimit => format!(
                "delivered {:.0} tx/s ~= commanded {:.0} tx/s with healthy tail",
                peak_sample.throughput, peak_sample.rate,
            ),
            // Crash, straggler, and trace-budget findings are synthesized
            // from journal events, never from window classification.
            Bottleneck::CrashRecovery | Bottleneck::StragglerNode | Bottleneck::TraceBudget => {
                unreachable!("event-driven class")
            }
        };
        evidence.push_str("; ");
        evidence.push_str(&detail);

        let cause = causal_event(&report.events, start_us, peak_sample.t_us, interval);
        if let Some(e) = cause {
            use std::fmt::Write as _;
            let _ = write!(
                evidence,
                "; preceded by {} event #{} ({})",
                e.kind,
                e.seq,
                e.message
            );
        }
        findings.push(Finding {
            bottleneck: class,
            start_us,
            end_us,
            score: peak.1.score,
            evidence,
            causal_event: cause.map(|e| e.seq),
            causal_kind: cause.map(|e| e.kind.clone()),
        });
    }

    findings.extend(crash_findings(report));
    findings.extend(straggler_findings(report));
    findings.extend(trace_findings(report));
    findings.sort_by(|a, b| b.score.total_cmp(&a.score));
    findings
}

/// Event-driven straggler findings: the cluster coordinator emits a
/// `node_straggler` event whenever one live agent's reported window
/// latency dominates the merged cluster window. Consecutive events for
/// the same node fold into one finding spanning the whole episode.
fn straggler_findings(report: &Report) -> Vec<Finding> {
    let events: Vec<&Event> =
        report.events.iter().filter(|e| e.kind == "node_straggler").collect();
    let mut findings: Vec<Finding> = Vec::new();
    let mut i = 0;
    while i < events.len() {
        let first = events[i];
        let node = first.field("node").unwrap_or("unknown");
        let mut last = first;
        while i + 1 < events.len() && events[i + 1].field("node") == Some(node) {
            i += 1;
            last = events[i];
        }
        i += 1;
        let p99 = last.field("p99_us").unwrap_or("?");
        let cluster = last.field("cluster_p99_us").unwrap_or("?");
        let mut evidence =
            format!("node {node} window p99 {p99}us dominates cluster median {cluster}us");
        cite_trace(&mut evidence, last);
        findings.push(Finding {
            bottleneck: Bottleneck::StragglerNode,
            start_us: first.ts_us,
            end_us: last.ts_us.max(first.ts_us + report.interval_us),
            // Above every counter-driven class but below a dead engine:
            // one slow node drags the whole merged tail.
            score: 40.0,
            evidence,
            causal_event: Some(first.seq),
            causal_kind: Some("node_straggler".into()),
        });
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{EventJournal, Severity};
    use crate::recorder::TelemetryRecorder;

    /// A healthy 300-tx/s window.
    fn healthy(t_s: u64) -> TelemetrySample {
        TelemetrySample {
            t_us: t_s * 1_000_000,
            rate: 300.0,
            throughput: 297.0,
            p50_us: 150,
            p99_us: 800,
            error_rate: 0.0,
            shed_rate: 0.0,
            breaker_state: 0,
            queue_depth: 2,
            commits: 297,
            lock_waits: 5,
            lock_wait_us: 20_000,
            deadlocks: 0,
            io_reads: 30,
            io_writes: 5,
            wal_fsyncs: 297,
            wal_bytes: 29_000,
            fsync_us: 1_500,
            buf_hits: 2_000,
            buf_misses: 20,
            busy_us: 150_000,
        }
    }

    fn report(samples: Vec<TelemetrySample>, events: Vec<Event>) -> Report {
        Report { version: 1, interval_us: 1_000_000, samples, events }
    }

    #[test]
    fn quiet_run_reads_as_rate_gated_only() {
        let findings = diagnose(&report((0..6).map(healthy).collect(), vec![]));
        assert!(findings.iter().all(|f| f.bottleneck == Bottleneck::RateGateLimit), "{findings:?}");
    }

    #[test]
    fn lock_storm_classified_with_causal_event() {
        let mut samples: Vec<TelemetrySample> = (0..4).map(healthy).collect();
        for t in 4..8u64 {
            let mut s = healthy(t);
            s.p99_us = 9_000;
            s.deadlocks = 150;
            s.lock_wait_us = 400_000;
            s.commits = 180;
            s.throughput = 180.0;
            s.error_rate = 0.3;
            samples.push(s);
        }
        // The causal event fires just before the storm window.
        let event = Event {
            seq: 142,
            ts_us: 3_800_000,
            severity: Severity::Warn,
            source: "chaos".into(),
            kind: "chaos_armed".into(),
            message: "plan lock-storm armed".into(),
            fields: vec![],
        };
        let findings = diagnose(&report(samples, vec![event]));
        let top = &findings[0];
        assert_eq!(top.bottleneck, Bottleneck::LockContention, "{findings:?}");
        assert_eq!(top.causal_event, Some(142));
        assert_eq!(top.causal_kind.as_deref(), Some("chaos_armed"));
        assert!(top.start_us >= 3_000_000 && top.start_us <= 5_000_000, "{top:?}");
        assert!(top.evidence.contains("lock_wait_us/txn"), "{}", top.evidence);
        assert!(top.evidence.contains("event #142"), "{}", top.evidence);
    }

    #[test]
    fn fsync_stall_classified_as_io() {
        let mut samples: Vec<TelemetrySample> = (0..4).map(healthy).collect();
        for t in 4..8u64 {
            let mut s = healthy(t);
            s.p99_us = 30_000;
            s.fsync_us = 2_500_000;
            s.commits = 90;
            s.throughput = 90.0;
            samples.push(s);
        }
        let findings = diagnose(&report(samples, vec![]));
        assert_eq!(findings[0].bottleneck, Bottleneck::IoSaturation, "{findings:?}");
        assert!(findings[0].evidence.contains("fsync_us/txn"), "{}", findings[0].evidence);
        assert!(findings[0].causal_event.is_none(), "no events -> no citation");
    }

    #[test]
    fn buffer_thrash_and_shed_classified() {
        let mut samples: Vec<TelemetrySample> = (0..4).map(healthy).collect();
        for t in 4..6u64 {
            let mut s = healthy(t);
            s.buf_hits = 300;
            s.buf_misses = 1_700;
            s.io_reads = 1_700;
            s.p99_us = 5_000;
            samples.push(s);
        }
        for t in 6..8u64 {
            let mut s = healthy(t);
            s.shed_rate = 0.6;
            s.breaker_state = 1;
            s.throughput = 90.0;
            samples.push(s);
        }
        let findings = diagnose(&report(samples, vec![]));
        let classes: Vec<Bottleneck> = findings.iter().map(|f| f.bottleneck).collect();
        assert!(classes.contains(&Bottleneck::BufferThrash), "{findings:?}");
        assert!(classes.contains(&Bottleneck::ShedDominated), "{findings:?}");
    }

    #[test]
    fn queue_backpressure_classified() {
        let mut samples: Vec<TelemetrySample> = (0..4).map(healthy).collect();
        for t in 4..6u64 {
            let mut s = healthy(t);
            s.queue_depth = 5_000;
            samples.push(s);
        }
        let findings = diagnose(&report(samples, vec![]));
        assert_eq!(findings[0].bottleneck, Bottleneck::QueueBackpressure, "{findings:?}");
    }

    #[test]
    fn consecutive_windows_fold_into_one_finding() {
        let mut samples: Vec<TelemetrySample> = (0..3).map(healthy).collect();
        for t in 3..7u64 {
            let mut s = healthy(t);
            s.deadlocks = 120;
            s.lock_wait_us = 500_000;
            s.p99_us = 8_000;
            samples.push(s);
        }
        let findings = diagnose(&report(samples, vec![]));
        let locks: Vec<&Finding> =
            findings.iter().filter(|f| f.bottleneck == Bottleneck::LockContention).collect();
        assert_eq!(locks.len(), 1, "4 windows fold into 1: {findings:?}");
        assert_eq!(locks[0].start_us, 3_000_000);
        assert_eq!(locks[0].end_us, 7_000_000);
    }

    #[test]
    fn empty_report_yields_nothing() {
        assert!(diagnose(&Report::default()).is_empty());
    }

    #[test]
    fn crash_and_recovery_span_reported_from_events() {
        let samples: Vec<TelemetrySample> = (0..6).map(healthy).collect();
        let crash = Event {
            seq: 7,
            ts_us: 2_500_000,
            severity: Severity::Error,
            source: "storage".into(),
            kind: "server_crash".into(),
            message: "server crashed at after_append_before_fsync (lsn 42)".into(),
            fields: vec![
                ("crashpoint".into(), "after_append_before_fsync".to_string()),
                ("lsn".into(), "42".to_string()),
            ],
        };
        let recovered = Event {
            seq: 9,
            ts_us: 2_540_000,
            severity: Severity::Warn,
            source: "storage".into(),
            kind: "recovery_complete".into(),
            message: "recovery complete".into(),
            fields: vec![
                ("replayed".into(), "41".to_string()),
                ("torn".into(), "1".to_string()),
            ],
        };
        let findings = diagnose(&report(samples, vec![crash.clone(), recovered]));
        let top = &findings[0];
        assert_eq!(top.bottleneck, Bottleneck::CrashRecovery, "{findings:?}");
        assert_eq!(top.start_us, 2_500_000);
        assert_eq!(top.end_us, 2_540_000);
        assert_eq!(top.causal_event, Some(7));
        assert_eq!(top.causal_kind.as_deref(), Some("server_crash"));
        assert!(top.evidence.contains("after_append_before_fsync"), "{}", top.evidence);
        assert!(top.evidence.contains("replayed 41"), "{}", top.evidence);

        // An unrecovered crash spans to the end of the report, and a
        // sample-free report still surfaces it.
        let findings = diagnose(&report(vec![], vec![crash]));
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].bottleneck, Bottleneck::CrashRecovery);
        assert!(findings[0].evidence.contains("has not recovered"), "{}", findings[0].evidence);
    }

    #[test]
    fn straggler_events_become_findings() {
        let straggle = |seq: u64, ts_us: u64, node: &str| Event {
            seq,
            ts_us,
            severity: Severity::Warn,
            source: "cluster".into(),
            kind: "node_straggler".into(),
            message: format!("node {node} lags the cluster"),
            fields: vec![
                ("node".into(), node.to_string()),
                ("p99_us".into(), "45000".to_string()),
                ("cluster_p99_us".into(), "900".to_string()),
            ],
        };
        // Healthy windows + a straggler episode: consecutive events for
        // the same node fold into one finding.
        let samples: Vec<TelemetrySample> = (0..4).map(healthy).collect();
        let events = vec![
            straggle(3, 1_200_000, "agent-2"),
            straggle(4, 2_200_000, "agent-2"),
            straggle(5, 3_200_000, "agent-1"),
        ];
        let findings = diagnose(&report(samples, events.clone()));
        let stragglers: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.bottleneck == Bottleneck::StragglerNode)
            .collect();
        assert_eq!(stragglers.len(), 2, "{findings:?}");
        let top = stragglers[0];
        assert_eq!(top.start_us, 1_200_000);
        assert_eq!(top.end_us, 2_200_000);
        assert_eq!(top.causal_event, Some(3));
        assert_eq!(top.causal_kind.as_deref(), Some("node_straggler"));
        assert!(top.evidence.contains("agent-2"), "{}", top.evidence);
        assert!(top.evidence.contains("45000us"), "{}", top.evidence);
        assert_eq!(top.to_json().get("bottleneck").and_then(Json::as_str), Some("straggler_node"));

        // A sample-free report (the coordinator has no telemetry recorder)
        // still surfaces stragglers.
        let findings = diagnose(&report(vec![], events));
        assert!(findings.iter().any(|f| f.bottleneck == Bottleneck::StragglerNode));
    }

    #[test]
    fn trace_evict_events_become_budget_hint() {
        let evict = |seq: u64, ts_us: u64, evicted: &str| Event {
            seq,
            ts_us,
            severity: Severity::Warn,
            source: "obs".into(),
            kind: "trace_evict".into(),
            message: format!("span budget full: {evicted} retained spans evicted"),
            fields: vec![
                ("evicted".into(), evicted.to_string()),
                ("budget".into(), "512".to_string()),
            ],
        };
        let samples: Vec<TelemetrySample> = (0..4).map(healthy).collect();
        let events = vec![evict(2, 1_100_000, "40"), evict(3, 2_100_000, "230")];
        let findings = diagnose(&report(samples, events.clone()));
        let hints: Vec<&Finding> =
            findings.iter().filter(|f| f.bottleneck == Bottleneck::TraceBudget).collect();
        assert_eq!(hints.len(), 1, "all evicts fold into one hint: {findings:?}");
        let hint = hints[0];
        assert_eq!(hint.start_us, 1_100_000);
        assert_eq!(hint.end_us, 2_100_000);
        assert_eq!(hint.causal_kind.as_deref(), Some("trace_evict"));
        assert!(hint.evidence.contains("evicted 230"), "{}", hint.evidence);
        assert!(hint.evidence.contains("budget 512"), "{}", hint.evidence);
        assert!(hint.evidence.contains("<ringcapacity>"), "{}", hint.evidence);
        assert_eq!(
            hint.to_json().get("bottleneck").and_then(Json::as_str),
            Some("trace_budget")
        );
        // Sample-free reports surface it too.
        assert!(diagnose(&report(vec![], events))
            .iter()
            .any(|f| f.bottleneck == Bottleneck::TraceBudget));
    }

    #[test]
    fn findings_cite_trace_ids_from_events() {
        let straggle = Event {
            seq: 5,
            ts_us: 1_200_000,
            severity: Severity::Warn,
            source: "cluster".into(),
            kind: "node_straggler".into(),
            message: "node n2 lags".into(),
            fields: vec![
                ("node".into(), "n2".to_string()),
                ("p99_us".into(), "45000".to_string()),
                ("cluster_p99_us".into(), "900".to_string()),
                ("trace_id".into(), "00ab12cd34ef5678".to_string()),
            ],
        };
        let crash = Event {
            seq: 9,
            ts_us: 2_000_000,
            severity: Severity::Error,
            source: "storage".into(),
            kind: "server_crash".into(),
            message: "crashed".into(),
            fields: vec![
                ("crashpoint".into(), "torn".to_string()),
                ("trace_id".into(), "deadbeefdeadbeef".to_string()),
            ],
        };
        let findings = diagnose(&report(vec![], vec![straggle, crash]));
        let strag = findings.iter().find(|f| f.bottleneck == Bottleneck::StragglerNode).unwrap();
        assert!(strag.evidence.contains("trace 00ab12cd34ef5678"), "{}", strag.evidence);
        let cr = findings.iter().find(|f| f.bottleneck == Bottleneck::CrashRecovery).unwrap();
        assert!(cr.evidence.contains("trace deadbeefdeadbeef"), "{}", cr.evidence);
    }

    #[test]
    fn findings_render_json() {
        let mut samples: Vec<TelemetrySample> = (0..3).map(healthy).collect();
        let mut s = healthy(3);
        s.deadlocks = 150;
        s.lock_wait_us = 600_000;
        samples.push(s);
        let findings = diagnose(&report(samples, vec![]));
        let j = findings[0].to_json();
        assert_eq!(j.get("bottleneck").and_then(Json::as_str), Some("lock_contention"));
        assert!(j.get("evidence").and_then(Json::as_str).is_some());
        assert!(j.get("score").and_then(Json::as_f64).unwrap() > 0.0);
    }

    #[test]
    fn doctor_consumes_recorder_output() {
        let journal = EventJournal::new();
        journal.emit(Severity::Info, "api", "run_start", "run voter");
        let rec = TelemetryRecorder::new(1_000_000);
        for t in 0..4 {
            rec.record(healthy(t));
        }
        let mut s = healthy(4);
        s.fsync_us = 3_000_000;
        s.p99_us = 40_000;
        s.commits = 60;
        rec.record(s);
        let findings = diagnose(&rec.report(&journal));
        assert_eq!(findings[0].bottleneck, Bottleneck::IoSaturation);
    }
}
