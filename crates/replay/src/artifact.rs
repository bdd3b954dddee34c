//! The versioned, self-describing replay artifact.
//!
//! A plain-text, line-oriented format so artifacts diff, grep and ship like
//! any other trace file:
//!
//! ```text
//! #bp-replay v1
//! workload voter
//! personality postgres
//! seed 42
//! terminals 4
//! tenant 0
//! unlimited_rate 50000
//! types Vote,Audit
//! repeat false
//! phase rate=200 arrival=uniform duration_s=2 think_us=0
//! schedule 400            <- record count, then one line per request
//! 1250 0 1 0              <- offset_us tenant txn_type phase
//! …
//! trace 398               <- line count of the embedded recorded trace
//! #bp-trace v1
//! 1290 1 410 C            <- Trace::to_text lines (divergence baseline)
//! …
//! end
//! ```
//!
//! The header is enough to regenerate the schedule from scratch (seed +
//! script), so artifacts with an empty `schedule` section — e.g. a game
//! session saved as a scenario — are still replayable: replay falls back to
//! live generation from the recorded seed.

use bp_core::{Phase, PhaseScript, Trace, TraceRecord};
use bp_util::artifact::{write_section, Reader, Writer};
use bp_util::clock::Micros;

use crate::recorder::ScheduleRecord;

/// Artifact format version this build writes and understands.
pub const ARTIFACT_VERSION: u32 = 1;
const MAGIC: &str = "#bp-replay";

/// A captured run: everything needed to re-execute and then judge the
/// re-execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    pub version: u32,
    /// Workload (benchmark) name the schedule was recorded against.
    pub workload: String,
    /// DBMS personality of the recording run (informational).
    pub personality: String,
    pub seed: u64,
    pub terminals: usize,
    pub tenant: u16,
    pub unlimited_rate: f64,
    /// Transaction type names, index-aligned with `txn_type` fields.
    pub types: Vec<String>,
    /// The recorded run's phase script (rates/arrivals/durations).
    pub script: PhaseScript,
    /// The captured request schedule; empty for script-only artifacts.
    pub schedule: Vec<ScheduleRecord>,
    /// The recorded run's outcome trace — the divergence baseline.
    pub trace: Vec<TraceRecord>,
}

impl Artifact {
    /// Total recorded duration in whole seconds (schedule span, falling
    /// back to the script duration for script-only artifacts).
    pub fn duration_s(&self) -> f64 {
        match self.schedule.last() {
            Some(last) => (last.offset_us as f64 / 1e6).ceil(),
            None => self.script.total_duration_us() as f64 / 1e6,
        }
    }

    /// The `schedule` section alone (count line + record lines). Two
    /// same-seed recordings must agree on this byte-for-byte — headers and
    /// embedded traces may differ (wall-clock latencies), the schedule may
    /// not.
    pub fn schedule_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(16 + self.schedule.len() * 16);
        write_section(&mut out, "schedule", &self.schedule, |out, r| {
            let _ = write!(out, "{} {} {} {}", r.offset_us, r.tenant, r.txn_type, r.phase);
        });
        out
    }

    /// Serialize the whole artifact.
    pub fn to_text(&self) -> String {
        let capacity = 256 + self.schedule.len() * 16 + self.trace.len() * 24;
        let mut w = Writer::new(MAGIC, ARTIFACT_VERSION, capacity);
        w.field("workload", &self.workload);
        w.field("personality", &self.personality);
        w.field("seed", self.seed);
        w.field("terminals", self.terminals);
        w.field("tenant", self.tenant);
        w.field("unlimited_rate", self.unlimited_rate);
        w.field("types", self.types.join(","));
        w.field("repeat", self.script.repeat);
        for p in &self.script.phases {
            w.field("phase", p);
        }
        w.0.push_str(&self.schedule_text());
        // The trace section embeds a `trace.txt`, header line and all.
        w.field("trace", self.trace.len());
        w.0.push_str(bp_core::TRACE_HEADER);
        w.0.push('\n');
        for r in &self.trace {
            r.write_line(&mut w.0);
        }
        w.finish()
    }

    /// Line-streaming parse; the exact inverse of [`Artifact::to_text`].
    pub fn from_text(text: &str) -> Result<Artifact, String> {
        let mut reader = Reader::open(text, "artifact", MAGIC, ARTIFACT_VERSION)?;
        let mut workload = None;
        let mut personality = None;
        let mut seed = None;
        let mut terminals = None;
        let mut tenant = None;
        let mut unlimited_rate = None;
        let mut types: Option<Vec<String>> = None;
        let mut repeat = None;
        let mut phases: Vec<Phase> = Vec::new();
        let mut schedule: Vec<ScheduleRecord> = Vec::new();
        let mut trace: Vec<TraceRecord> = Vec::new();

        while let Some(e) = reader.entry()? {
            match e.key {
                "workload" => workload = Some(e.value.to_string()),
                "personality" => personality = Some(e.value.to_string()),
                "seed" => seed = Some(e.parse()?),
                "terminals" => terminals = Some(e.parse()?),
                "tenant" => tenant = Some(e.parse()?),
                "unlimited_rate" => unlimited_rate = Some(e.parse()?),
                "types" => {
                    types = Some(
                        e.value
                            .split(',')
                            .map(str::trim)
                            .filter(|t| !t.is_empty())
                            .map(str::to_string)
                            .collect(),
                    );
                }
                "repeat" => repeat = Some(e.parse()?),
                "phase" => phases.push(Phase::parse(e.value).ok_or_else(|| e.err("bad phase"))?),
                "schedule" => schedule = reader.section(&e, parse_schedule_line)?,
                "trace" => trace = reader.section(&e, TraceRecord::parse_line)?,
                _ => return Err(e.err("unknown artifact key")),
            }
        }

        let types = types.ok_or("artifact missing types")?;
        let num_types = types.len();
        if let Some(bad) = schedule.iter().find(|r| r.txn_type as usize >= num_types) {
            return Err(format!(
                "schedule references txn_type {} but artifact declares {num_types} types",
                bad.txn_type
            ));
        }
        Ok(Artifact {
            version: ARTIFACT_VERSION,
            workload: workload.ok_or("artifact missing workload")?,
            personality: personality.unwrap_or_default(),
            seed: seed.ok_or("artifact missing seed")?,
            terminals: terminals.ok_or("artifact missing terminals")?,
            tenant: tenant.unwrap_or(0),
            unlimited_rate: unlimited_rate.ok_or("artifact missing unlimited_rate")?,
            types,
            script: PhaseScript { phases, repeat: repeat.unwrap_or(false) },
            schedule,
            trace,
        })
    }

    /// The embedded recorded trace as a `Trace` (divergence baseline).
    pub fn recorded_trace(&self) -> Trace {
        Trace::from_records(self.trace.clone())
    }
}

fn parse_schedule_line(line: &str) -> Result<ScheduleRecord, String> {
    let mut parts = line.split_whitespace();
    let mut next = |what: &str| -> Result<u64, String> {
        parts
            .next()
            .and_then(|p| p.parse::<u64>().ok())
            .ok_or_else(|| format!("bad schedule {what}"))
    };
    let offset_us = next("offset")? as Micros;
    let tenant = next("tenant")? as u16;
    let txn_type = next("txn_type")? as u16;
    let phase = next("phase")? as u16;
    Ok(ScheduleRecord { offset_us, tenant, txn_type, phase })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_core::{ArrivalDist, Rate, RequestOutcome};

    fn sample_artifact() -> Artifact {
        Artifact {
            version: 1,
            workload: "counter".into(),
            personality: "test".into(),
            seed: 42,
            terminals: 4,
            tenant: 1,
            unlimited_rate: 50_000.0,
            types: vec!["Read".into(), "Incr".into()],
            script: PhaseScript::new(vec![
                Phase::new(Rate::Limited(200.0), 2.0).with_weights(vec![70.0, 30.0]),
                Phase::new(Rate::Limited(12.5), 1.5).with_arrival(ArrivalDist::Exponential),
            ]),
            schedule: vec![
                ScheduleRecord { offset_us: 0, tenant: 1, txn_type: 0, phase: 0 },
                ScheduleRecord { offset_us: 5_000, tenant: 1, txn_type: 1, phase: 0 },
                ScheduleRecord { offset_us: 2_100_000, tenant: 1, txn_type: 0, phase: 1 },
            ],
            trace: vec![
                TraceRecord {
                    start_us: 120,
                    latency_us: 800,
                    txn_type: 0,
                    outcome: RequestOutcome::Committed,
                },
                TraceRecord {
                    start_us: 5_200,
                    latency_us: 0,
                    txn_type: 1,
                    outcome: RequestOutcome::Shed,
                },
            ],
        }
    }

    #[test]
    fn text_roundtrip_exact() {
        let a = sample_artifact();
        let text = a.to_text();
        let back = Artifact::from_text(&text).unwrap();
        assert_eq!(back, a);
        // Serialization is deterministic, so the round-trip is bytewise too.
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn schedule_text_is_a_section_of_to_text() {
        let a = sample_artifact();
        assert!(a.to_text().contains(&a.schedule_text()));
        assert!(a.schedule_text().starts_with("schedule 3\n"));
    }

    #[test]
    fn script_only_artifact_roundtrips() {
        let mut a = sample_artifact();
        a.schedule.clear();
        a.trace.clear();
        let back = Artifact::from_text(&a.to_text()).unwrap();
        assert_eq!(back, a);
        assert_eq!(back.duration_s(), 3.5, "falls back to script duration");
    }

    #[test]
    fn rejects_malformed_artifacts() {
        assert!(Artifact::from_text("").is_err());
        assert!(Artifact::from_text("#bp-replay v9\nend\n").is_err(), "future version");
        assert!(Artifact::from_text("#bp-trace v1\n").is_err(), "wrong header");
        let a = sample_artifact();
        let truncated = a.to_text().replace("\nend\n", "\n");
        assert!(Artifact::from_text(&truncated).is_err(), "missing end");
        let bad_type = a.to_text().replace("types Read,Incr", "types Read");
        assert!(Artifact::from_text(&bad_type).is_err(), "schedule type out of range");
    }
}
