//! The event journal: a structured "why" channel next to the metric "what".
//!
//! Counters say *that* p99 rose; the journal says *what happened right
//! before* — a phase transition, an SLO decision, a chaos fault arming, a
//! breaker trip, a WAL rotation. Every layer emits [`Event`]s into one
//! fixed-capacity ring; the doctor ([`crate::doctor`]) and `GET /events`
//! read them back aligned with the telemetry timeline.
//!
//! Cost model mirrors the chaos gate: when the journal is disabled the
//! emit probe is a single relaxed load and a branch (< 5 ns, asserted by
//! the `event_overhead` bench), and [`EventJournal::emit_with`] takes a
//! closure so message formatting is never paid on the disabled path. When
//! enabled, an emit takes the one ring's lock and overwrites the oldest
//! event, flight-recorder style. Emits are rare: control-plane events, and
//! on the request path only wait-die victims under contention. One ring,
//! not one per thread slot, so an event (the chaos arm behind a storm, say)
//! outlives every storm shorter than the whole capacity.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};

use bp_util::clock::{wall_clock, SharedClock};
use bp_util::json::Json;
use bp_util::ring::Ring;
use bp_util::sync::Mutex;

use crate::registry::{MetricsBuf, MetricsSource};

/// Event severity, ordered so `>=` filters work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Severity {
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
}

impl Severity {
    pub const ALL: [Severity; 4] =
        [Severity::Debug, Severity::Info, Severity::Warn, Severity::Error];

    pub fn name(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// A `?severity=` query value or report-artifact token.
impl std::str::FromStr for Severity {
    type Err = ();

    fn from_str(s: &str) -> Result<Severity, ()> {
        match s.trim().to_ascii_lowercase().as_str() {
            "debug" => Ok(Severity::Debug),
            "info" => Ok(Severity::Info),
            "warn" | "warning" => Ok(Severity::Warn),
            "error" => Ok(Severity::Error),
            _ => Err(()),
        }
    }
}

/// An event's source, kind or field name: `&'static str` at every emit
/// site, owned when parsed back from an artifact.
pub type Name = Cow<'static, str>;

/// One structured event: fixed identity fields plus free-form key=value
/// context.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Globally ordered sequence number (1-based, never reused).
    pub seq: u64,
    /// Microseconds on the journal's clock: the database's, which its runs
    /// stamp their spans and telemetry samples from too.
    pub ts_us: u64,
    pub severity: Severity,
    /// Emitting layer: `core`, `slo`, `chaos`, `storage`, `api`, `cluster`.
    pub source: Name,
    /// Machine-matchable event type, e.g. `phase_change`, `chaos_armed`.
    pub kind: Name,
    pub message: String,
    /// In name order, as [`Event::to_json`]'s object writes them, so an
    /// event reads back from its JSON exactly.
    pub fields: Vec<(Name, String)>,
}

impl Event {
    /// The value of field `name`, if the event carries it.
    pub fn field(&self, name: &str) -> Option<&str> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// JSON object for the `/events` endpoint.
    pub fn to_json(&self) -> Json {
        let mut fields = Json::obj();
        for (k, v) in &self.fields {
            fields = fields.set(k, v.as_str());
        }
        Json::obj()
            .set("seq", self.seq)
            .set("ts_us", self.ts_us)
            .set("severity", self.severity.name())
            .set("source", &*self.source)
            .set("kind", &*self.kind)
            .set("message", self.message.as_str())
            .set("fields", fields)
    }

    /// Read back an [`Event::to_json`] object (a line of the `#bp-report`
    /// events section) exactly; names come back owned.
    pub fn from_json(j: &Json) -> Result<Event, String> {
        let num = |key: &str| j.get(key).and_then(Json::as_u64).ok_or(format!("bad {key}"));
        let text = |key: &str| j.get(key).and_then(Json::as_str).ok_or(format!("bad {key}"));
        let Some(Json::Obj(fields)) = j.get("fields") else { return Err("bad fields".into()) };
        let fields = fields
            .iter()
            .map(|(k, v)| match v {
                Json::Str(v) => Ok((Name::Owned(k.clone()), v.clone())),
                _ => Err(format!("bad field `{k}`")),
            })
            .collect::<Result<_, String>>()?;
        Ok(Event {
            seq: num("seq")?,
            ts_us: num("ts_us")?,
            severity: text("severity")?.parse().map_err(|()| "bad severity")?,
            source: Name::Owned(text("source")?.to_string()),
            kind: Name::Owned(text("kind")?.to_string()),
            message: text("message")?.to_string(),
            fields,
        })
    }
}

/// The event ring. See the module docs for the design.
pub struct EventJournal {
    /// The gate: disabled journals cost one relaxed load per emit probe.
    enabled: AtomicBool,
    /// Stamps every event's `ts_us`.
    clock: SharedClock,
    /// Retained events in `seq` order: an event's `seq` is the ring's
    /// write count, taken under this lock.
    ring: Mutex<Ring<Event>>,
}

impl EventJournal {
    /// Default total capacity: enough for hours of control-plane events;
    /// storms overwrite the oldest.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// A journal on a fresh wall clock, for a component with no database.
    pub fn new() -> EventJournal {
        EventJournal::with_clock(wall_clock())
    }

    /// The journal a database builds, stamping from the database's clock.
    pub fn with_clock(clock: SharedClock) -> EventJournal {
        let ring = Mutex::new(Ring::new(Self::DEFAULT_CAPACITY));
        EventJournal { enabled: AtomicBool::new(true), clock, ring }
    }

    /// The clock events are stamped from.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// A journal that starts disabled (for overhead benches and for
    /// components constructed without a run to attach to).
    pub fn disabled() -> EventJournal {
        let j = EventJournal::new();
        j.set_enabled(false);
        j
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Emit with lazily built message/fields: the closure runs only when
    /// the journal is enabled, so a disabled emit site pays one relaxed
    /// load and never formats.
    #[inline]
    pub fn emit_with<F>(&self, severity: Severity, source: &'static str, kind: &'static str, f: F)
    where
        F: FnOnce() -> (String, Vec<(&'static str, String)>),
    {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let (message, fields) = f();
        self.emit_slow(severity, source, kind, message, fields);
    }

    /// Emit with a pre-built message and no fields.
    #[inline]
    pub fn emit(
        &self,
        severity: Severity,
        source: &'static str,
        kind: &'static str,
        message: impl Into<String>,
    ) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.emit_slow(severity, source, kind, message.into(), Vec::new());
    }

    #[cold]
    fn emit_slow(
        &self,
        severity: Severity,
        source: &'static str,
        kind: &'static str,
        message: String,
        mut fields: Vec<(&'static str, String)>,
    ) {
        fields.sort_by_key(|(k, _)| *k);
        let mut ring = self.ring.lock();
        let seq = ring.written() + 1;
        ring.push(Event {
            seq,
            ts_us: self.clock.now(),
            severity,
            source: Name::Borrowed(source),
            kind: Name::Borrowed(kind),
            message,
            fields: fields.into_iter().map(|(k, v)| (Name::Borrowed(k), v)).collect(),
        });
    }

    /// Total events ever emitted (including ones since overwritten).
    pub fn emitted(&self) -> u64 {
        self.ring.lock().written()
    }

    /// Events lost to ring overwrites.
    pub fn overwritten(&self) -> u64 {
        self.ring.lock().overwritten()
    }

    /// The most recent `n` retained events at or above `min_severity`,
    /// oldest first.
    pub fn recent(&self, n: usize, min_severity: Severity) -> Vec<Event> {
        let ring = self.ring.lock();
        let mut newest: Vec<Event> =
            ring.iter().rev().filter(|e| e.severity >= min_severity).take(n).cloned().collect();
        newest.reverse();
        newest
    }

    /// All retained events, oldest first.
    pub fn all(&self) -> Vec<Event> {
        self.recent(usize::MAX, Severity::Debug)
    }
}

impl Default for EventJournal {
    fn default() -> EventJournal {
        EventJournal::new()
    }
}

impl MetricsSource for EventJournal {
    fn collect(&self, buf: &mut MetricsBuf) {
        buf.counter(
            "bp_events_emitted_total",
            "Structured events emitted into the journal",
            &[],
            self.emitted() as f64,
        );
        buf.counter(
            "bp_events_overwritten_total",
            "Journal events lost to ring-buffer overwrites",
            &[],
            self.overwritten() as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_in_global_order() {
        let j = EventJournal::new();
        j.emit(Severity::Info, "core", "phase_change", "phase 0 -> 1");
        j.emit(Severity::Warn, "chaos", "chaos_armed", "plan storm");
        j.emit(Severity::Error, "storage", "deadlock_victim", "txn 9 died");
        let all = j.all();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].seq, 1);
        assert_eq!(all[2].seq, 3);
        assert!(all.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(j.emitted(), 3);
    }

    #[test]
    fn disabled_gate_skips_closure() {
        let j = EventJournal::disabled();
        let mut called = false;
        j.emit_with(Severity::Info, "core", "rate_change", || {
            called = true;
            (String::new(), Vec::new())
        });
        assert!(!called, "closure must not run while disabled");
        assert_eq!(j.emitted(), 0);
        j.set_enabled(true);
        j.emit_with(Severity::Info, "core", "rate_change", || {
            ("300 -> 500".to_string(), vec![("before", "300".to_string())])
        });
        assert_eq!(j.emitted(), 1);
        assert_eq!(j.all()[0].field("before"), Some("300"));
    }

    #[test]
    fn severity_filter_and_last_n() {
        let j = EventJournal::new();
        for i in 0..10u64 {
            let sev = if i % 2 == 0 { Severity::Debug } else { Severity::Warn };
            j.emit(sev, "core", "rate_change", format!("e{i}"));
        }
        assert_eq!(j.recent(100, Severity::Warn).len(), 5);
        let last2 = j.recent(2, Severity::Debug);
        assert_eq!(last2.len(), 2);
        assert_eq!(last2[1].message, "e9");
        assert!(last2[0].seq < last2[1].seq);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let j = EventJournal { ring: Mutex::new(Ring::new(16)), ..EventJournal::new() };
        for i in 0..40u64 {
            j.emit(Severity::Info, "core", "rate_change", format!("e{i}"));
        }
        assert_eq!(j.emitted(), 40);
        assert_eq!(j.overwritten(), 24);
        let all = j.all();
        assert_eq!(all.len(), 16);
        assert_eq!(all[0].message, "e24", "oldest retained after overwrite");
        assert_eq!(all.last().unwrap().message, "e39");
    }

    /// What a `#bp-report` events line holds: the event's JSON on one line.
    fn through_line(e: &Event) -> Result<Event, String> {
        let line = e.to_json().to_string();
        assert!(!line.contains('\n'), "{line}");
        Event::from_json(&Json::parse(&line).map_err(|e| e.to_string())?)
    }

    #[test]
    fn line_round_trips() {
        let e = Event {
            seq: 142,
            ts_us: 12_000_000,
            severity: Severity::Warn,
            source: "chaos".into(),
            kind: "chaos_armed".into(),
            message: "plan lock-storm armed".to_string(),
            fields: vec![("plan".into(), "lock-storm".to_string()), ("state".into(), "armed".to_string())],
        };
        assert_eq!(through_line(&e).unwrap(), e);

        // Separators, newlines and lists come back as they went in.
        let nasty = Event {
            fields: vec![
                ("after".into(), "[40.0,12.0,12.0]".to_string()),
                ("plan".into(), "a,b=c\nd".to_string()),
            ],
            message: "line1\nline2 \"quoted\"".to_string(),
            ..e
        };
        assert_eq!(through_line(&nasty).unwrap(), nasty);
    }

    /// The journal keeps fields in name order, whatever order the emit
    /// site lists them in, so what it holds reads back from JSON exactly.
    #[test]
    fn emitted_events_read_back_exactly() {
        let j = EventJournal::new();
        j.emit_with(Severity::Info, "core", "mixture_change", || {
            ("mixture changed".into(), vec![("phase", "1".into()), ("after", "[40.0,12.0]".into())])
        });
        let e = &j.all()[0];
        assert_eq!(e.fields[0].0, "after");
        assert_eq!(&through_line(e).unwrap(), e);
    }

    #[test]
    fn from_json_rejects_garbage() {
        let good = Json::parse(
            r#"{"seq":1,"ts_us":0,"severity":"info","source":"core","kind":"rate_change","message":"m","fields":{}}"#,
        )
        .unwrap();
        assert!(Event::from_json(&good).is_ok());
        for (key, bad) in [
            ("seq", Json::Str("x".into())),
            ("severity", Json::Str("loud".into())),
            ("fields", Json::Str("badfield".into())),
            ("fields", Json::obj().set("k", 1u64)),
            ("message", Json::Null),
        ] {
            assert!(Event::from_json(&good.clone().set(key, bad.clone())).is_err(), "{key}: {bad}");
        }
    }

    #[test]
    fn severity_parses() {
        assert_eq!("WARN".parse(), Ok(Severity::Warn));
        assert_eq!("warning".parse(), Ok(Severity::Warn));
        assert_eq!("info".parse(), Ok(Severity::Info));
        assert_eq!("loud".parse::<Severity>(), Err(()));
        assert!(Severity::Error > Severity::Debug);
    }

    #[test]
    fn json_shape() {
        let j = EventJournal::new();
        j.emit_with(Severity::Info, "api", "run_start", || {
            ("run voter".to_string(), vec![("workload", "voter".to_string())])
        });
        let e = &j.all()[0];
        let json = e.to_json();
        assert_eq!(json.get("severity").and_then(Json::as_str), Some("info"));
        assert_eq!(json.get("kind").and_then(Json::as_str), Some("run_start"));
        assert_eq!(
            json.get("fields").and_then(|f| f.get("workload")).and_then(Json::as_str),
            Some("voter")
        );
    }

    /// A quiet thread's event outlives a storm from a thread whose slot
    /// shares its residue mod 8 — the slot a per-thread shard would have
    /// given both.
    #[test]
    fn a_storm_on_one_thread_keeps_another_threads_event() {
        let j = std::sync::Arc::new(EventJournal::new());
        let on_slot = |slot: usize, events: usize, kind: &'static str| {
            let j = j.clone();
            std::thread::spawn(move || {
                bp_util::sync::set_thread_slot(slot);
                for _ in 0..events {
                    j.emit(Severity::Warn, "chaos", kind, "storm");
                }
            })
            .join()
            .unwrap();
        };
        on_slot(11, 1, "chaos_armed");
        on_slot(3, 1_000, "deadlock_victim");
        assert_eq!(j.all().iter().filter(|e| e.kind == "chaos_armed").count(), 1);
        assert_eq!(j.overwritten(), 0);
    }

    #[test]
    fn multithreaded_emission_keeps_order() {
        let j = std::sync::Arc::new(EventJournal::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let j = j.clone();
                std::thread::spawn(move || {
                    for i in 0..200 {
                        j.emit(Severity::Debug, "core", "rate_change", format!("t{t}e{i}"));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(j.emitted(), 800);
        let all = j.all();
        assert!(all.windows(2).all(|w| w[0].seq < w[1].seq), "globally ordered");
    }
}
