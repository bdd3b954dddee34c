//! Client-side resilience: the circuit breaker.
//!
//! The breaker is the executor's admission controller. Workers ask it
//! [`CircuitBreaker::admit`] before executing a request:
//!
//! ```text
//!            failure rate ≥ threshold
//!   Closed ──────────────────────────────────────────────▶ Open
//!     ▲                                                      │
//!     │ `HALF_OPEN_PROBES` consecutive                       │ cooldown
//!     │ probe successes                                      │ elapsed
//!     │                                                      ▼
//!     └──────────────────────────────────────────────── HalfOpen
//!                         any probe failure ──────▶ back to Open
//! ```
//!
//! While Open, requests are **shed**: fast-failed without executing,
//! counted in their own `shed` bucket (never as errors, never in
//! throughput) so graceful degradation is visible as its own signal.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use bp_obs::{EventJournal, MetricsBuf, MetricsSource, Severity};
use bp_util::ring::Ring;
use bp_util::sync::Mutex;

// The breaker's tuning. E12 and E14 are the runs with a breaker, and these
// are the values they have always set: quick enough to open and re-close
// inside a few-second window.

/// Trip when `failures / samples` in the sliding window reaches this.
const FAILURE_THRESHOLD: f64 = 0.5;
/// Don't evaluate the threshold until the window holds this many samples
/// (prevents one early failure from tripping a cold breaker).
const MIN_SAMPLES: usize = 16;
/// Sliding-window size in samples.
const WINDOW: usize = 32;
/// How long to stay Open before half-opening, µs.
const COOLDOWN_US: u64 = 300_000;
/// Probes admitted while HalfOpen; that many consecutive successes re-close
/// the breaker.
const HALF_OPEN_PROBES: u32 = 3;

/// Breaker states; the discriminants are the `bp_resilience_breaker_state`
/// gauge values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum BreakerState {
    Closed = 0,
    Open = 1,
    HalfOpen = 2,
}

impl BreakerState {
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    fn from_u8(v: u8) -> BreakerState {
        match v {
            1 => BreakerState::Open,
            2 => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }
}

/// Admission verdict for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Execute normally.
    Allow,
    /// Execute, but this is a HalfOpen recovery probe — its outcome
    /// decides whether the breaker re-closes or re-opens.
    Probe,
    /// Fast-fail without executing; record as `shed`.
    Shed,
}

struct Inner {
    /// Sliding outcome window: `true` = failure.
    window: Ring<bool>,
    /// Failures inside `window`.
    failures: u32,
    opened_at_us: u64,
    probes_inflight: u32,
    probe_successes: u32,
}

impl Inner {
    fn reset_window(&mut self) {
        self.window.clear();
        self.failures = 0;
    }

    fn record(&mut self, failure: bool) {
        if self.window.push(failure) == Some(true) {
            self.failures -= 1;
        }
        self.failures += failure as u32;
    }
}

/// A per-workload (per-tenant) circuit breaker / admission controller.
pub struct CircuitBreaker {
    /// Label on every metric this breaker emits.
    name: String,
    /// Fast-path state mirror; authoritative transitions happen under
    /// `inner`'s lock.
    state: AtomicU8,
    inner: Mutex<Inner>,
    shed: AtomicU64,
    /// Transition counts, indexed by destination state.
    transitions: [AtomicU64; 3],
    journal: Option<Arc<EventJournal>>,
}

impl CircuitBreaker {
    pub fn new(name: &str) -> CircuitBreaker {
        CircuitBreaker {
            name: name.to_string(),
            state: AtomicU8::new(BreakerState::Closed as u8),
            inner: Mutex::new(Inner {
                window: Ring::new(WINDOW),
                failures: 0,
                opened_at_us: 0,
                probes_inflight: 0,
                probe_successes: 0,
            }),
            shed: AtomicU64::new(0),
            transitions: Default::default(),
            journal: None,
        }
    }

    /// Attach the event journal (state-transition events) — builder style
    /// so the plain constructor keeps working everywhere.
    pub fn with_journal(mut self, journal: Arc<EventJournal>) -> CircuitBreaker {
        self.journal = Some(journal);
        self
    }

    #[inline]
    pub fn state(&self) -> BreakerState {
        BreakerState::from_u8(self.state.load(Ordering::Relaxed))
    }

    pub fn shed_total(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    pub fn transitions_to(&self, to: BreakerState) -> u64 {
        self.transitions[to as usize].load(Ordering::Relaxed)
    }

    fn transition(&self, to: BreakerState) {
        let from = BreakerState::from_u8(self.state.swap(to as u8, Ordering::Relaxed));
        self.transitions[to as usize].fetch_add(1, Ordering::Relaxed);
        if let Some(j) = &self.journal {
            let sev = match to {
                BreakerState::Open => Severity::Error,
                BreakerState::HalfOpen => Severity::Warn,
                BreakerState::Closed => Severity::Info,
            };
            j.emit_with(sev, "chaos", "breaker_transition", || {
                (
                    format!("breaker {} {} -> {}", self.name, from.name(), to.name()),
                    vec![
                        ("workload", self.name.clone()),
                        ("from", from.name().to_string()),
                        ("to", to.name().to_string()),
                    ],
                )
            });
        }
    }

    /// Decide whether to execute a request arriving at `now_us`.
    pub fn admit(&self, now_us: u64) -> Admission {
        match self.state() {
            BreakerState::Closed => Admission::Allow,
            BreakerState::Open => {
                let mut inner = self.inner.lock();
                if self.state() == BreakerState::Open
                    && now_us.saturating_sub(inner.opened_at_us) >= COOLDOWN_US
                {
                    inner.probes_inflight = 1;
                    inner.probe_successes = 0;
                    self.transition(BreakerState::HalfOpen);
                    return Admission::Probe;
                }
                drop(inner);
                self.shed.fetch_add(1, Ordering::Relaxed);
                Admission::Shed
            }
            BreakerState::HalfOpen => {
                let mut inner = self.inner.lock();
                if self.state() == BreakerState::HalfOpen
                    && inner.probes_inflight < HALF_OPEN_PROBES
                {
                    inner.probes_inflight += 1;
                    return Admission::Probe;
                }
                drop(inner);
                self.shed.fetch_add(1, Ordering::Relaxed);
                Admission::Shed
            }
        }
    }

    /// Report a request that executed and committed.
    pub fn on_success(&self) {
        let mut inner = self.inner.lock();
        match self.state() {
            BreakerState::Closed => inner.record(false),
            BreakerState::HalfOpen => {
                inner.probe_successes += 1;
                if inner.probe_successes >= HALF_OPEN_PROBES {
                    inner.reset_window();
                    self.transition(BreakerState::Closed);
                }
            }
            BreakerState::Open => {} // stale in-flight result; ignore
        }
    }

    /// Report a request that executed and failed (exhausted retries or a
    /// non-retryable error).
    pub fn on_failure(&self, now_us: u64) {
        let mut inner = self.inner.lock();
        match self.state() {
            BreakerState::Closed => {
                inner.record(true);
                let filled = inner.window.len();
                if filled >= MIN_SAMPLES
                    && inner.failures as f64 / filled as f64 >= FAILURE_THRESHOLD
                {
                    inner.opened_at_us = now_us;
                    inner.reset_window();
                    self.transition(BreakerState::Open);
                }
            }
            BreakerState::HalfOpen => {
                // The engine is still sick: any probe failure re-opens.
                inner.opened_at_us = now_us;
                self.transition(BreakerState::Open);
            }
            BreakerState::Open => {}
        }
    }
}

impl MetricsSource for CircuitBreaker {
    fn collect(&self, buf: &mut MetricsBuf) {
        let labels = [("workload", self.name.as_str())];
        buf.gauge(
            "bp_resilience_breaker_state",
            "Breaker state: 0 closed, 1 open, 2 half-open.",
            &labels,
            self.state() as u8 as f64,
        );
        buf.counter(
            "bp_resilience_shed_total",
            "Requests fast-failed by the admission controller.",
            &labels,
            self.shed_total() as f64,
        );
        for st in [BreakerState::Closed, BreakerState::Open, BreakerState::HalfOpen] {
            buf.counter(
                "bp_resilience_breaker_transitions_total",
                "Breaker state transitions, by destination state.",
                &[("workload", self.name.as_str()), ("to", st.name())],
                self.transitions_to(st) as f64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `MIN_SAMPLES` straight failures at t = 0, 1, …: the breaker opens at
    /// the last of them, which this returns.
    fn trip(b: &CircuitBreaker) -> u64 {
        let n = MIN_SAMPLES as u64;
        for i in 0..n {
            assert_eq!(b.admit(i), Admission::Allow);
            b.on_failure(i);
        }
        assert_eq!(b.state(), BreakerState::Open);
        n - 1
    }

    #[test]
    fn healthy_traffic_never_trips() {
        let b = CircuitBreaker::new("w");
        for i in 0..1_000u64 {
            assert_eq!(b.admit(i), Admission::Allow);
            // 30% failures stays under the 50% threshold at every prefix.
            if i % 10 > 6 {
                b.on_failure(i);
            } else {
                b.on_success();
            }
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.shed_total(), 0);
    }

    #[test]
    fn trips_sheds_half_opens_and_recovers() {
        let b = CircuitBreaker::new("w");
        // Pure failures trip it at min_samples.
        let opened = trip(&b);
        assert_eq!(b.transitions_to(BreakerState::Open), 1);
        // While Open and inside cooldown: shed.
        assert_eq!(b.admit(opened + COOLDOWN_US / 3), Admission::Shed);
        assert_eq!(b.admit(opened + COOLDOWN_US - 1), Admission::Shed);
        assert_eq!(b.shed_total(), 2);
        // Past cooldown: first arrival probes.
        let t = opened + COOLDOWN_US;
        assert_eq!(b.admit(t), Admission::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Only HALF_OPEN_PROBES probes fit; the rest shed.
        assert_eq!(b.admit(t + 1), Admission::Probe);
        assert_eq!(b.admit(t + 2), Admission::Probe);
        assert_eq!(b.admit(t + 3), Admission::Shed);
        // Three successes re-close.
        b.on_success();
        b.on_success();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.transitions_to(BreakerState::Closed), 1);
        // Window was reset: one failure doesn't re-trip.
        b.admit(t + 10);
        b.on_failure(t + 10);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn probe_failure_reopens() {
        let b = CircuitBreaker::new("w");
        trip(&b);
        let t = 2 * COOLDOWN_US;
        assert_eq!(b.admit(t), Admission::Probe);
        b.on_failure(t);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.transitions_to(BreakerState::Open), 2);
        // New cooldown runs from the probe failure.
        assert_eq!(b.admit(t + COOLDOWN_US - 1), Admission::Shed);
        assert_eq!(b.admit(t + COOLDOWN_US), Admission::Probe);
    }

    #[test]
    fn sliding_window_forgets_old_failures() {
        let b = CircuitBreaker::new("w");
        let (min, window) = (MIN_SAMPLES as u64, WINDOW as u64);
        // Failures below min_samples, then a healthy stretch that evicts
        // them from the window.
        for i in 0..min - 1 {
            b.admit(i);
            b.on_failure(i);
        }
        for i in min - 1..min - 1 + window {
            b.admit(i);
            b.on_success();
        }
        assert_eq!(b.state(), BreakerState::Closed);
        // The window is all successes; failures one short of half of it
        // keep it closed.
        let t = min - 1 + window;
        for i in t..t + window / 2 - 1 {
            b.admit(i);
            b.on_failure(i);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        // One more tips it to half, the threshold.
        b.admit(t + window);
        b.on_failure(t + window);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn transitions_journaled_with_from_and_to() {
        let j = Arc::new(EventJournal::new());
        let b = CircuitBreaker::new("w").with_journal(j.clone());
        let opened = trip(&b);
        assert_eq!(b.admit(opened + COOLDOWN_US), Admission::Probe);
        b.on_success();
        b.on_success();
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        let events = j.all();
        let kinds: Vec<(&str, String)> = events
            .iter()
            .map(|e| (&*e.kind, e.field("to").unwrap().to_string()))
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("breaker_transition", "open".to_string()),
                ("breaker_transition", "half_open".to_string()),
                ("breaker_transition", "closed".to_string()),
            ],
            "{events:?}"
        );
        assert_eq!(events[0].severity, Severity::Error);
        assert_eq!(events[0].field("from"), Some("closed"));
    }

    #[test]
    fn metrics_expose_breaker_series() {
        let b = CircuitBreaker::new("tpcc");
        let opened = trip(&b);
        b.admit(opened + 1); // shed
        let mut buf = MetricsBuf::new();
        b.collect(&mut buf);
        let samples = buf.into_samples();
        let state = samples
            .iter()
            .find(|s| s.name == "bp_resilience_breaker_state")
            .unwrap();
        assert_eq!(state.value, bp_obs::MetricValue::Gauge(1.0), "open = 1");
        assert!(state.labels.iter().any(|(k, v)| k == "workload" && v == "tpcc"));
        let shed = samples
            .iter()
            .find(|s| s.name == "bp_resilience_shed_total")
            .unwrap();
        assert_eq!(shed.value, bp_obs::MetricValue::Counter(1.0));
        let to_open = samples
            .iter()
            .find(|s| {
                s.name == "bp_resilience_breaker_transitions_total"
                    && s.labels.iter().any(|(_, v)| v == "open")
            })
            .unwrap();
        assert_eq!(to_open.value, bp_obs::MetricValue::Counter(1.0));
    }
}
