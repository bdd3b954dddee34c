//! Client-side resilience: circuit breaker, retry budget, and the knob
//! block that configures both plus backoff/deadlines.
//!
//! The breaker is the executor's admission controller. Workers ask it
//! [`CircuitBreaker::admit`] before executing a request:
//!
//! ```text
//!            failure rate ≥ threshold (or queue > limit)
//!   Closed ──────────────────────────────────────────────▶ Open
//!     ▲                                                      │
//!     │ `half_open_probes` consecutive                       │ cooldown
//!     │ probe successes                                      │ elapsed
//!     │                                                      ▼
//!     └──────────────────────────────────────────────── HalfOpen
//!                         any probe failure ──────▶ back to Open
//! ```
//!
//! While Open, requests are **shed**: fast-failed without executing,
//! counted in their own `shed` bucket (never as errors, never in
//! throughput) so graceful degradation is visible as its own signal.
//! The [`RetryBudget`] is the second amplification guard: a token bucket
//! capping cluster-wide retries per second so that retry storms cannot
//! pile onto an engine that is already down.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use bp_obs::{EventJournal, MetricsBuf, MetricsSource, Severity};
use bp_util::ring::Ring;
use bp_util::sync::Mutex;

/// Breaker tuning. Defaults are deliberately conservative: a breaker with
/// default config on a healthy run never trips.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerConfig {
    /// Trip when `failures / samples` in the sliding window reaches this.
    pub failure_threshold: f64,
    /// Don't evaluate the threshold until the window holds this many
    /// samples (prevents one early failure from tripping a cold breaker).
    pub min_samples: u32,
    /// Sliding-window size in samples.
    pub window: u32,
    /// How long to stay Open before half-opening, µs.
    pub cooldown_us: u64,
    /// Probes admitted while HalfOpen; that many consecutive successes
    /// re-close the breaker.
    pub half_open_probes: u32,
    /// Trip immediately if the executor queue backlog exceeds this
    /// (0 disables the queue trip).
    pub queue_limit: usize,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 0.5,
            min_samples: 20,
            window: 64,
            cooldown_us: 500_000,
            half_open_probes: 3,
            queue_limit: 0,
        }
    }
}

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
    cfg: BreakerConfig,
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
    pub fn new(name: &str, cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            name: name.to_string(),
            state: AtomicU8::new(BreakerState::Closed as u8),
            inner: Mutex::new(Inner {
                window: Ring::new(cfg.window as usize),
                failures: 0,
                opened_at_us: 0,
                probes_inflight: 0,
                probe_successes: 0,
            }),
            cfg,
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

    /// Decide whether to execute a request arriving at `now_us` with the
    /// given executor backlog.
    pub fn admit(&self, now_us: u64, queue_depth: usize) -> Admission {
        match self.state() {
            BreakerState::Closed => {
                if self.cfg.queue_limit > 0 && queue_depth > self.cfg.queue_limit {
                    let mut inner = self.inner.lock();
                    // Re-check under the lock so racing workers trip once.
                    if self.state() == BreakerState::Closed {
                        inner.opened_at_us = now_us;
                        inner.reset_window();
                        self.transition(BreakerState::Open);
                    }
                    drop(inner);
                    self.shed.fetch_add(1, Ordering::Relaxed);
                    return Admission::Shed;
                }
                Admission::Allow
            }
            BreakerState::Open => {
                let mut inner = self.inner.lock();
                if self.state() == BreakerState::Open
                    && now_us.saturating_sub(inner.opened_at_us) >= self.cfg.cooldown_us
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
                    && inner.probes_inflight < self.cfg.half_open_probes
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
                if inner.probe_successes >= self.cfg.half_open_probes {
                    inner.reset_window();
                    self.transition(BreakerState::Closed);
                }
            }
            BreakerState::Open => {} // stale in-flight result; ignore
        }
    }

    /// Report a request that executed and failed (exhausted retries,
    /// deadline, or non-retryable error).
    pub fn on_failure(&self, now_us: u64) {
        let mut inner = self.inner.lock();
        match self.state() {
            BreakerState::Closed => {
                inner.record(true);
                let filled = inner.window.len() as f64;
                if filled >= self.cfg.min_samples as f64
                    && inner.failures as f64 / filled >= self.cfg.failure_threshold
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

/// Cluster-wide retry token bucket. `take()` spends one token per retry;
/// the executor's manager thread calls `refill()` once per second. With
/// `per_second == 0` the budget is unlimited (the default, preserving
/// pre-resilience behavior).
pub struct RetryBudget {
    per_second: u32,
    tokens: AtomicI64,
}

impl RetryBudget {
    pub fn new(per_second: u32) -> RetryBudget {
        RetryBudget {
            per_second,
            tokens: AtomicI64::new(per_second as i64),
        }
    }

    /// Try to spend one retry token.
    pub fn take(&self) -> bool {
        if self.per_second == 0 {
            return true;
        }
        self.tokens
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| {
                if t > 0 {
                    Some(t - 1)
                } else {
                    None
                }
            })
            .is_ok()
    }

    /// Add a second's worth of tokens, capped at two seconds' burst.
    pub fn refill(&self) {
        if self.per_second == 0 {
            return;
        }
        let cap = 2 * self.per_second as i64;
        let _ = self
            .tokens
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| {
                Some((t + self.per_second as i64).min(cap))
            });
    }

    pub fn available(&self) -> i64 {
        if self.per_second == 0 {
            i64::MAX
        } else {
            self.tokens.load(Ordering::Relaxed)
        }
    }
}

/// The executor's resilience knobs (part of `RunConfig`). Defaults keep
/// every pre-existing run byte-identical except that retry waits are
/// jittered instead of immediate.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// First-retry backoff ceiling, µs (0 disables backoff entirely).
    pub backoff_base_us: u64,
    /// Backoff ceiling cap, µs.
    pub backoff_cap_us: u64,
    /// Per-transaction deadline from first execution attempt, µs
    /// (0 = no deadline).
    pub deadline_us: u64,
    /// Cluster-wide retry budget per second (0 = unlimited).
    pub retry_budget_per_s: u32,
    /// Admission-controller config; `None` runs without a breaker.
    pub breaker: Option<BreakerConfig>,
}

impl Default for ResilienceConfig {
    fn default() -> ResilienceConfig {
        ResilienceConfig {
            backoff_base_us: 100,
            backoff_cap_us: 10_000,
            deadline_us: 0,
            retry_budget_per_s: 0,
            breaker: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 0.5,
            min_samples: 10,
            window: 20,
            cooldown_us: 1_000,
            half_open_probes: 3,
            queue_limit: 0,
        }
    }

    #[test]
    fn healthy_traffic_never_trips() {
        let b = CircuitBreaker::new("w", quick_cfg());
        for i in 0..1_000u64 {
            assert_eq!(b.admit(i, 0), Admission::Allow);
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
        let b = CircuitBreaker::new("w", quick_cfg());
        // Pure failures trip it at min_samples.
        for i in 0..10u64 {
            assert_eq!(b.admit(i, 0), Admission::Allow);
            b.on_failure(i);
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.transitions_to(BreakerState::Open), 1);
        // While Open and inside cooldown: shed.
        assert_eq!(b.admit(500, 0), Admission::Shed);
        assert_eq!(b.admit(900, 0), Admission::Shed);
        assert_eq!(b.shed_total(), 2);
        // Past cooldown (opened at t=9, cooldown 1000): first arrival probes.
        assert_eq!(b.admit(1_200, 0), Admission::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Only half_open_probes probes fit; the rest shed.
        assert_eq!(b.admit(1_201, 0), Admission::Probe);
        assert_eq!(b.admit(1_202, 0), Admission::Probe);
        assert_eq!(b.admit(1_203, 0), Admission::Shed);
        // Three successes re-close.
        b.on_success();
        b.on_success();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.transitions_to(BreakerState::Closed), 1);
        // Window was reset: one failure doesn't re-trip.
        b.admit(2_000, 0);
        b.on_failure(2_000);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn probe_failure_reopens() {
        let b = CircuitBreaker::new("w", quick_cfg());
        for i in 0..10u64 {
            b.admit(i, 0);
            b.on_failure(i);
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.admit(5_000, 0), Admission::Probe);
        b.on_failure(5_000);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.transitions_to(BreakerState::Open), 2);
        // New cooldown runs from the probe failure.
        assert_eq!(b.admit(5_500, 0), Admission::Shed);
        assert_eq!(b.admit(6_100, 0), Admission::Probe);
    }

    #[test]
    fn queue_depth_trips_immediately() {
        let mut cfg = quick_cfg();
        cfg.queue_limit = 100;
        let b = CircuitBreaker::new("w", cfg);
        assert_eq!(b.admit(0, 100), Admission::Allow);
        assert_eq!(b.admit(1, 101), Admission::Shed);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.shed_total(), 1);
    }

    #[test]
    fn sliding_window_forgets_old_failures() {
        let b = CircuitBreaker::new("w", quick_cfg());
        // 9 failures (below min_samples), then a long healthy stretch that
        // evicts them from the 20-wide window.
        for i in 0..9u64 {
            b.admit(i, 0);
            b.on_failure(i);
        }
        for i in 9..29u64 {
            b.admit(i, 0);
            b.on_success();
        }
        assert_eq!(b.state(), BreakerState::Closed);
        // Window is now all-success; 9 fresh failures put the rate at
        // 9/20 < 0.5: still closed.
        for i in 29..38u64 {
            b.admit(i, 0);
            b.on_failure(i);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        // One more tips 10/20 ≥ 0.5.
        b.admit(38, 0);
        b.on_failure(38);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn retry_budget_caps_and_refills() {
        let rb = RetryBudget::new(3);
        assert!(rb.take() && rb.take() && rb.take());
        assert!(!rb.take(), "bucket empty");
        rb.refill();
        assert_eq!(rb.available(), 3);
        rb.refill();
        rb.refill();
        rb.refill();
        assert_eq!(rb.available(), 6, "capped at 2s burst");
        // Zero = unlimited.
        let unlimited = RetryBudget::new(0);
        for _ in 0..10_000 {
            assert!(unlimited.take());
        }
        unlimited.refill();
        assert_eq!(unlimited.available(), i64::MAX);
    }

    #[test]
    fn default_resilience_config_is_passive() {
        let cfg = ResilienceConfig::default();
        assert_eq!(cfg.deadline_us, 0);
        assert_eq!(cfg.retry_budget_per_s, 0);
        assert!(cfg.breaker.is_none());
        assert!(cfg.backoff_base_us > 0, "backoff on by default (satellite 1)");
    }

    #[test]
    fn transitions_journaled_with_from_and_to() {
        let j = Arc::new(EventJournal::new());
        let b = CircuitBreaker::new("w", quick_cfg()).with_journal(j.clone());
        for i in 0..10u64 {
            b.admit(i, 0);
            b.on_failure(i);
        }
        assert_eq!(b.admit(2_000, 0), Admission::Probe);
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
        let b = CircuitBreaker::new("tpcc", quick_cfg());
        for i in 0..10u64 {
            b.admit(i, 0);
            b.on_failure(i);
        }
        b.admit(20, 0); // shed
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
