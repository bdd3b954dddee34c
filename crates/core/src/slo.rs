//! Closed-loop SLO admission control.
//!
//! Everything else in the testbed is *open-loop*: an operator (or a
//! phase script) sets a rate and hopes the system holds its latency
//! objective. The [`SloCore`] closes the loop: given a target —
//! `p99 <= N`, `p50 <= N`, or *max sustainable throughput* — a
//! background control thread samples a sliding-window latency/throughput
//! snapshot each tick and adjusts the offered rate, so the testbed finds
//! and holds its own operating point.
//!
//! The law is AIMD: additive increase while the objective is met,
//! multiplicative decrease proportional to the violation
//! (`rate *= max(backoff, limit/observed)`) when it is not — the classic
//! TCP-style shape, stable and fast to converge. It is the only law: the
//! settings `law`, `kp`, `ki` and `kd` are refused.
//!
//! The loop cooperates with the `bp-chaos` circuit breaker: an *open*
//! breaker forces a hard multiplicative backoff (`breaker_backoff`); a
//! *half-open* breaker holds the rate so recovery probes are judged at a
//! stable offered load. After the breaker re-closes, normal additive
//! probing resumes from the backed-off rate.
//!
//! [`SloCore`] is deliberately pure — no clock, no RNG, no I/O — so the
//! adjustment sequence is a function of the window sequence alone
//! (same seed + same config ⇒ identical adjustments, the replay-style
//! purity guarantee). The impure shells live at the edge: a node's
//! `bp-slo` thread ([`slo_tick`]) and the cluster coordinator's detector
//! both feed one [`SloHandle`] a [`WindowSnapshot`]; the handle holds the
//! armed law beside the live status `GET /slo/status`, `GET /cluster/slo`
//! and `bp_slo_*` read.
//! Settings reach it one way as well: [`SloConfig::with_settings`].

use std::str::FromStr;

use bp_chaos::BreakerState;
use bp_obs::{MetricsBuf, MetricsSource, Severity};
use bp_util::json::Json;
use bp_util::sync::Mutex;
use bp_util::Periodic;

use crate::controller::Controller;
use crate::rate::Rate;
use crate::stats::{WindowSnapshot, MAX_WINDOW_S};

/// What the control loop steers toward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloTarget {
    /// Keep windowed p99 latency at or below this many µs.
    P99BelowUs(u64),
    /// Keep windowed p50 latency at or below this many µs.
    P50BelowUs(u64),
    /// Find the highest rate the engine sustains (delivered ≈ offered).
    MaxThroughput,
}

impl SloTarget {
    /// Parse a target kind plus latency limit (µs; ignored for
    /// `max-throughput`).
    pub fn parse(kind: &str, limit_us: u64) -> Option<SloTarget> {
        match kind.trim().to_ascii_lowercase().as_str() {
            "p99" => Some(SloTarget::P99BelowUs(limit_us)),
            "p50" => Some(SloTarget::P50BelowUs(limit_us)),
            "max-throughput" | "max_throughput" | "throughput" => Some(SloTarget::MaxThroughput),
            _ => None,
        }
    }

    pub fn kind(&self) -> &'static str {
        match self {
            SloTarget::P99BelowUs(_) => "p99",
            SloTarget::P50BelowUs(_) => "p50",
            SloTarget::MaxThroughput => "max-throughput",
        }
    }

    /// The latency limit in µs (0 for `max-throughput`).
    pub fn limit_us(&self) -> u64 {
        match self {
            SloTarget::P99BelowUs(us) | SloTarget::P50BelowUs(us) => *us,
            SloTarget::MaxThroughput => 0,
        }
    }
}

/// Full SLO controller configuration (the `<slo>` config block /
/// `POST /slo` body).
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    pub target: SloTarget,
    /// Sliding window the sensor reads, seconds.
    pub window_s: usize,
    /// Control-loop period, µs.
    pub tick_us: u64,
    /// Rate floor: the loop never starves the workload entirely.
    pub min_rate: f64,
    /// Rate ceiling (`f64::INFINITY` = effectively unlimited).
    pub max_rate: f64,
    /// Offered rate at loop start.
    pub initial_rate: f64,
    /// AIMD additive probe step, tx/s per tick.
    pub additive_step: f64,
    /// Floor of the multiplicative-decrease factor (0 < backoff < 1).
    pub backoff: f64,
    /// Multiplicative factor applied while the breaker is open.
    pub breaker_backoff: f64,
    /// Hold (don't adjust) until the window holds this many samples.
    pub min_samples: u64,
}

impl Default for SloConfig {
    fn default() -> SloConfig {
        SloConfig {
            target: SloTarget::P99BelowUs(50_000),
            window_s: 3,
            tick_us: 200_000,
            min_rate: 10.0,
            max_rate: f64::INFINITY,
            initial_rate: 100.0,
            additive_step: 50.0,
            backoff: 0.7,
            breaker_backoff: 0.5,
            min_samples: 20,
        }
    }
}

/// One setting out of the caller's container, parsed; absent is `Ok(None)`.
fn setting<T: FromStr>(
    get: &impl Fn(&str) -> Option<String>,
    key: &str,
    expects: &str,
) -> Result<Option<T>, String> {
    get(key)
        .map(|v| v.trim().parse().map_err(|_| format!("{key} must be {expects}, got '{v}'")))
        .transpose()
}

impl SloConfig {
    /// The one reader of SLO settings: every key, unit conversion, clamp
    /// and validation rule of the `<slo>` config block, `POST /slo` and
    /// `POST /cluster/slo` is here, and those three only adapt their
    /// container to `get`, which returns the text held under a key (named
    /// as the JSON bodies name it). A key the container lacks keeps
    /// `self`'s value, so `self` carries the defaults: the crate's on a
    /// node, the coordinator's for the fleet.
    ///
    /// Keys: `target` (`p99`, `p50` or `max-throughput`) with `limit_ms`;
    /// `step` and `backoff`; `window_s`, `tick_ms`, `min_samples`;
    /// `min_rate`, `max_rate`, `initial_rate`; `breaker_backoff`. A key that
    /// is there and does not parse is refused, not skipped, and so are the
    /// retired `law`, `kp`, `ki` and `kd`: the loop is AIMD.
    pub fn with_settings(
        mut self,
        get: impl Fn(&str) -> Option<String>,
    ) -> Result<SloConfig, String> {
        let count = |key| setting::<u64>(&get, key, "a non-negative integer");
        let num = |key| match setting::<f64>(&get, key, "a number")? {
            // Only the rate ceiling may be unbounded.
            Some(v) if v.is_nan() || (v.is_infinite() && key != "max_rate") => {
                Err(format!("{key} must be a finite number"))
            }
            v => Ok(v),
        };
        let limit_us = match num("limit_ms")? {
            Some(ms) if ms > 0.0 => (ms * 1_000.0).round() as u64,
            Some(_) => return Err("limit_ms must be a positive number".into()),
            None => self.target.limit_us(),
        };
        let kind = get("target").unwrap_or_else(|| self.target.kind().to_string());
        self.target = SloTarget::parse(&kind, limit_us)
            .ok_or_else(|| format!("unknown target {kind}; known: p99, p50, max-throughput"))?;
        if let Some(key) = ["law", "kp", "ki", "kd"].into_iter().find(|&k| get(k).is_some()) {
            return Err(format!("{key} is not a setting: the loop is AIMD (step, backoff)"));
        }
        if let Some(w) = count("window_s")? {
            if w > MAX_WINDOW_S as u64 {
                return Err(format!("window_s must be at most {MAX_WINDOW_S}: the ring holds that many whole seconds"));
            }
            self.window_s = (w as usize).max(1);
        }
        if let Some(t) = count("tick_ms")? {
            self.tick_us = t.max(1).saturating_mul(1_000);
        }
        if let Some(n) = count("min_samples")? {
            self.min_samples = n;
        }
        for (key, field) in [
            ("min_rate", &mut self.min_rate),
            ("max_rate", &mut self.max_rate),
            ("initial_rate", &mut self.initial_rate),
            ("step", &mut self.additive_step),
            ("backoff", &mut self.backoff),
            ("breaker_backoff", &mut self.breaker_backoff),
        ] {
            if let Some(v) = num(key)? {
                *field = v;
            }
        }
        self.min_rate = self.min_rate.max(0.0);
        if self.max_rate < self.min_rate {
            return Err("max_rate must be >= min_rate".into());
        }
        for (key, v) in [("backoff", self.backoff), ("breaker_backoff", self.breaker_backoff)] {
            if v <= 0.0 || v >= 1.0 {
                return Err(format!("{key} must be in (0, 1)"));
            }
        }
        Ok(self)
    }

    /// [`SloConfig::with_settings`] over a JSON body.
    pub fn with_json(self, body: &Json) -> Result<SloConfig, String> {
        self.with_settings(|key| match body.get(key)? {
            Json::Null => None,
            Json::Str(s) => Some(s.clone()),
            // Rust's rendering, not JSON's: `inf` stays a number.
            Json::Num(n) => Some(n.to_string()),
            other => Some(other.to_string()),
        })
    }
}

/// What a tick decided to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adjustment {
    Increase,
    Decrease,
    /// Hard multiplicative backoff because the circuit breaker is open.
    BreakerBackoff,
    Hold,
}

impl Adjustment {
    pub fn name(&self) -> &'static str {
        match self {
            Adjustment::Increase => "increase",
            Adjustment::Decrease => "decrease",
            Adjustment::BreakerBackoff => "breaker_backoff",
            Adjustment::Hold => "hold",
        }
    }
}

/// Output of one control tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloDecision {
    /// New offered rate, tx/s (already clamped).
    pub rate: f64,
    pub adjustment: Adjustment,
    /// Relative error term: positive = headroom, negative = violation.
    pub error: f64,
}

/// The pure control law. Feed windows in, get rate decisions out;
/// identical window sequences produce identical decision sequences.
#[derive(Debug, Clone)]
pub struct SloCore {
    cfg: SloConfig,
    rate: f64,
    /// AIMD decrease cooldown: after a multiplicative decrease the sliding
    /// window keeps showing the pre-decrease tail for up to `window_s + 1`
    /// s, and reacting to that stale data again every tick would compound
    /// one violation into a geometric collapse. Violations observed while
    /// this is nonzero hold instead of decreasing.
    hold_ticks: u32,
}

impl SloCore {
    pub fn new(cfg: SloConfig) -> SloCore {
        let rate = cfg.initial_rate.clamp(cfg.min_rate, cfg.max_rate);
        SloCore { cfg, rate, hold_ticks: 0 }
    }

    /// Ticks until the window's whole seconds no longer hold a sample from
    /// before the last decrease: `window_s` and the second it fell in.
    fn window_flush_ticks(&self) -> u32 {
        let window_us = (self.cfg.window_s as u64 + 1) * 1_000_000;
        window_us.div_ceil(self.cfg.tick_us.max(1)).min(u32::MAX as u64) as u32
    }

    pub fn rate(&self) -> f64 {
        self.rate
    }

    pub fn config(&self) -> &SloConfig {
        &self.cfg
    }

    /// Run one control tick against a window and the breaker's state
    /// (`Closed` where there is no breaker).
    pub fn tick(&mut self, window: &WindowSnapshot, breaker: BreakerState) -> SloDecision {
        if breaker == BreakerState::Open {
            // The engine is sick enough that the admission controller
            // tripped: back off hard. When the breaker closes again the
            // window will still show the incident's tail; hold through it
            // instead of decreasing more.
            self.hold_ticks = self.window_flush_ticks();
            self.rate = (self.rate * self.cfg.breaker_backoff).max(self.cfg.min_rate);
            return SloDecision {
                rate: self.rate,
                adjustment: Adjustment::BreakerBackoff,
                error: -1.0,
            };
        }
        // Hold steady while recovery probes are in flight, so that their
        // outcome reflects a stable offered load, and on a sparse window.
        if breaker == BreakerState::HalfOpen || window.count < self.cfg.min_samples {
            return SloDecision { rate: self.rate, adjustment: Adjustment::Hold, error: 0.0 };
        }

        let decision = match self.cfg.target {
            SloTarget::P99BelowUs(limit) => self.latency_step(limit, window.p99_us),
            SloTarget::P50BelowUs(limit) => self.latency_step(limit, window.p50_us),
            SloTarget::MaxThroughput => self.throughput_step(window.throughput),
        };
        self.rate = decision.rate.clamp(self.cfg.min_rate, self.cfg.max_rate);
        SloDecision { rate: self.rate, ..decision }
    }

    fn latency_step(&mut self, limit_us: u64, observed_us: u64) -> SloDecision {
        let limit = limit_us.max(1) as f64;
        let observed = observed_us as f64;
        // Positive = headroom below the limit, negative = violation.
        let error = (limit - observed) / limit;
        if error >= 0.0 {
            // Headroom means the window has flushed the last incident:
            // probing may resume immediately.
            self.hold_ticks = 0;
            SloDecision {
                rate: self.rate + self.cfg.additive_step,
                adjustment: Adjustment::Increase,
                error,
            }
        } else if self.hold_ticks > 0 {
            self.hold_ticks -= 1;
            SloDecision { rate: self.rate, adjustment: Adjustment::Hold, error }
        } else {
            // Proportional multiplicative decrease: a 2× latency overshoot
            // halves the rate (floored at `backoff` per tick so one noisy
            // window can't collapse the run), then hold until the window
            // has flushed.
            self.hold_ticks = self.window_flush_ticks();
            let factor = (limit / observed.max(1.0)).max(self.cfg.backoff);
            SloDecision { rate: self.rate * factor, adjustment: Adjustment::Decrease, error }
        }
    }

    /// Max-throughput search: probe upward while the
    /// engine keeps up with the offered rate, pull back proportionally
    /// when delivered throughput falls behind.
    fn throughput_step(&mut self, throughput: f64) -> SloDecision {
        let error = throughput / self.rate.max(1.0) - 1.0;
        if throughput >= 0.9 * self.rate {
            SloDecision {
                rate: self.rate + self.cfg.additive_step,
                adjustment: Adjustment::Increase,
                error,
            }
        } else {
            let factor = (throughput / self.rate.max(1.0)).clamp(self.cfg.backoff, 1.0);
            SloDecision { rate: self.rate * factor, adjustment: Adjustment::Decrease, error }
        }
    }
}

/// What a loop last saw and did: the numbers `GET /slo/status` and the
/// `bp_slo_*` series report. Every arm starts it over.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SloStatus {
    /// Offered rate the loop last set, tx/s.
    pub rate: f64,
    /// Last relative error term.
    pub error: f64,
    /// Last windowed latency the loop steered on, µs.
    pub observed_us: u64,
    /// The window the loop last steered on.
    pub window: WindowSnapshot,
    pub increases: u64,
    pub decreases: u64,
    pub holds: u64,
    pub breaker_backoffs: u64,
    pub ticks: u64,
}

/// One SLO loop's shared state: the armed law and the live status the
/// control API and `/metrics` read. The handle does not care who ticks it.
/// A [`Controller`] keeps one for its workload (shared by all of its
/// clones) and ticks it from a `bp-slo` thread the handle then owns; the
/// cluster coordinator keeps one for the fleet and ticks it from its
/// detector.
pub struct SloHandle {
    workload: String,
    /// The armed law (`None` while disarmed) and what it last did, under one
    /// lock so that a status read never mixes two ticks.
    state: Mutex<(Option<SloCore>, SloStatus)>,
    /// The thread ticking this loop, when the loop has one of its own.
    task: Mutex<Option<Periodic>>,
}

impl SloHandle {
    pub fn new(workload: &str) -> SloHandle {
        SloHandle {
            workload: workload.to_string(),
            state: Mutex::new((None, SloStatus::default())),
            task: Mutex::new(None),
        }
    }

    pub fn is_active(&self) -> bool {
        self.state.lock().0.is_some()
    }

    /// The armed loop's configuration; `None` while disarmed.
    pub fn config(&self) -> Option<SloConfig> {
        self.state.lock().0.as_ref().map(|core| core.config().clone())
    }

    pub fn status(&self) -> SloStatus {
        self.state.lock().1
    }

    /// Offered rate as last set by the loop.
    pub fn current_rate(&self) -> f64 {
        self.status().rate
    }

    /// Arm a new loop: stop the thread of the one that is running, if any,
    /// install the law and start the status over, so that after a re-arm it
    /// describes the new loop, not the old one. From here
    /// [`SloHandle::tick`] decides, and [`SloHandle::current_rate`] is the
    /// rate to apply first.
    pub fn arm(&self, cfg: SloConfig) {
        *self.task.lock() = None; // joins the old thread, so it cannot tick into the reset
        let core = SloCore::new(cfg);
        let status = SloStatus { rate: core.rate(), ..SloStatus::default() };
        *self.state.lock() = (Some(core), status);
    }

    /// Hand the armed loop the thread that ticks it; `disarm` and the next
    /// `arm` stop it.
    pub(crate) fn run_on(&self, task: Periodic) {
        *self.task.lock() = Some(task);
    }

    /// Stop the loop; returns once its thread, if it has one, has ended.
    /// The last rate it applied stays in effect.
    pub fn disarm(&self) {
        *self.task.lock() = None;
        self.state.lock().0 = None;
    }

    /// One control step of the armed law against `window` and the breaker's
    /// state: the rate before and the decision, which the caller applies;
    /// `None` while disarmed.
    pub fn tick(
        &self,
        window: &WindowSnapshot,
        breaker: BreakerState,
    ) -> Option<(f64, SloDecision)> {
        let mut state = self.state.lock();
        let (Some(core), status) = &mut *state else { return None };
        let before = core.rate();
        let d = core.tick(window, breaker);
        status.rate = d.rate;
        status.error = d.error;
        status.observed_us = match core.config().target {
            SloTarget::P50BelowUs(_) => window.p50_us,
            _ => window.p99_us,
        };
        status.window = *window;
        *match d.adjustment {
            Adjustment::Increase => &mut status.increases,
            Adjustment::Decrease => &mut status.decreases,
            Adjustment::Hold => &mut status.holds,
            Adjustment::BreakerBackoff => &mut status.breaker_backoffs,
        } += 1;
        status.ticks += 1;
        Some((before, d))
    }

    /// The loop's live state: the `GET /slo/status` body, and with
    /// `global_rate` added the `GET /cluster/slo` one.
    pub fn status_json(&self) -> Json {
        let (cfg, st) = (self.config(), self.status());
        let (target, limit_us, window_s) = match &cfg {
            Some(cfg) => (cfg.target.kind(), cfg.target.limit_us(), cfg.window_s as u64),
            None => ("none", 0, 0),
        };
        Json::obj()
            .set("workload", self.workload.as_str())
            .set("active", cfg.is_some())
            .set("target", target)
            .set("limit_us", limit_us)
            .set("window_s", window_s)
            .set("rate", st.rate)
            .set("error", st.error)
            .set("observed_us", st.observed_us)
            .set("observed_throughput", st.window.throughput)
            .set("window_samples", st.window.count)
            .set("ticks", st.ticks)
            .set(
                "adjustments",
                Json::obj()
                    .set("increase", st.increases)
                    .set("decrease", st.decreases)
                    .set("hold", st.holds)
                    .set("breaker_backoff", st.breaker_backoffs),
            )
    }
}

impl MetricsSource for SloHandle {
    fn collect(&self, buf: &mut MetricsBuf) {
        let (target, st) = (self.config().map(|cfg| cfg.target), self.status());
        let workload = ("workload", self.workload.as_str());
        buf.gauge(
            "bp_slo_active",
            "1 while a closed-loop SLO controller is driving the rate.",
            &[workload],
            if target.is_some() { 1.0 } else { 0.0 },
        );
        let (target_us, kind) = target.map_or((0, "none"), |t| (t.limit_us(), t.kind()));
        buf.gauge(
            "bp_slo_target_us",
            "Configured latency objective in µs (0 for max-throughput).",
            &[workload, ("target", kind)],
            target_us as f64,
        );
        for (name, help, v) in [
            ("bp_slo_current_rate", "Offered rate the SLO loop last set, tx/s.", st.rate),
            (
                "bp_slo_error",
                "Relative error term (positive = headroom, negative = violation).",
                st.error,
            ),
            (
                "bp_slo_observed_us",
                "Windowed latency percentile the loop last steered on, µs.",
                st.observed_us as f64,
            ),
            (
                "bp_slo_observed_throughput",
                "Windowed delivered throughput the loop last observed, tx/s.",
                st.window.throughput,
            ),
        ] {
            buf.gauge(name, help, &[workload], v);
        }
        for (dir, n) in [("increase", st.increases), ("decrease", st.decreases), ("hold", st.holds)] {
            buf.counter(
                "bp_slo_adjustments_total",
                "Control-loop adjustments, by direction.",
                &[workload, ("dir", dir)],
                n as f64,
            );
        }
        buf.counter(
            "bp_slo_breaker_backoffs_total",
            "Hard backoffs forced by an open circuit breaker.",
            &[workload],
            st.breaker_backoffs as f64,
        );
        buf.counter(
            "bp_slo_ticks_total",
            "Control-loop ticks executed.",
            &[workload],
            st.ticks as f64,
        );
    }
}

/// A node's impure shell: one control step against the workload's live
/// window snapshot, applied to its rate. [`Controller::start_slo`] runs it
/// every `tick_us` on the `bp-slo` thread; `false` (the run has stopped, or
/// the loop was disarmed) ends that thread.
pub(crate) fn slo_tick(controller: &Controller, window_s: usize) -> bool {
    if controller.is_stopped() {
        return false;
    }
    let window = controller.stats().window_snapshot(window_s);
    let breaker = controller.breaker().map_or(BreakerState::Closed, |b| b.state());
    let Some((before, d)) = controller.slo().tick(&window, breaker) else { return false };
    if d.adjustment != Adjustment::Hold {
        // Holds are the steady state; journaling only the actual rate
        // decisions keeps the ring about *changes* (the doctor matches
        // these against latency onsets).
        let sev = match d.adjustment {
            Adjustment::BreakerBackoff => Severity::Warn,
            _ => Severity::Info,
        };
        controller.journal().emit_with(sev, "slo", "slo_decision", || {
            (
                format!(
                    "slo {}: rate {before:.1} -> {:.1} (error {:+.2})",
                    d.adjustment.name(),
                    d.rate,
                    d.error,
                ),
                vec![
                    ("adjustment", d.adjustment.name().to_string()),
                    ("before", format!("{before:.1}")),
                    ("after", format!("{:.1}", d.rate)),
                ],
            )
        });
    }
    controller.set_rate(Rate::Limited(d.rate));
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_chaos::BreakerState::{Closed, HalfOpen, Open};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn obs(p99: u64, tput: f64, n: u64) -> WindowSnapshot {
        WindowSnapshot { count: n, p50_us: p99 / 2, p99_us: p99, throughput: tput }
    }

    #[test]
    fn target_parsing_round_trips() {
        assert_eq!(SloTarget::parse("p99", 5_000), Some(SloTarget::P99BelowUs(5_000)));
        assert_eq!(SloTarget::parse("P50", 100), Some(SloTarget::P50BelowUs(100)));
        assert_eq!(SloTarget::parse("max-throughput", 0), Some(SloTarget::MaxThroughput));
        assert_eq!(SloTarget::parse("bogus", 0), None);
        for t in [SloTarget::P99BelowUs(7), SloTarget::P50BelowUs(9), SloTarget::MaxThroughput] {
            assert_eq!(SloTarget::parse(t.kind(), t.limit_us()), Some(t));
        }
    }

    #[test]
    fn aimd_increases_with_headroom_decreases_on_violation() {
        let cfg = SloConfig {
            target: SloTarget::P99BelowUs(10_000),
            initial_rate: 1_000.0,
            additive_step: 100.0,
            ..SloConfig::default()
        };
        let mut core = SloCore::new(cfg);
        // Well under the limit: additive increase.
        let d = core.tick(&obs(5_000, 900.0, 500), Closed);
        assert_eq!(d.adjustment, Adjustment::Increase);
        assert!((d.rate - 1_100.0).abs() < 1e-9);
        assert!(d.error > 0.0);
        // 2× violation: proportional multiplicative decrease (halve),
        // floored at `backoff`.
        let d = core.tick(&obs(20_000, 900.0, 500), Closed);
        assert_eq!(d.adjustment, Adjustment::Decrease);
        assert!(d.error < 0.0);
        assert!((d.rate - 1_100.0 * 0.7).abs() < 1e-9, "floored at backoff: {}", d.rate);
        // A further violation right away is stale-window data: hold.
        let d2 = core.tick(&obs(11_000, 900.0, 500), Closed);
        assert_eq!(d2.adjustment, Adjustment::Hold);
        assert!((d2.rate - d.rate).abs() < 1e-9);
        // Headroom clears the cooldown and probing resumes at once.
        let d3 = core.tick(&obs(5_000, 900.0, 500), Closed);
        assert_eq!(d3.adjustment, Adjustment::Increase);
        // ...and after the hold the next genuine violation decreases again.
        let d4 = core.tick(&obs(11_000, 900.0, 500), Closed);
        assert_eq!(d4.adjustment, Adjustment::Decrease);
        assert!((d4.rate - d3.rate * (10_000.0 / 11_000.0)).abs() < 1e-9);
    }

    #[test]
    fn decrease_cooldown_covers_window_flush() {
        // window 2s / tick 200ms: a decrease must be followed by 15 holds
        // (the window's 2 whole seconds and the one the decrease fell in)
        // before the next decrease can fire.
        let cfg = SloConfig {
            target: SloTarget::P99BelowUs(10_000),
            window_s: 2,
            tick_us: 200_000,
            initial_rate: 1_000.0,
            ..SloConfig::default()
        };
        let mut core = SloCore::new(cfg);
        let violation = obs(20_000, 900.0, 500);
        assert_eq!(core.tick(&violation, Closed).adjustment, Adjustment::Decrease);
        for i in 0..15 {
            assert_eq!(core.tick(&violation, Closed).adjustment, Adjustment::Hold, "tick {i}");
        }
        assert_eq!(core.tick(&violation, Closed).adjustment, Adjustment::Decrease);
    }

    #[test]
    fn rate_clamped_to_bounds() {
        let cfg = SloConfig {
            target: SloTarget::P99BelowUs(1_000),
            // A one-second window read every second: the decrease cooldown
            // is two ticks.
            window_s: 1,
            tick_us: 1_000_000,
            initial_rate: 20.0,
            min_rate: 15.0,
            max_rate: 30.0,
            additive_step: 100.0,
            ..SloConfig::default()
        };
        let mut core = SloCore::new(cfg);
        let d = core.tick(&obs(100, 10.0, 100), Closed);
        assert_eq!(d.rate, 30.0, "capped at max_rate");
        for _ in 0..10 {
            core.tick(&obs(100_000, 10.0, 100), Closed);
        }
        assert_eq!(core.rate(), 15.0, "floored at min_rate");
    }

    #[test]
    fn open_breaker_forces_multiplicative_decrease() {
        let cfg = SloConfig {
            target: SloTarget::P99BelowUs(10_000),
            initial_rate: 1_000.0,
            breaker_backoff: 0.5,
            ..SloConfig::default()
        };
        let mut core = SloCore::new(cfg);
        // Even with a perfectly healthy latency observation, an open
        // breaker overrides everything with a hard backoff.
        let healthy = obs(1_000, 900.0, 500);
        let d = core.tick(&healthy, Open);
        assert_eq!(d.adjustment, Adjustment::BreakerBackoff);
        assert!((d.rate - 500.0).abs() < 1e-9);
        let d = core.tick(&healthy, Open);
        assert!((d.rate - 250.0).abs() < 1e-9, "backoff compounds while open");
        // Half-open: hold for the probes.
        let d = core.tick(&healthy, HalfOpen);
        assert_eq!(d.adjustment, Adjustment::Hold);
        assert!((d.rate - 250.0).abs() < 1e-9);
        // Re-closed: additive probing resumes from the backed-off rate.
        let d = core.tick(&obs(1_000, 240.0, 500), Closed);
        assert_eq!(d.adjustment, Adjustment::Increase);
        assert!(d.rate > 250.0);
    }

    #[test]
    fn sparse_window_holds() {
        let mut core = SloCore::new(SloConfig {
            min_samples: 50,
            initial_rate: 500.0,
            ..SloConfig::default()
        });
        let d = core.tick(&obs(1, 10.0, 49), Closed);
        assert_eq!(d.adjustment, Adjustment::Hold);
        assert_eq!(d.rate, 500.0);
        assert_eq!(core.tick(&obs(1, 10.0, 50), Closed).adjustment, Adjustment::Increase);
    }

    #[test]
    fn max_throughput_probes_up_and_backs_off() {
        let cfg = SloConfig {
            target: SloTarget::MaxThroughput,
            initial_rate: 1_000.0,
            additive_step: 100.0,
            ..SloConfig::default()
        };
        let mut core = SloCore::new(cfg);
        // Engine keeps up: probe upward.
        let d = core.tick(&obs(1_000, 990.0, 500), Closed);
        assert_eq!(d.adjustment, Adjustment::Increase);
        assert!((d.rate - 1_100.0).abs() < 1e-9);
        // Engine saturated at 800: pull back proportionally.
        let d = core.tick(&obs(1_000, 800.0, 500), Closed);
        assert_eq!(d.adjustment, Adjustment::Decrease);
        assert!((d.rate - 1_100.0 * (800.0 / 1_100.0)).abs() < 1e-9);
    }

    #[test]
    fn identical_observations_identical_decisions() {
        // The replay-style purity guarantee: SloCore has no clock and no
        // RNG, so the decision sequence is a function of (config,
        // observation sequence) alone.
        let cfg = SloConfig {
            target: SloTarget::P99BelowUs(8_000),
            initial_rate: 400.0,
            ..SloConfig::default()
        };
        let mut a = SloCore::new(cfg.clone());
        let mut b = SloCore::new(cfg);
        let mut seq = Vec::new();
        for i in 0..200u64 {
            // A deterministic, wiggly synthetic trace: latency swings
            // above and below the limit, breaker opens mid-sequence.
            let p99 = 4_000 + (i * 997) % 9_000;
            let breaker = match i {
                60..65 => Open,
                65..67 => HalfOpen,
                _ => Closed,
            };
            seq.push((obs(p99, 300.0 + (i % 7) as f64 * 20.0, 100 + i), breaker));
        }
        let da: Vec<SloDecision> = seq.iter().map(|(w, br)| a.tick(w, *br)).collect();
        let db: Vec<SloDecision> = seq.iter().map(|(w, br)| b.tick(w, *br)).collect();
        assert_eq!(da, db, "same config + observations ⇒ identical adjustment sequence");
        assert!(da.iter().any(|d| d.adjustment == Adjustment::BreakerBackoff));
        assert!(da.iter().any(|d| d.adjustment == Adjustment::Increase));
        assert!(da.iter().any(|d| d.adjustment == Adjustment::Decrease));
    }

    /// A stand-in loop for tests of the handle alone: counts its ticks.
    fn counting_task(ticks: &Arc<AtomicU64>) -> Periodic {
        let n = ticks.clone();
        Periodic::spawn("t-slo", 2_000, move || {
            n.fetch_add(1, Ordering::Relaxed);
            true
        })
    }

    #[test]
    fn handle_rearm_resets_and_leaves_one_loop() {
        let h = SloHandle::new("w");
        assert!(!h.is_active());
        assert_eq!(h.tick(&obs(1_000, 100.0, 50), Closed), None, "a disarmed loop decides nothing");
        let (first, second) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        h.arm(SloConfig::default());
        h.run_on(counting_task(&first));
        assert!(h.is_active());
        assert!((h.current_rate() - SloConfig::default().initial_rate).abs() < 1e-9);
        let (before, d) = h.tick(&obs(1_000, 100.0, 50), Closed).unwrap();
        assert_eq!((before, d.adjustment), (100.0, Adjustment::Increase));
        assert_eq!((h.status().increases, h.status().ticks), (1, 1));
        assert!((h.current_rate() - 150.0).abs() < 1e-9);
        // Re-arm: counters reset and the first loop is gone when `arm` returns.
        h.arm(SloConfig::default());
        let first_at_rearm = first.load(Ordering::Relaxed);
        h.run_on(counting_task(&second));
        assert!(h.is_active());
        assert_eq!((h.status().increases, h.status().ticks), (0, 0));
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(first.load(Ordering::Relaxed), first_at_rearm, "replaced loop still ticking");
        assert!(second.load(Ordering::Relaxed) > 0, "new loop not ticking");
        // Disarm: the second loop is gone when `disarm` returns.
        h.disarm();
        assert!(!h.is_active());
        let second_at_disarm = second.load(Ordering::Relaxed);
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(second.load(Ordering::Relaxed), second_at_disarm, "disarmed loop still ticking");
    }

    /// A loop without a thread of its own (the coordinator ticks the fleet's
    /// from its detector) is armed all the same, and reports as a node's.
    #[test]
    fn handle_metrics_and_status_need_no_thread() {
        let h = SloHandle::new("voter");
        h.arm(SloConfig {
            target: SloTarget::P99BelowUs(5_000),
            initial_rate: 100.0,
            ..SloConfig::default()
        });
        let o = obs(9_000, 50.0, 100);
        assert_eq!(h.tick(&o, Open).unwrap().1.adjustment, Adjustment::BreakerBackoff);
        let mut buf = MetricsBuf::new();
        h.collect(&mut buf);
        let samples = buf.into_samples();
        let get = |name: &str| samples.iter().find(|s| s.name == name).unwrap();
        assert_eq!(get("bp_slo_active").value, bp_obs::MetricValue::Gauge(1.0));
        assert_eq!(get("bp_slo_target_us").value, bp_obs::MetricValue::Gauge(5_000.0));
        assert!(get("bp_slo_target_us").labels.iter().any(|(k, v)| k == "target" && v == "p99"));
        assert_eq!(get("bp_slo_current_rate").value, bp_obs::MetricValue::Gauge(50.0));
        assert_eq!(get("bp_slo_breaker_backoffs_total").value, bp_obs::MetricValue::Counter(1.0));
        assert!(samples.iter().all(|s| s.labels.iter().any(|(k, v)| k == "workload" && v == "voter")));

        let status = h.status_json();
        assert_eq!(status.get("active").and_then(Json::as_bool), Some(true));
        assert_eq!(status.get("workload").and_then(Json::as_str), Some("voter"));
        assert_eq!(status.get("limit_us").and_then(Json::as_u64), Some(5_000));
        assert_eq!(status.get("rate").and_then(Json::as_f64), Some(50.0));
        assert_eq!(status.get("observed_us").and_then(Json::as_u64), Some(9_000));
        let adjustments = status.get("adjustments").unwrap();
        assert_eq!(adjustments.get("breaker_backoff").and_then(Json::as_u64), Some(1));
        h.disarm();
        assert_eq!(h.status_json().get("active").and_then(Json::as_bool), Some(false));
        assert_eq!(h.status_json().get("target").and_then(Json::as_str), Some("none"));
    }

    #[test]
    fn settings_keep_the_base_where_absent_and_convert_units() {
        let base = SloConfig { min_rate: 50.0, additive_step: 100.0, ..SloConfig::default() };
        assert_eq!(base.clone().with_settings(|_| None), Ok(base.clone()));
        let cfg = base
            .clone()
            .with_json(
                &Json::obj()
                    .set("target", "p50")
                    .set("limit_ms", 2.5)
                    .set("window_s", 0u64)
                    .set("tick_ms", 0u64)
                    .set("min_rate", -5.0)
                    .set("max_rate", "inf")
                    .set("breaker_backoff", "0.25")
                    .set("workload", "demo"),
            )
            .unwrap();
        assert_eq!(cfg.target, SloTarget::P50BelowUs(2_500));
        assert_eq!((cfg.window_s, cfg.tick_us), (1, 1_000), "clamped up to one second, one ms");
        assert_eq!((cfg.min_rate, cfg.max_rate), (0.0, f64::INFINITY));
        assert_eq!((cfg.breaker_backoff, cfg.additive_step), (0.25, 100.0));
        // A key that is there and is not what it must be is refused, not skipped.
        let bad_values =
            [("window_s", "2.5"), ("tick_ms", "-1"), ("step", "fast"), ("initial_rate", "inf")];
        for (key, bad) in bad_values {
            let got = base.clone().with_settings(|k| (k == key).then(|| bad.to_string()));
            assert!(got.as_ref().is_err_and(|e| e.contains(key)), "{key}={bad}: {got:?}");
        }
        // The longest window is the whole seconds the ring holds; one more
        // is refused, naming the key.
        let window =
            |w: usize| base.clone().with_settings(|k| (k == "window_s").then(|| w.to_string()));
        assert_eq!(window(MAX_WINDOW_S).map(|cfg| cfg.window_s), Ok(MAX_WINDOW_S));
        let past = window(MAX_WINDOW_S + 1);
        assert!(past.as_ref().is_err_and(|e| e.contains("window_s")), "{past:?}");
        // The loop has one law: asking for another, or for its gains, is
        // refused rather than quietly answered with AIMD.
        let retired = [("law", "pid"), ("law", "aimd"), ("kp", "0.5"), ("ki", "0.1"), ("kd", "0")];
        for (key, v) in retired {
            let got = base.clone().with_settings(|k| (k == key).then(|| v.to_string()));
            let named = got.as_ref().is_err_and(|e| e.contains(key) && e.contains("AIMD"));
            assert!(named, "{key}: {got:?}");
        }
        let armed = base.with_json(&Json::obj().set("min_rate", 100.0).set("max_rate", 50.0));
        assert_eq!(armed, Err("max_rate must be >= min_rate".to_string()));
    }
}
