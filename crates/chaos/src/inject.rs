//! The chaos controller: the arm/disarm gate the engine probes.
//!
//! Probe sites in the storage engine call [`ChaosController::roll`] (or
//! [`ChaosController::blackout`] in the executor) on their hot path.
//! Disarmed — the permanent state of every run that never touches
//! `POST /chaos` — a probe is a single relaxed atomic load and an
//! immediate return, the same shape as `bp-obs`'s off-mode span gate
//! (the `chaos_gate` bench pins this at <5ns on the commit path).
//!
//! Armed, probe `k` of fault kind `K` injects iff
//!
//! ```text
//! u01(mix64(plan.seed ^ K.salt() ^ k)) < window.intensity
//! ```
//!
//! where `k` is a per-kind monotone counter reset on every arm. The
//! decision depends on nothing but the plan seed and the probe's ordinal,
//! so arming the same plan twice yields the identical injection sequence
//! twice — faults are as reproducible as the workload itself. (Which
//! *operations* the faults land on still depends on thread interleaving;
//! determinism is per probe site, matching the paper's reproducibility
//! story of seeded generators rather than whole-system replay.)

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bp_obs::{EventJournal, MetricsBuf, MetricsSource, Severity};
use bp_util::clock::{wall_clock, Micros, SharedClock};
use bp_util::json::Json;
use bp_util::rng::mix64;
use bp_util::sync::{CachePadded, RwLock};

use crate::plan::{FaultKind, FaultPlan, ALL_KINDS};

/// Map a hash to a uniform f64 in `[0, 1)` (same 53-bit trick as
/// `Rng::f64`).
#[inline]
fn u01(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

struct Armed {
    plan: FaultPlan,
    /// Clock time the plan was armed at; window offsets are relative to it.
    armed_at: Micros,
}

/// Point-in-time view of the controller (for `GET /chaos/status`).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosStatus {
    pub armed: bool,
    pub plan: Option<String>,
    pub seed: u64,
    pub elapsed_us: u64,
    pub arms: u64,
    /// Per-kind totals, indexed by [`FaultKind::index`].
    pub probes: [u64; 8],
    pub injected: [u64; 8],
}

/// The fault-injection gate. One per [`Database`]; shared with the API
/// layer for runtime arm/disarm and with the registry for metrics.
pub struct ChaosController {
    /// Fast-path gate: false ⇒ every probe returns immediately.
    armed: AtomicBool,
    plan: RwLock<Option<Armed>>,
    /// Monotone probe ordinals per kind — the `k` in the decision hash.
    probes: [CachePadded<AtomicU64>; 8],
    /// Probes that actually injected, per kind.
    injected: [CachePadded<AtomicU64>; 8],
    arms: AtomicU64,
    /// Arm/disarm events land here when attached (cold path only).
    journal: Option<Arc<EventJournal>>,
    /// Plan windows are timed on this clock: the journal's, when attached.
    clock: SharedClock,
}

impl Default for ChaosController {
    fn default() -> ChaosController {
        ChaosController::new()
    }
}

impl ChaosController {
    /// A controller with no journal, timing plans on a fresh wall clock.
    pub fn new() -> ChaosController {
        ChaosController {
            armed: AtomicBool::new(false),
            plan: RwLock::new(None),
            probes: Default::default(),
            injected: Default::default(),
            arms: AtomicU64::new(0),
            journal: None,
            clock: wall_clock(),
        }
    }

    /// The database's controller: arm/disarm events go to `journal`, and
    /// plans are timed on its clock.
    pub fn with_journal(journal: Arc<EventJournal>) -> ChaosController {
        ChaosController { clock: journal.clock().clone(), journal: Some(journal), ..Self::new() }
    }

    /// Arm a plan: reset all probe ordinals (so the injection sequence
    /// restarts from `k = 0`) and open the gate.
    pub fn arm(&self, plan: FaultPlan) {
        let mut slot = self.plan.write();
        for i in 0..8 {
            self.probes[i].store(0, Ordering::Relaxed);
            self.injected[i].store(0, Ordering::Relaxed);
        }
        self.arms.fetch_add(1, Ordering::Relaxed);
        let name = plan.name.clone();
        let windows = plan.windows.len();
        *slot = Some(Armed { plan, armed_at: self.clock.now() });
        self.armed.store(true, Ordering::Release);
        drop(slot);
        if let Some(j) = &self.journal {
            j.emit_with(Severity::Warn, "chaos", "chaos_armed", || {
                (
                    format!("fault plan {name} armed ({windows} windows)"),
                    vec![("plan", name.clone()), ("state", "armed".to_string())],
                )
            });
        }
    }

    /// Close the gate and drop the plan. Counters keep their final values
    /// until the next arm so a post-mortem scrape still sees them.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Release);
        let name = self.plan.write().take().map(|a| a.plan.name);
        if let Some(j) = &self.journal {
            j.emit_with(Severity::Info, "chaos", "chaos_disarmed", || {
                let name = name.clone().unwrap_or_else(|| "none".to_string());
                (
                    format!("fault plan {name} disarmed"),
                    vec![("plan", name), ("state", "disarmed".to_string())],
                )
            });
        }
    }

    /// Probe a fault site. Returns `Some(magnitude)` if the active plan
    /// injects a fault of this kind at this probe, `None` otherwise.
    /// Tenant-restricted windows are ignored here (only [`Self::blackout`]
    /// is tenant-aware — the storage engine has no tenant concept).
    #[inline]
    pub fn roll(&self, kind: FaultKind) -> Option<u64> {
        if !self.armed.load(Ordering::Relaxed) {
            return None;
        }
        self.roll_slow(kind)
    }

    #[cold]
    fn roll_slow(&self, kind: FaultKind) -> Option<u64> {
        let slot = self.plan.read();
        let armed = slot.as_ref()?;
        let rel_us = self.clock.now().saturating_sub(armed.armed_at);
        let w = armed
            .plan
            .windows
            .iter()
            .find(|w| w.kind == kind && w.tenant.is_none() && w.active_at(rel_us))?;
        let k = self.probes[kind.index()].fetch_add(1, Ordering::Relaxed);
        if u01(mix64(armed.plan.seed ^ kind.salt() ^ k)) < w.intensity {
            self.injected[kind.index()].fetch_add(1, Ordering::Relaxed);
            Some(w.magnitude)
        } else {
            None
        }
    }

    /// Is `tenant` inside an active blackout window? Probes and
    /// injections are counted under [`FaultKind::Blackout`].
    #[inline]
    pub fn blackout(&self, tenant: u16) -> bool {
        if !self.armed.load(Ordering::Relaxed) {
            return false;
        }
        self.blackout_slow(tenant)
    }

    #[cold]
    fn blackout_slow(&self, tenant: u16) -> bool {
        let slot = self.plan.read();
        let Some(armed) = slot.as_ref() else { return false };
        let rel_us = self.clock.now().saturating_sub(armed.armed_at);
        let Some(w) = armed.plan.windows.iter().find(|w| {
            w.kind == FaultKind::Blackout
                && w.active_at(rel_us)
                && w.tenant.map(|t| t == tenant).unwrap_or(true)
        }) else {
            return false;
        };
        let idx = FaultKind::Blackout.index();
        let k = self.probes[idx].fetch_add(1, Ordering::Relaxed);
        if u01(mix64(armed.plan.seed ^ FaultKind::Blackout.salt() ^ k)) < w.intensity {
            self.injected[idx].fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    pub fn injected_total(&self, kind: FaultKind) -> u64 {
        self.injected[kind.index()].load(Ordering::Relaxed)
    }

    pub fn status(&self) -> ChaosStatus {
        let slot = self.plan.read();
        let mut probes = [0u64; 8];
        let mut injected = [0u64; 8];
        for k in ALL_KINDS {
            probes[k.index()] = self.probes[k.index()].load(Ordering::Relaxed);
            injected[k.index()] = self.injected[k.index()].load(Ordering::Relaxed);
        }
        ChaosStatus {
            armed: self.armed.load(Ordering::Relaxed),
            plan: slot.as_ref().map(|a| a.plan.name.clone()),
            seed: slot.as_ref().map(|a| a.plan.seed).unwrap_or(0),
            elapsed_us: slot.as_ref().map_or(0, |a| self.clock.now().saturating_sub(a.armed_at)),
            arms: self.arms.load(Ordering::Relaxed),
            probes,
            injected,
        }
    }

    /// JSON body for `GET /chaos/status`.
    pub fn status_json(&self) -> Json {
        let st = self.status();
        let mut per_kind = Json::obj();
        for k in ALL_KINDS {
            per_kind = per_kind.set(
                k.name(),
                Json::obj()
                    .set("probes", st.probes[k.index()])
                    .set("injected", st.injected[k.index()]),
            );
        }
        Json::obj()
            .set("armed", st.armed)
            .set("plan", st.plan.map(Json::Str).unwrap_or(Json::Null))
            .set("seed", st.seed)
            .set("elapsed_us", st.elapsed_us)
            .set("arms", st.arms)
            .set("faults", per_kind)
    }
}

impl MetricsSource for ChaosController {
    fn collect(&self, buf: &mut MetricsBuf) {
        let st = self.status();
        buf.gauge(
            "bp_chaos_armed",
            "1 while a fault plan is armed, else 0.",
            &[],
            if st.armed { 1.0 } else { 0.0 },
        );
        buf.counter(
            "bp_chaos_arms_total",
            "Times a fault plan has been armed.",
            &[],
            st.arms as f64,
        );
        for k in ALL_KINDS {
            let labels = [("kind", k.name())];
            buf.counter(
                "bp_chaos_probes_total",
                "Fault-site probes evaluated, by fault kind.",
                &labels,
                st.probes[k.index()] as f64,
            );
            buf.counter(
                "bp_chaos_injected_total",
                "Faults actually injected, by fault kind.",
                &labels,
                st.injected[k.index()] as f64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultWindow;
    use bp_util::clock::sim_clock;

    #[test]
    fn disarmed_probes_are_inert() {
        let c = ChaosController::new();
        for _ in 0..100 {
            assert_eq!(c.roll(FaultKind::FsyncStall), None);
            assert!(!c.blackout(0));
        }
        let st = c.status();
        assert!(!st.armed);
        assert_eq!(st.probes, [0; 8]);
        assert_eq!(st.injected, [0; 8]);
    }

    #[test]
    fn same_seed_reproduces_identical_sequence() {
        let c = ChaosController::new();
        let plan = FaultPlan::scenario("error-burst", 42).unwrap();
        c.arm(plan.clone());
        let first: Vec<bool> =
            (0..500).map(|_| c.roll(FaultKind::InjectedError).is_some()).collect();
        let first_injected = c.injected_total(FaultKind::InjectedError);
        c.disarm();
        c.arm(plan);
        let second: Vec<bool> =
            (0..500).map(|_| c.roll(FaultKind::InjectedError).is_some()).collect();
        assert_eq!(first, second, "same seed, same plan ⇒ same sequence");
        assert_eq!(first_injected, c.injected_total(FaultKind::InjectedError));
        // A different seed gives a different sequence.
        c.arm(FaultPlan::scenario("error-burst", 43).unwrap());
        let third: Vec<bool> =
            (0..500).map(|_| c.roll(FaultKind::InjectedError).is_some()).collect();
        assert_ne!(first, third);
    }

    #[test]
    fn intensity_sets_injection_rate() {
        let c = ChaosController::new();
        c.arm(
            FaultPlan::new("half", 7)
                .with_window(FaultWindow::always(FaultKind::LatencySpike, 0.5, 123)),
        );
        let n = 10_000;
        let hits = (0..n)
            .filter(|_| c.roll(FaultKind::LatencySpike) == Some(123))
            .count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.03, "rate {rate}");
        assert_eq!(c.status().probes[FaultKind::LatencySpike.index()], n as u64);
        assert_eq!(c.injected_total(FaultKind::LatencySpike), hits as u64);
        // Other kinds untouched.
        assert_eq!(c.roll(FaultKind::FsyncStall), None);
        // A kind probe that finds no window does not consume an ordinal.
        assert_eq!(c.status().probes[FaultKind::FsyncStall.index()], 0);
    }

    #[test]
    fn time_windows_gate_injection() {
        let (sim, clock) = sim_clock();
        let c = ChaosController::with_journal(Arc::new(EventJournal::with_clock(clock)));
        c.arm(FaultPlan::new("late", 1).with_window(FaultWindow {
            kind: FaultKind::FsyncStall,
            start_us: 60_000_000, // 60s in the future
            end_us: 120_000_000,
            intensity: 1.0,
            magnitude: 999,
            tenant: None,
        }));
        assert_eq!(c.roll(FaultKind::FsyncStall), None, "window not yet open");
        sim.advance_to(59_999_999);
        assert_eq!(c.roll(FaultKind::FsyncStall), None, "window opens at 60 s");
        sim.advance_to(60_000_000);
        assert_eq!(c.roll(FaultKind::FsyncStall), Some(999), "window open");
        assert_eq!(c.status().elapsed_us, 60_000_000);
        sim.advance_to(120_000_000);
        assert_eq!(c.roll(FaultKind::FsyncStall), None, "window past");
    }

    #[test]
    fn blackout_is_tenant_scoped() {
        let c = ChaosController::new();
        c.arm(FaultPlan::new("b", 5).with_window(FaultWindow {
            kind: FaultKind::Blackout,
            start_us: 0,
            end_us: u64::MAX,
            intensity: 1.0,
            magnitude: 0,
            tenant: Some(1),
        }));
        assert!(c.blackout(1));
        assert!(!c.blackout(0));
        assert!(c.injected_total(FaultKind::Blackout) >= 1);
        // A tenant-less blackout hits everyone.
        c.arm(
            FaultPlan::new("all", 5)
                .with_window(FaultWindow::always(FaultKind::Blackout, 1.0, 0)),
        );
        assert!(c.blackout(0) && c.blackout(7));
        // Tenant-restricted windows never fire through roll().
        c.arm(FaultPlan::new("t", 5).with_window(FaultWindow {
            kind: FaultKind::LatencySpike,
            start_us: 0,
            end_us: u64::MAX,
            intensity: 1.0,
            magnitude: 10,
            tenant: Some(0),
        }));
        assert_eq!(c.roll(FaultKind::LatencySpike), None);
    }

    #[test]
    fn disarm_keeps_counters_until_rearm() {
        let c = ChaosController::new();
        c.arm(
            FaultPlan::new("x", 9)
                .with_window(FaultWindow::always(FaultKind::InjectedError, 1.0, 0)),
        );
        for _ in 0..10 {
            c.roll(FaultKind::InjectedError);
        }
        c.disarm();
        assert!(!c.status().armed);
        assert_eq!(c.injected_total(FaultKind::InjectedError), 10);
        assert_eq!(c.status().plan, None);
        c.arm(
            FaultPlan::new("y", 9)
                .with_window(FaultWindow::always(FaultKind::InjectedError, 1.0, 0)),
        );
        assert_eq!(c.injected_total(FaultKind::InjectedError), 0, "arm resets");
        assert_eq!(c.status().arms, 2);
    }

    #[test]
    fn arm_and_disarm_journaled() {
        let j = Arc::new(EventJournal::new());
        let c = ChaosController::with_journal(j.clone());
        c.arm(FaultPlan::scenario("error-burst", 1).unwrap());
        c.disarm();
        let events = j.all();
        assert_eq!(events.len(), 2, "{events:?}");
        assert_eq!(events[0].kind, "chaos_armed");
        assert_eq!(events[0].severity, Severity::Warn);
        assert_eq!(events[0].field("plan"), Some("error-burst"));
        assert_eq!(events[1].kind, "chaos_disarmed");
        assert_eq!(events[1].field("plan"), Some("error-burst"));
    }

    #[test]
    fn metrics_expose_chaos_counters() {
        let c = ChaosController::new();
        c.arm(
            FaultPlan::new("m", 3)
                .with_window(FaultWindow::always(FaultKind::DeadlockStorm, 1.0, 0)),
        );
        for _ in 0..5 {
            c.roll(FaultKind::DeadlockStorm);
        }
        let mut buf = MetricsBuf::new();
        c.collect(&mut buf);
        let samples = buf.into_samples();
        let find = |name: &str, kind: Option<&str>| {
            samples
                .iter()
                .find(|s| {
                    s.name == name
                        && kind
                            .map(|k| s.labels.iter().any(|(_, v)| v == k))
                            .unwrap_or(true)
                })
                .unwrap_or_else(|| panic!("{name} {kind:?}"))
        };
        let armed = find("bp_chaos_armed", None);
        assert_eq!(armed.value, bp_obs::MetricValue::Gauge(1.0));
        let injected = find("bp_chaos_injected_total", Some("deadlock_storm"));
        assert_eq!(injected.value, bp_obs::MetricValue::Counter(5.0));
        // All kinds present.
        let kinds = samples
            .iter()
            .filter(|s| s.name == "bp_chaos_injected_total")
            .count();
        assert_eq!(kinds, 8);
    }
}
