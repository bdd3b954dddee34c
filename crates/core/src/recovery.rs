//! The recovery supervisor: a watchdog thread that restarts a crashed
//! storage engine and takes periodic checkpoints.
//!
//! The storage engine never recovers itself — a crash (injected via the
//! chaos layer's `ServerCrash` fault or, in a real deployment, a process
//! kill) leaves every operation failing with the retryable
//! `StorageError::Crashed` until *someone* runs [`Database::recover`].
//! That someone is this supervisor: armed via `POST /recovery`, it polls
//! the crashed flag, replays the redo log when the flag trips, and takes
//! periodic checkpoints so replay stays short. Client-side resilience
//! (breaker + retry budget) rides through the outage; the workload resumes
//! as soon as recovery completes.

use std::sync::atomic::{AtomicU64, Ordering};

use bp_storage::Database;
use bp_util::clock::Micros;
use bp_util::sync::Mutex;
use bp_util::Periodic;

/// Supervisor tuning. The defaults poll fast enough that a crash costs
/// milliseconds of downtime, and checkpoint rarely enough that the
/// checkpointer never competes with the workload for the redo mutex.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryConfig {
    /// How often the watchdog checks the crashed flag, µs.
    pub poll_interval_us: u64,
    /// Periodic checkpoint cadence, µs; `0` disables the checkpointer
    /// (recovery then replays from the last explicit checkpoint, or the
    /// whole log).
    pub checkpoint_interval_us: u64,
}

impl Default for RecoveryConfig {
    fn default() -> RecoveryConfig {
        RecoveryConfig { poll_interval_us: 5_000, checkpoint_interval_us: 2_000_000 }
    }
}

/// Shared supervisor state: config, the running watchdog, and its
/// counters. One per controller lineage (all clones share it), same
/// pattern as `SloHandle`.
#[derive(Default)]
pub struct RecoveryHandle {
    cfg: Mutex<Option<RecoveryConfig>>,
    /// The `bp-recovery` thread; `None` while disarmed.
    task: Mutex<Option<Periodic>>,
    recoveries_run: AtomicU64,
    checkpoints_run: AtomicU64,
    ticks: AtomicU64,
}

impl RecoveryHandle {
    pub fn is_active(&self) -> bool {
        self.task.lock().is_some()
    }

    pub fn config(&self) -> Option<RecoveryConfig> {
        self.cfg.lock().clone()
    }

    /// Recoveries this supervisor has executed (distinct from the
    /// engine-side `bp_recovery_recoveries_total`, which also counts
    /// manual `Database::recover` calls).
    pub fn recoveries_run(&self) -> u64 {
        self.recoveries_run.load(Ordering::Relaxed)
    }

    pub fn checkpoints_run(&self) -> u64 {
        self.checkpoints_run.load(Ordering::Relaxed)
    }

    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Arm: store the config and keep `task` as the watchdog, stopping the
    /// one it replaces.
    pub(crate) fn arm(&self, cfg: &RecoveryConfig, task: Periodic) {
        *self.cfg.lock() = Some(cfg.clone());
        *self.task.lock() = Some(task);
    }

    /// Stop the running watchdog, if any; returns once its thread has ended.
    pub(crate) fn disarm(&self) {
        *self.task.lock() = None;
    }
}

/// One watchdog poll: recover a crashed engine, otherwise checkpoint when
/// one is due. [`Controller::start_recovery`](crate::Controller::start_recovery)
/// runs it every `poll_interval_us` on the `bp-recovery` thread. Due is
/// `checkpoint_interval_us` after `last_checkpoint` on the database's clock.
pub(crate) fn recovery_tick(
    db: &Database,
    handle: &RecoveryHandle,
    cfg: &RecoveryConfig,
    last_checkpoint: &mut Micros,
) {
    if db.is_crashed() {
        // `recover()` journals recovery_begin/recovery_complete and bumps
        // the engine-side stats; the handle only counts that this
        // particular watchdog did the work.
        let _ = db.recover();
        handle.recoveries_run.fetch_add(1, Ordering::Relaxed);
        // A fresh checkpoint right after recovery bounds the next replay
        // to the post-crash tail.
        if db.checkpoint().is_some() {
            handle.checkpoints_run.fetch_add(1, Ordering::Relaxed);
        }
        *last_checkpoint = db.clock().now();
    } else if cfg.checkpoint_interval_us > 0
        && db.clock().now().saturating_sub(*last_checkpoint) >= cfg.checkpoint_interval_us
    {
        if db.checkpoint().is_some() {
            handle.checkpoints_run.fetch_add(1, Ordering::Relaxed);
        }
        *last_checkpoint = db.clock().now();
    }
    handle.ticks.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn handle_rearm_leaves_one_watchdog_and_disarm_stops_it() {
        let task = |n: &Arc<AtomicU64>| {
            let n = n.clone();
            Periodic::spawn("t-recovery", 2_000, move || {
                n.fetch_add(1, Ordering::Relaxed);
                true
            })
        };
        let h = RecoveryHandle::default();
        assert!(!h.is_active());
        assert_eq!(h.config(), None);
        let (first, second) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        h.arm(&RecoveryConfig::default(), task(&first));
        assert!(h.is_active());
        assert_eq!(h.config(), Some(RecoveryConfig::default()));
        // Re-arm: the first watchdog is gone when `arm` returns.
        let quick = RecoveryConfig { poll_interval_us: 1_000, checkpoint_interval_us: 0 };
        h.arm(&quick, task(&second));
        let first_at_rearm = first.load(Ordering::Relaxed);
        assert_eq!(h.config(), Some(quick));
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(first.load(Ordering::Relaxed), first_at_rearm, "replaced watchdog still polling");
        assert!(second.load(Ordering::Relaxed) > 0, "new watchdog not polling");
        h.disarm();
        assert!(!h.is_active());
        let second_at_disarm = second.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(second.load(Ordering::Relaxed), second_at_disarm, "disarmed watchdog polling");
    }

    #[test]
    fn checkpoints_fall_due_on_the_database_clock() {
        use bp_chaos::{FaultKind, FaultPlan, FaultWindow};
        let (sim, clock) = bp_util::clock::sim_clock();
        let db = Database::with_clock(bp_storage::Personality::test(), clock);
        let (handle, mut last) = (RecoveryHandle::default(), db.clock().now());
        let cfg = RecoveryConfig { poll_interval_us: 100, checkpoint_interval_us: 1_000 };
        let mut tick_at = |t| {
            sim.advance_to(t);
            recovery_tick(&db, &handle, &cfg, &mut last);
            (handle.recoveries_run(), handle.checkpoints_run())
        };
        assert_eq!(tick_at(999), (0, 0));
        assert_eq!(tick_at(1_000), (0, 1));
        // A crash: the tick at 1,500 µs recovers and checkpoints at once,
        // and the next checkpoint is due one interval after that one.
        db.chaos().arm(FaultPlan::new("crash", 1).with_window(FaultWindow::always(
            FaultKind::ServerCrash,
            1.0,
            0,
        )));
        let mut s = db.session();
        s.begin().unwrap();
        assert_eq!(s.commit(), Err(bp_storage::StorageError::Crashed));
        db.chaos().disarm();
        assert_eq!(tick_at(1_500), (1, 2));
        assert_eq!(tick_at(2_000), (1, 2), "not due from the checkpoint before the crash");
        assert_eq!(tick_at(2_499), (1, 2));
        assert_eq!(tick_at(2_500), (1, 3));
    }
}
