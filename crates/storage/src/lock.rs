//! Hierarchical strict two-phase locking with wait-die deadlock avoidance.
//!
//! The engine takes intention locks at table granularity and S/X locks at row
//! granularity. This is what makes the paper's §2.2.2 observation emerge
//! naturally: "switching the workload mixture to a read-heavy workload will
//! boost the DBMS's throughput due to reduced lock contention".
//!
//! Deadlock policy is **wait-die**: an older transaction may wait for a
//! younger one, but a younger transaction requesting a lock held by an older
//! one is aborted immediately (`StorageError::Deadlock`). A configurable
//! timeout backstops pathological waits. Transaction age = transaction id
//! (monotonically increasing), so "older" means a smaller id.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use bp_chaos::{ChaosController, FaultKind};
use bp_obs::{EventJournal, Severity};
use bp_util::sync::{Condvar, Mutex};

use crate::error::{Result, StorageError};
use crate::metrics::ServerMetrics;

/// Transaction identifier; smaller = older.
pub type TxnId = u64;

/// Lock modes. Intention modes are only used at table granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Intention shared (table): row-level S locks will be taken.
    IntentionShared,
    /// Intention exclusive (table): row-level X locks will be taken.
    IntentionExclusive,
    /// Shared.
    Shared,
    /// Exclusive.
    Exclusive,
}

impl LockMode {
    /// Standard multigranularity compatibility matrix (no SIX mode).
    pub fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        matches!(
            (self, other),
            (IntentionShared, IntentionShared)
                | (IntentionShared, IntentionExclusive)
                | (IntentionExclusive, IntentionShared)
                | (IntentionExclusive, IntentionExclusive)
                | (IntentionShared, Shared)
                | (Shared, IntentionShared)
                | (Shared, Shared)
        )
    }

    /// True if holding `self` implies the rights of `want`.
    pub fn covers(self, want: LockMode) -> bool {
        use LockMode::*;
        match (self, want) {
            (a, b) if a == b => true,
            (Exclusive, _) => true,
            (Shared, IntentionShared) => true,
            (IntentionExclusive, IntentionShared) => true,
            _ => false,
        }
    }
}

/// What is being locked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockTarget {
    Table(u32),
    Row(u32, u64),
}

#[derive(Debug)]
struct LockState {
    /// Granted holders: (txn, mode). A txn appears at most once.
    granted: Vec<(TxnId, LockMode)>,
    /// Number of threads currently blocked on this entry.
    waiters: usize,
}

struct LockEntry {
    state: Mutex<LockState>,
    cond: Condvar,
}

/// The lock table.
pub struct LockManager {
    entries: Mutex<HashMap<LockTarget, Arc<LockEntry>>>,
    timeout: Duration,
    metrics: Arc<ServerMetrics>,
    chaos: Arc<ChaosController>,
    journal: Option<Arc<EventJournal>>,
}

impl LockManager {
    pub fn new(
        timeout: Duration,
        metrics: Arc<ServerMetrics>,
        chaos: Arc<ChaosController>,
    ) -> LockManager {
        LockManager {
            entries: Mutex::new(HashMap::new()),
            timeout,
            metrics,
            chaos,
            journal: None,
        }
    }

    /// Attach the event journal (deadlock-victim events) — builder style so
    /// the plain constructor keeps working everywhere.
    pub fn with_journal(mut self, journal: Arc<EventJournal>) -> LockManager {
        self.journal = Some(journal);
        self
    }

    /// Journal a wait-die (or chaos-storm) victim pick.
    fn note_victim(&self, txn: TxnId, holder: TxnId) {
        if let Some(j) = &self.journal {
            j.emit_with(Severity::Debug, "storage", "deadlock_victim", || {
                let mut fields = vec![("txn", txn.to_string()), ("holder", holder.to_string())];
                let tid = bp_obs::current_trace();
                if tid != 0 {
                    fields.push(("trace_id", bp_obs::format_trace_id(tid)));
                }
                (
                    format!("txn {txn} aborted: wait-die victim behind txn {holder}"),
                    fields,
                )
            });
        }
    }

    fn entry(&self, target: LockTarget) -> Arc<LockEntry> {
        let mut map = self.entries.lock();
        map.entry(target)
            .or_insert_with(|| {
                Arc::new(LockEntry {
                    state: Mutex::new(LockState { granted: Vec::new(), waiters: 0 }),
                    cond: Condvar::new(),
                })
            })
            .clone()
    }

    /// Record a finished lock wait: the engine-wide counters plus the
    /// per-request span stage accumulator (drained by the worker loop).
    fn note_wait(&self, wait_start: Option<std::time::Instant>) {
        let Some(wait_start) = wait_start else { return };
        let waited = wait_start.elapsed();
        self.metrics.record_lock_wait(waited);
        bp_obs::add_lock_wait_us(waited.as_micros() as u64);
    }

    /// Acquire (or upgrade to) `mode` on `target` for transaction `txn`.
    ///
    /// Returns `Ok(true)` if a new lock or upgrade was granted, `Ok(false)`
    /// if the transaction already held a covering lock (caller should not
    /// record it again).
    pub fn acquire(&self, txn: TxnId, target: LockTarget, mode: LockMode) -> Result<bool> {
        // Chaos probes before touching the lock table: a transient error
        // models a dropped connection / internal engine hiccup; a deadlock
        // storm models pathological contention by forcing a wait-die
        // victim abort. Both are retryable and both leave the lock table
        // untouched, exactly like a real abort-before-grant.
        if self.chaos.roll(FaultKind::InjectedError).is_some() {
            return Err(StorageError::Injected { site: "lock" });
        }
        if self.chaos.roll(FaultKind::DeadlockStorm).is_some() {
            self.metrics.inc_deadlocks();
            self.note_victim(txn, txn);
            return Err(StorageError::Deadlock { waiting_for: txn });
        }
        let entry = self.entry(target);
        let mut state = entry.state.lock();
        // Set when the first wait begins: an uncontended grant reads no clock.
        let mut wait_start = None;
        loop {
            // Already hold something?
            if let Some(pos) = state.granted.iter().position(|(t, _)| *t == txn) {
                let held = state.granted[pos].1;
                if held.covers(mode) {
                    return Ok(false);
                }
                // Upgrade: must be compatible with all *other* holders.
                let others_ok = state
                    .granted
                    .iter()
                    .all(|(t, m)| *t == txn || mode.compatible(*m));
                if others_ok {
                    state.granted[pos].1 = upgrade_result(held, mode);
                    self.note_wait(wait_start);
                    return Ok(true);
                }
            } else {
                let all_ok = state.granted.iter().all(|(_, m)| mode.compatible(*m));
                if all_ok {
                    state.granted.push((txn, mode));
                    self.note_wait(wait_start);
                    return Ok(true);
                }
            }

            // Conflict. Wait-die: die if any incompatible holder is older.
            let oldest_conflicting = state
                .granted
                .iter()
                .filter(|(t, m)| *t != txn && !mode.compatible(*m))
                .map(|(t, _)| *t)
                .min();
            if let Some(holder) = oldest_conflicting {
                if holder < txn {
                    self.metrics.inc_deadlocks();
                    self.note_victim(txn, holder);
                    self.note_wait(wait_start);
                    return Err(StorageError::Deadlock { waiting_for: holder });
                }
            }

            // Older than all conflicting holders: wait.
            wait_start.get_or_insert_with(std::time::Instant::now);
            state.waiters += 1;
            let timed_out = entry
                .cond
                .wait_for(&mut state, self.timeout)
                .timed_out();
            state.waiters -= 1;
            if timed_out {
                self.metrics.inc_lock_timeouts();
                self.note_wait(wait_start);
                return Err(StorageError::LockTimeout);
            }
        }
    }

    /// Release every lock in `held` for `txn` and wake waiters.
    pub fn release_all(&self, txn: TxnId, held: &[LockTarget]) {
        for &target in held {
            self.release(txn, target);
        }
    }

    /// Release one lock.
    pub fn release(&self, txn: TxnId, target: LockTarget) {
        let entry = {
            let map = self.entries.lock();
            match map.get(&target) {
                Some(e) => e.clone(),
                None => return,
            }
        };
        let mut state = entry.state.lock();
        state.granted.retain(|(t, _)| *t != txn);
        let empty = state.granted.is_empty() && state.waiters == 0;
        entry.cond.notify_all();
        drop(state);
        if empty {
            // Garbage-collect the entry if still empty under the map lock.
            // The strong-count check is essential: `entry()` clones the Arc
            // while holding the map lock, so a count of exactly 2 (map +
            // ours) proves no in-flight acquirer holds this entry. Removing
            // an entry another thread is about to lock would let a fresh
            // entry be created for the same target — two independent "lock
            // tables" for one row, i.e. lost updates.
            let mut map = self.entries.lock();
            if let Some(e) = map.get(&target) {
                if Arc::ptr_eq(e, &entry) && Arc::strong_count(e) == 2 {
                    let st = e.state.lock();
                    if st.granted.is_empty() && st.waiters == 0 {
                        drop(st);
                        map.remove(&target);
                    }
                }
            }
        }
    }

    /// Number of live lock entries (for tests / introspection).
    pub fn entry_count(&self) -> usize {
        self.entries.lock().len()
    }
}

/// Result mode when a transaction holding `held` upgrades to `want`.
fn upgrade_result(held: LockMode, want: LockMode) -> LockMode {
    use LockMode::*;
    match (held, want) {
        (Shared, Exclusive) | (Exclusive, _) => Exclusive,
        (IntentionShared, m) => m,
        (IntentionExclusive, Shared) => Exclusive, // IX + S = SIX ~ X (conservative)
        (IntentionExclusive, Exclusive) => Exclusive,
        (h, w) => {
            if w.covers(h) {
                w
            } else {
                h
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn mgr() -> LockManager {
        LockManager::new(
            Duration::from_millis(200),
            Arc::new(ServerMetrics::new()),
            Arc::new(ChaosController::new()),
        )
    }

    const T: LockTarget = LockTarget::Table(1);
    const R: LockTarget = LockTarget::Row(1, 10);

    #[test]
    fn shared_locks_coexist() {
        let m = mgr();
        assert!(m.acquire(1, R, LockMode::Shared).unwrap());
        assert!(m.acquire(2, R, LockMode::Shared).unwrap());
        m.release(1, R);
        m.release(2, R);
        assert_eq!(m.entry_count(), 0);
    }

    #[test]
    fn reentrant_acquire_is_noop() {
        let m = mgr();
        assert!(m.acquire(1, R, LockMode::Exclusive).unwrap());
        assert!(!m.acquire(1, R, LockMode::Exclusive).unwrap());
        assert!(!m.acquire(1, R, LockMode::Shared).unwrap()); // X covers S
    }

    #[test]
    fn upgrade_s_to_x_when_sole_holder() {
        let m = mgr();
        m.acquire(1, R, LockMode::Shared).unwrap();
        assert!(m.acquire(1, R, LockMode::Exclusive).unwrap());
        // Now another txn's S must conflict -> younger dies.
        let err = m.acquire(2, R, LockMode::Shared).unwrap_err();
        assert!(matches!(err, StorageError::Deadlock { .. }));
    }

    #[test]
    fn wait_die_younger_dies() {
        let m = mgr();
        m.acquire(1, R, LockMode::Exclusive).unwrap(); // older txn holds X
        let err = m.acquire(2, R, LockMode::Exclusive).unwrap_err();
        assert_eq!(err, StorageError::Deadlock { waiting_for: 1 });
    }

    #[test]
    fn wait_die_older_waits_and_gets_lock() {
        let m = Arc::new(mgr());
        m.acquire(5, R, LockMode::Exclusive).unwrap(); // younger holds X
        let m2 = m.clone();
        let released = Arc::new(AtomicBool::new(false));
        let released2 = released.clone();
        let h = std::thread::spawn(move || {
            // Older txn 1 must block until release, then succeed.
            m2.acquire(1, R, LockMode::Exclusive).unwrap();
            assert!(released2.load(Ordering::SeqCst), "acquired before release");
        });
        std::thread::sleep(Duration::from_millis(30));
        released.store(true, Ordering::SeqCst);
        m.release(5, R);
        h.join().unwrap();
    }

    #[test]
    fn timeout_fires() {
        let metrics = Arc::new(ServerMetrics::new());
        let m = LockManager::new(
            Duration::from_millis(40),
            metrics.clone(),
            Arc::new(ChaosController::new()),
        );
        m.acquire(5, R, LockMode::Exclusive).unwrap();
        // Older txn 1 waits but holder never releases -> timeout.
        let err = m.acquire(1, R, LockMode::Exclusive).unwrap_err();
        assert_eq!(err, StorageError::LockTimeout);
        assert_eq!(metrics.snapshot().lock_timeouts, 1);
    }

    #[test]
    fn intention_locks_compatible() {
        let m = mgr();
        m.acquire(1, T, LockMode::IntentionShared).unwrap();
        m.acquire(2, T, LockMode::IntentionExclusive).unwrap();
        m.acquire(3, T, LockMode::IntentionShared).unwrap();
    }

    #[test]
    fn table_s_blocks_ix() {
        let m = mgr();
        m.acquire(1, T, LockMode::Shared).unwrap(); // scanner
        let err = m.acquire(2, T, LockMode::IntentionExclusive).unwrap_err();
        assert!(matches!(err, StorageError::Deadlock { .. }));
    }

    #[test]
    fn compatibility_matrix() {
        use LockMode::*;
        assert!(IntentionShared.compatible(Shared));
        assert!(!IntentionExclusive.compatible(Shared));
        assert!(!Shared.compatible(Exclusive));
        assert!(!Exclusive.compatible(Exclusive));
        assert!(IntentionExclusive.compatible(IntentionExclusive));
    }

    #[test]
    fn release_all_wakes_waiters() {
        let m = Arc::new(mgr());
        m.acquire(9, R, LockMode::Exclusive).unwrap();
        m.acquire(9, T, LockMode::IntentionExclusive).unwrap();
        let m2 = m.clone();
        let h = std::thread::spawn(move || {
            m2.acquire(1, R, LockMode::Shared).unwrap();
        });
        std::thread::sleep(Duration::from_millis(20));
        m.release_all(9, &[R, T]);
        h.join().unwrap();
        assert!(m.entry_count() <= 1);
    }

    #[test]
    fn deadlock_victim_journaled() {
        let j = Arc::new(EventJournal::new());
        let m = mgr().with_journal(j.clone());
        m.acquire(1, R, LockMode::Exclusive).unwrap();
        let err = m.acquire(2, R, LockMode::Exclusive).unwrap_err();
        assert_eq!(err, StorageError::Deadlock { waiting_for: 1 });
        let events = j.all();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "deadlock_victim");
        assert!(events[0].fields.contains(&("txn", "2".to_string())));
        assert!(events[0].fields.contains(&("holder", "1".to_string())));
    }

    #[test]
    fn lock_wait_metrics_recorded() {
        let metrics = Arc::new(ServerMetrics::new());
        let m = Arc::new(LockManager::new(
            Duration::from_millis(500),
            metrics.clone(),
            Arc::new(ChaosController::new()),
        ));
        m.acquire(5, R, LockMode::Exclusive).unwrap();
        let m2 = m.clone();
        let h = std::thread::spawn(move || {
            m2.acquire(1, R, LockMode::Shared).unwrap();
        });
        std::thread::sleep(Duration::from_millis(30));
        m.release(5, R);
        h.join().unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.lock_waits, 1);
        assert!(snap.lock_wait_micros >= 20_000, "waited {}", snap.lock_wait_micros);
    }
}
