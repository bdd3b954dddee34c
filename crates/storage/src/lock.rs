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
//! timeout backstops pathological waits; it runs on the database's clock,
//! like the wait it bounds. Transaction age = transaction id (monotonically
//! increasing), so "older" means a smaller id.

use std::collections::hash_map::Entry;
use std::hash::BuildHasher;
use std::sync::Arc;
use std::time::Duration;

use bp_chaos::{ChaosController, FaultKind};
use bp_obs::{EventJournal, Severity};
use bp_util::clock::{wall_clock, SharedClock};
use bp_util::hash::{MixMap, MixState};
use bp_util::sync::{CachePadded, Condvar, Mutex};

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

/// Shards of the lock table; a lock cycle touches exactly one.
const SHARDS: usize = 64;

/// Shard of `target`, from hash bits the shard map's own probe does not use
/// (low bits pick its bucket, the top seven tag it).
fn shard_of(target: LockTarget) -> usize {
    (MixState::default().hash_one(target) >> 48) as usize % SHARDS
}

/// One target's granted holders; a txn appears at most once. The first is
/// inline (an unshared lock never allocates); `rest` is empty without it.
#[derive(Debug, Default)]
struct LockState {
    first: Option<(TxnId, LockMode)>,
    rest: Vec<(TxnId, LockMode)>,
    /// Threads blocked on this target; they pin the entry in its shard map.
    waiters: u32,
}

impl LockState {
    /// Grant or upgrade to `mode` if every other holder allows it (`true`;
    /// `false` when already covered), else name the oldest holder in the way.
    fn request(&mut self, txn: TxnId, mode: LockMode) -> std::result::Result<bool, TxnId> {
        let (mut mine, mut blocker) = (None, None::<TxnId>);
        for h in self.first.iter_mut().chain(&mut self.rest) {
            if h.0 == txn {
                mine = Some(h);
            } else if !mode.compatible(h.1) {
                blocker = Some(blocker.map_or(h.0, |b| b.min(h.0)));
            }
        }
        match (mine, blocker) {
            (Some(h), _) if h.1.covers(mode) => return Ok(false),
            (_, Some(holder)) => return Err(holder),
            (Some(h), None) => h.1 = upgrade_result(h.1, mode),
            (None, None) => match self.first {
                None => self.first = Some((txn, mode)),
                Some(_) => self.rest.push((txn, mode)),
            },
        }
        Ok(true)
    }
}

/// An entry is created, granted, waited on and removed under this one mutex:
/// none can vanish under a thread on its way to it. Waiters share the condvar.
struct Shard {
    map: Mutex<MixMap<LockTarget, LockState>>,
    cond: Condvar,
}

/// The lock table.
pub struct LockManager {
    shards: [CachePadded<Shard>; SHARDS],
    timeout_us: u64,
    /// Times waits and their timeout; the database sets its own.
    pub(crate) clock: SharedClock,
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
            shards: std::array::from_fn(|_| {
                CachePadded::new(Shard { map: Mutex::default(), cond: Condvar::new() })
            }),
            timeout_us: timeout.as_micros() as u64,
            clock: wall_clock(),
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
        let shard = &self.shards[shard_of(target)];
        let mut map = shard.map.lock();
        // Set when the first wait begins: an uncontended grant reads no clock.
        let mut wait_start = None;
        let outcome = loop {
            let state = map.entry(target).or_default();
            let holder = match state.request(txn, mode) {
                Ok(granted) => break Ok(granted),
                Err(holder) => holder,
            };
            // Conflict — so the entry has holders and stays, however this
            // call ends. Wait-die: die if the oldest one in the way is older.
            if holder < txn {
                self.metrics.inc_deadlocks();
                self.note_victim(txn, holder);
                break Err(StorageError::Deadlock { waiting_for: holder });
            }
            // Older than all of them: wait, up to one deadline on the clock.
            // A wake-up may be a neighbour's release and must not start the
            // timeout again; one before the deadline just waits again.
            let now = self.clock.now();
            let deadline = *wait_start.get_or_insert(now) + self.timeout_us;
            if now >= deadline {
                self.metrics.inc_lock_timeouts();
                break Err(StorageError::LockTimeout);
            }
            state.waiters += 1;
            shard.cond.wait_for(&mut map, Duration::from_micros(deadline - now));
            map.get_mut(&target).expect("waiters pin the entry").waiters -= 1;
        };
        drop(map);
        // A finished wait: the engine-wide counters and the request's span stage accumulator.
        if let Some(start) = wait_start {
            let waited = self.clock.now().saturating_sub(start);
            self.metrics.record_lock_wait(waited);
            bp_obs::add_lock_wait_us(waited);
        }
        outcome
    }

    /// Release every lock in `held` for `txn` and wake waiters.
    pub fn release_all(&self, txn: TxnId, held: &[LockTarget]) {
        for &target in held {
            self.release(txn, target);
        }
    }

    /// Release one lock and, in the same critical section, the entry nobody
    /// holds or waits for. Notifies only counted waiters: with none, the
    /// wake-up would still be a syscall.
    pub fn release(&self, txn: TxnId, target: LockTarget) {
        let shard = &self.shards[shard_of(target)];
        let mut map = shard.map.lock();
        let Entry::Occupied(mut entry) = map.entry(target) else { return };
        let state = entry.get_mut();
        if state.first.is_some_and(|(t, _)| t == txn) {
            state.first = state.rest.pop();
        } else {
            state.rest.retain(|(t, _)| *t != txn);
        }
        if state.waiters > 0 {
            shard.cond.notify_all();
        } else if state.first.is_none() {
            entry.remove();
        }
    }

    /// Number of live lock entries (for tests / introspection).
    pub fn entry_count(&self) -> usize {
        self.shards.iter().map(|s| s.map.lock().len()).sum()
    }
}

/// Result mode when a transaction holding `held` upgrades to `want`.
pub(crate) fn upgrade_result(held: LockMode, want: LockMode) -> LockMode {
    use LockMode::*;
    match (held, want) {
        (Shared, Exclusive) | (Exclusive, _) => Exclusive,
        (IntentionShared, m) => m,
        // S + IX = SIX ~ X (conservative), in either order: a scan that
        // goes on to write rows must keep the next scan out.
        (IntentionExclusive, Shared) | (Shared, IntentionExclusive) => Exclusive,
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
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::thread::JoinHandle;
    use std::time::Instant;

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

    /// S then IX, or IX then S, on one table is SIX, held as X: another
    /// transaction's scan (S) must not read the rows the holder writes.
    #[test]
    fn shared_and_intention_exclusive_make_exclusive_in_either_order() {
        use LockMode::*;
        assert_eq!(upgrade_result(Shared, IntentionExclusive), Exclusive);
        assert_eq!(upgrade_result(IntentionExclusive, Shared), Exclusive);
        for (first, then) in [(Shared, IntentionExclusive), (IntentionExclusive, Shared)] {
            let m = mgr();
            m.acquire(1, T, first).unwrap();
            assert!(m.acquire(1, T, then).unwrap());
            assert!(!m.acquire(1, T, Exclusive).unwrap(), "{first:?} + {then:?} is held as X");
            let err = m.acquire(2, T, Shared).unwrap_err();
            assert_eq!(err, StorageError::Deadlock { waiting_for: 1 }, "{first:?} + {then:?}");
        }
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
        assert_eq!(events[0].field("txn"), Some("2"));
        assert_eq!(events[0].field("holder"), Some("1"));
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

    /// The `n` lowest rows of table 1 whose shard is one of `shards`.
    fn rows_in_shards(shards: &[usize], n: usize) -> Vec<LockTarget> {
        let rows = (0..).map(|r| LockTarget::Row(1, r));
        rows.filter(|&t| shards.contains(&shard_of(t))).take(n).collect()
    }

    /// Two threads pass an X lock on `target` back and forth, holding it for
    /// 5 ms a turn: txn ids fall, so the one asking is the older and waits,
    /// and every release finds a waiter and notifies the shard.
    /// Runs until `stop`, or 2 s so that a waiter it keeps awake still ends.
    fn chatter(
        m: &Arc<LockManager>,
        target: LockTarget,
        stop: &Arc<AtomicBool>,
    ) -> Vec<JoinHandle<()>> {
        let next_id = Arc::new(AtomicU64::new(1 << 40));
        let turns = || {
            let (m, stop, next_id) = (m.clone(), stop.clone(), next_id.clone());
            std::thread::spawn(move || {
                let start = Instant::now();
                while !stop.load(Ordering::SeqCst) && start.elapsed() < Duration::from_secs(2) {
                    let id = next_id.fetch_sub(1, Ordering::SeqCst);
                    if m.acquire(id, target, LockMode::Exclusive).is_err() {
                        continue; // overtaken between id and request: ask again, older
                    }
                    std::thread::sleep(Duration::from_millis(5));
                    m.release(id, target);
                }
            })
        };
        vec![turns(), turns()]
    }

    #[test]
    fn shard_neighbours_share_wakeups_not_timeouts_or_grants() {
        let m = Arc::new(LockManager::new(
            Duration::from_millis(60),
            Arc::new(ServerMetrics::new()),
            Arc::new(ChaosController::new()),
        ));
        let [a, b] = rows_in_shards(&[shard_of(R)], 2)[..] else { panic!("two rows") };
        let stop = Arc::new(AtomicBool::new(false));
        m.acquire(5, a, LockMode::Exclusive).unwrap(); // the younger txn holds `a`
        let neighbours = chatter(&m, b, &stop);

        // Deadline, not restart: woken every 5 ms by `b`'s releases, the
        // older txn still gives up 60 ms after it began to wait.
        let start = Instant::now();
        let err = m.acquire(1, a, LockMode::Exclusive).unwrap_err();
        let waited = start.elapsed();
        assert_eq!(err, StorageError::LockTimeout);
        assert!(
            waited >= Duration::from_millis(60) && waited <= Duration::from_millis(150),
            "timed out after {waited:?}"
        );

        // A neighbour's release is not a grant: with the same chatter going,
        // the waiter gets through only once the holder has let go.
        let released = Arc::new(AtomicBool::new(false));
        let (m2, released2) = (m.clone(), released.clone());
        let holder = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            released2.store(true, Ordering::SeqCst);
            m2.release(5, a);
        });
        m.acquire(1, a, LockMode::Exclusive).unwrap();
        assert!(released.load(Ordering::SeqCst), "granted while the holder still held");
        m.release(1, a);

        stop.store(true, Ordering::SeqCst);
        holder.join().unwrap();
        neighbours.into_iter().for_each(|h| h.join().unwrap());
        assert_eq!(m.entry_count(), 0);
    }

    #[test]
    fn exclusion_under_load() {
        const THREADS: u64 = 4;
        const ITERS: u64 = 20_000;
        // A lost wake-up shows as a timeout; make it long enough that a
        // slow host cannot.
        let m = Arc::new(LockManager::new(
            Duration::from_secs(20),
            Arc::new(ServerMetrics::new()),
            Arc::new(ChaosController::new()),
        ));
        let other = (0..).map(|r| shard_of(LockTarget::Row(1, r))).find(|&s| s != shard_of(R));
        let rows = Arc::new(rows_in_shards(&[shard_of(R), other.unwrap()], 16));
        let counters = Arc::new((0..rows.len()).map(|_| AtomicU64::new(0)).collect::<Vec<_>>());
        let next_id = Arc::new(AtomicU64::new(1));
        let go = Arc::new(std::sync::Barrier::new(THREADS as usize));
        let workers: Vec<_> = (0..THREADS)
            .map(|w| {
                let (m, rows, counters, next_id, go) =
                    (m.clone(), rows.clone(), counters.clone(), next_id.clone(), go.clone());
                std::thread::spawn(move || {
                    go.wait();
                    let mut rng = bp_util::rng::Rng::new(w);
                    for _ in 0..ITERS {
                        let row = rng.bounded(rows.len() as u64) as usize;
                        // A victim restarts under its old id, so it ages
                        // into the oldest and cannot starve.
                        let id = next_id.fetch_add(1, Ordering::SeqCst);
                        loop {
                            match m.acquire(id, rows[row], LockMode::Exclusive) {
                                Ok(granted) => break assert!(granted),
                                Err(StorageError::Deadlock { .. }) => std::thread::yield_now(),
                                Err(e) => panic!("{e}"),
                            }
                        }
                        // Not atomic as a whole, and the others get to run in
                        // the middle: only the X lock keeps two threads from
                        // reading the same value.
                        let seen = counters[row].load(Ordering::Relaxed);
                        std::thread::yield_now();
                        counters[row].store(seen + 1, Ordering::Relaxed);
                        m.release_all(id, &[rows[row]]);
                    }
                })
            })
            .collect();
        workers.into_iter().for_each(|h| h.join().unwrap());
        let total: u64 = counters.iter().map(|c| c.load(Ordering::SeqCst)).sum();
        assert_eq!(total, THREADS * ITERS, "an update was lost: two holders of one X lock");
        assert_eq!(m.entry_count(), 0);
        let seen = m.metrics.snapshot();
        assert!(seen.lock_waits > 0 && seen.deadlocks > 0, "no contention: {seen:?}");
    }

    #[test]
    fn shared_holders_spill_and_drain_in_any_order() {
        let m = mgr();
        for reader in [1, 2, 3] {
            assert!(m.acquire(reader, R, LockMode::Shared).unwrap());
        }
        let blocked_by = |holder| {
            let err = m.acquire(9, R, LockMode::Exclusive).unwrap_err();
            assert_eq!(err, StorageError::Deadlock { waiting_for: holder });
        };
        blocked_by(1);
        m.release(2, R); // the middle one, out of the spill
        blocked_by(1);
        m.release(1, R); // the inline one: a spilled holder takes its place
        blocked_by(3);
        assert!(!m.acquire(3, R, LockMode::Shared).unwrap(), "3 still holds");
        assert_eq!(m.entry_count(), 1);
        m.release(3, R);
        assert_eq!(m.entry_count(), 0);
        assert!(m.acquire(9, R, LockMode::Exclusive).unwrap());
    }
}
