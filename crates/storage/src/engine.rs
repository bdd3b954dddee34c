//! The embedded database engine: catalog, sessions and transactions.
//!
//! A [`Database`] is shared across worker threads via `Arc`; each worker
//! opens a [`Session`] (the JDBC-connection analogue) and runs transactions
//! through it. Isolation is strict two-phase locking with multigranularity
//! intention locks (see [`crate::lock`]); atomicity comes from an undo log
//! applied on rollback. Every operation charges the personality's service
//! cost so that contention, commit pressure and IO behave like a real DBMS
//! under the workloads the testbed drives.

use std::ops::ControlFlow;
use std::result::Result as StdResult;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use bp_chaos::{ChaosController, FaultKind};
use bp_obs::{EventJournal, Severity};
use bp_util::clock::{wall_clock, SharedClock};
use bp_util::hash::MixMap;
use bp_util::sync::RwLock;
use bp_util::Periodic;

use bp_util::rng::Rng;

use crate::bufferpool::BufferPool;
use crate::error::{Result, StorageError};
use crate::lock::{upgrade_result, LockManager, LockMode, LockTarget, TxnId};
use crate::metrics::ServerMetrics;
use crate::personality::Personality;
use crate::recovery::{
    encode_row, recovery_tick, CheckpointStats, CrashPoint, RecoveryConfig, RecoveryReport,
    RecoveryStats, RecoveryStatus, RedoOp,
};
use crate::schema::{IndexDef, TableSchema};
use crate::key::Key;
use crate::table::{Change, RangeCursor, RowId, Table};
use crate::value::{Row, SharedRow, Value};
use crate::wal::Wal;

#[derive(Default)]
struct Catalog {
    by_name: MixMap<String, Arc<Table>>,
    order: Vec<String>,
}

/// The shared database instance.
pub struct Database {
    catalog: RwLock<Catalog>,
    locks: LockManager,
    wal: Wal,
    pool: BufferPool,
    metrics: Arc<ServerMetrics>,
    chaos: Arc<ChaosController>,
    journal: Arc<EventJournal>,
    clock: SharedClock,
    personality: Personality,
    next_txn: AtomicU64,
    next_table_id: AtomicU32,
    seed: AtomicU64,
    /// True while the engine is "dead" after an injected crash: every
    /// operation fails with [`StorageError::Crashed`] until [`recover`]
    /// (see [`Database::recover`]) completes.
    crashed: AtomicBool,
    /// Bumped by every recovery; transactions begun under an older
    /// generation are stale and must not apply their undo.
    generation: AtomicU64,
    /// Stamp of the current catalog shape; see [`Database::schema_version`].
    schema_version: AtomicU64,
    /// Boxed with the supervisor's slot and the rebuild lock: off the
    /// cache lines of the atomics every transaction reads.
    recovery: Box<RecoveryStats>,
}

/// Source of schema-version stamps. Process-wide, so no two databases (and
/// no two catalog shapes of one database) ever share a stamp: a plan bound
/// against one database can never pass for valid on another.
static NEXT_SCHEMA_VERSION: AtomicU64 = AtomicU64::new(1);

impl Database {
    /// A database on a fresh wall clock.
    pub fn new(personality: Personality) -> Arc<Database> {
        Database::with_clock(personality, wall_clock())
    }

    /// A database whose every layer reads `clock`: lock waits and their
    /// timeout, commit time, the WAL's group-commit window, chaos plan
    /// windows and the journal's stamps. A run started on it reads it too.
    pub fn with_clock(personality: Personality, clock: SharedClock) -> Arc<Database> {
        let metrics = Arc::new(ServerMetrics::new());
        // One journal per engine instance, shared by every emitting layer
        // (lock manager, WAL, buffer pool, chaos gate, and — via
        // `Database::journal()` — the controller and API on top).
        let journal = Arc::new(EventJournal::with_clock(clock.clone()));
        let chaos = Arc::new(ChaosController::with_journal(journal.clone()));
        let mut locks = LockManager::new(personality.lock_timeout, metrics.clone(), chaos.clone())
            .with_journal(journal.clone());
        locks.clock = clock.clone();
        let mut wal = Wal::new(
            personality.group_commit_window_us,
            personality.wal_us_per_kb,
            personality.commit_us,
        )
        .with_journal(journal.clone());
        wal.clock = clock.clone();
        Arc::new(Database {
            catalog: RwLock::new(Catalog::default()),
            locks,
            wal,
            pool: BufferPool::new(personality.buffer_pages, personality.rows_per_page)
                .with_journal(journal.clone()),
            metrics,
            chaos,
            journal,
            clock,
            personality,
            next_txn: AtomicU64::new(1),
            next_table_id: AtomicU32::new(1),
            seed: AtomicU64::new(0x9E3779B97F4A7C15),
            crashed: AtomicBool::new(false),
            generation: AtomicU64::new(1),
            schema_version: AtomicU64::new(NEXT_SCHEMA_VERSION.fetch_add(1, Ordering::Relaxed)),
            recovery: Box::default(),
        })
    }

    /// The run's one clock: every layer of this engine stamps and compares
    /// time on it, and so does every run started on the database.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Stamp identifying this database's current set of tables and indexes.
    /// `create_table`, `create_index`, `drop_table` and `reset_schema`
    /// replace it *after* the catalog changed, so anything derived from the
    /// catalog (a bound statement plan) that read the stamp first and still
    /// finds it unchanged is current. `recover()` and `truncate_all()`
    /// rebuild tables in place and leave it alone.
    pub fn schema_version(&self) -> u64 {
        // Pairs with the Release store in `bump_schema_version`.
        self.schema_version.load(Ordering::Acquire)
    }

    fn bump_schema_version(&self) {
        self.schema_version
            .store(NEXT_SCHEMA_VERSION.fetch_add(1, Ordering::Relaxed), Ordering::Release);
    }

    pub fn personality(&self) -> &Personality {
        &self.personality
    }

    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }

    /// The fault-injection gate for this engine instance. Disarmed (the
    /// default) it costs one relaxed load per probe; the API layer arms
    /// plans on it at runtime.
    pub fn chaos(&self) -> &Arc<ChaosController> {
        &self.chaos
    }

    /// The event journal every layer of this engine emits into. Layers
    /// above (controller, API) share it so `/events` shows one timeline.
    pub fn journal(&self) -> &Arc<EventJournal> {
        &self.journal
    }

    /// Open a session (one per worker thread).
    pub fn session(self: &Arc<Database>) -> Session {
        let seed = self.seed.fetch_add(0x9E3779B97F4A7C15, Ordering::Relaxed);
        Session {
            db: self.clone(),
            txn: None,
            locks: Vec::new(),
            tables: Vec::new(),
            undo: Vec::new(),
            redo: Vec::new(),
            chunk: Vec::new(),
            rng: Rng::new(seed),
            owed_us: 0.0,
        }
    }

    // ---- DDL (auto-committed) ----

    pub fn create_table(&self, schema: TableSchema) -> Result<()> {
        let mut cat = self.catalog.write();
        let key = schema.name.to_ascii_lowercase();
        if cat.by_name.contains_key(&key) {
            return Err(StorageError::TableExists(schema.name));
        }
        let id = self.next_table_id.fetch_add(1, Ordering::Relaxed);
        cat.order.push(key.clone());
        cat.by_name.insert(key, Arc::new(Table::new(id, schema)));
        self.bump_schema_version();
        Ok(())
    }

    pub fn create_index(&self, table: &str, name: &str, columns: &[&str], unique: bool) -> Result<()> {
        let t = self.table(table)?;
        let key_columns = columns
            .iter()
            .map(|c| t.schema.column_index(c))
            .collect::<Result<Vec<_>>>()?;
        t.add_index(IndexDef {
            name: name.to_string(),
            table: t.schema.name.clone(),
            key_columns,
            unique,
        })?;
        self.bump_schema_version();
        Ok(())
    }

    pub fn drop_table(&self, name: &str) -> Result<()> {
        let mut cat = self.catalog.write();
        let key = name.to_ascii_lowercase();
        cat.by_name
            .remove(&key)
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))?;
        cat.order.retain(|n| *n != key);
        self.bump_schema_version();
        Ok(())
    }

    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.catalog
            .read()
            .by_name
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    pub fn table_names(&self) -> Vec<String> {
        self.catalog.read().order.clone()
    }

    /// Total live rows across all tables.
    pub fn total_rows(&self) -> usize {
        let cat = self.catalog.read();
        cat.by_name.values().map(|t| t.len()).sum()
    }

    /// Empty every table, keeping schemas and indexes (the game's crash
    /// semantics reset the database, §4.1.1). The WAL is fully rewound —
    /// LSN, segment count and the redo store — so back-to-back runs start
    /// from a clean log.
    pub fn truncate_all(&self) {
        let cat = self.catalog.read();
        for t in cat.by_name.values() {
            t.truncate();
        }
        self.pool.clear();
        self.wal.reset_full();
    }

    /// Drop all tables entirely.
    pub fn reset_schema(&self) {
        let mut cat = self.catalog.write();
        cat.by_name.clear();
        cat.order.clear();
        self.bump_schema_version();
        self.pool.clear();
        self.wal.reset_full();
    }

    // ---- Crash & recovery ----

    /// True while the engine is dead awaiting recovery.
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }

    /// Current engine generation (bumped by every recovery).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Recovery bookkeeping, the supervisor's slot and the rebuild lock.
    pub(crate) fn recovery_stats(&self) -> &RecoveryStats {
        &self.recovery
    }

    /// Snapshot for `/recovery/status` and the `bp_recovery_*` series. The
    /// watermarks and redo bytes are the redo store's own, read under its
    /// lock, which a running checkpoint does not hold through its fold.
    pub fn recovery_status(&self) -> RecoveryStatus {
        let mut status = self.recovery.status(self.is_crashed(), self.generation());
        self.wal.report(&mut status);
        status
    }

    /// Kill the engine at `point` (injected by the `ServerCrash` fault).
    /// Idempotent: only the first caller journals the crash.
    pub(crate) fn crash(&self, point: CrashPoint, lsn: u64) {
        if self.crashed.swap(true, Ordering::AcqRel) {
            return;
        }
        self.recovery.count(|s| {
            s.crashes += 1;
            s.last_crashpoint = Some(point);
        });
        self.journal.emit_with(Severity::Error, "storage", "server_crash", || {
            let mut fields =
                vec![("crashpoint", point.name().to_string()), ("lsn", lsn.to_string())];
            let tid = bp_obs::current_trace();
            if tid != 0 {
                fields.push(("trace_id", bp_obs::format_trace_id(tid)));
            }
            (
                format!("storage engine crashed mid-commit at crashpoint {}", point.name()),
                fields,
            )
        });
    }

    /// Rebuild committed state from the latest checkpoint plus the redo
    /// tail, truncating a torn final record, then bring the engine back
    /// online under a new generation. Returns `None` on a live engine and
    /// leaves it alone: a caller that waited for another's rebuild finds
    /// the crash already recovered.
    pub fn recover(&self) -> Option<RecoveryReport> {
        let _rebuild = self.recovery.rebuild.lock();
        if !self.is_crashed() {
            return None;
        }
        let start = self.clock().now();
        self.journal.emit_with(Severity::Warn, "storage", "recovery_begin", || {
            ("replaying redo log after crash".to_string(), Vec::new())
        });
        let (tables, replayed) = self.wal.recovered_image();
        {
            let cat = self.catalog.read();
            let empty = std::collections::BTreeMap::new();
            for t in cat.by_name.values() {
                t.rebuild_from(tables.get(&t.id).unwrap_or(&empty));
            }
        }
        self.pool.clear();
        let generation = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        let report = RecoveryReport {
            duration_us: self.clock().now().saturating_sub(start),
            generation,
            ..replayed
        };
        self.recovery.count(|s| {
            s.recoveries += 1;
            s.replayed_records += report.replayed_records;
            s.torn_truncations += report.torn_truncated;
            s.last_recovery_us = report.duration_us;
        });
        self.crashed.store(false, Ordering::Release);
        self.journal.emit_with(Severity::Warn, "storage", "recovery_complete", || {
            (
                format!(
                    "recovered to lsn {} in {}µs: checkpoint lsn {} + {} replayed records, {} torn",
                    report.durable_lsn,
                    report.duration_us,
                    report.checkpoint_lsn,
                    report.replayed_records,
                    report.torn_truncated
                ),
                vec![
                    ("durable_lsn", report.durable_lsn.to_string()),
                    ("replayed", report.replayed_records.to_string()),
                    ("torn", report.torn_truncated.to_string()),
                    ("duration_us", report.duration_us.to_string()),
                    ("generation", generation.to_string()),
                ],
            )
        });
        Some(report)
    }

    /// Arm this database's one recovery supervisor: the `bp-recovery`
    /// thread polls every `poll_interval_us`, recovers a crashed engine and
    /// checkpoints when one is due on the database's clock. Arming again
    /// replaces the running supervisor, so every workload on the database
    /// shares one. The thread holds the database weakly: dropping its last
    /// handle ends it.
    pub fn supervise(self: &Arc<Database>, cfg: RecoveryConfig) {
        let db = Arc::downgrade(self);
        let mut last_checkpoint = self.clock.now();
        let task = Periodic::spawn("bp-recovery", cfg.poll_interval_us.max(100), move || {
            // Should this tick hold the last handle, the database drops
            // here, and its `Periodic` only signals its own thread to end.
            db.upgrade().map(|db| recovery_tick(&db, &cfg, &mut last_checkpoint)).is_some()
        });
        // The replaced supervisor is stopped once the slot is unlocked.
        let replaced = self.recovery.supervisor.lock().replace((cfg, task));
        drop(replaced);
        self.journal.emit_with(Severity::Info, "storage", "recovery_armed", || {
            (
                format!(
                    "recovery supervisor armed (poll {}us, checkpoint every {}us)",
                    cfg.poll_interval_us, cfg.checkpoint_interval_us,
                ),
                vec![
                    ("poll_us", cfg.poll_interval_us.to_string()),
                    ("checkpoint_us", cfg.checkpoint_interval_us.to_string()),
                ],
            )
        });
    }

    /// Stop the supervisor; returns once its thread has ended. A crashed
    /// engine then stays down until [`Database::recover`] is called.
    pub fn unsupervise(&self) {
        let stopped = self.recovery.supervisor.lock().take();
        drop(stopped);
        self.journal.emit_with(Severity::Info, "storage", "recovery_disarmed", || {
            (
                "recovery supervisor disarmed".to_string(),
                vec![("state", "disarmed".to_string())],
            )
        });
    }

    /// Fold the redo log into the checkpoint image and truncate the folded
    /// segments; commits keep appending while it folds. Returns `None`
    /// while crashed (the checkpointer must not run against a dead engine).
    pub fn checkpoint(&self) -> Option<CheckpointStats> {
        if self.is_crashed() {
            return None;
        }
        let stats = self.wal.take_checkpoint();
        self.recovery.count(|s| {
            s.checkpoints += 1;
            s.segments_truncated += stats.segments_truncated;
        });
        self.journal.emit_with(Severity::Info, "storage", "checkpoint", || {
            (
                format!(
                    "checkpoint at lsn {} ({} records, {} segments truncated)",
                    stats.lsn, stats.records_applied, stats.segments_truncated
                ),
                vec![
                    ("lsn", stats.lsn.to_string()),
                    ("records", stats.records_applied.to_string()),
                    ("segments", stats.segments_truncated.to_string()),
                ],
            )
        });
        Some(stats)
    }

    /// Canonical byte encoding of all live rows, in catalog order with
    /// rowids ascending. Two databases holding the same committed state
    /// produce identical digests — the crashpoint matrix compares these.
    pub fn state_digest(&self) -> Vec<u8> {
        let cat = self.catalog.read();
        let mut out = Vec::new();
        for name in &cat.order {
            let t = &cat.by_name[name];
            out.extend_from_slice(name.as_bytes());
            out.push(0);
            out.extend_from_slice(&t.id.to_le_bytes());
            let mut rows = t.scan();
            rows.sort_by_key(|(rid, _)| *rid);
            out.extend_from_slice(&(rows.len() as u64).to_le_bytes());
            for (rid, row) in rows {
                out.extend_from_slice(&rid.to_le_bytes());
                encode_row(&mut out, &row);
            }
        }
        out
    }
}

/// What rollback puts back. A before-image is the allocation the table
/// held, so undoing restores that very row; an update written in place
/// keeps the values it overwrote instead ([`Table::write`]).
enum Undo {
    Insert { table: Arc<Table>, rowid: RowId },
    Update { table: Arc<Table>, rowid: RowId, before: Change },
    Delete { table: Arc<Table>, rowid: RowId, before: SharedRow },
}

/// The active transaction; its lists are the session's.
struct Txn {
    id: TxnId,
    /// Engine generation at `begin`; a recovery in between makes the txn
    /// stale (its undo must not touch the rebuilt tables).
    gen: u64,
    wal_bytes: u64,
    rows_read: u64,
    rows_written: u64,
}

/// A connection-like handle bound to one thread of execution.
///
/// The first four lists are the active transaction's and empty between
/// transactions: [`Session::end`] empties them and the next transaction
/// fills them again without growing them from nothing.
pub struct Session {
    db: Arc<Database>,
    txn: Option<Txn>,
    locks: Vec<LockTarget>,
    /// The mode the lock manager has granted the transaction on each table
    /// it locked, kept in step with it: every row operation asks for its
    /// table's intention lock again, and the answer is known here.
    tables: Vec<(u32, LockMode)>,
    undo: Vec<Undo>,
    /// The commit's redo record, in operation order.
    redo: Vec<RedoOp>,
    /// The index entries a range read is working through; empty between
    /// reads.
    chunk: Vec<(Key, RowId)>,
    rng: Rng,
    /// The fraction of a µs charged but not yet slept, so the clock advances
    /// by exactly the sum of the charges.
    owed_us: f64,
}

/// How many index entries a range read copies at first, and at most: each
/// chunk is four times the one before.
const FIRST_CHUNK: usize = 8;
const MAX_CHUNK: usize = 512;

/// The longest list a session keeps the room of. What a bulk transaction
/// grew past that is freed when it ends, so a loader session does not pin
/// its high-water mark.
const KEPT_CAPACITY: usize = 1024;

impl Session {
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// Fail fast with [`StorageError::Crashed`] when the engine is dead or
    /// this txn predates the last recovery. Aborts the active transaction
    /// (stale undo is skipped by `rollback`), like a lock failure would.
    fn ensure_alive(&mut self) -> Result<()> {
        let stale = self
            .txn
            .as_ref()
            .is_some_and(|t| t.gen != self.db.generation());
        if self.db.is_crashed() || stale {
            return Err(self.abort_with(StorageError::Crashed));
        }
        Ok(())
    }

    pub fn begin(&mut self) -> Result<()> {
        if self.db.is_crashed() {
            return Err(StorageError::Crashed);
        }
        if self.txn.is_some() {
            return Err(StorageError::TransactionActive);
        }
        let id = self.db.next_txn.fetch_add(1, Ordering::Relaxed);
        self.db.metrics.txn_started();
        self.txn = Some(Txn { id, gen: self.db.generation(), wal_bytes: 0, rows_read: 0, rows_written: 0 });
        Ok(())
    }

    /// The one way a transaction ends, committed or not: release its locks
    /// and empty its lists — every table handle, row image and redo value
    /// they hold is dropped — keeping their room for the next one.
    fn end(&mut self, id: TxnId) {
        fn empty<T>(v: &mut Vec<T>) {
            if v.capacity() > KEPT_CAPACITY {
                *v = Vec::new();
            }
            v.clear();
        }
        self.db.locks.release_all(id, &self.locks);
        self.db.metrics.txn_ended();
        empty(&mut self.locks);
        empty(&mut self.tables);
        empty(&mut self.undo);
        empty(&mut self.redo);
    }

    pub fn commit(&mut self) -> Result<()> {
        self.ensure_alive()?;
        let txn = self.txn.take().ok_or(StorageError::NoActiveTransaction)?;
        // The commit stage is timed only for the span of a traced request
        // on this thread: nothing else reads it.
        let commit_start = (bp_obs::current_trace() != 0).then(|| self.db.clock().now());
        // Chaos: an injected server crash kills the engine at one of three
        // deterministic points in the commit sequence (window magnitude
        // selects which). The dying commit reports failure either way; at
        // `AfterFsync` the record is durable, so recovery resurrects it —
        // the classic "ambiguous commit" a crash leaves behind.
        let crashpoint = self
            .db
            .chaos
            .roll(FaultKind::ServerCrash)
            .map(CrashPoint::from_magnitude);
        if crashpoint == Some(CrashPoint::BeforeAppend) {
            return Err(self.die_in_commit(txn, CrashPoint::BeforeAppend, self.db.wal.current_lsn()));
        }
        let mut cost = 0.0;
        if txn.wal_bytes > 0 {
            let (lsn, wal_cost) = self.db.wal.commit(txn.wal_bytes, &self.db.metrics);
            cost += wal_cost;
            if !self.redo.is_empty() {
                let torn = crashpoint == Some(CrashPoint::AfterAppendBeforeFsync);
                self.db.wal.append_redo(lsn, txn.id, &self.redo, torn);
            }
            if let Some(point) = crashpoint {
                return Err(self.die_in_commit(txn, point, lsn));
            }
        } else if let Some(point) = crashpoint {
            // Read-only commit: nothing to append, but the process still
            // dies mid-commit.
            return Err(self.die_in_commit(txn, point, self.db.wal.current_lsn()));
        }
        // Chaos: a stalled fsync lengthens the commit's service demand.
        // Charged to fsync_us too so the doctor sees the stall as IO time.
        if let Some(stall_us) = self.db.chaos.roll(FaultKind::FsyncStall) {
            cost += stall_us as f64;
            self.db.metrics.add_fsync_micros(stall_us);
        }
        self.charge(cost);
        self.end(txn.id);
        self.db.metrics.inc_commits();
        self.db.metrics.add_rows_read(txn.rows_read);
        self.db.metrics.add_rows_written(txn.rows_written);
        // Commit-stage time (WAL write + fsync cost model + lock release)
        // for the span of the request executing on this thread.
        if let Some(start) = commit_start {
            bp_obs::add_commit_us(self.db.clock().now().saturating_sub(start));
        }
        Ok(())
    }

    /// Kill the engine at `point` during this txn's commit. The dying
    /// txn's locks are released explicitly — the lock table survives
    /// recovery, so leaking them would block rebuilt rows forever — and
    /// the commit reports failure.
    fn die_in_commit(&mut self, txn: Txn, point: CrashPoint, lsn: u64) -> StorageError {
        self.db.crash(point, lsn);
        self.end(txn.id);
        StorageError::Crashed
    }

    pub fn rollback(&mut self) -> Result<()> {
        let txn = self.txn.take().ok_or(StorageError::NoActiveTransaction)?;
        // A txn from before the crash/recovery must not undo into the
        // rebuilt tables: its effects were never recovered in the first
        // place. Releasing its (stale) locks is still correct — the lock
        // table survives recovery.
        let stale = self.db.is_crashed() || txn.gen != self.db.generation();
        if !stale {
            self.undo_all();
        }
        self.end(txn.id);
        self.db.metrics.inc_aborts();
        Ok(())
    }

    fn undo_all(&mut self) {
        for u in self.undo.drain(..).rev() {
            // Undo failures indicate engine bugs; they must not panic the
            // worker, so best-effort with a debug assertion.
            let ok = match u {
                Undo::Insert { table, rowid } => table.delete(rowid).is_ok(),
                Undo::Update { table, rowid, before } => table.write(rowid, before).is_ok(),
                Undo::Delete { table, rowid, before } => table.restore(rowid, before).is_ok(),
            };
            debug_assert!(ok, "undo operation failed");
        }
    }

    /// Abort the transaction because of `err` (lock failure) and return it.
    fn abort_with(&mut self, err: StorageError) -> StorageError {
        if self.txn.is_some() {
            let _ = self.rollback();
        }
        err
    }

    fn charge(&mut self, base_us: f64) {
        // Chaos: latency spikes add service demand to whatever operation
        // is being charged (probed before the zero check so a spike can
        // hit even zero-cost personalities' operations).
        let base_us = match self.db.chaos.roll(FaultKind::LatencySpike) {
            Some(spike_us) => base_us + spike_us as f64,
            None => base_us,
        };
        if base_us <= 0.0 {
            return;
        }
        let cost = self.db.personality.jittered(base_us, &mut self.rng) + self.owed_us;
        let whole = cost as u64;
        self.owed_us = cost - whole as f64;
        self.db.metrics.add_busy_micros(whole);
        self.db.clock.busy(whole);
    }

    fn txn_mut(&mut self) -> Result<&mut Txn> {
        self.txn.as_mut().ok_or(StorageError::NoActiveTransaction)
    }

    fn lock(&mut self, target: LockTarget, mode: LockMode) -> Result<()> {
        let txn = self.txn.as_ref().ok_or(StorageError::NoActiveTransaction)?;
        let held = match target {
            LockTarget::Table(id) => self.tables.iter_mut().find(|(t, _)| *t == id),
            LockTarget::Row(..) => None,
        };
        if held.as_ref().is_some_and(|(_, held)| held.covers(mode)) {
            return Ok(());
        }
        match self.db.locks.acquire(txn.id, target, mode) {
            Ok(true) => {
                self.locks.push(target);
                if let LockTarget::Table(id) = target {
                    match held {
                        Some((_, held)) => *held = upgrade_result(*held, mode),
                        None => self.tables.push((id, mode)),
                    }
                }
                Ok(())
            }
            Ok(false) => Ok(()),
            Err(e) => Err(self.abort_with(e)),
        }
    }

    fn touch_page(&mut self, table: &Table, rowid: RowId, write: bool) {
        let access = self
            .db
            .pool
            .access(table.id, rowid, write, &self.db.metrics);
        // Chaos: buffer-pool thrash charges extra page IOs as if the
        // working set had been evicted under us.
        let extra_ios = self.db.chaos.roll(FaultKind::BufferThrash).unwrap_or(0);
        let ios = access.ios as u64 + extra_ios;
        if ios > 0 {
            self.charge(self.db.personality.io_us * ios as f64);
        }
    }

    // ---- Reads ----

    /// Read a row by rowid, taking an S (or X when `for_update`) lock.
    /// Returns `None` if the row no longer exists. The row is the table's
    /// own: nothing is copied.
    pub fn get_row(&mut self, table: &Arc<Table>, rowid: RowId, for_update: bool) -> Result<Option<SharedRow>> {
        self.ensure_alive()?;
        let (table_mode, row_mode) = if for_update {
            self.write_modes(table)
        } else {
            (LockMode::IntentionShared, LockMode::Shared)
        };
        self.lock(LockTarget::Table(table.id), table_mode)?;
        if self.db.personality.row_locking || !for_update {
            self.lock(LockTarget::Row(table.id, rowid), row_mode)?;
        }
        self.touch_page(table, rowid, false);
        self.charge(self.db.personality.read_us);
        let row = table.get(rowid);
        if row.is_some() {
            self.txn_mut()?.rows_read += 1;
        }
        Ok(row)
    }

    /// What every read checks before it looks anything up, so that a miss
    /// answers like a hit: the engine is alive, this transaction belongs to
    /// its current generation, and there is a transaction.
    fn ensure_reading(&mut self) -> Result<()> {
        self.ensure_alive()?;
        self.txn_mut().map(|_| ())
    }

    /// Point lookup by primary key (locks the row, rechecks after the wait).
    pub fn read_pk_shared(
        &mut self,
        table: &Arc<Table>,
        key: &[Value],
        for_update: bool,
    ) -> Result<Option<(RowId, SharedRow)>> {
        self.ensure_reading()?;
        let Some(rowid) = table.lookup_pk(key) else {
            // Charge the (cheap) index probe.
            self.charge(self.db.personality.read_us * 0.5);
            return Ok(None);
        };
        // Re-verify: the row may have been deleted/moved while we waited
        // for the lock.
        let row = self.get_row(table, rowid, for_update)?;
        Ok(row.filter(|r| table.schema.pk_matches(r, key)).map(|r| (rowid, r)))
    }

    /// [`Session::read_pk_shared`], with the row copied out for a caller
    /// that goes on to modify it.
    pub fn read_pk(&mut self, table: &Arc<Table>, key: &[Value], for_update: bool) -> Result<Option<(RowId, Row)>> {
        Ok(self.read_pk_shared(table, key, for_update)?.map(|(rowid, row)| (rowid, row.to_vec())))
    }

    /// Hand `visit` each row of `cursor` ([`Table::range`]) that is still
    /// there, in key order, S-locking it (X-locking when `for_update`)
    /// before it is read, until the cursor is done or the visitor breaks.
    /// The visitor gets the session back, to write the row it was shown.
    ///
    /// Entries come from the index a chunk at a time, short chunks first: a
    /// reader that stops after one row copies a handful of entries, one that
    /// reads thousands refills a buffer the session keeps. No latch is held
    /// while a row lock is waited for, so the row an entry names may have
    /// gone, or its slot been filled again, by the time it is read. A reader
    /// that takes the first rows for the lowest keys (`in_key_order`) is
    /// shown a row only if it still has the key its entry was found under;
    /// any other reader re-applies its whole predicate to what it is shown.
    pub fn read_rows<E: From<StorageError>>(
        &mut self,
        table: &Arc<Table>,
        mut cursor: RangeCursor<'_>,
        for_update: bool,
        in_key_order: bool,
        mut visit: impl FnMut(&mut Session, RowId, SharedRow) -> StdResult<ControlFlow<()>, E>,
    ) -> StdResult<(), E> {
        self.ensure_reading()?;
        // The visitor has the session, so the chunk is not in it meanwhile.
        let mut chunk = std::mem::take(&mut self.chunk);
        let mut read = || -> StdResult<(), E> {
            let mut max = FIRST_CHUNK;
            loop {
                table.next_chunk(&mut cursor, max, &mut chunk)?;
                if chunk.is_empty() {
                    return Ok(());
                }
                for (key, rowid) in &chunk {
                    let Some(row) = self.get_row(table, *rowid, for_update)? else { continue };
                    if in_key_order && !table.is_at(&cursor, key, &row) {
                        continue;
                    }
                    if visit(self, *rowid, row)?.is_break() {
                        return Ok(());
                    }
                }
                max = (max * 4).min(MAX_CHUNK);
            }
        };
        let done = read();
        chunk.clear();
        self.chunk = chunk;
        done
    }

    /// Full table scan under a table-level S lock.
    pub fn scan(&mut self, table: &Arc<Table>) -> Result<Vec<(RowId, SharedRow)>> {
        self.ensure_alive()?;
        self.lock(LockTarget::Table(table.id), LockMode::Shared)?;
        let rows = table.scan();
        self.charge(self.db.personality.scan_row_us * rows.len().max(1) as f64);
        self.txn_mut()?.rows_read += rows.len() as u64;
        Ok(rows)
    }

    // ---- Writes ----

    fn write_modes(&self, _table: &Table) -> (LockMode, LockMode) {
        if self.db.personality.row_locking {
            (LockMode::IntentionExclusive, LockMode::Exclusive)
        } else {
            // Coarse-grained engines: writers take the whole table.
            (LockMode::Exclusive, LockMode::Exclusive)
        }
    }

    /// Account one row written, `bytes` of it logged, to the transaction
    /// whose undo and redo entries the caller is about to record.
    fn wrote(&mut self, bytes: u64) -> Result<()> {
        let txn = self.txn_mut()?;
        txn.wal_bytes += bytes;
        txn.rows_written += 1;
        Ok(())
    }

    /// Insert a row (validated against the schema).
    pub fn insert(&mut self, table: &Arc<Table>, row: Row) -> Result<RowId> {
        self.ensure_alive()?;
        let row = table.schema.check_row(row)?;
        let (table_mode, _) = self.write_modes(table);
        self.lock(LockTarget::Table(table.id), table_mode)?;
        let bytes = table.schema.row_bytes(&row) as u64;
        // The table and the redo record hold one row between them.
        let rowid = table.insert(Arc::clone(&row))?;
        // The row is in the table: rollback must know before anything that
        // can fail (the row lock below, under chaos) gets to ask for one.
        self.wrote(bytes)?;
        self.undo.push(Undo::Insert { table: table.clone(), rowid });
        self.redo.push(RedoOp::Insert { table: table.id, rowid, row });
        if self.db.personality.row_locking {
            // X-lock the new row so no one reads it before commit. The row is
            // brand new, so this cannot block.
            self.lock(LockTarget::Row(table.id, rowid), LockMode::Exclusive)?;
        }
        self.touch_page(table, rowid, true);
        self.charge(self.db.personality.insert_us);
        Ok(rowid)
    }

    /// Replace a row by rowid: every column is written, and the redo logs
    /// the ones whose value changed.
    pub fn update(&mut self, table: &Arc<Table>, rowid: RowId, new_row: Row) -> Result<()> {
        let expected = table.schema.arity();
        if new_row.len() != expected {
            return Err(StorageError::ArityMismatch { expected, got: new_row.len() });
        }
        self.update_columns(table, rowid, new_row.into_iter().enumerate().collect())
    }

    /// Write `sets`, `(column, value)` pairs in the order given, into the
    /// row at `rowid`: only these columns are validated, and the row is
    /// written in place when the table holds its only handle.
    pub fn update_columns(&mut self, table: &Arc<Table>, rowid: RowId, mut sets: Vec<(usize, Value)>) -> Result<()> {
        self.ensure_alive()?;
        table.schema.check_sets(&mut sets)?;
        let (table_mode, row_mode) = self.write_modes(table);
        self.lock(LockTarget::Table(table.id), table_mode)?;
        if self.db.personality.row_locking {
            self.lock(LockTarget::Row(table.id, rowid), row_mode)?;
        }
        self.touch_page(table, rowid, true);
        let written = table.write(rowid, Change::Cols(sets))?;
        self.charge(self.db.personality.write_us);
        self.wrote(written.bytes as u64)?;
        self.redo.push(RedoOp::Update { table: table.id, rowid, cols: written.redo });
        self.undo.push(Undo::Update { table: table.clone(), rowid, before: written.undo });
        Ok(())
    }

    /// Delete a row by rowid.
    pub fn delete(&mut self, table: &Arc<Table>, rowid: RowId) -> Result<()> {
        self.ensure_alive()?;
        let (table_mode, row_mode) = self.write_modes(table);
        self.lock(LockTarget::Table(table.id), table_mode)?;
        if self.db.personality.row_locking {
            self.lock(LockTarget::Row(table.id, rowid), row_mode)?;
        }
        self.touch_page(table, rowid, true);
        let before = table.delete(rowid)?;
        let bytes = table.schema.row_bytes(&before) as u64;
        self.charge(self.db.personality.write_us);
        self.wrote(bytes)?;
        self.undo.push(Undo::Delete { table: table.clone(), rowid, before });
        self.redo.push(RedoOp::Delete { table: table.id, rowid });
        Ok(())
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if self.in_txn() {
            let _ = self.rollback();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    impl Session {
        /// Run `body` inside a transaction, committing on `Ok` and rolling
        /// back on `Err`.
        fn with_txn<T>(&mut self, body: impl FnOnce(&mut Session) -> Result<T>) -> Result<T> {
            self.begin()?;
            match body(self) {
                Ok(v) => {
                    self.commit()?;
                    Ok(v)
                }
                Err(e) => {
                    if self.in_txn() {
                        let _ = self.rollback();
                    }
                    Err(e)
                }
            }
        }
    }
    use crate::value::DataType;
    use std::ops::Bound;

    fn db() -> Arc<Database> {
        with_acct(Database::new(Personality::test()))
    }

    fn with_acct(db: Arc<Database>) -> Arc<Database> {
        db.create_table(
            TableSchema::new(
                "acct",
                vec![
                    Column::new("id", DataType::Int),
                    Column::new("bal", DataType::Int),
                ],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    fn acct(db: &Arc<Database>) -> Arc<Table> {
        db.table("acct").unwrap()
    }

    /// A `SimClock` that counts its reads.
    struct CountedClock {
        sim: Arc<bp_util::clock::SimClock>,
        reads: AtomicU64,
    }

    impl bp_util::clock::Clock for CountedClock {
        fn now(&self) -> u64 {
            self.reads.fetch_add(1, Ordering::SeqCst);
            self.sim.now()
        }
        fn sleep(&self, micros: u64) {
            self.sim.advance(micros);
        }
    }

    /// An older session reading an `acct` row that a younger one holds X.
    struct BlockedReader {
        sim: Arc<bp_util::clock::SimClock>,
        db: Arc<Database>,
        holder: Session,
        /// The reader's thread: its read's result and its stage accumulator.
        reader: std::thread::JoinHandle<(Result<()>, (u64, u64))>,
    }

    /// Returns once the reader waits: it reads the clock first at the
    /// conflict, under the shard lock that the wait then releases. (An
    /// engine that times the wait on another clock never reads this one:
    /// then it returns after a second, and the reader waits on.)
    fn blocked_reader(lock_timeout_us: u64) -> BlockedReader {
        let sim = bp_util::clock::SimClock::new();
        let clock = Arc::new(CountedClock { sim: sim.clone(), reads: AtomicU64::new(0) });
        let lock_timeout = std::time::Duration::from_micros(lock_timeout_us);
        let personality = Personality { lock_timeout, ..Personality::test() };
        let db = with_acct(Database::with_clock(personality, clock.clone()));
        let t = acct(&db);
        db.session().with_txn(|s| s.insert(&t, vec![Value::Int(1), Value::Int(0)])).unwrap();
        let mut reader = db.session();
        reader.begin().unwrap();
        let mut holder = db.session();
        holder.begin().unwrap();
        holder.read_pk(&t, &[Value::Int(1)], true).unwrap();
        let reads = clock.reads.load(Ordering::SeqCst);
        let reader = std::thread::spawn(move || {
            bp_obs::take_stage_acc();
            let read = reader.read_pk(&t, &[Value::Int(1)], false).map(|_| ());
            (read, bp_obs::take_stage_acc())
        });
        let give_up = std::time::Instant::now() + std::time::Duration::from_secs(1);
        while clock.reads.load(Ordering::SeqCst) == reads && std::time::Instant::now() < give_up {
            std::thread::yield_now();
        }
        BlockedReader { sim, db, holder, reader }
    }

    #[test]
    fn a_lock_wait_is_timed_on_the_database_clock() {
        let BlockedReader { sim, db, mut holder, reader } = blocked_reader(1_000_000);
        let before = db.metrics().snapshot();
        sim.advance(500);
        holder.commit().unwrap();
        let (read, (lock_wait_us, _)) = reader.join().unwrap();
        read.unwrap();
        assert_eq!(lock_wait_us, 500, "the request's lock stage");
        let waited = db.metrics().snapshot().delta(&before);
        assert_eq!((waited.lock_waits, waited.lock_wait_micros), (1, 500));
    }

    #[test]
    fn a_lock_timeout_fires_when_the_database_clock_reaches_it() {
        let BlockedReader { sim, db, holder: _held, reader } = blocked_reader(20_000);
        sim.advance(19_999);
        // The wait was armed for 20 ms of real time: after it the reader
        // re-checks the clock, finds its deadline 1 µs away, and waits on.
        std::thread::sleep(std::time::Duration::from_millis(60));
        assert!(!reader.is_finished(), "timed out 1 µs before its deadline");
        sim.advance(1);
        let (read, (lock_wait_us, _)) = reader.join().unwrap();
        assert_eq!(read, Err(StorageError::LockTimeout));
        assert_eq!(lock_wait_us, 20_000);
        assert_eq!(db.metrics().snapshot().lock_timeouts, 1);
    }

    /// The clock reads a transaction costs: an untraced one reads nothing
    /// but the WAL's group-commit window, a traced commit times its stage
    /// with two more.
    #[test]
    fn a_commit_reads_the_clock_only_for_a_span_or_a_group_commit_window() {
        for (personality, wal_reads) in [(Personality::test(), 0), (Personality::mysql_like(), 1)] {
            let name = personality.name;
            let clock = Arc::new(CountedClock { sim: bp_util::clock::SimClock::new(), reads: AtomicU64::new(0) });
            let db = with_acct(Database::with_clock(personality, clock.clone()));
            let t = acct(&db);
            let mut s = db.session();
            let mut reads = |id: i64, write: bool| {
                let before = clock.reads.load(Ordering::SeqCst);
                s.with_txn(|s| {
                    if write {
                        s.insert(&t, vec![Value::Int(id), Value::Int(0)]).map(|_| ())
                    } else {
                        s.read_pk(&t, &[Value::Int(id)], false).map(|_| ())
                    }
                })
                .unwrap();
                clock.reads.load(Ordering::SeqCst) - before
            };
            assert_eq!(reads(1, true), wal_reads, "{name}: an untraced write");
            assert_eq!(reads(1, false), 0, "{name}: an untraced read");
            bp_obs::set_current_trace(1);
            assert_eq!(reads(2, true), 2 + wal_reads, "{name}: a traced write");
            assert_eq!(reads(2, false), 2, "{name}: a traced read");
            bp_obs::set_current_trace(0);
        }
    }

    #[test]
    fn a_session_sleeps_what_it_charges_on_the_database_clock() {
        for personality in [Personality::mysql_like(), Personality::test()] {
            let name = personality.name;
            let db = with_acct(Database::with_clock(personality, bp_util::clock::sim_clock().1));
            let t = acct(&db);
            let mut s = db.session();
            let busy = db.metrics().snapshot().busy_micros;
            for id in 0..50 {
                s.with_txn(|s| s.insert(&t, vec![Value::Int(id), Value::Int(0)])).unwrap();
                s.with_txn(|s| s.read_pk(&t, &[Value::Int(id)], false).map(|_| ())).unwrap();
            }
            let charged = db.metrics().snapshot().busy_micros - busy;
            assert_eq!(db.clock().now(), charged, "{name}: the clock advances by what was charged");
            assert_eq!(charged == 0, name == "test", "{name} charged {charged} µs");
        }
    }

    #[test]
    fn insert_commit_read() {
        let db = db();
        let t = acct(&db);
        let mut s = db.session();
        s.begin().unwrap();
        s.insert(&t, vec![Value::Int(1), Value::Int(100)]).unwrap();
        s.commit().unwrap();

        let mut s2 = db.session();
        s2.begin().unwrap();
        let (_, row) = s2.read_pk(&t, &[Value::Int(1)], false).unwrap().unwrap();
        assert_eq!(row[1], Value::Int(100));
        s2.commit().unwrap();
        assert_eq!(db.metrics().snapshot().commits, 2);
    }

    #[test]
    fn rollback_insert() {
        let db = db();
        let t = acct(&db);
        let mut s = db.session();
        s.begin().unwrap();
        s.insert(&t, vec![Value::Int(1), Value::Int(100)]).unwrap();
        s.rollback().unwrap();
        assert_eq!(t.len(), 0);
        assert_eq!(db.metrics().snapshot().aborts, 1);
    }

    #[test]
    fn rollback_update_restores() {
        let db = db();
        let t = acct(&db);
        let mut s = db.session();
        s.with_txn(|s| s.insert(&t, vec![Value::Int(1), Value::Int(100)]))
            .unwrap();
        s.begin().unwrap();
        let (rid, _) = s.read_pk(&t, &[Value::Int(1)], true).unwrap().unwrap();
        s.update(&t, rid, vec![Value::Int(1), Value::Int(999)]).unwrap();
        s.rollback().unwrap();
        let row = t.get(rid).unwrap();
        assert_eq!(row[1], Value::Int(100));
    }

    #[test]
    fn rollback_delete_restores() {
        let db = db();
        let t = acct(&db);
        let mut s = db.session();
        let rid = s
            .with_txn(|s| s.insert(&t, vec![Value::Int(1), Value::Int(100)]))
            .unwrap();
        s.begin().unwrap();
        s.delete(&t, rid).unwrap();
        assert_eq!(t.len(), 0);
        s.rollback().unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(rid).unwrap()[1], Value::Int(100));
        assert_eq!(t.lookup_pk(&[Value::Int(1)]), Some(rid));
    }

    #[test]
    fn multi_op_rollback_in_reverse() {
        let db = db();
        let t = acct(&db);
        let mut s = db.session();
        s.with_txn(|s| {
            s.insert(&t, vec![Value::Int(1), Value::Int(10)])?;
            s.insert(&t, vec![Value::Int(2), Value::Int(20)])
        })
        .unwrap();
        s.begin().unwrap();
        let (r1, _) = s.read_pk(&t, &[Value::Int(1)], true).unwrap().unwrap();
        s.update(&t, r1, vec![Value::Int(1), Value::Int(11)]).unwrap();
        s.delete(&t, r1).unwrap();
        s.insert(&t, vec![Value::Int(3), Value::Int(30)]).unwrap();
        s.rollback().unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(r1).unwrap()[1], Value::Int(10));
        assert!(t.lookup_pk(&[Value::Int(3)]).is_none());
    }

    #[test]
    fn conflicting_writes_wait_die() {
        let db = db();
        let t = acct(&db);
        let mut s = db.session();
        s.with_txn(|s| s.insert(&t, vec![Value::Int(1), Value::Int(0)]))
            .unwrap();

        let mut older = db.session();
        let mut younger = db.session();
        older.begin().unwrap();
        younger.begin().unwrap();
        let (rid, _) = older.read_pk(&t, &[Value::Int(1)], true).unwrap().unwrap();
        older.update(&t, rid, vec![Value::Int(1), Value::Int(5)]).unwrap();
        // Younger conflicting write dies immediately.
        let err = younger
            .update(&t, rid, vec![Value::Int(1), Value::Int(7)])
            .unwrap_err();
        assert!(err.is_retryable());
        assert!(!younger.in_txn(), "failed txn must be rolled back");
        older.commit().unwrap();
        assert_eq!(t.get(rid).unwrap()[1], Value::Int(5));
    }

    #[test]
    fn reader_blocks_until_writer_commits() {
        let db = db();
        let t = acct(&db);
        let mut s = db.session();
        s.with_txn(|s| s.insert(&t, vec![Value::Int(1), Value::Int(0)]))
            .unwrap();

        let mut writer = db.session();
        writer.begin().unwrap();
        let (rid, _) = writer.read_pk(&t, &[Value::Int(1)], true).unwrap().unwrap();
        writer.update(&t, rid, vec![Value::Int(1), Value::Int(42)]).unwrap();

        let db2 = db.clone();
        let t2 = t.clone();
        let h = std::thread::spawn(move || {
            let mut reader = db2.session();
            reader.begin().unwrap();
            // Older reader waits for the younger writer... wait: reader is
            // younger here (created later), so wait-die would abort it.
            // Retry until the writer commits, as the workload layer does.
            loop {
                match reader.read_pk(&t2, &[Value::Int(1)], false) {
                    Ok(Some((_, row))) => {
                        reader.commit().unwrap();
                        return row[1].clone();
                    }
                    Ok(None) => panic!("row vanished"),
                    Err(e) if e.is_retryable() => {
                        reader.begin().unwrap();
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                    Err(e) => panic!("{e}"),
                }
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        writer.commit().unwrap();
        assert_eq!(h.join().unwrap(), Value::Int(42));
    }

    #[test]
    fn table_granularity_serializes_writers() {
        let db = Database::new(Personality { row_locking: false, ..Personality::test() });
        db.create_table(
            TableSchema::new(
                "t",
                vec![Column::new("id", DataType::Int), Column::new("v", DataType::Int)],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        let t = db.table("t").unwrap();
        let mut a = db.session();
        let mut b = db.session();
        a.begin().unwrap();
        b.begin().unwrap();
        a.insert(&t, vec![Value::Int(1), Value::Int(1)]).unwrap();
        // Second writer hits the table X lock; younger dies.
        let err = b.insert(&t, vec![Value::Int(2), Value::Int(2)]).unwrap_err();
        assert!(err.is_retryable());
        a.commit().unwrap();
    }

    #[test]
    fn held_table_lock_is_not_asked_for_again() {
        use bp_chaos::{FaultPlan, FaultWindow};
        // Table granularity: an insert takes the table's X lock and nothing
        // else, so the lock manager is crossed only if the table lock is.
        let db = Database::new(Personality { row_locking: false, ..Personality::test() });
        db.create_table(
            TableSchema::new("t", vec![Column::new("id", DataType::Int)], &["id"]).unwrap(),
        )
        .unwrap();
        let t = db.table("t").unwrap();
        let mut s = db.session();
        s.begin().unwrap();
        s.insert(&t, vec![Value::Int(1)]).unwrap();
        // From here on every call into the lock manager fails.
        db.chaos().arm(
            FaultPlan::new("all-errors", 1)
                .with_window(FaultWindow::always(FaultKind::InjectedError, 1.0, 0)),
        );
        s.insert(&t, vec![Value::Int(2)]).unwrap();
        assert_eq!(s.scan(&t).unwrap().len(), 2, "X covers the scan's S");
        s.commit().unwrap();
        assert_eq!(db.chaos().injected_total(FaultKind::InjectedError), 0);
        // The memo is the transaction's: the next one asks again.
        s.begin().unwrap();
        let err = s.insert(&t, vec![Value::Int(3)]).unwrap_err();
        assert_eq!(err, StorageError::Injected { site: "lock" });
    }

    #[test]
    fn table_lock_memo_follows_upgrades() {
        let db = db();
        let t = acct(&db);
        let mut s = db.session();
        s.with_txn(|s| s.insert(&t, vec![Value::Int(1), Value::Int(0)])).unwrap();
        let mut a = db.session();
        a.begin().unwrap();
        let (rid, _) = a.read_pk(&t, &[Value::Int(1)], false).unwrap().unwrap(); // IS
        a.update(&t, rid, vec![Value::Int(1), Value::Int(1)]).unwrap(); // IS -> IX
        a.update(&t, rid, vec![Value::Int(1), Value::Int(2)]).unwrap(); // IX, from the memo
        // The manager holds IX for `a`, not the IS it first asked for: a
        // younger scanner (table S) conflicts.
        let mut b = db.session();
        b.begin().unwrap();
        assert!(b.scan(&t).unwrap_err().is_retryable());
        a.commit().unwrap();
        assert_eq!(db.locks.entry_count(), 0, "each lock released once is all released");
    }

    #[test]
    fn duplicate_key_surfaces_but_txn_continues() {
        let db = db();
        let t = acct(&db);
        let mut s = db.session();
        s.begin().unwrap();
        s.insert(&t, vec![Value::Int(1), Value::Int(0)]).unwrap();
        let err = s.insert(&t, vec![Value::Int(1), Value::Int(0)]).unwrap_err();
        assert!(matches!(err, StorageError::DuplicateKey { .. }));
        assert!(s.in_txn(), "constraint violations do not auto-abort");
        s.rollback().unwrap();
    }

    #[test]
    fn scan_sees_committed_only_rows() {
        let db = db();
        let t = acct(&db);
        let mut s = db.session();
        s.with_txn(|s| {
            for i in 0..10 {
                s.insert(&t, vec![Value::Int(i), Value::Int(i * 10)])?;
            }
            Ok(())
        })
        .unwrap();
        let mut s2 = db.session();
        s2.begin().unwrap();
        let rows = s2.scan(&t).unwrap();
        assert_eq!(rows.len(), 10);
        s2.commit().unwrap();
    }

    #[test]
    fn scan_blocks_on_concurrent_writer() {
        let db = db();
        let t = acct(&db);
        let mut w = db.session();
        w.begin().unwrap();
        w.insert(&t, vec![Value::Int(1), Value::Int(0)]).unwrap();
        // Younger scanner conflicts with IX table lock and dies.
        let mut r = db.session();
        r.begin().unwrap();
        let err = r.scan(&t).unwrap_err();
        assert!(err.is_retryable());
        w.commit().unwrap();
    }

    #[test]
    fn truncate_all_and_reuse() {
        let db = db();
        let t = acct(&db);
        let mut s = db.session();
        s.with_txn(|s| s.insert(&t, vec![Value::Int(1), Value::Int(0)]))
            .unwrap();
        db.truncate_all();
        assert_eq!(db.total_rows(), 0);
        s.with_txn(|s| s.insert(&t, vec![Value::Int(1), Value::Int(0)]))
            .unwrap();
        assert_eq!(db.total_rows(), 1);
    }

    #[test]
    fn session_drop_rolls_back() {
        let db = db();
        let t = acct(&db);
        {
            let mut s = db.session();
            s.begin().unwrap();
            s.insert(&t, vec![Value::Int(1), Value::Int(0)]).unwrap();
            // dropped without commit
        }
        assert_eq!(t.len(), 0);
        // And the lock is gone: a new txn can write the same key.
        let mut s = db.session();
        s.with_txn(|s| s.insert(&t, vec![Value::Int(1), Value::Int(0)]))
            .unwrap();
    }

    #[test]
    fn ddl_catalog() {
        let db = db();
        assert!(db.table("ACCT").is_ok(), "names are case-insensitive");
        assert_eq!(db.table_names(), vec!["acct"]);
        assert!(db.create_table(
            TableSchema::new("acct", vec![Column::new("x", DataType::Int)], &[]).unwrap()
        ).is_err());
        db.drop_table("acct").unwrap();
        assert!(db.table("acct").is_err());
        assert!(db.drop_table("acct").is_err());
    }

    #[test]
    fn read_pk_rechecks_after_wait() {
        // Delete the row while a reader is blocked; reader must get None,
        // not a stale row.
        let db = db();
        let t = acct(&db);
        let mut s = db.session();
        s.with_txn(|s| s.insert(&t, vec![Value::Int(1), Value::Int(0)]))
            .unwrap();
        let mut deleter = db.session();
        deleter.begin().unwrap();
        let (rid, _) = deleter.read_pk(&t, &[Value::Int(1)], true).unwrap().unwrap();
        deleter.delete(&t, rid).unwrap();

        let db2 = db.clone();
        let t2 = t.clone();
        let h = std::thread::spawn(move || {
            let mut reader = db2.session();
            loop {
                reader.begin().unwrap();
                match reader.read_pk(&t2, &[Value::Int(1)], false) {
                    Ok(v) => {
                        reader.commit().unwrap();
                        return v.map(|(_, r)| r);
                    }
                    Err(e) if e.is_retryable() => {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    Err(e) => panic!("{e}"),
                }
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        deleter.commit().unwrap();
        assert_eq!(h.join().unwrap(), None);
    }

    #[test]
    fn chaos_injection_threads_through_engine() {
        use bp_chaos::{FaultPlan, FaultWindow};
        let db = db();
        let t = acct(&db);
        let mut s = db.session();
        s.with_txn(|s| s.insert(&t, vec![Value::Int(1), Value::Int(0)]))
            .unwrap();
        // Disarmed: nothing injected (everything above worked).
        assert_eq!(db.chaos().injected_total(FaultKind::InjectedError), 0);
        // Armed with certain transient errors: the first lock acquisition
        // fails retryably and rolls the transaction back.
        db.chaos().arm(
            FaultPlan::new("all-errors", 1)
                .with_window(FaultWindow::always(FaultKind::InjectedError, 1.0, 0)),
        );
        s.begin().unwrap();
        let err = s.read_pk(&t, &[Value::Int(1)], false).unwrap_err();
        assert_eq!(err, StorageError::Injected { site: "lock" });
        assert!(err.is_retryable());
        assert!(!s.in_txn(), "injected lock failure aborts the txn");
        assert!(db.chaos().injected_total(FaultKind::InjectedError) >= 1);
        // Disarm restores normal service.
        db.chaos().disarm();
        s.with_txn(|s| s.read_pk(&t, &[Value::Int(1)], false).map(|_| ()))
            .unwrap();
        // Fsync stalls land in the commit's busy time.
        let busy_before = db.metrics().snapshot().busy_micros;
        db.chaos().arm(
            FaultPlan::new("stall", 2)
                .with_window(FaultWindow::always(FaultKind::FsyncStall, 1.0, 7_000)),
        );
        s.with_txn(|s| s.insert(&t, vec![Value::Int(2), Value::Int(0)]))
            .unwrap();
        db.chaos().disarm();
        let busy_after = db.metrics().snapshot().busy_micros;
        assert!(
            busy_after - busy_before >= 7_000,
            "stall charged: {busy_before} -> {busy_after}"
        );
    }

    #[test]
    fn aborted_insert_leaves_no_row() {
        use bp_chaos::{FaultPlan, FaultWindow};
        // Three lock requests in ten fail. The one for the new row's X lock
        // comes after the row is in the table: the rollback it causes has
        // to take the row out again.
        let db = db();
        let t = acct(&db);
        db.chaos().arm(
            FaultPlan::new("flaky-locks", 7)
                .with_window(FaultWindow::always(FaultKind::InjectedError, 0.3, 0)),
        );
        let mut s = db.session();
        let mut committed = 0;
        for i in 0..10_000 {
            let inserted = s.with_txn(|s| s.insert(&t, vec![Value::Int(i), Value::Int(0)]));
            committed += inserted.is_ok() as usize;
        }
        db.chaos().disarm();
        assert!((3_000..7_000).contains(&committed), "{committed} of 10000 committed");
        assert_eq!(t.len(), committed, "a row per committed insert");
        // Every row left has redo: recovery rebuilds the same state.
        let live = db.state_digest();
        db.crash(CrashPoint::BeforeAppend, 0);
        db.recover();
        assert!(db.state_digest() == live, "recovered state differs from the live one");
    }

    #[test]
    fn a_read_that_finds_nothing_checks_what_a_hit_checks() {
        let db = db();
        let t = acct(&db);
        let mut s = db.session();
        s.with_txn(|s| s.insert(&t, vec![Value::Int(1), Value::Int(0)])).unwrap();
        let (hit, miss) = ([Value::Int(1)], [Value::Int(2)]);
        // A point read of a key that is not there, or a range read of no
        // rows at all.
        let read = |s: &mut Session, ranged: bool| {
            if ranged {
                let none = t.range(None, &miss, Bound::Unbounded, Bound::Unbounded);
                s.read_rows(&t, none, false, false, |_, _, _| Err(StorageError::RowGone))
            } else {
                s.read_pk(&t, &miss, false).map(|found| assert_eq!(found, None))
            }
        };
        for ranged in [false, true] {
            // Outside a transaction.
            assert_eq!(s.read_pk(&t, &hit, false), Err(StorageError::NoActiveTransaction));
            assert_eq!(read(&mut s, ranged), Err(StorageError::NoActiveTransaction));

            // On a crashed engine; the failure aborts the transaction.
            s.begin().unwrap();
            db.crash(CrashPoint::BeforeAppend, 0);
            assert_eq!(read(&mut s, ranged), Err(StorageError::Crashed));
            assert!(!s.in_txn());
            db.recover();

            // In a transaction that predates a recovery.
            s.begin().unwrap();
            db.crash(CrashPoint::BeforeAppend, 0);
            db.recover();
            assert_eq!(read(&mut s, ranged), Err(StorageError::Crashed));
            assert!(!s.in_txn());

            // And in a live one, a miss is a miss.
            s.begin().unwrap();
            assert_eq!(read(&mut s, ranged), Ok(()));
            s.commit().unwrap();
        }
    }

    /// Delivery frees `new_order` slots and NewOrder fills them again: a
    /// reader that takes "the first row" must not be shown the newest one
    /// because it sits where an older one was.
    #[test]
    fn an_entry_whose_slot_was_filled_again_is_skipped_by_a_reader_in_key_order() {
        let ids = |in_key_order: bool| {
            let db = db();
            let t = acct(&db);
            let mut s = db.session();
            s.with_txn(|s| (1..=3).try_for_each(|id| s.insert(&t, vec![Value::Int(id), Value::Int(0)]).map(|_| ())))
                .unwrap();
            let mut seen = Vec::new();
            s.begin().unwrap();
            let all = t.range(None, &[], Bound::Unbounded, Bound::Unbounded);
            s.read_rows(&t, all, false, in_key_order, |_, _, row| {
                // The entries of rows 1 to 3 have been copied and row 1 is
                // locked. Someone else deletes row 2 and puts row 9 where it
                // was, before this reader gets to that slot.
                if seen.is_empty() {
                    let mut other = db.session();
                    let freed = other.with_txn(|o| {
                        let (rowid, _) = o.read_pk(&t, &[Value::Int(2)], true)?.expect("row 2");
                        o.delete(&t, rowid).map(|()| rowid)
                    })?;
                    let filled = other.with_txn(|o| o.insert(&t, vec![Value::Int(9), Value::Int(0)]))?;
                    assert_eq!(freed, filled);
                }
                seen.push(row[0].as_int().unwrap());
                Ok::<_, StorageError>(ControlFlow::Continue(()))
            })
            .unwrap();
            s.commit().unwrap();
            seen
        };
        assert_eq!(ids(true), [1, 3]);
        // A reader that only filters what it is shown is shown what is there.
        assert_eq!(ids(false), [1, 9, 3]);
    }

    #[test]
    fn a_range_read_stops_when_its_visitor_breaks_and_holds_no_latch_meanwhile() {
        let db = db();
        let t = acct(&db);
        let mut s = db.session();
        s.with_txn(|s| (0..100).try_for_each(|id| s.insert(&t, vec![Value::Int(id), Value::Int(0)]).map(|_| ())))
            .unwrap();
        let before = db.metrics().snapshot().rows_read;
        s.begin().unwrap();
        let all = t.range(None, &[], Bound::Unbounded, Bound::Unbounded);
        let mut shown = 0;
        s.read_rows(&t, all, false, false, |s, rowid, _| {
            // A write latches the table: it would not return if the read
            // still held the latch its chunk was copied under.
            s.update(&t, rowid, vec![Value::Int(rowid as i64), Value::Int(1)])?;
            shown += 1;
            Ok::<_, StorageError>(if shown == 3 { ControlFlow::Break(()) } else { ControlFlow::Continue(()) })
        })
        .unwrap();
        s.commit().unwrap();
        assert_eq!(shown, 3);
        assert_eq!(db.metrics().snapshot().rows_read - before, 3, "the rows behind the third are not read");
    }

    #[test]
    fn metrics_row_counts() {
        let db = db();
        let t = acct(&db);
        let mut s = db.session();
        s.with_txn(|s| {
            s.insert(&t, vec![Value::Int(1), Value::Int(0)])?;
            s.insert(&t, vec![Value::Int(2), Value::Int(0)])
        })
        .unwrap();
        s.with_txn(|s| {
            s.read_pk(&t, &[Value::Int(1)], false)?;
            Ok(())
        })
        .unwrap();
        let m = db.metrics().snapshot();
        assert_eq!(m.rows_written, 2);
        assert_eq!(m.rows_read, 1);
        assert!(m.wal_bytes > 0);
    }

    // ---- The write path: in place when the table holds the only handle ----

    /// `item (id INT PRIMARY KEY, x FLOAT, s STR, grp INT)` with an index on
    /// `grp`, holding `(1, -0.0, 'old', 5)` committed.
    fn item() -> (Arc<Database>, Arc<Table>, RowId) {
        let db = Database::new(Personality::test());
        let columns = vec![
            Column::new("id", DataType::Int),
            Column::new("x", DataType::Float),
            Column::new("s", DataType::Str),
            Column::new("grp", DataType::Int),
        ];
        db.create_table(TableSchema::new("item", columns, &["id"]).unwrap()).unwrap();
        db.create_index("item", "item_grp", &["grp"], false).unwrap();
        let t = db.table("item").unwrap();
        let old = vec![Value::Int(1), Value::Float(-0.0), Value::Str("old".into()), Value::Int(5)];
        let rid = db.session().with_txn(|s| s.insert(&t, old)).unwrap();
        (db, t, rid)
    }

    /// The row at `rid`'s allocation; the handle is let go at once.
    fn address(t: &Table, rid: RowId) -> *const Value {
        Arc::as_ptr(&t.get(rid).unwrap()) as *const Value
    }

    fn is_original(t: &Table, rid: RowId) -> bool {
        let row = t.get(rid).unwrap();
        matches!(row[1], Value::Float(x) if x.to_bits() == (-0.0f64).to_bits())
            && row[2] == Value::Str("old".into())
            && row[..] == [Value::Int(1), Value::Float(0.0), Value::Str("old".into()), Value::Int(5)]
    }

    #[test]
    fn an_unshared_row_is_written_in_place_and_rollback_restores_its_values() {
        let (db, t, rid) = item();
        let at = address(&t, rid);
        let mut s = db.session();
        s.begin().unwrap();
        s.update_columns(&t, rid, vec![(1, Value::Float(2.5)), (2, Value::Str("new".into()))]).unwrap();
        assert_eq!(address(&t, rid), at, "written in place");
        assert_eq!(t.get(rid).unwrap()[1..3], [Value::Float(2.5), Value::Str("new".into())]);
        s.rollback().unwrap();
        assert_eq!(address(&t, rid), at);
        assert!(is_original(&t, rid), "{:?}", t.get(rid));
    }

    #[test]
    fn a_column_set_twice_rolls_back_to_its_original() {
        let (db, t, rid) = item();
        let mut s = db.session();
        s.begin().unwrap();
        s.update_columns(&t, rid, vec![(3, Value::Int(1)), (3, Value::Int(2))]).unwrap();
        assert_eq!(t.get(rid).unwrap()[3], Value::Int(2));
        assert_eq!(t.index_lookup("item_grp", &[Value::Int(2)]).unwrap(), vec![rid]);
        // A second update, of a row a reader now holds, is copied. Rollback
        // undoes it and then the write in place, whose row the reader still
        // holds: that one is copied too, and the reader keeps what it read.
        let held = t.get(rid).unwrap();
        s.update_columns(&t, rid, vec![(2, Value::Str("new".into()))]).unwrap();
        assert_eq!(held[2..], [Value::Str("old".into()), Value::Int(2)]);
        s.rollback().unwrap();
        assert_eq!(held[2..], [Value::Str("old".into()), Value::Int(2)]);
        assert!(is_original(&t, rid), "{:?}", t.get(rid));
        assert_eq!(t.index_lookup("item_grp", &[Value::Int(5)]).unwrap(), vec![rid]);
        assert!(t.index_lookup("item_grp", &[Value::Int(2)]).unwrap().is_empty());
    }

    #[test]
    fn a_row_someone_holds_is_copied_and_rollback_puts_the_original_back() {
        let (db, t, rid) = item();
        let held = t.get(rid).unwrap();
        let mut s = db.session();
        s.begin().unwrap();
        s.update_columns(&t, rid, vec![(2, Value::Str("new".into()))]).unwrap();
        assert!(!Arc::ptr_eq(&t.get(rid).unwrap(), &held), "copied");
        assert_eq!(held[2], Value::Str("old".into()));
        s.rollback().unwrap();
        assert!(Arc::ptr_eq(&t.get(rid).unwrap(), &held), "the original allocation is back");
    }

    #[test]
    fn a_key_column_write_rekeys_its_index_and_rollback_restores_the_key() {
        let (db, t, rid) = item();
        let mut s = db.session();
        s.begin().unwrap();
        s.update_columns(&t, rid, vec![(0, Value::Int(9))]).unwrap();
        assert_eq!((t.lookup_pk(&[Value::Int(1)]), t.lookup_pk(&[Value::Int(9)])), (None, Some(rid)));
        s.rollback().unwrap();
        assert_eq!((t.lookup_pk(&[Value::Int(1)]), t.lookup_pk(&[Value::Int(9)])), (Some(rid), None));

        s.begin().unwrap();
        s.update_columns(&t, rid, vec![(3, Value::Int(6))]).unwrap();
        assert!(t.index_lookup("item_grp", &[Value::Int(5)]).unwrap().is_empty());
        assert_eq!(t.index_lookup("item_grp", &[Value::Int(6)]).unwrap(), vec![rid]);
        s.rollback().unwrap();
        assert_eq!(t.index_lookup("item_grp", &[Value::Int(5)]).unwrap(), vec![rid]);
        assert!(t.index_lookup("item_grp", &[Value::Int(6)]).unwrap().is_empty());
        assert!(is_original(&t, rid));
    }

    #[test]
    fn a_row_inserted_then_updated_in_one_transaction_recovers_as_committed() {
        let (db, t, _) = item();
        let mut s = db.session();
        s.begin().unwrap();
        let row = vec![Value::Int(2), Value::Float(1.0), Value::Str("a".into()), Value::Int(7)];
        let rid = s.insert(&t, row).unwrap();
        // The insert's redo holds the row: the update copies it.
        s.update_columns(&t, rid, vec![(1, Value::Int(3)), (2, Value::Str("b".into()))]).unwrap();
        s.commit().unwrap();
        assert_eq!(t.get(rid).unwrap()[1..3], [Value::Float(3.0), Value::Str("b".into())]);
        let committed = db.state_digest();
        db.crash(CrashPoint::BeforeAppend, 0);
        db.recover();
        assert_eq!(db.state_digest(), committed);
    }

    #[test]
    fn a_checkpoint_is_not_changed_by_a_later_update() {
        let (db, t, rid) = item();
        db.checkpoint().unwrap();
        // Recovery hands the table the checkpoint's own rows.
        db.crash(CrashPoint::BeforeAppend, 0);
        db.recover();
        let committed = db.state_digest();
        let at = address(&t, rid);
        let mut s = db.session();
        s.begin().unwrap();
        s.update_columns(&t, rid, vec![(2, Value::Str("new".into()))]).unwrap();
        assert_ne!(address(&t, rid), at, "the checkpoint's row is copied");
        // Dies before commit: recovery must find the checkpoint as it was.
        db.crash(CrashPoint::BeforeAppend, 0);
        db.recover();
        drop(s);
        assert_eq!(db.state_digest(), committed);
        assert!(is_original(&t, rid));
    }

    #[test]
    fn redo_bytes_grow_by_each_committed_record_and_a_checkpoint_truncates_them() {
        use bp_obs::MetricsSource as _;
        let db = db();
        let t = acct(&db);
        let gauge = || {
            let mut buf = bp_obs::MetricsBuf::new();
            db.collect(&mut buf);
            let samples = buf.into_samples();
            let sample = samples.iter().find(|x| x.name == "bp_recovery_redo_bytes").expect("redo gauge");
            match sample.value {
                bp_obs::MetricValue::Gauge(v) => v as u64,
                ref other => panic!("{other:?}"),
            }
        };
        let mut s = db.session();
        s.with_txn(|s| s.insert(&t, vec![Value::Int(1), Value::Int(10)])).unwrap();
        let before = db.recovery_status().redo_bytes;
        assert!(before > 0);
        let (lsn, txn) = (db.wal.current_lsn(), db.next_txn.load(Ordering::Relaxed));
        let row = vec![Value::Int(2), Value::Int(20)];
        let rowid = s.with_txn(|s| s.insert(&t, row.clone())).unwrap();
        let len = crate::recovery::encode_record(&mut Vec::new(), lsn, txn, &[RedoOp::Insert { table: t.id, rowid, row: row.into() }]);
        assert_eq!(db.recovery_status().redo_bytes, before + len as u64);
        assert_eq!(gauge(), before + len as u64);
        // A read-only transaction logs nothing.
        s.with_txn(|s| s.read_pk(&t, &[Value::Int(2)], false)).unwrap();
        assert_eq!(db.recovery_status().redo_bytes, before + len as u64);
        db.checkpoint().unwrap();
        assert_eq!((db.recovery_status().redo_bytes, gauge()), (0, 0));
    }
}
