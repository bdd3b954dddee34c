//! Simulated write-ahead log with group commit, and the redo store behind it.
//!
//! Commits pay a log write and an fsync cost. When group commit is enabled,
//! commits landing within the personality's group window share one fsync:
//! the first commit in a window pays full price, followers pay nothing
//! extra. This is the main lever separating the "fast" and "slow"
//! personalities under write-heavy mixtures. Without a window every commit
//! pays its own fsync, and a commit reads the clock only to place itself in
//! a window.
//!
//! The redo store is the one record of what is durable: the log's segments,
//! the checkpoint LSN and the durable-LSN watermark under one mutex, and the
//! checkpoint image under one of its own. Checkpoint and recovery replay the
//! log through one [`fold`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bp_obs::{EventJournal, Severity};
use bp_util::clock::{wall_clock, SharedClock};
use bp_util::sync::Mutex;

use crate::metrics::ServerMetrics;
use crate::recovery::{
    apply_record, decode_record, encode_record, CheckpointStats, Decoded, RecoveryReport,
    RecoveryStatus, RedoOp, RedoRecord, TableImage,
};

/// Default log-segment size: a record that would overflow the open segment
/// opens the next one, which the store journals as a `wal_rotate` event.
pub const DEFAULT_SEGMENT_BYTES: u64 = 16 * 1024 * 1024;

/// The redo store behind the timing model.
#[derive(Default)]
struct RedoState {
    /// Encoded records, one buffer per segment; the last one is open.
    segments: Vec<Vec<u8>>,
    /// Segments opened since the last reset; numbers the `wal_rotate` events.
    opened: u64,
    /// The segments a running checkpoint folds. They stay part of the log
    /// until it is installed, so a recovery meanwhile replays them.
    sealed: Arc<Vec<Vec<u8>>>,
    /// The LSN of the last installed checkpoint.
    checkpoint_lsn: u64,
    /// Highest LSN whose redo record is fully appended.
    durable_lsn: u64,
}

/// What [`fold`] replayed.
struct Folded {
    records: u64,
    /// The highest LSN replayed, or the one the fold started from.
    lsn: u64,
    /// Where the log ends early: the segment and offset of a torn record.
    torn: Option<(usize, usize)>,
}

/// Hand each record of `segments` to `apply` in log order, up to the first
/// torn record: the one replay loop of checkpoint and recovery.
fn fold<'a>(
    segments: impl IntoIterator<Item = &'a Vec<u8>>,
    lsn: u64,
    mut apply: impl FnMut(&RedoRecord),
) -> Folded {
    let mut folded = Folded { records: 0, lsn, torn: None };
    for (i, seg) in segments.into_iter().enumerate() {
        let mut at = 0;
        while at < seg.len() {
            let Decoded::Record(rec, consumed) = decode_record(seg, at) else {
                folded.torn = Some((i, at));
                return folded;
            };
            apply(&rec);
            folded.lsn = folded.lsn.max(rec.lsn);
            folded.records += 1;
            at += consumed;
        }
    }
    folded
}

pub struct Wal {
    /// Times the group-commit window; the database sets its own.
    pub(crate) clock: SharedClock,
    /// Clock time of the fsync that opened the current group-commit window;
    /// untouched without a window.
    last_fsync_us: AtomicU64,
    next_lsn: AtomicU64,
    group_window_us: u64,
    us_per_kb: f64,
    fsync_us: f64,
    segment_limit: u64,
    journal: Option<Arc<EventJournal>>,
    redo: Mutex<RedoState>,
    /// The checkpoint image. A checkpoint folds into it a record at a time,
    /// outside the redo lock; a recovery that lands mid-fold replays every
    /// sealed record over it, which is exact because a record holds
    /// after-images: replaying a prefix of the log again changes nothing.
    image: Mutex<TableImage>,
    /// Held through a checkpoint, so one runs at a time; commits never take it.
    checkpointing: Mutex<()>,
}

impl Wal {
    pub fn new(group_window_us: u64, us_per_kb: f64, fsync_us: f64) -> Wal {
        Wal {
            clock: wall_clock(),
            last_fsync_us: AtomicU64::new(u64::MAX), // force first fsync
            next_lsn: AtomicU64::new(1),
            group_window_us,
            us_per_kb,
            fsync_us,
            segment_limit: DEFAULT_SEGMENT_BYTES,
            journal: None,
            redo: Mutex::new(RedoState::default()),
            image: Mutex::new(TableImage::new()),
            checkpointing: Mutex::new(()),
        }
    }

    /// Attach the event journal (rotation events) — builder style so the
    /// plain constructor keeps working everywhere.
    pub fn with_journal(mut self, journal: Arc<EventJournal>) -> Wal {
        self.journal = Some(journal);
        self
    }

    /// Record a transaction commit writing `bytes` of redo by the cost
    /// model's count.
    ///
    /// Returns `(lsn, cost_us)` — the service cost the committer must pay
    /// (log write + possibly an fsync).
    pub fn commit(&self, bytes: u64, metrics: &ServerMetrics) -> (u64, f64) {
        let lsn = self.next_lsn.fetch_add(1, Ordering::Relaxed);
        metrics.add_wal_bytes(bytes);
        let mut cost = self.us_per_kb * bytes as f64 / 1024.0;
        if self.fsync_due() {
            cost += self.fsync_us;
            metrics.inc_wal_fsyncs();
            metrics.add_io_writes(1);
        }
        metrics.add_fsync_micros(cost as u64);
        (lsn, cost)
    }

    /// Whether this commit pays an fsync. Without a window every commit
    /// does, and neither the clock nor the window's start is read. With one,
    /// the first commit of a window claims it; racers that lose the claim
    /// ride along for free.
    fn fsync_due(&self) -> bool {
        if self.group_window_us == 0 {
            return true;
        }
        let now = self.clock.now();
        let last = self.last_fsync_us.load(Ordering::Relaxed);
        let opens = last == u64::MAX || now.saturating_sub(last) >= self.group_window_us;
        opens
            && self
                .last_fsync_us
                .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
    }

    pub fn current_lsn(&self) -> u64 {
        self.next_lsn.load(Ordering::Relaxed)
    }

    /// Encode one commit's redo record for `lsn` straight into the open
    /// segment. With `torn` the record is cut mid-payload — the shape a
    /// crash between append and fsync leaves behind — and the durable
    /// watermark does not advance. A segment opened after the first since
    /// the last reset is journaled as a `wal_rotate` event.
    pub fn append_redo(&self, lsn: u64, txn: u64, ops: &[RedoOp], torn: bool) {
        let mut redo = self.redo.lock();
        let opened = redo.opened;
        if redo.segments.is_empty() {
            redo.segments.push(Vec::new());
            redo.opened += 1;
        }
        let seg = redo.segments.last_mut().expect("segment just ensured");
        let start = seg.len();
        let len = encode_record(seg, lsn, txn, ops);
        if torn {
            seg.truncate(start + len / 2);
        }
        // A record that would overflow a segment already holding others
        // opens the next one instead.
        if start > 0 && (start + len) as u64 > self.segment_limit {
            let bytes = seg.split_off(start);
            redo.segments.push(bytes);
            redo.opened += 1;
        }
        if !torn {
            // Committers take their LSNs before this lock, so records can
            // arrive out of LSN order; the watermark never moves back.
            redo.durable_lsn = redo.durable_lsn.max(lsn);
        }
        // The first segment since a reset opens the log; a later one is a
        // rotation, numbered by the segments opened before it.
        let rotation = (redo.opened > opened && opened > 0).then_some(opened);
        drop(redo);
        if let Some(segment) = rotation {
            if let Some(j) = &self.journal {
                j.emit_with(Severity::Info, "storage", "wal_rotate", || {
                    (
                        format!("wal segment {segment} opened at lsn {lsn}"),
                        vec![
                            ("segment", segment.to_string()),
                            ("lsn", lsn.to_string()),
                            ("bytes", self.segment_limit.to_string()),
                        ],
                    )
                });
            }
        }
    }

    /// The store's part of a recovery status, read under one lock: the
    /// durable and checkpoint LSNs, and the encoded bytes its segments hold
    /// (a running checkpoint's included, the image not).
    pub(crate) fn report(&self, status: &mut RecoveryStatus) {
        let redo = self.redo.lock();
        status.durable_lsn = redo.durable_lsn;
        status.checkpoint_lsn = redo.checkpoint_lsn;
        status.redo_bytes =
            redo.sealed.iter().chain(&redo.segments).map(|seg| seg.len() as u64).sum();
    }

    /// Fold the log into the checkpoint image and truncate the segments it
    /// folded. Every record in the store belongs to a committed transaction,
    /// so the image is transaction-consistent without quiescing writers. The
    /// redo lock is held to seal the log and to install the checkpoint, each
    /// O(1), never through the fold: committers append to fresh segments
    /// meanwhile.
    pub fn take_checkpoint(&self) -> CheckpointStats {
        let _one = self.checkpointing.lock();
        let (sealed, lsn) = self.seal();
        // The image's lock is taken per record, so a recovery waits for one
        // record at most. A torn record only exists in a crashed engine; the
        // fold stops there.
        let folded = fold(sealed.iter(), lsn, |rec| apply_record(&mut self.image.lock(), rec));
        self.install(folded.lsn);
        CheckpointStats {
            lsn: folded.lsn,
            records_applied: folded.records,
            segments_truncated: sealed.len() as u64,
        }
    }

    /// Seal the open segment and hand every segment to the checkpoint, with
    /// the durable LSN: every record appended by then is in the image or in
    /// the sealed segments.
    fn seal(&self) -> (Arc<Vec<Vec<u8>>>, u64) {
        let mut redo = self.redo.lock();
        redo.sealed = Arc::new(std::mem::take(&mut redo.segments));
        (redo.sealed.clone(), redo.durable_lsn)
    }

    /// Advance the checkpoint LSN and drop the folded segments from the log;
    /// their bytes are freed with the checkpoint's handle, after the lock.
    fn install(&self, lsn: u64) {
        let mut redo = self.redo.lock();
        redo.checkpoint_lsn = lsn;
        redo.sealed = Arc::default();
    }

    /// Rebuild the committed state: the checkpoint image, then the segments
    /// a running checkpoint folds, then the open ones. The log ends at its
    /// first torn record, which is truncated with everything after it. The
    /// report's duration and generation are the caller's to fill in.
    pub fn recovered_image(&self) -> (TableImage, RecoveryReport) {
        let mut redo = self.redo.lock();
        let checkpoint_lsn = redo.checkpoint_lsn;
        let mut tables = self.image.lock().clone();
        let segments = redo.sealed.iter().chain(&redo.segments);
        let folded = fold(segments, checkpoint_lsn, |rec| apply_record(&mut tables, rec));
        if let Some((seg, at)) = folded.torn {
            match seg.checked_sub(redo.sealed.len()) {
                Some(open) => {
                    redo.segments.truncate(open + 1);
                    redo.segments[open].truncate(at);
                }
                // Torn in the sealed segments: the checkpoint folding them
                // stops there too, and its install drops them.
                None => redo.segments.clear(),
            }
        }
        redo.durable_lsn = folded.lsn;
        let report = RecoveryReport {
            replayed_records: folded.records,
            torn_truncated: folded.torn.is_some() as u64,
            checkpoint_lsn,
            durable_lsn: folded.lsn,
            ..RecoveryReport::default()
        };
        (tables, report)
    }

    /// Rewind for `truncate_all`/`reset_schema`: the group-commit window,
    /// the LSN counter and the redo store, so back-to-back runs do not
    /// inherit the previous run's log. Waits for a running checkpoint, which
    /// would fold the old log into the cleared image.
    pub fn reset_full(&self) {
        let _one = self.checkpointing.lock();
        self.last_fsync_us.store(u64::MAX, Ordering::Relaxed);
        self.next_lsn.store(1, Ordering::Relaxed);
        *self.redo.lock() = RedoState::default();
        self.image.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::value::Value;

    impl Wal {
        /// Override the segment-rotation threshold: tests use small segments.
        fn with_segment_bytes(mut self, limit: u64) -> Wal {
            self.segment_limit = limit.max(1);
            self
        }

        fn status(&self) -> RecoveryStatus {
            let mut status = RecoveryStatus::default();
            self.report(&mut status);
            status
        }

        /// Segments the store opened since the last reset.
        fn opened(&self) -> u64 {
            self.redo.lock().opened
        }
    }

    /// Commit and append transaction `i`, which inserts a 40-byte string
    /// as row `i`; returns the commit's cost.
    fn commit_insert(wal: &Wal, m: &ServerMetrics, i: u64) -> f64 {
        let (lsn, cost) = wal.commit(64, m);
        let ops = [RedoOp::Insert { table: 1, rowid: i, row: [Value::Str("x".repeat(40))].into() }];
        wal.append_redo(lsn, i, &ops, false);
        cost
    }

    /// The `segment` field of each `wal_rotate` event, in order.
    fn rotations(j: &EventJournal) -> Vec<String> {
        let events = j.all();
        let rotations = events.iter().filter(|e| e.kind == "wal_rotate");
        rotations.map(|e| e.field("segment").expect("segment field").to_string()).collect()
    }

    #[test]
    fn lsn_monotonic() {
        let m = ServerMetrics::new();
        let wal = Wal::new(0, 5.0, 100.0);
        let (a, _) = wal.commit(100, &m);
        let (b, _) = wal.commit(100, &m);
        assert!(b > a);
    }

    #[test]
    fn no_group_commit_every_commit_fsyncs() {
        let m = ServerMetrics::new();
        let wal = Wal::new(0, 0.0, 100.0);
        for _ in 0..5 {
            let (_, cost) = wal.commit(0, &m);
            assert_eq!(cost, 100.0);
        }
        assert_eq!(m.snapshot().wal_fsyncs, 5);
    }

    #[test]
    fn no_group_commit_every_concurrent_commit_fsyncs() {
        let m = ServerMetrics::new();
        let wal = Wal::new(0, 0.0, 100.0);
        let paid = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        if wal.commit(0, &m).1 == 100.0 {
                            paid.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(paid.into_inner(), 40_000, "a commit skipped its fsync");
        assert_eq!(m.snapshot().wal_fsyncs, 40_000);
    }

    #[test]
    fn group_commit_amortizes_fsync() {
        let m = ServerMetrics::new();
        // Huge window: only the first commit should fsync.
        let wal = Wal::new(60_000_000, 0.0, 100.0);
        let (_, first) = wal.commit(0, &m);
        assert_eq!(first, 100.0);
        for _ in 0..10 {
            let (_, cost) = wal.commit(0, &m);
            assert_eq!(cost, 0.0);
        }
        assert_eq!(m.snapshot().wal_fsyncs, 1);
    }

    #[test]
    fn bytes_cost_scales() {
        let m = ServerMetrics::new();
        let wal = Wal::new(60_000_000, 10.0, 0.0);
        let (_, c1) = wal.commit(1024, &m);
        let (_, c2) = wal.commit(4096, &m);
        assert!((c1 - 10.0).abs() < 1e-9);
        assert!((c2 - 40.0).abs() < 1e-9);
        assert_eq!(m.snapshot().wal_bytes, 5120);
    }

    #[test]
    fn segment_rotation_emits_journal_event() {
        let m = ServerMetrics::new();
        let j = Arc::new(EventJournal::new());
        let wal = Wal::new(0, 0.0, 10.0).with_journal(j.clone()).with_segment_bytes(128);
        for i in 0..8 {
            commit_insert(&wal, &m, i);
        }
        let opened = wal.opened();
        assert!(opened > 2, "8 records of ~50 bytes in 128-byte segments: {opened} opened");
        let want: Vec<String> = (1..opened).map(|s| s.to_string()).collect();
        assert_eq!(rotations(&j), want, "one event per segment after the first, numbered");
        let cp = wal.take_checkpoint();
        assert_eq!(cp.segments_truncated, opened, "the checkpoint truncates every segment held");
        assert!(m.snapshot().fsync_micros >= 80, "commit cost charged to fsync_us");
    }

    #[test]
    fn first_commit_always_fsyncs() {
        // The u64::MAX sentinel must force an fsync on the very first
        // commit no matter how wide the group window is, and again after
        // every (full) reset.
        for window in [1, 1_000, 60_000_000] {
            let m = ServerMetrics::new();
            let wal = Wal::new(window, 0.0, 75.0);
            let (_, c) = wal.commit(10, &m);
            assert_eq!(c, 75.0, "window {window}: first commit must pay the fsync");
            wal.reset_full();
            let (_, c) = wal.commit(10, &m);
            assert_eq!(c, 75.0, "window {window}: first commit after reset_full");
        }
    }

    #[test]
    fn commit_exactly_at_window_edge_fsyncs() {
        let m = ServerMetrics::new();
        let (sim, clock) = bp_util::clock::sim_clock();
        let wal = Wal { clock, ..Wal::new(1_000, 0.0, 100.0) };
        sim.advance_to(5_000);
        let (_, c) = wal.commit(0, &m);
        assert_eq!(c, 100.0);
        // The boundary is inclusive (elapsed >= window): exactly one window
        // after the last fsync, this commit must fsync.
        sim.advance_to(6_000);
        let (_, c) = wal.commit(0, &m);
        assert_eq!(c, 100.0, "elapsed == window must start a new group");
        // One µs short of the next window: the follower rides for free.
        sim.advance_to(6_999);
        let (_, c) = wal.commit(0, &m);
        assert_eq!(c, 0.0, "inside the window no fsync is due");
    }

    #[test]
    fn segment_rotation_mid_group_commit_window() {
        // A rotation landing inside an open group-commit window must not
        // force an early fsync: rotation and fsync scheduling are
        // independent.
        let m = ServerMetrics::new();
        let j = Arc::new(EventJournal::new());
        let wal = Wal::new(60_000_000, 0.0, 100.0)
            .with_journal(j.clone())
            .with_segment_bytes(128);
        assert_eq!(commit_insert(&wal, &m, 0), 100.0, "window opener pays the fsync");
        for i in 1..8 {
            let cost = commit_insert(&wal, &m, i);
            assert_eq!(cost, 0.0, "followers ride the open window across the rotation");
        }
        assert!(wal.opened() > 1, "the records crossed the 128-byte limit");
        assert_eq!(rotations(&j).len() as u64, wal.opened() - 1);
        assert_eq!(m.snapshot().wal_fsyncs, 1, "rotation must not trigger an extra fsync");
    }

    #[test]
    fn reset_full_rewinds_lsn_and_rotation_counters() {
        let m = ServerMetrics::new();
        let j = Arc::new(EventJournal::new());
        let wal = Wal::new(0, 0.0, 10.0).with_journal(j.clone()).with_segment_bytes(128);
        for i in 0..8 {
            commit_insert(&wal, &m, i);
        }
        wal.take_checkpoint();
        commit_insert(&wal, &m, 8);
        assert!(wal.current_lsn() > 1);
        assert!(wal.opened() > 1);
        wal.reset_full();
        assert_eq!(wal.current_lsn(), 1, "LSN counter rewound");
        assert_eq!(wal.opened(), 0, "rotation count rewound");
        let s = wal.status();
        assert_eq!((s.durable_lsn, s.checkpoint_lsn, s.redo_bytes), (0, 0, 0), "redo store cleared");
        let rotated = rotations(&j).len();
        commit_insert(&wal, &m, 0);
        assert_eq!(wal.status().durable_lsn, 1, "first commit after reset gets LSN 1");
        assert_eq!(rotations(&j).len(), rotated, "the first segment after a reset is no rotation");
    }

    #[test]
    fn the_durable_lsn_never_moves_backwards() {
        // Committers take their LSNs before the redo lock, so LSN 6 can be
        // appended before LSN 5.
        let wal = Wal::new(0, 0.0, 0.0);
        let delete = |rowid| [RedoOp::Delete { table: 1, rowid }];
        wal.append_redo(6, 2, &delete(2), false);
        wal.append_redo(5, 1, &delete(1), false);
        assert_eq!(wal.status().durable_lsn, 6);
        wal.append_redo(7, 3, &delete(3), true);
        assert_eq!(wal.status().durable_lsn, 6, "a torn record is not durable");
    }

    /// Commit transaction `i` of a mixed history and apply it to
    /// `committed` too: it inserts row `i`, and on some turns updates row
    /// `i - 1` or deletes row `i - 2`.
    fn commit_mixed(wal: &Wal, m: &ServerMetrics, committed: &mut TableImage, i: u64) {
        let row = [Value::Int(i as i64), Value::Int(0)].into();
        let mut ops = vec![RedoOp::Insert { table: 1, rowid: i, row }];
        if i % 3 == 2 {
            ops.push(RedoOp::Update { table: 1, rowid: i - 1, cols: vec![(1, Value::Int(i as i64))] });
        }
        if i % 5 == 4 {
            ops.push(RedoOp::Delete { table: 1, rowid: i - 2 });
        }
        let (lsn, _) = wal.commit(32, m);
        wal.append_redo(lsn, i, &ops, false);
        apply_record(committed, &RedoRecord { lsn, txn: i, ops });
    }

    /// A checkpoint folds without the redo lock, so a recovery can land in
    /// any phase of one: before the seal, after it with more records
    /// appended, part-way through the fold, after it and after the install.
    /// Each rebuilds the committed prefix. The steps run on one thread: a
    /// phase that kept a lock the next one takes would deadlock here.
    #[test]
    fn a_recovery_at_every_phase_of_a_checkpoint_rebuilds_the_committed_prefix() {
        let m = ServerMetrics::new();
        let wal = Wal::new(0, 0.0, 0.0).with_segment_bytes(64);
        let mut committed = TableImage::new();
        for i in 0..12 {
            commit_mixed(&wal, &m, &mut committed, i);
        }
        assert!(wal.recovered_image().0 == committed, "before the seal");
        let before_seal = wal.status().redo_bytes;

        let (sealed, lsn) = wal.seal();
        assert!(sealed.len() > 1);
        assert_eq!(wal.status().redo_bytes, before_seal, "sealed segments are still the log");
        for i in 12..24 {
            commit_mixed(&wal, &m, &mut committed, i);
        }
        let appended = wal.status().redo_bytes - before_seal;
        let (tables, r) = wal.recovered_image();
        assert!(tables == committed, "sealed, with records appended after the seal");
        assert_eq!((r.replayed_records, r.checkpoint_lsn, r.durable_lsn), (24, 0, 24));

        // Part-way: the image holds the first 5 sealed records, and every
        // sealed record is replayed over it.
        let mut left = 5;
        fold(sealed.iter(), lsn, |rec| {
            if left > 0 {
                apply_record(&mut wal.image.lock(), rec);
                left -= 1;
            }
        });
        assert!(wal.recovered_image().0 == committed, "part-way through the fold");

        let folded = fold(sealed.iter(), lsn, |rec| apply_record(&mut wal.image.lock(), rec));
        assert_eq!((folded.lsn, folded.records, folded.torn), (12, 12, None));
        assert!(wal.recovered_image().0 == committed, "folded, not installed");

        wal.install(folded.lsn);
        let (tables, r) = wal.recovered_image();
        assert!(tables == committed, "installed");
        assert_eq!((r.replayed_records, r.checkpoint_lsn, r.durable_lsn), (12, 12, 24));
        assert_eq!(wal.status().redo_bytes, appended, "the install drops the folded segments");

        // A torn record after the install ends the log there.
        let (lsn, _) = wal.commit(32, &m);
        wal.append_redo(lsn, 24, &[RedoOp::Delete { table: 1, rowid: 0 }], true);
        let (tables, r) = wal.recovered_image();
        assert!(tables == committed, "the torn delete does not apply");
        assert_eq!((r.replayed_records, r.torn_truncated), (12, 1));
    }

    #[test]
    fn redo_append_checkpoint_and_recovery_round_trip() {
        let m = ServerMetrics::new();
        let wal = Wal::new(0, 0.0, 0.0);
        for i in 0..4u64 {
            let (lsn, _) = wal.commit(32, &m);
            let ops = [RedoOp::Insert { table: 1, rowid: i, row: [Value::Int(i as i64)].into() }];
            wal.append_redo(lsn, i, &ops, false);
        }
        let cp = wal.take_checkpoint();
        assert_eq!(cp.records_applied, 4);
        assert_eq!(cp.segments_truncated, 1);
        assert_eq!(cp.lsn, 4);
        // Two more commits after the checkpoint, the last one torn.
        let (lsn, _) = wal.commit(32, &m);
        wal.append_redo(lsn, 10, &[RedoOp::Delete { table: 1, rowid: 0 }], false);
        let (lsn2, _) = wal.commit(32, &m);
        wal.append_redo(lsn2, 11, &[RedoOp::Delete { table: 1, rowid: 1 }], true);
        let (tables, image) = wal.recovered_image();
        assert_eq!(image.checkpoint_lsn, 4);
        assert_eq!(image.replayed_records, 1, "only the complete tail record replays");
        assert_eq!(image.torn_truncated, 1, "the torn record is truncated");
        assert_eq!(image.durable_lsn, lsn);
        let t = &tables[&1];
        assert_eq!(t.len(), 3, "rows 1..4 minus the replayed delete of row 0");
        assert!(!t.contains_key(&0));
        assert!(t.contains_key(&1), "torn delete of row 1 must not apply");
    }

    #[test]
    fn redo_segments_rotate_by_size() {
        let m = ServerMetrics::new();
        let wal = Wal::new(0, 0.0, 0.0).with_segment_bytes(128);
        for i in 0..8 {
            commit_insert(&wal, &m, i);
        }
        assert!(wal.redo.lock().segments.len() > 1, "records spill into multiple segments");
        let (tables, image) = wal.recovered_image();
        assert_eq!(image.replayed_records, 8, "replay walks every segment");
        assert_eq!(tables[&1].len(), 8);
    }
}
