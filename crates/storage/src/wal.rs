//! Simulated write-ahead log with group commit.
//!
//! Commits append their redo bytes and pay an fsync cost. When group commit
//! is enabled, commits landing within the personality's group window share
//! one fsync: the first commit in a window pays full price, followers pay
//! nothing extra. This is the main lever separating the "fast" and "slow"
//! personalities under write-heavy mixtures. Without a window every commit
//! pays its own fsync, and a commit reads the clock only to place itself in
//! a window.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bp_obs::{EventJournal, Severity};
use bp_util::clock::{wall_clock, SharedClock};
use bp_util::sync::Mutex;

use crate::metrics::ServerMetrics;
use crate::recovery::{
    apply_record, decode_record, encode_record, Checkpoint, CheckpointStats, Decoded, RedoOp,
    TableImage,
};

/// Default log-segment size; crossing it rotates to a new segment and
/// emits a `wal_rotate` journal event.
pub const DEFAULT_SEGMENT_BYTES: u64 = 16 * 1024 * 1024;

/// One redo-log segment: encoded records starting at `base_lsn`.
#[derive(Debug, Default)]
struct RedoSegment {
    #[cfg_attr(not(test), allow(dead_code))]
    base_lsn: u64,
    bytes: Vec<u8>,
}

/// The redo store behind the timing model: appended record bytes, the
/// latest checkpoint image and the durable-LSN watermark.
#[derive(Default)]
struct RedoState {
    segments: Vec<RedoSegment>,
    checkpoint: Option<Checkpoint>,
    durable_lsn: u64,
}

/// The redo tail materialized by [`Wal::recovered_image`].
pub struct RecoveredImage {
    pub tables: TableImage,
    pub replayed_records: u64,
    pub torn_truncated: u64,
    pub checkpoint_lsn: u64,
    pub durable_lsn: u64,
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
    /// Bytes appended since the current segment opened.
    segment_bytes: AtomicU64,
    segment_limit: u64,
    /// Segments rotated away so far (current segment index).
    segments_rotated: AtomicU64,
    journal: Option<Arc<EventJournal>>,
    redo: Mutex<RedoState>,
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
            segment_bytes: AtomicU64::new(0),
            segment_limit: DEFAULT_SEGMENT_BYTES,
            segments_rotated: AtomicU64::new(0),
            journal: None,
            redo: Mutex::new(RedoState::default()),
        }
    }

    /// Attach the event journal (rotation events) — builder style so the
    /// plain constructor keeps working everywhere.
    pub fn with_journal(mut self, journal: Arc<EventJournal>) -> Wal {
        self.journal = Some(journal);
        self
    }

    pub fn segments_rotated(&self) -> u64 {
        self.segments_rotated.load(Ordering::Relaxed)
    }

    /// Record a transaction commit writing `bytes` of redo.
    ///
    /// Returns `(lsn, cost_us)` — the service cost the committer must pay
    /// (log write + possibly an fsync).
    pub fn commit(&self, bytes: u64, metrics: &ServerMetrics) -> (u64, f64) {
        let lsn = self.next_lsn.fetch_add(1, Ordering::Relaxed);
        metrics.add_wal_bytes(bytes);
        let mut cost = self.us_per_kb * bytes as f64 / 1024.0;

        // Segment accounting: the committer that crosses the limit opens a
        // new segment and journals the rotation.
        let seg = self.segment_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if seg >= self.segment_limit && bytes > 0 {
            let over = seg - self.segment_limit;
            if self
                .segment_bytes
                .compare_exchange(seg, over, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                let segment = self.segments_rotated.fetch_add(1, Ordering::Relaxed) + 1;
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
    /// watermark does not advance.
    pub fn append_redo(&self, lsn: u64, txn: u64, ops: &[RedoOp], torn: bool) {
        let mut redo = self.redo.lock();
        if redo.segments.is_empty() {
            redo.segments.push(RedoSegment { base_lsn: lsn, bytes: Vec::new() });
        }
        let seg = redo.segments.last_mut().expect("segment just ensured");
        let start = seg.bytes.len();
        let len = encode_record(&mut seg.bytes, lsn, txn, ops);
        if torn {
            seg.bytes.truncate(start + len / 2);
        }
        // A record that would overflow a segment already holding others
        // opens the next one instead.
        if start > 0 && (start + len) as u64 > self.segment_limit {
            let bytes = seg.bytes.split_off(start);
            redo.segments.push(RedoSegment { base_lsn: lsn, bytes });
        }
        if !torn {
            redo.durable_lsn = lsn;
        }
    }

    /// Encoded bytes the store holds, summed over its segments; the
    /// checkpoint image is not counted.
    pub fn redo_bytes(&self) -> u64 {
        self.redo.lock().segments.iter().map(|seg| seg.bytes.len() as u64).sum()
    }

    /// Highest LSN whose redo record is fully appended.
    pub fn durable_lsn(&self) -> u64 {
        self.redo.lock().durable_lsn
    }

    /// Snapshot the committed state at the current stable LSN and truncate
    /// the consumed segments. Every record in the store belongs to a
    /// committed transaction, so the image is transaction-consistent
    /// without quiescing writers.
    pub fn take_checkpoint(&self) -> CheckpointStats {
        let mut redo = self.redo.lock();
        let mut image = redo.checkpoint.take().map(|c| c.tables).unwrap_or_default();
        let mut applied = 0u64;
        let mut lsn = redo.durable_lsn;
        for seg in &redo.segments {
            let mut at = 0;
            while at < seg.bytes.len() {
                match decode_record(&seg.bytes, at) {
                    Decoded::Record(rec, consumed) => {
                        apply_record(&mut image, &rec);
                        lsn = lsn.max(rec.lsn);
                        applied += 1;
                        at += consumed;
                    }
                    // A torn tail only exists in a crashed engine; the
                    // checkpointer never runs there. Stop defensively.
                    Decoded::Torn => break,
                }
            }
        }
        let truncated = redo.segments.len() as u64;
        redo.segments.clear();
        redo.checkpoint = Some(Checkpoint { lsn, tables: image });
        CheckpointStats { lsn, records_applied: applied, segments_truncated: truncated }
    }

    /// Rebuild the committed state: latest checkpoint plus the replayed
    /// redo tail. A torn final record is truncated from the store.
    pub fn recovered_image(&self) -> RecoveredImage {
        let mut redo = self.redo.lock();
        let checkpoint_lsn = redo.checkpoint.as_ref().map(|c| c.lsn).unwrap_or(0);
        let mut tables = redo.checkpoint.as_ref().map(|c| c.tables.clone()).unwrap_or_default();
        let mut replayed = 0u64;
        let mut torn = 0u64;
        let mut durable = checkpoint_lsn;
        for seg in &mut redo.segments {
            let mut at = 0;
            while at < seg.bytes.len() {
                match decode_record(&seg.bytes, at) {
                    Decoded::Record(rec, consumed) => {
                        apply_record(&mut tables, &rec);
                        durable = durable.max(rec.lsn);
                        replayed += 1;
                        at += consumed;
                    }
                    Decoded::Torn => {
                        seg.bytes.truncate(at);
                        torn += 1;
                        break;
                    }
                }
            }
        }
        redo.durable_lsn = durable;
        RecoveredImage {
            tables,
            replayed_records: replayed,
            torn_truncated: torn,
            checkpoint_lsn,
            durable_lsn: durable,
        }
    }

    /// Reset after a database reset.
    pub fn reset(&self) {
        self.last_fsync_us.store(u64::MAX, Ordering::Relaxed);
        self.segment_bytes.store(0, Ordering::Relaxed);
    }

    /// Full reset for `truncate_all`/`reset_schema`: also rewinds the LSN
    /// counter, rotation count and the redo store so back-to-back runs do
    /// not inherit the previous run's log state.
    pub fn reset_full(&self) {
        self.reset();
        self.next_lsn.store(1, Ordering::Relaxed);
        self.segments_rotated.store(0, Ordering::Relaxed);
        let mut redo = self.redo.lock();
        redo.segments.clear();
        redo.checkpoint = None;
        redo.durable_lsn = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Wal {
        /// Override the segment-rotation threshold: tests use small segments.
        fn with_segment_bytes(mut self, limit: u64) -> Wal {
            self.segment_limit = limit.max(1);
            self
        }
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
        let wal = Wal::new(0, 0.0, 10.0).with_journal(j.clone()).with_segment_bytes(1000);
        for _ in 0..5 {
            wal.commit(300, &m);
        }
        // 1500 bytes crosses at commit 4 (1200), remainder 200 + 300 = 500.
        assert_eq!(wal.segments_rotated(), 1);
        let events = j.all();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "wal_rotate");
        assert_eq!(events[0].field("segment"), Some("1"));
        assert!(m.snapshot().fsync_micros >= 50, "commit cost charged to fsync_us");
    }

    #[test]
    fn reset_forces_fsync_again() {
        let m = ServerMetrics::new();
        let wal = Wal::new(60_000_000, 0.0, 50.0);
        let (_, c) = wal.commit(0, &m);
        assert_eq!(c, 50.0);
        wal.reset();
        let (_, c) = wal.commit(0, &m);
        assert_eq!(c, 50.0);
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
            .with_segment_bytes(1000);
        let (_, first) = wal.commit(300, &m);
        assert_eq!(first, 100.0, "window opener pays the fsync");
        for _ in 0..4 {
            let (_, c) = wal.commit(300, &m);
            assert_eq!(c, 0.0, "followers ride the open window across the rotation");
        }
        assert_eq!(wal.segments_rotated(), 1, "1500 bytes crossed the 1000-byte limit");
        assert_eq!(m.snapshot().wal_fsyncs, 1, "rotation must not trigger an extra fsync");
        assert!(j.all().iter().any(|e| e.kind == "wal_rotate"));
    }

    #[test]
    fn reset_full_rewinds_lsn_and_rotation_counters() {
        let m = ServerMetrics::new();
        let wal = Wal::new(0, 0.0, 10.0).with_segment_bytes(100);
        for _ in 0..5 {
            wal.commit(60, &m);
        }
        assert!(wal.current_lsn() > 1);
        assert!(wal.segments_rotated() > 0);
        wal.append_redo(1, 1, &[RedoOp::Delete { table: 1, rowid: 0 }], false);
        wal.reset_full();
        assert_eq!(wal.current_lsn(), 1, "LSN counter rewound");
        assert_eq!(wal.segments_rotated(), 0, "rotation counter rewound");
        assert_eq!(wal.durable_lsn(), 0, "redo store cleared");
        let (lsn, _) = wal.commit(10, &m);
        assert_eq!(lsn, 1, "first commit after reset gets LSN 1");
    }

    #[test]
    fn redo_append_checkpoint_and_recovery_round_trip() {
        use crate::value::Value;
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
        let image = wal.recovered_image();
        assert_eq!(image.checkpoint_lsn, 4);
        assert_eq!(image.replayed_records, 1, "only the complete tail record replays");
        assert_eq!(image.torn_truncated, 1, "the torn record is truncated");
        assert_eq!(image.durable_lsn, lsn);
        let t = &image.tables[&1];
        assert_eq!(t.len(), 3, "rows 1..4 minus the replayed delete of row 0");
        assert!(!t.contains_key(&0));
        assert!(t.contains_key(&1), "torn delete of row 1 must not apply");
    }

    #[test]
    fn redo_segments_rotate_by_size() {
        use crate::value::Value;
        let m = ServerMetrics::new();
        let wal = Wal::new(0, 0.0, 0.0).with_segment_bytes(128);
        for i in 0..8u64 {
            let (lsn, _) = wal.commit(64, &m);
            let ops = [RedoOp::Insert { table: 1, rowid: i, row: [Value::Str("x".repeat(40))].into() }];
            wal.append_redo(lsn, i, &ops, false);
        }
        {
            let redo = wal.redo.lock();
            assert!(redo.segments.len() > 1, "records spill into multiple segments");
            let bases: Vec<u64> = redo.segments.iter().map(|s| s.base_lsn).collect();
            assert!(bases.windows(2).all(|w| w[0] < w[1]), "segment base LSNs ascend: {bases:?}");
        }
        let image = wal.recovered_image();
        assert_eq!(image.replayed_records, 8, "replay walks every segment");
        assert_eq!(image.tables[&1].len(), 8);
    }
}
