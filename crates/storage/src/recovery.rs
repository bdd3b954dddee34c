//! Crash recovery: typed redo records, checkpoint images, recovery
//! bookkeeping and the supervisor's tick.
//!
//! Commits append one binary redo record (insert/update/delete with table
//! id and rowid; an insert carries the row, an update the columns it
//! changed) to the WAL's segment store. A checkpoint
//! materializes the committed state at a stable LSN by replaying every
//! complete record into an image, then truncates the consumed segments.
//! [`crate::Database::recover`] loads the latest checkpoint, replays the
//! redo tail and truncates a torn final record, so recovered state is
//! exactly the committed prefix of the pre-crash run. The database's one
//! supervisor ([`crate::Database::supervise`]) runs `recovery_tick` on the
//! `bp-recovery` thread: it recovers a crashed engine and checkpoints on
//! the database's clock.

use std::collections::BTreeMap;
use std::sync::Arc;

use bp_util::clock::Micros;
use bp_util::sync::Mutex;
use bp_util::Periodic;

use crate::engine::Database;
use crate::table::RowId;
use crate::value::{SharedRow, Value};

/// Where in the commit sequence an injected `ServerCrash` kills the engine.
///
/// The `bp-chaos` fault window's `magnitude` selects the point (mod 3), so
/// one fault kind covers the whole matrix deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Before the redo record reaches the log: the transaction is lost.
    BeforeAppend,
    /// After the append but before the fsync: the record is torn and
    /// recovery truncates it — the transaction is lost.
    AfterAppendBeforeFsync,
    /// After the fsync: the record is durable — the transaction survives
    /// even though the client saw the commit fail.
    AfterFsync,
}

impl CrashPoint {
    pub const ALL: [CrashPoint; 3] = [
        CrashPoint::BeforeAppend,
        CrashPoint::AfterAppendBeforeFsync,
        CrashPoint::AfterFsync,
    ];

    /// Map a fault-window magnitude onto a crashpoint.
    pub fn from_magnitude(m: u64) -> CrashPoint {
        Self::ALL[(m % 3) as usize]
    }

    pub fn index(self) -> u64 {
        match self {
            CrashPoint::BeforeAppend => 0,
            CrashPoint::AfterAppendBeforeFsync => 1,
            CrashPoint::AfterFsync => 2,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            CrashPoint::BeforeAppend => "before_append",
            CrashPoint::AfterAppendBeforeFsync => "after_append_before_fsync",
            CrashPoint::AfterFsync => "after_fsync",
        }
    }
}

/// One logical change inside a committed transaction's redo record.
#[derive(Debug, Clone, PartialEq)]
pub enum RedoOp {
    /// The row is the allocation the table stores.
    Insert { table: u32, rowid: RowId, row: SharedRow },
    /// After-images of the columns the update changed, by position. The log
    /// is kept until a checkpoint folds it, so its size is resident memory;
    /// the row it patches is in the log before it, or in the checkpoint.
    Update { table: u32, rowid: RowId, cols: Vec<(u32, Value)> },
    Delete { table: u32, rowid: RowId },
}

/// A commit's redo record: everything needed to replay it physically.
#[derive(Debug, Clone, PartialEq)]
pub struct RedoRecord {
    pub lsn: u64,
    pub txn: u64,
    pub ops: Vec<RedoOp>,
}

// ---- binary codec ----
//
// Record layout: [len][payload], where `len` counts the payload bytes and
// the payload ends with an FNV-1a checksum over everything before it:
//   payload = [lsn][txn][nops] op* [crc u32]
//   op      = [tag u8][table][rowid] (row for insert, cols for update)
//   row     = [ncols] value*
//   cols    = [ncols] ([column] value)*
//   value   = [tag u8] ...
// Lengths, ids and counts are LEB128 varints, `Int` values zigzag varints;
// the checksum and floats are fixed-width little-endian. A record whose
// bytes run out mid-payload or whose checksum mismatches is *torn* and
// recovery truncates it.

const OP_INSERT: u8 = 1;
const OP_UPDATE: u8 = 2;
const OP_DELETE: u8 = 3;

/// Smallest possible payload: one byte each of lsn, txn and op count, plus
/// the checksum.
const MIN_PAYLOAD: usize = 3 + 4;

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

fn get_varint(buf: &[u8], at: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let b = *buf.get(*at)?;
        *at += 1;
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
    }
    None
}

fn get_bytes<'a>(buf: &'a [u8], at: &mut usize) -> Option<&'a [u8]> {
    let n = usize::try_from(get_varint(buf, at)?).ok()?;
    let bytes = buf.get(*at..(*at).checked_add(n)?)?;
    *at += n;
    Some(bytes)
}

fn get_u64(buf: &[u8], at: &mut usize) -> Option<u64> {
    let b = buf.get(*at..*at + 8)?;
    *at += 8;
    Some(u64::from_le_bytes(b.try_into().ok()?))
}

fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for b in bytes {
        h ^= *b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

fn encode_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Bool(b) => {
            buf.push(1);
            buf.push(*b as u8);
        }
        Value::Int(i) => {
            buf.push(2);
            put_varint(buf, ((*i << 1) ^ (*i >> 63)) as u64);
        }
        Value::Float(f) => {
            buf.push(3);
            buf.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(4);
            put_varint(buf, s.len() as u64);
            buf.extend_from_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            buf.push(5);
            put_varint(buf, b.len() as u64);
            buf.extend_from_slice(b);
        }
    }
}

fn decode_value(buf: &[u8], at: &mut usize) -> Option<Value> {
    let tag = *buf.get(*at)?;
    *at += 1;
    Some(match tag {
        0 => Value::Null,
        1 => {
            let b = *buf.get(*at)?;
            *at += 1;
            Value::Bool(b != 0)
        }
        2 => {
            let z = get_varint(buf, at)?;
            Value::Int((z >> 1) as i64 ^ -((z & 1) as i64))
        }
        3 => Value::Float(f64::from_bits(get_u64(buf, at)?)),
        4 => Value::Str(String::from_utf8(get_bytes(buf, at)?.to_vec()).ok()?),
        5 => Value::Bytes(get_bytes(buf, at)?.into()),
        _ => return None,
    })
}

/// Canonically encode one row (also used by [`crate::Database::state_digest`]).
pub fn encode_row(buf: &mut Vec<u8>, row: &[Value]) {
    put_varint(buf, row.len() as u64);
    for v in row {
        encode_value(buf, v);
    }
}

/// `[n] item*`, for a row's values and an update's columns.
fn decode_list<T>(
    buf: &[u8],
    at: &mut usize,
    item: impl Fn(&[u8], &mut usize) -> Option<T>,
) -> Option<Vec<T>> {
    let n = get_varint(buf, at)?;
    // Every item takes at least its value's tag byte, so a count the
    // remaining bytes cannot hold is a torn record, not an allocation size.
    if n > (buf.len() - *at) as u64 {
        return None;
    }
    let mut items = Vec::with_capacity(n as usize);
    for _ in 0..n {
        items.push(item(buf, at)?);
    }
    Some(items)
}

fn decode_row(buf: &[u8], at: &mut usize) -> Option<SharedRow> {
    decode_list(buf, at, decode_value).map(SharedRow::from)
}

fn decode_cols(buf: &[u8], at: &mut usize) -> Option<Vec<(u32, Value)>> {
    decode_list(buf, at, |buf, at| {
        Some((u32::try_from(get_varint(buf, at)?).ok()?, decode_value(buf, at)?))
    })
}

/// Append one commit's redo record to `buf` and return its encoded length.
/// The engine encodes straight from the transaction's op list into the open
/// log segment; nothing is copied on the way.
pub fn encode_record(buf: &mut Vec<u8>, lsn: u64, txn: u64, ops: &[RedoOp]) -> usize {
    let start = buf.len();
    // The length prefix is a varint too; one byte covers payloads under
    // 128 B, which is every short transaction.
    buf.push(0);
    put_varint(buf, lsn);
    put_varint(buf, txn);
    put_varint(buf, ops.len() as u64);
    for op in ops {
        let (tag, table, rowid) = match op {
            RedoOp::Insert { table, rowid, .. } => (OP_INSERT, table, rowid),
            RedoOp::Update { table, rowid, .. } => (OP_UPDATE, table, rowid),
            RedoOp::Delete { table, rowid } => (OP_DELETE, table, rowid),
        };
        buf.push(tag);
        put_varint(buf, *table as u64);
        put_varint(buf, *rowid);
        match op {
            RedoOp::Insert { row, .. } => encode_row(buf, row),
            RedoOp::Update { cols, .. } => {
                put_varint(buf, cols.len() as u64);
                for (col, v) in cols {
                    put_varint(buf, *col as u64);
                    encode_value(buf, v);
                }
            }
            RedoOp::Delete { .. } => {}
        }
    }
    let crc = fnv1a(&buf[start + 1..]);
    buf.extend_from_slice(&crc.to_le_bytes());
    let len = buf.len() - start - 1;
    if len < 0x80 {
        buf[start] = len as u8;
    } else {
        let mut prefix = Vec::new();
        put_varint(&mut prefix, len as u64);
        buf.splice(start..=start, prefix);
    }
    buf.len() - start
}

impl RedoRecord {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        encode_record(&mut out, self.lsn, self.txn, &self.ops);
        out
    }
}

/// Result of decoding one record at an offset.
pub enum Decoded {
    /// A complete, checksum-valid record; `usize` is the total bytes consumed.
    Record(RedoRecord, usize),
    /// The buffer ends mid-record (or fails its checksum): a torn tail.
    Torn,
}

/// Decode the record starting at `at`. Returns [`Decoded::Torn`] when the
/// remaining bytes cannot hold a complete, checksum-valid record.
pub fn decode_record(buf: &[u8], at: usize) -> Decoded {
    decode_complete(buf, at).map_or(Decoded::Torn, |(rec, used)| Decoded::Record(rec, used))
}

fn decode_complete(buf: &[u8], at: usize) -> Option<(RedoRecord, usize)> {
    let mut pos = at;
    let payload = get_bytes(buf, &mut pos)?;
    let len = payload.len();
    if len < MIN_PAYLOAD {
        return None;
    }
    let (body, crc) = payload.split_at(len - 4);
    if fnv1a(body).to_le_bytes() != crc {
        return None;
    }
    let mut p = 0usize;
    let lsn = get_varint(body, &mut p)?;
    let txn = get_varint(body, &mut p)?;
    let nops = get_varint(body, &mut p)?;
    let mut ops = Vec::new();
    for _ in 0..nops {
        let tag = *body.get(p)?;
        p += 1;
        let table = u32::try_from(get_varint(body, &mut p)?).ok()?;
        let rowid = get_varint(body, &mut p)?;
        ops.push(match tag {
            OP_INSERT => RedoOp::Insert { table, rowid, row: decode_row(body, &mut p)? },
            OP_UPDATE => RedoOp::Update { table, rowid, cols: decode_cols(body, &mut p)? },
            OP_DELETE => RedoOp::Delete { table, rowid },
            _ => return None,
        });
    }
    Some((RedoRecord { lsn, txn, ops }, pos - at))
}

/// A materialized table image: committed rows keyed by `(table id, rowid)`.
pub type TableImage = BTreeMap<u32, BTreeMap<RowId, SharedRow>>;

/// Apply one redo record to an image (checkpoint and recovery share this).
/// Every op writes after-images — a whole row, some columns or the row's
/// absence — so replaying a log over an image that already holds a prefix
/// of it yields what replaying it over the image without that prefix does.
pub fn apply_record(image: &mut TableImage, rec: &RedoRecord) {
    for op in &rec.ops {
        match op {
            RedoOp::Insert { table, rowid, row } => {
                image.entry(*table).or_default().insert(*rowid, row.clone());
            }
            // A row is inserted before it is updated, so the image has it;
            // a record that says otherwise is skipped like a delete of
            // nothing, not trusted with an index.
            RedoOp::Update { table, rowid, cols } => {
                if let Some(row) = image.get_mut(table).and_then(|t| t.get_mut(rowid)) {
                    // Copy-on-write: the image's row may be the one a
                    // record or a recovered table still holds.
                    let row = Arc::make_mut(row);
                    for (col, v) in cols {
                        if let Some(slot) = row.get_mut(*col as usize) {
                            *slot = v.clone();
                        }
                    }
                }
            }
            RedoOp::Delete { table, rowid } => {
                if let Some(t) = image.get_mut(table) {
                    t.remove(rowid);
                }
            }
        }
    }
}

/// What [`crate::Database::recover`] did, for callers and the journal.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryReport {
    pub replayed_records: u64,
    pub torn_truncated: u64,
    pub checkpoint_lsn: u64,
    pub durable_lsn: u64,
    pub duration_us: u64,
    pub generation: u64,
}

/// What [`crate::Database::checkpoint`] did.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointStats {
    pub lsn: u64,
    pub records_applied: u64,
    pub segments_truncated: u64,
}

/// Recovery-supervisor tuning. The defaults poll fast enough that a crash
/// costs milliseconds of downtime, and checkpoint rarely enough that the
/// checkpointer never competes with the workload for the redo mutex.
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// Recovery bookkeeping: the counters behind `/recovery/status` and the
/// `bp_recovery_*` series, kept as the status they report; the lock that
/// serializes recovery; and the database's one supervisor
/// ([`Database::supervise`]).
#[derive(Default)]
pub(crate) struct RecoveryStats {
    /// Written only on cold paths: a crash, a recovery, a checkpoint, a
    /// supervisor tick. [`Database::recovery_status`] fills in the fields
    /// the engine and the redo store own.
    counters: Mutex<RecoveryStatus>,
    /// Held through [`Database::recover`]'s rebuild, so a crash is
    /// rebuilt once.
    pub(crate) rebuild: Mutex<()>,
    /// The `bp-recovery` thread and its config; `None` while unsupervised.
    pub(crate) supervisor: Mutex<Option<(RecoveryConfig, Periodic)>>,
}

/// A point-in-time copy of the recovery counters, the engine's crashed flag
/// and generation and the redo store's watermarks, consumed by
/// `/recovery/status`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryStatus {
    pub crashed: bool,
    pub crashes: u64,
    pub recoveries: u64,
    pub replayed_records: u64,
    pub torn_truncations: u64,
    pub checkpoints: u64,
    pub segments_truncated: u64,
    pub last_recovery_us: u64,
    pub last_crashpoint: Option<CrashPoint>,
    pub checkpoint_lsn: u64,
    pub durable_lsn: u64,
    /// Encoded bytes the redo store holds, summed over its segments: what
    /// a checkpoint would replay and truncate.
    pub redo_bytes: u64,
    pub generation: u64,
    /// The supervisor's config; `None` while unsupervised.
    pub supervisor: Option<RecoveryConfig>,
    /// Recoveries the supervisor ran (`recoveries` also counts manual
    /// [`Database::recover`] calls).
    pub recoveries_run: u64,
    pub checkpoints_run: u64,
    pub ticks: u64,
}

impl RecoveryStats {
    /// Update the counters under their one lock.
    pub(crate) fn count(&self, note: impl FnOnce(&mut RecoveryStatus)) {
        note(&mut self.counters.lock());
    }

    /// The counters with the engine's crashed flag and generation and the
    /// supervisor's config; the redo store's fields are left at zero.
    pub(crate) fn status(&self, crashed: bool, generation: u64) -> RecoveryStatus {
        let supervisor = self.supervisor.lock().as_ref().map(|(cfg, _)| *cfg);
        RecoveryStatus { crashed, generation, supervisor, ..*self.counters.lock() }
    }
}

/// One watchdog poll: recover a crashed engine, otherwise checkpoint when
/// one is due. The supervisor ([`Database::supervise`]) runs it every
/// `poll_interval_us` on the `bp-recovery` thread. Due is
/// `checkpoint_interval_us` after `last_checkpoint` on the database's clock.
pub(crate) fn recovery_tick(db: &Database, cfg: &RecoveryConfig, last_checkpoint: &mut Micros) {
    let stats = db.recovery_stats();
    let checkpoint = || {
        if db.checkpoint().is_some() {
            stats.count(|s| s.checkpoints_run += 1);
        }
    };
    if db.is_crashed() {
        // `recover()` journals recovery_begin/recovery_complete and counts
        // `recoveries`; `recoveries_run` counts the ones the supervisor ran.
        if db.recover().is_some() {
            stats.count(|s| s.recoveries_run += 1);
        }
        // A fresh checkpoint right after recovery bounds the next replay
        // to the post-crash tail.
        checkpoint();
        *last_checkpoint = db.clock().now();
    } else if cfg.checkpoint_interval_us > 0
        && db.clock().now().saturating_sub(*last_checkpoint) >= cfg.checkpoint_interval_us
    {
        checkpoint();
        *last_checkpoint = db.clock().now();
    }
    stats.count(|s| s.ticks += 1);
}

/// The engine's `bp_recovery_*` series, read from one
/// [`Database::recovery_status`] snapshot.
impl bp_obs::MetricsSource for Database {
    fn collect(&self, buf: &mut bp_obs::MetricsBuf) {
        let s = self.recovery_status();
        let counters: [(&str, u64); 6] = [
            ("crashes", s.crashes),
            ("recoveries", s.recoveries),
            ("replayed_records", s.replayed_records),
            ("torn_truncations", s.torn_truncations),
            ("checkpoints", s.checkpoints),
            ("segments_truncated", s.segments_truncated),
        ];
        for (name, v) in counters {
            let full = format!("bp_recovery_{name}_total");
            buf.counter(&full, "Crash-recovery counter", &[], v as f64);
        }
        buf.gauge(
            "bp_recovery_crashed",
            "1 while the storage engine is dead awaiting recovery",
            &[],
            s.crashed as u64 as f64,
        );
        buf.gauge(
            "bp_recovery_last_duration_us",
            "Duration of the most recent recovery in microseconds",
            &[],
            s.last_recovery_us as f64,
        );
        buf.gauge(
            "bp_recovery_checkpoint_lsn",
            "Stable LSN of the latest checkpoint",
            &[],
            s.checkpoint_lsn as f64,
        );
        buf.gauge(
            "bp_recovery_durable_lsn",
            "Highest LSN whose redo record is durable",
            &[],
            s.durable_lsn as f64,
        );
        buf.gauge(
            "bp_recovery_redo_bytes",
            "Encoded bytes the redo store holds, summed over its segments",
            &[],
            s.redo_bytes as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> RedoRecord {
        RedoRecord {
            lsn: 42,
            txn: 7,
            ops: vec![
                RedoOp::Insert {
                    table: 1,
                    rowid: 0,
                    row: [Value::Int(1), Value::Str("hello".into()), Value::Null].into(),
                },
                RedoOp::Update {
                    table: 1,
                    rowid: 0,
                    cols: vec![(1, Value::Str("bye".into())), (2, Value::Float(2.5))],
                },
                RedoOp::Delete { table: 2, rowid: 9 },
            ],
        }
    }

    #[test]
    fn record_round_trip() {
        let rec = sample_record();
        let bytes = rec.encode();
        match decode_record(&bytes, 0) {
            Decoded::Record(got, consumed) => {
                assert_eq!(got, rec);
                assert_eq!(consumed, bytes.len());
            }
            Decoded::Torn => panic!("complete record decoded as torn"),
        }
    }

    #[test]
    fn varint_edges_and_long_records_round_trip() {
        let ints = [0, 1, -1, 63, -64, 64, i64::MAX, i64::MIN];
        let rec = RedoRecord {
            lsn: u64::MAX,
            txn: 1 << 40,
            ops: vec![
                RedoOp::Insert { table: u32::MAX, rowid: u64::MAX, row: ints.map(Value::Int).into() },
                // Pushes the payload past one and two length-prefix bytes.
                RedoOp::Update {
                    table: 1,
                    rowid: 2,
                    cols: vec![(u32::MAX, Value::Bytes(vec![7; 20_000].into()))],
                },
            ],
        };
        let mut buf = vec![0xAA; 3];
        let len = encode_record(&mut buf, rec.lsn, rec.txn, &rec.ops);
        assert_eq!(buf.len(), 3 + len);
        match decode_record(&buf, 3) {
            Decoded::Record(got, consumed) => {
                assert_eq!(got, rec);
                assert_eq!(consumed, len);
            }
            Decoded::Torn => panic!("complete record decoded as torn"),
        }
    }

    #[test]
    fn short_transaction_record_is_compact() {
        // One update of a two-column row (a smallbank balance change) after
        // a million commits: the fixed-width form took 63 bytes, the whole
        // after-image 33.
        let ops = [RedoOp::Update { table: 3, rowid: 250_000, cols: vec![(1, Value::Float(1200.0))] }];
        let mut buf = Vec::new();
        let len = encode_record(&mut buf, 1_000_000, 1_000_123, &ops);
        assert!(len <= 30, "{len} bytes");
    }

    #[test]
    fn every_truncation_is_torn() {
        let bytes = sample_record().encode();
        for cut in 0..bytes.len() {
            match decode_record(&bytes[..cut], 0) {
                Decoded::Torn => {}
                Decoded::Record(..) => panic!("prefix of {cut} bytes decoded as complete"),
            }
        }
    }

    #[test]
    fn corrupt_byte_fails_checksum() {
        let mut bytes = sample_record().encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(decode_record(&bytes, 0), Decoded::Torn));
    }

    #[test]
    fn sequential_records_decode() {
        let a = RedoRecord { lsn: 1, txn: 1, ops: vec![RedoOp::Delete { table: 1, rowid: 0 }] };
        let b = sample_record();
        let mut buf = a.encode();
        buf.extend_from_slice(&b.encode());
        let Decoded::Record(got_a, next) = decode_record(&buf, 0) else {
            panic!("torn");
        };
        assert_eq!(got_a, a);
        let Decoded::Record(got_b, _) = decode_record(&buf, next) else {
            panic!("torn");
        };
        assert_eq!(got_b, b);
    }

    #[test]
    fn apply_record_builds_image() {
        let mut image = TableImage::new();
        apply_record(
            &mut image,
            &RedoRecord {
                lsn: 1,
                txn: 1,
                ops: vec![
                    RedoOp::Insert { table: 1, rowid: 3, row: [Value::Int(10)].into() },
                    RedoOp::Insert { table: 1, rowid: 4, row: [Value::Int(20)].into() },
                ],
            },
        );
        apply_record(
            &mut image,
            &RedoRecord {
                lsn: 2,
                txn: 2,
                ops: vec![
                    RedoOp::Update { table: 1, rowid: 3, cols: vec![(0, Value::Int(11))] },
                    RedoOp::Delete { table: 1, rowid: 4 },
                    // Nothing to patch: no such row, no such column.
                    RedoOp::Update { table: 1, rowid: 4, cols: vec![(0, Value::Int(0))] },
                    RedoOp::Update { table: 1, rowid: 3, cols: vec![(9, Value::Int(0))] },
                ],
            },
        );
        let t = &image[&1];
        assert_eq!(t.len(), 1);
        assert_eq!(*t[&3], [Value::Int(11)]);
    }

    #[test]
    fn crashpoint_magnitude_mapping() {
        assert_eq!(CrashPoint::from_magnitude(0), CrashPoint::BeforeAppend);
        assert_eq!(CrashPoint::from_magnitude(1), CrashPoint::AfterAppendBeforeFsync);
        assert_eq!(CrashPoint::from_magnitude(2), CrashPoint::AfterFsync);
        assert_eq!(CrashPoint::from_magnitude(5), CrashPoint::AfterFsync);
        for p in CrashPoint::ALL {
            assert_eq!(CrashPoint::from_magnitude(p.index()), p);
        }
    }

    /// The counters, the engine's flag and generation and the store's
    /// watermarks come from one `recovery_status` through a crash with a
    /// torn record and its recovery.
    #[test]
    fn stats_lifecycle() {
        use crate::schema::{Column, TableSchema};
        use crate::value::DataType;
        use bp_chaos::{FaultKind, FaultPlan, FaultWindow};
        let db = Database::new(crate::Personality::test());
        let cols = vec![Column::new("id", DataType::Int), Column::new("v", DataType::Int)];
        db.create_table(TableSchema::new("t", cols, &["id"]).unwrap()).unwrap();
        let t = db.table("t").unwrap();
        let mut s = db.session();
        let mut insert = |i| {
            s.begin()?;
            s.insert(&t, vec![Value::Int(i), Value::Int(i)])?;
            s.commit()
        };
        insert(0).unwrap();
        insert(1).unwrap();
        db.chaos().arm(FaultPlan::new("crash", 1).with_window(FaultWindow::always(
            FaultKind::ServerCrash,
            1.0,
            CrashPoint::AfterAppendBeforeFsync.index(),
        )));
        assert_eq!(insert(2), Err(crate::StorageError::Crashed));
        db.chaos().disarm();
        let st = db.recovery_status();
        assert!(st.crashed);
        assert_eq!((st.crashes, st.last_crashpoint), (1, Some(CrashPoint::AfterAppendBeforeFsync)));
        assert_eq!((st.durable_lsn, st.checkpoint_lsn), (2, 0), "the torn record is not durable");
        let redo_bytes = st.redo_bytes;

        let report = db.recover().expect("a crashed engine recovers");
        let st = db.recovery_status();
        assert!(!st.crashed);
        assert_eq!((st.recoveries, st.replayed_records, st.torn_truncations), (1, 2, 1));
        assert_eq!((st.generation, st.last_recovery_us), (report.generation, report.duration_us));
        assert_eq!(st.durable_lsn, 2);
        assert!(st.redo_bytes < redo_bytes, "the torn tail is truncated");
        db.checkpoint().unwrap();
        let st = db.recovery_status();
        assert_eq!((st.checkpoints, st.checkpoint_lsn, st.redo_bytes), (1, 2, 0));
    }

    #[test]
    fn metrics_expose_recovery_series() {
        use bp_obs::MetricsSource as _;
        let db = Database::new(crate::Personality::test());
        db.crash(CrashPoint::BeforeAppend, 0);
        let mut buf = bp_obs::MetricsBuf::new();
        db.collect(&mut buf);
        let samples = buf.into_samples();
        // 6 counters + 5 gauges.
        assert_eq!(samples.len(), 11);
        assert!(samples.iter().any(|x| {
            x.name == "bp_recovery_crashes_total"
                && x.value == bp_obs::MetricValue::Counter(1.0)
        }));
        assert!(samples.iter().any(|x| {
            x.name == "bp_recovery_crashed" && x.value == bp_obs::MetricValue::Gauge(1.0)
        }));
    }

    /// A recovery with nothing to recover changes nothing: the generation
    /// stays, so a transaction open across the call still commits, and no
    /// recovery is counted or journaled.
    #[test]
    fn recover_on_a_live_engine_leaves_it_alone() {
        let db = Database::new(crate::Personality::test());
        let (generation, before) = (db.generation(), db.recovery_status());
        let mut s = db.session();
        s.begin().unwrap();
        assert!(db.recover().is_none());
        assert_eq!(db.generation(), generation);
        assert_eq!(db.recovery_status().recoveries, before.recoveries);
        assert_eq!(s.commit(), Ok(()));
        assert!(!db.journal().all().iter().any(|e| e.kind == "recovery_begin"));
        // A crash is recovered once: the second call finds a live engine.
        db.crash(CrashPoint::BeforeAppend, 0);
        assert!(db.recover().is_some());
        assert!(db.recover().is_none());
        assert_eq!((db.generation(), db.recovery_status().recoveries), (generation + 1, 1));
    }

    #[test]
    fn checkpoints_fall_due_on_the_database_clock() {
        use bp_chaos::{FaultKind, FaultPlan, FaultWindow};
        let (sim, clock) = bp_util::clock::sim_clock();
        let db = Database::with_clock(crate::Personality::test(), clock);
        let mut last = db.clock().now();
        let cfg = RecoveryConfig { poll_interval_us: 100, checkpoint_interval_us: 1_000 };
        let mut tick_at = |t| {
            sim.advance_to(t);
            recovery_tick(&db, &cfg, &mut last);
            let s = db.recovery_status();
            (s.recoveries_run, s.checkpoints_run)
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
        assert_eq!(s.commit(), Err(crate::StorageError::Crashed));
        db.chaos().disarm();
        assert_eq!(tick_at(1_500), (1, 2));
        assert_eq!(tick_at(2_000), (1, 2), "not due from the checkpoint before the crash");
        assert_eq!(tick_at(2_499), (1, 2));
        assert_eq!(tick_at(2_500), (1, 3));
    }

    /// The `bp-recovery` threads of this process. This module's supervisor
    /// test is the only test of the crate that starts one.
    fn recovery_threads() -> usize {
        let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task");
        tasks
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .filter(|name| name.trim_end() == "bp-recovery")
            .count()
    }

    fn wait_for(mut done: impl FnMut() -> bool) -> bool {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !done() && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        done()
    }

    /// One supervisor per database: it recovers a crash, a re-arm replaces
    /// it, and it holds the database only weakly, so disarming — or
    /// dropping the database's last handle — ends its thread.
    #[test]
    fn a_supervisor_recovers_rearms_in_place_and_ends_with_its_database() {
        let db = Database::new(crate::Personality::test());
        let slow = RecoveryConfig { poll_interval_us: 60_000_000, checkpoint_interval_us: 0 };
        let fast = RecoveryConfig { poll_interval_us: 1_000, ..slow };
        db.supervise(slow);
        assert_eq!((Arc::strong_count(&db), Arc::weak_count(&db)), (1, 1), "held weakly");
        db.supervise(fast);
        assert_eq!(db.recovery_status().supervisor, Some(fast));
        assert_eq!(Arc::weak_count(&db), 1, "the replaced supervisor's thread has ended");
        db.crash(CrashPoint::BeforeAppend, 0);
        // The tick counts its checkpoint last.
        assert!(wait_for(|| db.recovery_status().checkpoints_run == 1), "never recovered");
        let s = db.recovery_status();
        assert!(!s.crashed);
        assert_eq!((s.recoveries, s.recoveries_run, s.checkpoints_run), (1, 1, 1));
        db.unsupervise();
        assert_eq!((db.recovery_status().supervisor, Arc::weak_count(&db)), (None, 0));
        let kinds: Vec<_> = db.journal().all().iter().map(|e| e.kind.to_string()).collect();
        for kind in ["recovery_armed", "recovery_complete", "recovery_disarmed"] {
            assert!(kinds.iter().any(|k| k == kind), "no {kind} in {kinds:?}");
        }

        db.supervise(slow);
        assert!(wait_for(|| recovery_threads() == 1));
        let gone = Arc::downgrade(&db);
        drop(db);
        assert!(gone.upgrade().is_none(), "the supervisor kept its database alive");
        assert!(wait_for(|| recovery_threads() == 0), "a bp-recovery thread outlived its database");
    }
}
