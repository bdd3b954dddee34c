//! Heap tables with a clustered primary-key index and secondary B-tree
//! indexes.
//!
//! The primary key is an ordered map from encoded key bytes ([`Key`]) to
//! each key's one row id. A secondary index is an ordered set of
//! `(key, row id)` entries, one per row: rows that share a key sort by row
//! id, and no key owns a list of its own.
//!
//! The physical structures are latched with a `bp_util::sync::RwLock`;
//! *logical* isolation (row/table locks) is enforced above this layer by the
//! engine, so methods here assume the caller already holds the appropriate
//! logical locks.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::sync::Arc;

use bp_util::sync::RwLock;

use crate::error::{Result, StorageError};
use crate::key::{Key, KeyWriter};
use crate::schema::{IndexDef, TableSchema};
use crate::value::{Row, SharedRow, Value};

pub type RowId = u64;

fn key_of(columns: &[usize], row: &[Value]) -> Key {
    Key::encode(columns.iter().map(|&i| &row[i]))
}

/// A change to one stored row ([`Table::write`]), and what undoes one:
/// values for some of its columns, written in order, or a whole row that
/// takes the slot.
#[derive(Debug)]
pub(crate) enum Change {
    Cols(Vec<(usize, Value)>),
    Row(SharedRow),
}

/// What [`Table::write`] did.
#[derive(Debug)]
pub(crate) struct Written {
    /// The change that puts the row back as it was.
    pub undo: Change,
    /// The redo of a [`Change::Cols`]: each column whose value changed
    /// (floats bitwise), once, in column order, with its new value. A
    /// [`Change::Row`] is rollback's and logs nothing.
    pub redo: Vec<(u32, Value)>,
}

/// The redo of a column write, from what it `overwrote` (a column's first
/// entry holds its value from before) and the `row` it left.
fn changed(overwrote: &[(usize, Value)], row: &[Value]) -> Vec<(u32, Value)> {
    let mut redo = Vec::new();
    for (at, (col, before)) in overwrote.iter().enumerate() {
        let first = overwrote[..at].iter().all(|(c, _)| c != col);
        if first && !before.same(&row[*col]) {
            redo.push((*col as u32, row[*col].clone()));
        }
    }
    redo.sort_unstable_by_key(|(col, _)| *col);
    redo
}

#[derive(Debug)]
struct IndexState {
    def: IndexDef,
    entries: BTreeSet<(Key, RowId)>,
}

impl IndexState {
    fn key_of(&self, row: &[Value]) -> Key {
        key_of(&self.def.key_columns, row)
    }

    /// The row ids under `from.0`, in order, from row id `from.1` on.
    fn rows<'s>(&'s self, from: &'s (Key, RowId)) -> impl Iterator<Item = RowId> + 's {
        self.entries.range(from..).take_while(move |(key, _)| *key == from.0).map(|(_, rowid)| *rowid)
    }

    fn duplicate(&self, row: &[Value], table: &str) -> StorageError {
        let key: Vec<&Value> = self.def.key_columns.iter().map(|&i| &row[i]).collect();
        StorageError::DuplicateKey { table: table.to_string(), key: format!("{}={key:?}", self.def.name) }
    }

    /// Whether a unique index holds a row other than `rowid` under the key
    /// `probe.0` (`probe.1` is 0).
    fn taken(&self, probe: &(Key, RowId), rowid: RowId) -> bool {
        self.def.unique && self.rows(probe).any(|r| r != rowid)
    }

    fn insert(&mut self, row: &[Value], rowid: RowId, table: &str) -> Result<()> {
        let probe = (self.key_of(row), 0);
        if self.taken(&probe, rowid) {
            return Err(StorageError::DuplicateKey { table: table.to_string(), key: self.def.name.clone() });
        }
        self.entries.insert((probe.0, rowid));
        Ok(())
    }

    fn remove(&mut self, row: &[Value], rowid: RowId) {
        self.entries.remove(&(self.key_of(row), rowid));
    }
}

/// Where a range read ([`Table::range`]) stands: what is left of it is the
/// entries after `from` — at first its start key itself, then the last
/// entry it handed out — and below `end`. It holds no latch and nothing of
/// the table: each chunk finds its place again by entry, so entries that
/// come or go between two chunks are seen or not like any other concurrent
/// write, and no entry is shown twice or passed over.
#[derive(Debug)]
pub struct RangeCursor<'a> {
    /// The secondary index it reads, looked up by name under the latch each
    /// chunk takes anyway; `None` is the primary key, whose entries are
    /// compared by key alone.
    index: Option<&'a str>,
    from: Bound<(Key, RowId)>,
    /// The end key, with row id 0: every entry under a lower key is below it.
    end: (Key, RowId),
    done: bool,
}

/// Copy up to `max` `(key, rowid)` entries into `out`. Returns whether any
/// did not fit.
fn fill<'a>(mut entries: impl Iterator<Item = (&'a Key, RowId)>, max: usize, out: &mut Vec<(Key, RowId)>) -> bool {
    out.extend(entries.by_ref().take(max).map(|(key, rowid)| (key.clone(), rowid)));
    entries.next().is_some()
}

#[derive(Debug, Default)]
struct TableData {
    /// A stored row is written in place only while the table holds its one
    /// handle ([`Table::write`]): whoever was handed the `Arc` keeps the
    /// values it was read with.
    slots: Vec<Option<SharedRow>>,
    free: Vec<RowId>,
    live: usize,
    pk: BTreeMap<Key, RowId>,
    indexes: Vec<IndexState>,
}

/// A table: schema plus latched data.
#[derive(Debug)]
pub struct Table {
    pub id: u32,
    pub schema: TableSchema,
    data: RwLock<TableData>,
}

impl Table {
    pub fn new(id: u32, schema: TableSchema) -> Table {
        Table { id, schema, data: RwLock::new(TableData::default()) }
    }

    pub fn name(&self) -> &str {
        &self.schema.name
    }

    pub fn len(&self) -> usize {
        self.data.read().live
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Add a secondary index; backfills from existing rows.
    pub fn add_index(&self, def: IndexDef) -> Result<()> {
        let mut d = self.data.write();
        if d.indexes.iter().any(|ix| ix.def.name.eq_ignore_ascii_case(&def.name)) {
            return Err(StorageError::IndexExists(def.name));
        }
        let mut ix = IndexState { def, entries: BTreeSet::new() };
        for (rowid, slot) in d.slots.iter().enumerate() {
            if let Some(row) = slot {
                ix.insert(row, rowid as RowId, &self.schema.name)?;
            }
        }
        d.indexes.push(ix);
        Ok(())
    }

    fn index_pos(d: &TableData, name: &str) -> Result<usize> {
        d.indexes
            .iter()
            .position(|ix| ix.def.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| StorageError::NoSuchIndex(name.to_string()))
    }

    /// The primary key of `row`, encoded; `None` for a table without one.
    fn pk_key(&self, row: &[Value]) -> Option<Key> {
        self.schema.has_primary_key().then(|| key_of(&self.schema.primary_key, row))
    }

    fn duplicate_pk(&self, row: &[Value]) -> StorageError {
        StorageError::DuplicateKey {
            table: self.schema.name.clone(),
            key: format!("{:?}", self.schema.pk_of(row)),
        }
    }

    /// Insert a validated row, returning its rowid.
    pub fn insert(&self, row: impl Into<SharedRow>) -> Result<RowId> {
        let row: SharedRow = row.into();
        let mut d = self.data.write();
        let d = &mut *d;
        let pk = self.pk_key(&row);
        if pk.as_ref().is_some_and(|pk| d.pk.contains_key(pk)) {
            return Err(self.duplicate_pk(&row));
        }
        if let Some(ix) = d.indexes.iter().find(|ix| ix.def.unique && ix.rows(&(ix.key_of(&row), 0)).next().is_some()) {
            return Err(ix.duplicate(&row, &self.schema.name));
        }
        // Every check has passed: the row moves into its slot, and the
        // index keys are built from it there.
        let rowid = d.free.pop().unwrap_or_else(|| {
            d.slots.push(None);
            (d.slots.len() - 1) as RowId
        });
        let row = d.slots[rowid as usize].insert(row);
        if let Some(pk) = pk {
            d.pk.insert(pk, rowid);
        }
        for ix in &mut d.indexes {
            ix.insert(row, rowid, &self.schema.name)?;
        }
        d.live += 1;
        Ok(rowid)
    }

    /// The row at `rowid`, shared with the table.
    pub fn get(&self, rowid: RowId) -> Option<SharedRow> {
        self.data.read().slots.get(rowid as usize)?.clone()
    }

    /// Write `change` into the row at `rowid` and re-key every index whose
    /// key it moves. Everything is checked before anything is written (a
    /// unique key may be held by this row itself), so a failed write leaves
    /// the row as it was. The values must be validated
    /// ([`TableSchema::check_sets`]).
    ///
    /// Columns are written into the stored row itself when the table holds
    /// its only handle, and the undo keeps the values they overwrote. A row
    /// anyone else holds — a query's result, a recovered image, an insert's
    /// redo — is copied first, and the undo keeps the old allocation.
    pub(crate) fn write(&self, rowid: RowId, change: Change) -> Result<Written> {
        let mut d = self.data.write();
        let d = &mut *d;
        let slot = d.slots.get_mut(rowid as usize).and_then(Option::as_mut).ok_or(StorageError::RowGone)?;
        let old: &[Value] = slot;
        // The value of `col` once `change` is written.
        let after = |col: usize| match &change {
            Change::Cols(sets) => sets.iter().rev().find(|(c, _)| *c == col).map_or(&old[col], |(_, v)| v),
            Change::Row(new) => &new[col],
        };
        // By `Value`'s order, as keys are: `-0.0` and `0.0` are `==` and two
        // keys. An index none of whose columns is set does not move.
        let moved = |columns: &[usize]| columns.iter().any(|&c| old[c].cmp(after(c)).is_ne());
        let new_key = |columns: &[usize]| Key::encode(columns.iter().map(|&c| after(c)));
        let pk = &self.schema.primary_key;
        let new_pk = moved(pk).then(|| new_key(pk));
        // Each moved index with its new key, and row id 0 to probe it with.
        let rekeyed: Vec<(usize, (Key, RowId))> = d.indexes.iter().enumerate()
            .filter(|(_, ix)| moved(&ix.def.key_columns))
            .map(|(pos, ix)| (pos, (new_key(&ix.def.key_columns), 0)))
            .collect();
        // The row as it would be, for an error message.
        let new_row = || -> Row { (0..old.len()).map(|c| after(c).clone()).collect() };
        if new_pk.as_ref().is_some_and(|key| d.pk.contains_key(key)) {
            return Err(self.duplicate_pk(&new_row()));
        }
        if let Some((pos, _)) = rekeyed.iter().find(|(pos, probe)| d.indexes[*pos].taken(probe, rowid)) {
            return Err(d.indexes[*pos].duplicate(&new_row(), &self.schema.name));
        }
        if let Some(key) = new_pk {
            d.pk.remove(&key_of(pk, old));
            d.pk.insert(key, rowid);
        }
        for (pos, _) in &rekeyed {
            d.indexes[*pos].remove(old, rowid);
        }
        let (undo, redo) = match change {
            Change::Row(new) => (Change::Row(std::mem::replace(slot, new)), Vec::new()),
            Change::Cols(mut sets) => {
                // A row someone else holds is copied by `make_mut`; the
                // holder keeps the original, and so does the undo.
                let held = Arc::get_mut(slot).is_none().then(|| Arc::clone(slot));
                let row = Arc::make_mut(slot);
                for (col, value) in &mut sets {
                    std::mem::swap(&mut row[*col], value);
                }
                let redo = changed(&sets, row);
                let undo = match held {
                    Some(before) => Change::Row(before),
                    None => {
                        sets.reverse();
                        Change::Cols(sets)
                    }
                };
                (undo, redo)
            }
        };
        for (pos, (key, _)) in rekeyed {
            d.indexes[pos].entries.insert((key, rowid));
        }
        Ok(Written { undo, redo })
    }

    /// Delete a row, returning its before-image.
    pub fn delete(&self, rowid: RowId) -> Result<SharedRow> {
        let mut d = self.data.write();
        let old = d.slots.get_mut(rowid as usize).and_then(Option::take).ok_or(StorageError::RowGone)?;
        if let Some(pk) = self.pk_key(&old) {
            d.pk.remove(&pk);
        }
        for ix in &mut d.indexes {
            ix.remove(&old, rowid);
        }
        d.free.push(rowid);
        d.live -= 1;
        Ok(old)
    }

    /// Primary-key point lookup. The values must have their columns' types
    /// ([`Value::into_key`]); one that does not finds nothing.
    pub fn lookup_pk(&self, key: &[Value]) -> Option<RowId> {
        self.data.read().pk.get(&Key::encode(key)).copied()
    }

    /// Definitions of all secondary indexes.
    pub fn index_defs(&self) -> Vec<IndexDef> {
        self.data.read().indexes.iter().map(|ix| ix.def.clone()).collect()
    }

    /// Secondary-index point lookup, typed like [`Table::lookup_pk`].
    pub fn index_lookup(&self, index: &str, key: &[Value]) -> Result<Vec<RowId>> {
        let d = self.data.read();
        let pos = Self::index_pos(&d, index)?;
        Ok(d.indexes[pos].rows(&(Key::encode(key), 0)).collect())
    }

    /// A cursor over the rows, in key order, whose key in `index` (`None`:
    /// the primary key) starts with `prefix` and has its next column within
    /// `lo` and `hi`: a composite-key prefix scan (all order lines of one
    /// order), a range scan, or both at once (the order lines of a
    /// district's last twenty orders). Typed like [`Table::lookup_pk`].
    /// Bounds that are the wrong way round select nothing. Nothing is read,
    /// nor latched, until [`Table::next_chunk`] is called.
    pub fn range<'a>(
        &self,
        index: Option<&'a str>,
        prefix: &[Value],
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> RangeCursor<'a> {
        let mut start = KeyWriter::default();
        prefix.iter().for_each(|v| start.value(v));
        let mut end = start.clone();
        // `0xFF` is above everything that continues the key so far.
        match lo {
            Bound::Included(v) => start.value(v),
            Bound::Excluded(v) => {
                start.value(v);
                start.push(0xFF);
            }
            Bound::Unbounded => {}
        }
        match hi {
            Bound::Included(v) => {
                end.value(v);
                end.push(0xFF);
            }
            Bound::Excluded(v) => end.value(v),
            Bound::Unbounded => end.push(0xFF),
        }
        let (start, end) = (start.finish(), end.finish());
        // `k >= 9 AND k < 3` with caller-supplied values, which
        // `BTreeMap::range` panics on, is a cursor that is done already.
        let done = start >= end;
        RangeCursor { index, from: Bound::Included((start, 0)), end: (end, 0), done }
    }

    /// Replace `out` with the next entries of `cursor`, at most `max` of
    /// them, and move the cursor past them; none are left when `out` comes
    /// back empty. The latch is held for the copy and no longer: whoever
    /// goes on to wait for a row lock does not keep the writer that holds it
    /// from finishing. So an entry is a hint — by the time its row is read,
    /// the slot may be vacant or hold another row ([`Table::is_at`]).
    pub fn next_chunk(&self, cursor: &mut RangeCursor<'_>, max: usize, out: &mut Vec<(Key, RowId)>) -> Result<()> {
        out.clear();
        if cursor.done {
            return Ok(());
        }
        let max = max.max(1);
        let d = self.data.read();
        let end = Bound::Excluded(&cursor.end);
        let more = match cursor.index {
            None => {
                let keys = (cursor.from.as_ref().map(|(key, _)| key), end.map(|(key, _)| key));
                fill(d.pk.range(keys).map(|(key, rowid)| (key, *rowid)), max, out)
            }
            Some(name) => {
                let index = &d.indexes[Self::index_pos(&d, name)?];
                fill(index.entries.range((cursor.from.as_ref(), end)).map(|(key, rowid)| (key, *rowid)), max, out)
            }
        };
        match out.last() {
            Some(last) if more => cursor.from = Bound::Excluded(last.clone()),
            _ => cursor.done = true,
        }
        Ok(())
    }

    /// Whether `row` has the key an entry of `cursor` was found under. A
    /// reader that relies on the cursor's order asks once it holds the row's
    /// lock: a slot freed and filled again since the entry was copied holds
    /// a row that belongs elsewhere in the order, or nowhere in the range.
    pub fn is_at(&self, cursor: &RangeCursor<'_>, key: &Key, row: &[Value]) -> bool {
        match cursor.index {
            None => key_of(&self.schema.primary_key, row) == *key,
            Some(name) => {
                let d = self.data.read();
                Self::index_pos(&d, name).is_ok_and(|pos| d.indexes[pos].key_of(row) == *key)
            }
        }
    }

    /// Materialized full scan: every live row, shared with the table.
    pub fn scan(&self) -> Vec<(RowId, SharedRow)> {
        let d = self.data.read();
        d.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|r| (i as RowId, r.clone())))
            .collect()
    }

    /// Enter a row that is already in its slot into the primary key and
    /// every index.
    fn index_row(&self, d: &mut TableData, rowid: RowId) -> Result<()> {
        let row = d.slots[rowid as usize].as_ref().expect("row in its slot");
        if let Some(pk) = self.pk_key(row) {
            d.pk.insert(pk, rowid);
        }
        d.indexes.iter_mut().try_for_each(|ix| ix.insert(row, rowid, &self.schema.name))
    }

    /// Re-insert a row into a specific slot (transaction rollback of a
    /// delete). The slot must be vacant.
    pub fn restore(&self, rowid: RowId, row: SharedRow) -> Result<()> {
        let mut d = self.data.write();
        let slot = d.slots.get_mut(rowid as usize).filter(|s| s.is_none()).ok_or(StorageError::RowGone)?;
        *slot = Some(row);
        self.index_row(&mut d, rowid)?;
        d.free.retain(|r| *r != rowid);
        d.live += 1;
        Ok(())
    }

    /// Replace the table's contents with a recovered image, placing each
    /// row at its original slot so recovered rowids match the pre-crash
    /// run. Holes left by committed deletes become free slots again.
    pub fn rebuild_from(&self, rows: &BTreeMap<RowId, SharedRow>) {
        let mut d = self.data.write();
        d.slots.clear();
        d.free.clear();
        d.pk.clear();
        for ix in &mut d.indexes {
            ix.entries.clear();
        }
        let cap = rows.keys().next_back().map(|r| *r as usize + 1).unwrap_or(0);
        d.slots.resize(cap, None);
        for (&rowid, row) in rows {
            d.slots[rowid as usize] = Some(row.clone());
            // The image is committed state, so uniqueness holds by
            // construction; a violation here is an engine bug.
            let ok = self.index_row(&mut d, rowid).is_ok();
            debug_assert!(ok, "recovered image violates an index of {}", self.schema.name);
        }
        d.live = rows.len();
        // Vacant slots (committed deletes) are free again; highest first so
        // `free.pop()` hands out the lowest rowid, like fresh growth would.
        d.free = (0..cap as RowId).rev().filter(|r| d.slots[*r as usize].is_none()).collect();
    }

    /// Remove every row (used by truncate / game reset).
    pub fn truncate(&self) {
        let mut d = self.data.write();
        d.slots.clear();
        d.free.clear();
        d.live = 0;
        d.pk.clear();
        for ix in &mut d.indexes {
            ix.entries.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::{DataType, Row};

    fn table() -> Table {
        let schema = TableSchema::new(
            "t",
            vec![
                Column::new("id", DataType::Int),
                Column::new("grp", DataType::Int),
                Column::new("name", DataType::Str),
            ],
            &["id"],
        )
        .unwrap();
        let t = Table::new(1, schema);
        t.add_index(IndexDef {
            name: "t_grp".into(),
            table: "t".into(),
            key_columns: vec![1],
            unique: false,
        })
        .unwrap();
        t
    }

    /// Every row id `cursor` has left, read three entries at a time.
    fn drain(t: &Table, mut cursor: RangeCursor<'_>) -> Vec<RowId> {
        let (mut chunk, mut all) = (Vec::new(), Vec::new());
        loop {
            t.next_chunk(&mut cursor, 3, &mut chunk).unwrap();
            assert!(chunk.len() <= 3);
            if chunk.is_empty() {
                return all;
            }
            all.extend(chunk.iter().map(|(_, rowid)| *rowid));
        }
    }

    #[test]
    fn inverted_ranges_are_empty() {
        let t = table();
        for id in 0..10 {
            t.insert(row(id, id % 2, "x")).unwrap();
        }
        t.add_index(IndexDef { name: "by_id".into(), table: "t".into(), key_columns: vec![0], unique: false })
            .unwrap();
        let (three, nine) = (Value::Int(3), Value::Int(9));
        let (inc, exc) = (Bound::Included, Bound::Excluded);
        let count = |index, lo, hi| drain(&t, t.range(index, &[], lo, hi)).len();
        for index in [None, Some("by_id")] {
            assert_eq!(count(index, inc(&three), exc(&nine)), 6);
            for (lo, hi) in [(inc(&nine), exc(&three)), (inc(&nine), inc(&three)), (exc(&three), exc(&three))] {
                assert_eq!(count(index, lo, hi), 0);
            }
            assert_eq!(count(index, inc(&three), inc(&three)), 1);
            assert_eq!(count(index, inc(&three), exc(&three)), 0);
            assert_eq!(count(index, exc(&three), inc(&three)), 0);
        }
    }

    fn row(id: i64, grp: i64, name: &str) -> Row {
        vec![Value::Int(id), Value::Int(grp), Value::Str(name.into())]
    }

    #[test]
    fn insert_get() {
        let t = table();
        let r = t.insert(row(1, 10, "a")).unwrap();
        assert_eq!(t.get(r).unwrap()[2], Value::Str("a".into()));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn duplicate_pk_rejected() {
        let t = table();
        t.insert(row(1, 10, "a")).unwrap();
        let err = t.insert(row(1, 11, "b")).unwrap_err();
        assert!(matches!(err, StorageError::DuplicateKey { .. }));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn pk_lookup() {
        let t = table();
        let r = t.insert(row(7, 1, "x")).unwrap();
        assert_eq!(t.lookup_pk(&[Value::Int(7)]), Some(r));
        assert_eq!(t.lookup_pk(&[Value::Int(8)]), None);
    }

    #[test]
    fn secondary_index_lookup_and_maintenance() {
        let t = table();
        let a = t.insert(row(1, 10, "a")).unwrap();
        let b = t.insert(row(2, 10, "b")).unwrap();
        t.insert(row(3, 20, "c")).unwrap();
        let mut hits = t.index_lookup("t_grp", &[Value::Int(10)]).unwrap();
        hits.sort_unstable();
        assert_eq!(hits, vec![a, b]);

        // Update moves row 2 to grp 20.
        t.write(b, Change::Cols(vec![(1, Value::Int(20))])).unwrap();
        assert_eq!(t.index_lookup("t_grp", &[Value::Int(10)]).unwrap(), vec![a]);
        assert_eq!(t.index_lookup("t_grp", &[Value::Int(20)]).unwrap().len(), 2);

        // Delete removes from the index.
        t.delete(a).unwrap();
        assert!(t.index_lookup("t_grp", &[Value::Int(10)]).unwrap().is_empty());
    }

    #[test]
    fn update_pk_change() {
        let t = table();
        let r = t.insert(row(1, 10, "a")).unwrap();
        t.write(r, Change::Cols(vec![(0, Value::Int(5))])).unwrap();
        assert_eq!(t.lookup_pk(&[Value::Int(1)]), None);
        assert_eq!(t.lookup_pk(&[Value::Int(5)]), Some(r));
    }

    #[test]
    fn update_pk_conflict_rejected() {
        let t = table();
        let r1 = t.insert(row(1, 10, "a")).unwrap();
        t.insert(row(2, 10, "b")).unwrap();
        assert!(t.write(r1, Change::Cols(vec![(0, Value::Int(2))])).is_err());
        // Original untouched.
        assert_eq!(t.lookup_pk(&[Value::Int(1)]), Some(r1));
    }

    #[test]
    fn a_write_logs_the_columns_it_changed_bitwise_once_each_in_column_order() {
        let schema = TableSchema::new(
            "f",
            vec![
                Column::new("id", DataType::Int),
                Column::new("x", DataType::Float),
                Column::new("s", DataType::Str),
                Column::nullable("n", DataType::Int),
            ],
            &["id"],
        )
        .unwrap();
        let t = Table::new(2, schema);
        let r = t.insert(vec![Value::Int(1), Value::Float(0.0), Value::Str("a".into()), Value::Null]).unwrap();
        let sets = vec![
            (3, Value::Int(7)),
            (2, Value::Str("a".into())),
            (1, Value::Float(-0.0)),
            (3, Value::Int(0)),
        ];
        let written = t.write(r, Change::Cols(sets)).unwrap();
        assert_eq!(written.redo.iter().map(|(c, _)| *c).collect::<Vec<_>>(), [1, 3]);
        assert!(matches!(written.redo[0].1, Value::Float(z) if z.to_bits() == (-0.0f64).to_bits()));
        assert_eq!(written.redo[1].1, Value::Int(0));
        // A column set back to what it held changed nothing.
        let sets = vec![(3, Value::Int(5)), (3, Value::Int(0))];
        assert!(t.write(r, Change::Cols(sets)).unwrap().redo.is_empty());
    }

    #[test]
    fn a_unique_index_refuses_a_write_and_the_row_is_untouched() {
        let t = table();
        t.add_index(IndexDef { name: "t_name".into(), table: "t".into(), key_columns: vec![2], unique: true })
            .unwrap();
        let a = t.insert(row(1, 1, "a")).unwrap();
        t.insert(row(2, 2, "b")).unwrap();
        let err = t.write(a, Change::Cols(vec![(1, Value::Int(9)), (2, Value::Str("b".into()))])).unwrap_err();
        assert!(matches!(err, StorageError::DuplicateKey { .. }));
        assert_eq!(*t.get(a).unwrap(), row(1, 1, "a")[..]);
        assert_eq!(t.index_lookup("t_grp", &[Value::Int(1)]).unwrap(), vec![a]);
        // Its own key is no conflict.
        t.write(a, Change::Cols(vec![(2, Value::Str("a".into()))])).unwrap();
    }

    #[test]
    fn delete_and_slot_reuse() {
        let t = table();
        let a = t.insert(row(1, 1, "a")).unwrap();
        t.delete(a).unwrap();
        assert_eq!(t.len(), 0);
        assert!(t.get(a).is_none());
        let b = t.insert(row(2, 1, "b")).unwrap();
        assert_eq!(a, b, "slot should be reused");
    }

    #[test]
    fn double_delete_errors() {
        let t = table();
        let a = t.insert(row(1, 1, "a")).unwrap();
        t.delete(a).unwrap();
        assert_eq!(t.delete(a).unwrap_err(), StorageError::RowGone);
    }

    #[test]
    fn pk_range_scan() {
        let t = table();
        for i in 0..20 {
            t.insert(row(i, 0, "r")).unwrap();
        }
        let got = drain(&t, t.range(None, &[], Bound::Included(&Value::Int(5)), Bound::Excluded(&Value::Int(10))));
        assert_eq!(got, [5, 6, 7, 8, 9]);
        // A chunk is as long as it was asked to be, and the next one starts
        // where it stopped.
        let (mut cursor, mut chunk) = (t.range(None, &[], Bound::Unbounded, Bound::Unbounded), Vec::new());
        for (max, rows) in [(7, 0..7), (1, 7..8), (100, 8..20), (100, 0..0)] {
            t.next_chunk(&mut cursor, max, &mut chunk).unwrap();
            assert_eq!(chunk.iter().map(|(_, rowid)| *rowid).collect::<Vec<_>>(), rows.collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_cursor_finds_its_place_again_by_key() {
        let t = table();
        // Twelve rows in one group and two in the next: chunks of three end
        // inside a secondary key's rows.
        let rowids: Vec<RowId> = (0..14).map(|id| t.insert(row(id, if id < 12 { 7 } else { 8 }, "r")).unwrap()).collect();
        assert_eq!(rowids, (0..14).collect::<Vec<_>>());
        let whole = || t.range(Some("t_grp"), &[], Bound::Unbounded, Bound::Unbounded);
        assert_eq!(drain(&t, whole()), rowids);

        // Between two chunks: rows that came are seen where their keys and
        // row ids put them, rows that went are not, and none is seen twice.
        let (mut cursor, mut chunk) = (whole(), Vec::new());
        t.next_chunk(&mut cursor, 4, &mut chunk).unwrap();
        assert_eq!(chunk.iter().map(|(_, rowid)| *rowid).collect::<Vec<_>>(), rowids[..4]);
        assert!(chunk.iter().all(|(key, _)| *key == Key::encode(&[Value::Int(7)])));
        for gone in [1, 5, 13] {
            t.delete(gone).unwrap();
        }
        // Freed slots are filled again, the last freed first.
        let behind = t.insert(row(20, 6, "under a lower key")).unwrap();
        let ahead = t.insert(row(21, 7, "past the cursor's row id")).unwrap();
        let passed = t.insert(row(22, 7, "below the cursor's row id")).unwrap();
        let grown = t.insert(row(23, 7, "in a new slot")).unwrap();
        assert_eq!([behind, ahead, passed, grown], [13, 5, 1, 14]);
        // Rows under one key come in row-id order: the new slot is the last
        // of group 7, before the one row left in group 8.
        assert_eq!(drain(&t, cursor), [4, 5, 6, 7, 8, 9, 10, 11, 14, 12]);
    }

    #[test]
    fn a_row_shown_then_deleted_does_not_hide_the_next() {
        let t = table();
        for id in 0..12 {
            t.insert(row(id, 7, "r")).unwrap();
        }
        let (mut cursor, mut chunk) = (t.range(Some("t_grp"), &[], Bound::Unbounded, Bound::Unbounded), Vec::new());
        t.next_chunk(&mut cursor, 4, &mut chunk).unwrap();
        assert_eq!(chunk.iter().map(|(_, rowid)| *rowid).collect::<Vec<_>>(), [0, 1, 2, 3]);
        t.delete(chunk[1].1).unwrap();
        assert_eq!(drain(&t, cursor), (4..12).collect::<Vec<_>>());
    }

    #[test]
    fn an_entry_is_checked_against_the_row_its_slot_holds() {
        let t = table();
        let a = t.insert(row(1, 7, "a")).unwrap();
        for index in [None, Some("t_grp")] {
            let (mut cursor, mut chunk) = (t.range(index, &[], Bound::Unbounded, Bound::Unbounded), Vec::new());
            t.next_chunk(&mut cursor, 8, &mut chunk).unwrap();
            let (key, rowid) = &chunk[0];
            assert_eq!(*rowid, a);
            assert!(t.is_at(&cursor, key, &t.get(a).unwrap()));
            assert!(!t.is_at(&cursor, key, &row(2, 8, "another row in the slot")));
        }
    }

    #[test]
    fn prefix_then_range_on_pk_and_index() {
        let schema = TableSchema::new(
            "ol",
            vec![
                Column::new("o", DataType::Int),
                Column::new("n", DataType::Int),
            ],
            &["o", "n"],
        )
        .unwrap();
        let t = Table::new(2, schema);
        t.add_index(IndexDef {
            name: "ol_on".into(),
            table: "ol".into(),
            key_columns: vec![0, 1],
            unique: true,
        })
        .unwrap();
        // Keys on both sides of every length class, negative ones too.
        for o in [-300i64, -1, 0, 1, 255, 256] {
            for n in 0..4i64 {
                t.insert(vec![Value::Int(o), Value::Int(n)]).unwrap();
            }
        }
        let keys = |cursor| drain(&t, cursor).iter().map(|r| t.get(*r).unwrap().to_vec()).collect::<Vec<Row>>();
        for index in [None, Some("ol_on")] {
            let all = keys(t.range(index, &[], Bound::Unbounded, Bound::Unbounded));
            assert!(all.is_sorted() && all.len() == 24, "{all:?}");
            let pre = keys(t.range(index, &[Value::Int(1)], Bound::Unbounded, Bound::Unbounded));
            assert_eq!(pre.len(), 4);
            let one = Value::Int(1);
            let tail = keys(t.range(index, &[Value::Int(255)], Bound::Excluded(&one), Bound::Unbounded));
            assert_eq!(tail, [[Value::Int(255), Value::Int(2)], [Value::Int(255), Value::Int(3)]]);
            let head = keys(t.range(index, &[Value::Int(-1)], Bound::Unbounded, Bound::Included(&one)));
            assert_eq!(head.len(), 2);
            let from = keys(t.range(index, &[], Bound::Included(&Value::Int(255)), Bound::Unbounded));
            assert_eq!(from[2], [Value::Int(255), Value::Int(2)]);
            // A probe of another type than its column finds nothing.
            assert!(keys(t.range(index, &[Value::Float(1.0)], Bound::Unbounded, Bound::Unbounded)).is_empty());
        }
        let mut nowhere = t.range(Some("nope"), &[], Bound::Unbounded, Bound::Unbounded);
        assert_eq!(t.next_chunk(&mut nowhere, 1, &mut Vec::new()), Err(StorageError::NoSuchIndex("nope".into())));
    }

    #[test]
    fn unique_secondary_index() {
        let t = table();
        t.add_index(IndexDef {
            name: "t_name".into(),
            table: "t".into(),
            key_columns: vec![2],
            unique: true,
        })
        .unwrap();
        t.insert(row(1, 1, "a")).unwrap();
        let err = t.insert(row(2, 2, "a")).unwrap_err();
        assert!(matches!(err, StorageError::DuplicateKey { .. }));
    }

    #[test]
    fn backfilled_index() {
        let t = table();
        t.insert(row(1, 7, "a")).unwrap();
        t.insert(row(2, 7, "b")).unwrap();
        t.add_index(IndexDef {
            name: "t_grp2".into(),
            table: "t".into(),
            key_columns: vec![1],
            unique: false,
        })
        .unwrap();
        assert_eq!(t.index_lookup("t_grp2", &[Value::Int(7)]).unwrap().len(), 2);
    }

    #[test]
    fn truncate() {
        let t = table();
        for i in 0..10 {
            t.insert(row(i, i, "x")).unwrap();
        }
        t.truncate();
        assert_eq!(t.len(), 0);
        assert!(t.scan().is_empty());
        assert!(t.index_lookup("t_grp", &[Value::Int(1)]).unwrap().is_empty());
        // Insert works again after truncate.
        t.insert(row(1, 1, "a")).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn rebuild_from_image_places_rows_at_original_slots() {
        let t = table();
        for i in 0..6 {
            t.insert(row(i, i % 2, "x")).unwrap();
        }
        // Image with holes at slots 1 and 4 (committed deletes).
        let mut image = BTreeMap::new();
        for rid in [0u64, 2, 3, 5] {
            image.insert(rid, row(rid as i64, 1, "r").into());
        }
        t.rebuild_from(&image);
        assert_eq!(t.len(), 4);
        assert_eq!(t.get(2).unwrap()[0], Value::Int(2));
        assert!(t.get(1).is_none());
        assert_eq!(t.lookup_pk(&[Value::Int(5)]), Some(5));
        assert_eq!(t.index_lookup("t_grp", &[Value::Int(1)]).unwrap().len(), 4);
        // Vacant slots are handed out lowest-first to new inserts.
        assert_eq!(t.insert(row(100, 0, "new")).unwrap(), 1);
        assert_eq!(t.insert(row(101, 0, "new2")).unwrap(), 4);
        assert_eq!(t.insert(row(102, 0, "new3")).unwrap(), 6);
    }

    #[test]
    fn scan_returns_live_rows_only() {
        let t = table();
        let a = t.insert(row(1, 1, "a")).unwrap();
        t.insert(row(2, 2, "b")).unwrap();
        t.delete(a).unwrap();
        let rows = t.scan();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1[0], Value::Int(2));
    }
}
