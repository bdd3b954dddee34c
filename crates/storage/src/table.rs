//! Heap tables with a clustered primary-key index and secondary B-tree
//! indexes.
//!
//! The physical structures are latched with a `bp_util::sync::RwLock`;
//! *logical* isolation (row/table locks) is enforced above this layer by the
//! engine, so methods here assume the caller already holds the appropriate
//! logical locks.

use std::collections::BTreeMap;
use std::ops::Bound;

use bp_util::sync::RwLock;

use crate::error::{Result, StorageError};
use crate::schema::{IndexDef, TableSchema};
use crate::value::{Row, Value};

pub type RowId = u64;

#[derive(Debug)]
struct IndexState {
    def: IndexDef,
    map: BTreeMap<Vec<Value>, Vec<RowId>>,
}

impl IndexState {
    fn key_of(&self, row: &Row) -> Vec<Value> {
        self.def.key_columns.iter().map(|&i| row[i].clone()).collect()
    }

    fn insert(&mut self, key: Vec<Value>, rowid: RowId, table: &str) -> Result<()> {
        let slot = self.map.entry(key).or_default();
        if self.def.unique && !slot.is_empty() {
            return Err(StorageError::DuplicateKey {
                table: table.to_string(),
                key: self.def.name.clone(),
            });
        }
        slot.push(rowid);
        Ok(())
    }

    fn remove(&mut self, key: &[Value], rowid: RowId) {
        if let Some(slot) = self.map.get_mut(key) {
            slot.retain(|r| *r != rowid);
            if slot.is_empty() {
                self.map.remove(key);
            }
        }
    }
}

#[derive(Debug, Default)]
struct TableData {
    slots: Vec<Option<Row>>,
    free: Vec<RowId>,
    live: usize,
    pk: BTreeMap<Vec<Value>, RowId>,
    indexes: Vec<IndexState>,
}

/// A table: schema plus latched data.
#[derive(Debug)]
pub struct Table {
    pub id: u32,
    pub schema: TableSchema,
    data: RwLock<TableData>,
}

/// Inclusive/exclusive range bounds over index keys.
pub type KeyBound<'a> = Bound<&'a [Value]>;

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
        let mut ix = IndexState { def, map: BTreeMap::new() };
        for (rowid, slot) in d.slots.iter().enumerate() {
            if let Some(row) = slot {
                let key = ix.key_of(row);
                ix.insert(key, rowid as RowId, &self.schema.name)?;
            }
        }
        d.indexes.push(ix);
        Ok(())
    }

    pub fn index_names(&self) -> Vec<String> {
        self.data.read().indexes.iter().map(|ix| ix.def.name.clone()).collect()
    }

    fn index_pos(d: &TableData, name: &str) -> Result<usize> {
        d.indexes
            .iter()
            .position(|ix| ix.def.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| StorageError::NoSuchIndex(name.to_string()))
    }

    /// Find an index whose key columns are exactly `cols` (in order).
    pub fn index_on(&self, cols: &[usize]) -> Option<String> {
        let d = self.data.read();
        d.indexes
            .iter()
            .find(|ix| ix.def.key_columns == cols)
            .map(|ix| ix.def.name.clone())
    }

    /// Find an index whose key *prefix* is `cols`.
    pub fn index_with_prefix(&self, cols: &[usize]) -> Option<String> {
        let d = self.data.read();
        d.indexes
            .iter()
            .find(|ix| ix.def.key_columns.len() >= cols.len() && ix.def.key_columns[..cols.len()] == *cols)
            .map(|ix| ix.def.name.clone())
    }

    /// Insert a validated row, returning its rowid.
    pub fn insert(&self, row: Row) -> Result<RowId> {
        let mut d = self.data.write();
        // Primary-key uniqueness.
        let pk = self.schema.pk_of(&row);
        if self.schema.has_primary_key() && d.pk.contains_key(&pk) {
            return Err(StorageError::DuplicateKey {
                table: self.schema.name.clone(),
                key: format!("{pk:?}"),
            });
        }
        // Unique secondary indexes.
        for ix in &d.indexes {
            if ix.def.unique {
                let key = ix.key_of(&row);
                if ix.map.contains_key(&key) {
                    return Err(StorageError::DuplicateKey {
                        table: self.schema.name.clone(),
                        key: format!("{}={key:?}", ix.def.name),
                    });
                }
            }
        }
        let rowid = match d.free.pop() {
            Some(r) => {
                d.slots[r as usize] = Some(row.clone());
                r
            }
            None => {
                d.slots.push(Some(row.clone()));
                (d.slots.len() - 1) as RowId
            }
        };
        if self.schema.has_primary_key() {
            d.pk.insert(pk, rowid);
        }
        for ix in &mut d.indexes {
            let key = ix.key_of(&row);
            ix.insert(key, rowid, &self.schema.name)?;
        }
        d.live += 1;
        Ok(rowid)
    }

    /// Fetch a row by rowid.
    pub fn get(&self, rowid: RowId) -> Option<Row> {
        self.data.read().slots.get(rowid as usize)?.clone()
    }

    /// Overwrite a row in place, maintaining all indexes.
    /// Returns the before-image.
    pub fn update(&self, rowid: RowId, new_row: Row) -> Result<Row> {
        let mut d = self.data.write();
        let old = d
            .slots
            .get(rowid as usize)
            .and_then(|s| s.clone())
            .ok_or(StorageError::RowGone)?;

        let old_pk = self.schema.pk_of(&old);
        let new_pk = self.schema.pk_of(&new_row);
        if self.schema.has_primary_key() && old_pk != new_pk {
            if d.pk.contains_key(&new_pk) {
                return Err(StorageError::DuplicateKey {
                    table: self.schema.name.clone(),
                    key: format!("{new_pk:?}"),
                });
            }
            d.pk.remove(&old_pk);
            d.pk.insert(new_pk, rowid);
        }
        // Unique check first (excluding this row), then mutate.
        for ix in &d.indexes {
            if ix.def.unique {
                let new_key = ix.key_of(&new_row);
                if let Some(slot) = ix.map.get(&new_key) {
                    if slot.iter().any(|r| *r != rowid) {
                        return Err(StorageError::DuplicateKey {
                            table: self.schema.name.clone(),
                            key: format!("{}={new_key:?}", ix.def.name),
                        });
                    }
                }
            }
        }
        for ix in &mut d.indexes {
            let old_key = ix.key_of(&old);
            let new_key = ix.key_of(&new_row);
            if old_key != new_key {
                ix.remove(&old_key, rowid);
                ix.insert(new_key, rowid, &self.schema.name)?;
            }
        }
        d.slots[rowid as usize] = Some(new_row);
        Ok(old)
    }

    /// Delete a row, returning its before-image.
    pub fn delete(&self, rowid: RowId) -> Result<Row> {
        let mut d = self.data.write();
        let old = d
            .slots
            .get(rowid as usize)
            .and_then(|s| s.clone())
            .ok_or(StorageError::RowGone)?;
        if self.schema.has_primary_key() {
            let pk = self.schema.pk_of(&old);
            d.pk.remove(&pk);
        }
        for ix in &mut d.indexes {
            let key = ix.key_of(&old);
            ix.remove(&key, rowid);
        }
        d.slots[rowid as usize] = None;
        d.free.push(rowid);
        d.live -= 1;
        Ok(old)
    }

    /// Primary-key point lookup.
    pub fn lookup_pk(&self, key: &[Value]) -> Option<RowId> {
        self.data.read().pk.get(key).copied()
    }

    /// Primary-key range scan (over pk order).
    pub fn pk_range(&self, lo: KeyBound<'_>, hi: KeyBound<'_>, limit: usize) -> Vec<RowId> {
        let Some(range) = key_range(lo, hi) else { return Vec::new() };
        let d = self.data.read();
        d.pk.range(range).take(limit).map(|(_, r)| *r).collect()
    }

    /// Rows whose primary key starts with `prefix` (composite-PK prefix).
    pub fn pk_prefix(&self, prefix: &[Value], limit: usize) -> Vec<RowId> {
        let d = self.data.read();
        let mut out = Vec::new();
        for (key, rowid) in d.pk.range(prefix.to_vec()..) {
            if key.len() < prefix.len() || key[..prefix.len()] != *prefix {
                break;
            }
            if out.len() >= limit {
                break;
            }
            out.push(*rowid);
        }
        out
    }

    /// Definitions of all secondary indexes.
    pub fn index_defs(&self) -> Vec<IndexDef> {
        self.data.read().indexes.iter().map(|ix| ix.def.clone()).collect()
    }

    /// Secondary-index point lookup.
    pub fn index_lookup(&self, index: &str, key: &[Value]) -> Result<Vec<RowId>> {
        let d = self.data.read();
        let pos = Self::index_pos(&d, index)?;
        Ok(d.indexes[pos].map.get(key).cloned().unwrap_or_default())
    }

    /// Secondary-index range scan.
    pub fn index_range(
        &self,
        index: &str,
        lo: KeyBound<'_>,
        hi: KeyBound<'_>,
        limit: usize,
    ) -> Result<Vec<RowId>> {
        let d = self.data.read();
        let pos = Self::index_pos(&d, index)?;
        let mut out = Vec::new();
        let Some(range) = key_range(lo, hi) else { return Ok(out) };
        for (_, rowids) in d.indexes[pos].map.range(range) {
            for r in rowids {
                if out.len() >= limit {
                    return Ok(out);
                }
                out.push(*r);
            }
        }
        Ok(out)
    }

    /// Rows whose index key starts with `prefix` (composite-index prefix
    /// scan, e.g. all order lines of one order).
    pub fn index_prefix(&self, index: &str, prefix: &[Value], limit: usize) -> Result<Vec<RowId>> {
        let d = self.data.read();
        let pos = Self::index_pos(&d, index)?;
        let mut out = Vec::new();
        for (key, rowids) in d.indexes[pos].map.range(prefix.to_vec()..) {
            if key.len() < prefix.len() || key[..prefix.len()] != *prefix {
                break;
            }
            for r in rowids {
                if out.len() >= limit {
                    return Ok(out);
                }
                out.push(*r);
            }
        }
        Ok(out)
    }

    /// Materialized full scan.
    pub fn scan(&self) -> Vec<(RowId, Row)> {
        let d = self.data.read();
        d.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|r| (i as RowId, r.clone())))
            .collect()
    }

    /// Re-insert a row into a specific slot (transaction rollback of a
    /// delete). The slot must be vacant.
    pub fn restore(&self, rowid: RowId, row: Row) -> Result<()> {
        let mut d = self.data.write();
        let idx = rowid as usize;
        if idx >= d.slots.len() || d.slots[idx].is_some() {
            return Err(StorageError::RowGone);
        }
        if self.schema.has_primary_key() {
            let pk = self.schema.pk_of(&row);
            d.pk.insert(pk, rowid);
        }
        for ix in &mut d.indexes {
            let key = ix.key_of(&row);
            ix.insert(key, rowid, &self.schema.name)?;
        }
        d.free.retain(|r| *r != rowid);
        d.slots[idx] = Some(row);
        d.live += 1;
        Ok(())
    }

    /// Replace the table's contents with a recovered image, placing each
    /// row at its original slot so recovered rowids match the pre-crash
    /// run. Holes left by committed deletes become free slots again.
    pub fn rebuild_from(&self, rows: &BTreeMap<RowId, Row>) {
        let mut d = self.data.write();
        d.slots.clear();
        d.free.clear();
        d.pk.clear();
        for ix in &mut d.indexes {
            ix.map.clear();
        }
        let cap = rows.keys().next_back().map(|r| *r as usize + 1).unwrap_or(0);
        d.slots.resize(cap, None);
        for (&rowid, row) in rows {
            if self.schema.has_primary_key() {
                let pk = self.schema.pk_of(row);
                d.pk.insert(pk, rowid);
            }
            for ix in &mut d.indexes {
                let key = ix.key_of(row);
                // The image is committed state, so uniqueness holds by
                // construction; a violation here is an engine bug.
                let ok = ix.insert(key, rowid, &self.schema.name).is_ok();
                debug_assert!(ok, "recovered image violates index {}", ix.def.name);
            }
            d.slots[rowid as usize] = Some(row.clone());
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
            ix.map.clear();
        }
    }
}

type OwnedKeyBound = Bound<Vec<Value>>;

/// The owned range to hand to `BTreeMap::range`, or `None` for bounds that
/// select nothing because they are the wrong way round (`k >= 9 AND k < 3`
/// with caller-supplied values) — which `BTreeMap::range` panics on.
fn key_range(lo: KeyBound<'_>, hi: KeyBound<'_>) -> Option<(OwnedKeyBound, OwnedKeyBound)> {
    let inverted = match (lo, hi) {
        (Bound::Excluded(a), Bound::Excluded(b)) => a >= b,
        (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) => a > b,
        _ => false,
    };
    let owned = |b: KeyBound<'_>| b.map(<[Value]>::to_vec);
    (!inverted).then(|| (owned(lo), owned(hi)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

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

    #[test]
    fn inverted_ranges_are_empty() {
        let t = table();
        for id in 0..10 {
            t.insert(row(id, id % 2, "x")).unwrap();
        }
        t.add_index(IndexDef { name: "by_grp".into(), table: "t".into(), key_columns: vec![1], unique: false })
            .unwrap();
        let (three, nine) = ([Value::Int(3)], [Value::Int(9)]);
        fn inc(k: &[Value; 1]) -> KeyBound<'_> {
            Bound::Included(k)
        }
        fn exc(k: &[Value; 1]) -> KeyBound<'_> {
            Bound::Excluded(k)
        }
        assert_eq!(t.pk_range(inc(&three), exc(&nine), usize::MAX).len(), 6);
        for (lo, hi) in [(inc(&nine), exc(&three)), (inc(&nine), inc(&three)), (exc(&three), exc(&three))] {
            assert!(t.pk_range(lo, hi, usize::MAX).is_empty());
            assert!(t.index_range("by_grp", lo, hi, usize::MAX).unwrap().is_empty());
        }
        assert_eq!(t.pk_range(inc(&three), inc(&three), usize::MAX).len(), 1);
        assert!(t.pk_range(inc(&three), exc(&three), usize::MAX).is_empty());
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
        t.update(b, row(2, 20, "b")).unwrap();
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
        t.update(r, row(5, 10, "a")).unwrap();
        assert_eq!(t.lookup_pk(&[Value::Int(1)]), None);
        assert_eq!(t.lookup_pk(&[Value::Int(5)]), Some(r));
    }

    #[test]
    fn update_pk_conflict_rejected() {
        let t = table();
        let r1 = t.insert(row(1, 10, "a")).unwrap();
        t.insert(row(2, 10, "b")).unwrap();
        assert!(t.update(r1, row(2, 10, "a")).is_err());
        // Original untouched.
        assert_eq!(t.lookup_pk(&[Value::Int(1)]), Some(r1));
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
        let got = t.pk_range(
            Bound::Included(&[Value::Int(5)][..]),
            Bound::Excluded(&[Value::Int(10)][..]),
            100,
        );
        assert_eq!(got.len(), 5);
        let limited = t.pk_range(Bound::Unbounded, Bound::Unbounded, 7);
        assert_eq!(limited.len(), 7);
    }

    #[test]
    fn index_range_and_prefix() {
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
        for o in 0..3i64 {
            for n in 0..4i64 {
                t.insert(vec![Value::Int(o), Value::Int(n)]).unwrap();
            }
        }
        let pre = t.index_prefix("ol_on", &[Value::Int(1)], 100).unwrap();
        assert_eq!(pre.len(), 4);
        let rng = t
            .index_range(
                "ol_on",
                Bound::Included(&[Value::Int(1), Value::Int(2)][..]),
                Bound::Unbounded,
                3,
            )
            .unwrap();
        assert_eq!(rng.len(), 3);
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
            image.insert(rid, row(rid as i64, 1, "r"));
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
