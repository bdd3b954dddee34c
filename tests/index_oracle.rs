//! The secondary indexes against an oracle: a seeded history of inserts,
//! rekeying updates, deletes and rollbacks through a `Session`, after each
//! step of which every index, read through range cursors in chunks of
//! random size, holds exactly the `(key, row id)` entries the table's rows
//! give, in order. A unique violation changes nothing, and a reader whose
//! shown rows are deleted between two chunks is still shown every other row.

use std::ops::Bound;
use std::sync::Arc;

use benchpress::storage::{Column, DataType, Database, Key, Personality, RowId, Session, StorageError, Table, TableSchema, Value};
use benchpress::util::rng::Rng;

const STEPS: usize = 20_000;
/// Values of the unique column: enough for the rows, few enough to collide.
const UNIQUE_VALUES: i64 = 400;
/// Values of the non-unique column: long runs of rows under one key.
const GROUPS: i64 = 8;
const U: usize = 1;
const G: usize = 2;
/// Each index with its key column.
const INDEXES: [(&str, usize); 2] = [("t_u", U), ("t_g", G)];

/// A unique value as a string longer than a key holds inline.
fn unique(n: i64) -> Value {
    Value::Str(format!("a unique value, number {n:05}"))
}

fn table(db: &Arc<Database>) -> Arc<Table> {
    let columns = vec![Column::new("id", DataType::Int), Column::new("u", DataType::Str), Column::new("g", DataType::Int)];
    db.create_table(TableSchema::new("t", columns, &["id"]).expect("schema")).expect("create");
    db.create_index("t", "t_u", &["u"], true).expect("unique index");
    db.create_index("t", "t_g", &["g"], false).expect("index");
    db.table("t").expect("created")
}

/// Every entry of `index`, read in chunks of 1 to 16.
fn drain(t: &Table, index: &str, rng: &mut Rng) -> Vec<(Key, RowId)> {
    let (mut cursor, mut chunk, mut all) = (t.range(Some(index), &[], Bound::Unbounded, Bound::Unbounded), Vec::new(), Vec::new());
    loop {
        let max = 1 + rng.index(16);
        t.next_chunk(&mut cursor, max, &mut chunk).expect("chunk");
        assert!(chunk.len() <= max);
        if chunk.is_empty() {
            return all;
        }
        all.append(&mut chunk);
    }
}

/// The entries the table's rows give each index, in order.
fn expected(t: &Table) -> Vec<Vec<(Key, RowId)>> {
    let rows = t.scan();
    let entries = |col: usize| {
        let mut entries: Vec<_> = rows.iter().map(|(rowid, row)| (Key::encode([&row[col]]), *rowid)).collect();
        entries.sort_unstable();
        entries
    };
    INDEXES.iter().map(|(_, col)| entries(*col)).collect()
}

/// Both indexes, read as a range reader reads them.
fn indexes(t: &Table, rng: &mut Rng) -> Vec<Vec<(Key, RowId)>> {
    INDEXES.iter().map(|(name, _)| drain(t, name, rng)).collect()
}

fn assert_consistent(t: &Table, rng: &mut Rng, step: usize) -> Vec<Vec<(Key, RowId)>> {
    let got = indexes(t, rng);
    for ((name, _), (entries, expected)) in INDEXES.iter().zip(got.iter().zip(expected(t))) {
        assert!(*entries == expected, "step {step}: {name} differs from the rows");
    }
    got
}

/// Read the non-unique index a chunk at a time, deleting some of the rows
/// each chunk showed before the next is read, then roll the deletes back.
/// Every entry there was at the start is shown once.
fn delete_behind_a_reader(s: &mut Session, t: &Arc<Table>, rng: &mut Rng, step: usize) {
    let before = expected(t).swap_remove(1);
    let (mut cursor, mut chunk, mut shown) = (t.range(Some("t_g"), &[], Bound::Unbounded, Bound::Unbounded), Vec::new(), Vec::new());
    s.begin().expect("begin");
    loop {
        t.next_chunk(&mut cursor, 1 + rng.index(16), &mut chunk).expect("chunk");
        if chunk.is_empty() {
            break;
        }
        for (_, rowid) in &chunk {
            if rng.bool_with(0.5) {
                s.delete(t, *rowid).expect("delete a shown row");
            }
        }
        shown.append(&mut chunk);
    }
    s.rollback().expect("rollback");
    assert!(shown == before, "step {step}: deleting shown rows changed what the reader was shown");
}

#[test]
fn indexes_hold_what_the_rows_give_through_a_seeded_history() {
    let db = Database::new(Personality::test());
    let t = table(&db);
    let mut s = db.session();
    let (mut rng, mut chunks) = (Rng::new(41), Rng::new(42));
    let (mut next_id, mut duplicates, mut rollbacks) = (0i64, 0, 0);
    let mut last = assert_consistent(&t, &mut chunks, 0);
    s.begin().expect("begin");
    for step in 1..=STEPS {
        let rows = t.scan();
        let pick = |rng: &mut Rng| rows[rng.index(rows.len())].0;
        let roll = rng.index(100);
        let result = match roll {
            _ if rows.is_empty() || (roll < 40 && rows.len() < 100) => {
                next_id += 1;
                let u = unique(rng.int_range(0, UNIQUE_VALUES - 1));
                s.insert(&t, vec![Value::Int(next_id), u, Value::Int(rng.int_range(0, GROUPS - 1))]).map(drop)
            }
            0..=59 => {
                let rowid = pick(&mut rng);
                let mut sets = vec![(G, Value::Int(rng.int_range(0, GROUPS - 1)))];
                if rng.bool_with(0.5) {
                    sets.push((U, unique(rng.int_range(0, UNIQUE_VALUES - 1))));
                }
                s.update_columns(&t, rowid, sets)
            }
            60..=84 => s.delete(&t, pick(&mut rng)),
            85..=92 => {
                s.commit().expect("commit");
                s.begin()
            }
            _ => {
                rollbacks += 1;
                s.rollback().expect("rollback");
                s.begin()
            }
        };
        let now = assert_consistent(&t, &mut chunks, step);
        match result {
            Ok(()) => {}
            Err(StorageError::DuplicateKey { .. }) => {
                duplicates += 1;
                assert!(now == last, "step {step}: a refused write changed an index");
            }
            Err(e) => panic!("step {step}: {e}"),
        }
        last = now;
        if step % 100 == 0 {
            s.commit().expect("commit");
            delete_behind_a_reader(&mut s, &t, &mut chunks, step);
            assert!(indexes(&t, &mut chunks) == last, "step {step}: a rollback did not put the rows back");
            s.begin().expect("begin");
        }
    }
    s.commit().expect("commit");
    // The history did what it is meant to: refusals, undo, and long runs
    // under one key.
    assert!(duplicates > 100 && rollbacks > 100, "{duplicates} refused, {rollbacks} rolled back");
    assert!(t.len() >= GROUPS as usize * 10, "{} rows", t.len());
}
