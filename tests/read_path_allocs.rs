//! A read shares the row it returns and a write copies none: what a point
//! read, a point update and a join allocate, that the row a reader holds is
//! the table's own, that such a row keeps showing what was read whatever is
//! written afterwards, and that a session keeps its transaction buffers only
//! while they are small.
//!
//! The counting allocator counts per thread, so the test harness's threads
//! do not show in the figures.

#[path = "support/counting.rs"]
mod counting;

use std::cell::Cell;
use std::sync::Arc;

use benchpress::core::Workload;
use benchpress::sql::Connection;
use benchpress::storage::{Database, Personality, Session, Value};
use benchpress::util::rng::Rng;
use benchpress::workloads::ycsb::Ycsb;
use counting::ALLOCS;

/// Allocations on this thread while `body` runs.
fn allocations(body: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    body();
    ALLOCS.with(Cell::get) - before
}

/// YCSB's `usertable`, 1,000 rows per unit of `scale`.
fn ycsb(scale: f64) -> (Ycsb, Arc<Database>, Connection) {
    let db = Database::new(Personality::test());
    let mut conn = Connection::open(&db);
    let ycsb = Ycsb::new();
    ycsb.setup(&mut conn, scale, &mut Rng::new(7)).expect("load");
    (ycsb, db, conn)
}

#[test]
fn a_point_read_allocates_its_key_and_its_result() {
    const READ: usize = 0;
    const UPDATE: usize = 1;
    const ROUNDS: u64 = 10_000;
    let (ycsb, _db, mut conn) = ycsb(1.0);
    let mut rng = Rng::new(11);
    let mut per_txn = |idx: usize| {
        let mut run = |rounds: u64| {
            for _ in 0..rounds {
                ycsb.execute(idx, &mut conn, &mut rng).expect("transaction");
            }
        };
        // Warm up: the statement is planned and cached, the lock table and
        // the session have their buffers.
        run(1_000);
        allocations(|| run(ROUNDS)) as f64 / ROUNDS as f64
    };
    // `SELECT * FROM usertable WHERE ycsb_key = ?`: the probe key and the
    // result's row list. Before rows were shared: 18.00 (the row's values
    // and its ten strings, copied to be handed on).
    let read = per_txn(READ);
    assert!(read <= 4.0, "{read} allocations per ycsb Read");
    // `UPDATE usertable SET field0 = ? ...`: the probe key, the new value's
    // string and its copy as evaluated, the list of values set, and the
    // redo's list and its copy of the string. The row is written in place.
    // Before: 17.00 (11 of them a copy of the row and its ten strings to
    // modify), and 33.00 before rows were shared.
    let update = per_txn(UPDATE);
    assert!(update <= 6.1, "{update} allocations per ycsb Update (17 when the row was copied)");
}

/// NewOrder's `UPDATE stock SET s_quantity = ?, s_order_cnt = s_order_cnt
/// + 1` by key sets two numbers, and its row is written in place: the
/// stock row's 26 to 50 character `s_data` is not copied.
#[test]
fn a_point_update_allocates_what_it_sets_and_not_the_row() {
    use benchpress::workloads::tpcc::{Tpcc, ITEMS, UPDATE_STOCK};
    let db = Database::new(Personality::test());
    let mut conn = Connection::open(&db);
    Tpcc::new().setup(&mut conn, 1.0, &mut Rng::new(7)).expect("load");
    let stock = db.table("stock").expect("loaded");
    let update = conn.prepare(UPDATE_STOCK).expect("prepare");
    let mut run = |rounds: i64| {
        for n in 0..rounds {
            let params = [Value::Int(10 + n % 80), Value::Int(1), Value::Int(1 + n % ITEMS)];
            conn.begin().expect("begin");
            assert_eq!(conn.execute_prepared(&update, &params).expect("update").affected(), 1);
            conn.commit().expect("commit");
        }
    };
    run(1_000);
    let at = |item: i64| {
        let rowid = stock.lookup_pk(&[Value::Int(1), Value::Int(item)]).expect("stock row");
        Arc::as_ptr(&stock.get(rowid).expect("row")) as *const Value
    };
    let before: Vec<_> = (1..=ITEMS).map(at).collect();
    const ROUNDS: i64 = 10_000;
    let per_update = allocations(|| run(ROUNDS)) as f64 / ROUNDS as f64;
    assert_eq!((1..=ITEMS).map(at).collect::<Vec<_>>(), before, "every stock row written in place");
    // The probe key, the list of values set and the redo's list. Before:
    // 5.00 (a copy of the row and of its `s_data`).
    assert!(per_update <= 3.1, "{per_update} allocations per tpcc UPDATE_STOCK (5 when the row was copied)");
}

#[test]
fn readers_share_the_stored_row_and_keep_what_they_read() {
    let (_ycsb, db, mut conn) = ycsb(0.1);
    let table = db.table("usertable").expect("loaded");
    let rowid = table.lookup_pk(&[Value::Int(5)]).expect("key 5");
    let stored = table.get(rowid).expect("row 5");
    const READ: &str = "SELECT * FROM usertable WHERE ycsb_key = 5";

    // Two reads of one row, and the table itself, hold one allocation.
    let first = conn.query(READ, &[]).expect("read");
    let second = conn.query(READ, &[]).expect("read");
    assert!(Arc::ptr_eq(&first.rows[0], &second.rows[0]));
    assert!(Arc::ptr_eq(&first.rows[0], &stored));
    let old = first.get_str(0, "field0").expect("field0").to_string();

    // An update that rolls back puts the original allocation back; the
    // result read before it never changed.
    const UPDATE: &str = "UPDATE usertable SET field0 = 'new' WHERE ycsb_key = 5";
    conn.begin().expect("begin");
    assert_eq!(conn.execute(UPDATE, &[]).expect("update").affected(), 1);
    assert_eq!(table.get(rowid).expect("row 5")[1], Value::Str("new".into()));
    assert_eq!(first.get_str(0, "field0"), Some(old.as_str()));
    conn.rollback().expect("rollback");
    assert!(Arc::ptr_eq(&table.get(rowid).expect("row 5"), &stored));
    assert_eq!(first.get_str(0, "field0"), Some(old.as_str()));

    // One that commits replaces the stored row; the old result still shows
    // what it read, a new read the new value.
    assert_eq!(conn.execute(UPDATE, &[]).expect("update").affected(), 1);
    assert_eq!(first.get_str(0, "field0"), Some(old.as_str()));
    assert_eq!(*first.rows[0], *stored);
    let third = conn.query(READ, &[]).expect("read");
    assert_eq!(third.get_str(0, "field0"), Some("new"));
    assert!(!Arc::ptr_eq(&third.rows[0], &stored));
}

#[test]
fn a_bulk_transaction_does_not_leave_its_buffers_behind() {
    let (_ycsb, db, _conn) = ycsb(5.0);
    let table = db.table("usertable").expect("loaded");
    let mut session = db.session();
    let point_read = |session: &mut Session| {
        allocations(|| {
            session.begin().expect("begin");
            session.read_pk_shared(&table, &[Value::Int(1)], false).expect("read").expect("row");
            session.commit().expect("commit");
        })
    };
    // A transaction finds the vectors the one before it emptied.
    point_read(&mut session);
    assert_eq!(point_read(&mut session), 0, "a warm point read allocates nothing in the session");

    // 5,000 row locks in one transaction: more than a session keeps.
    session.begin().expect("begin");
    for key in 0..5_000 {
        session.read_pk_shared(&table, &[Value::Int(key)], false).expect("read").expect("row");
    }
    session.commit().expect("commit");
    // The next transaction grows its lock list from nothing again, and the
    // one after finds that.
    assert!(point_read(&mut session) > 0, "the bulk transaction's buffers were kept");
    assert_eq!(point_read(&mut session), 0);
}

/// `GET_ORDER_LINES` reads the five to fifteen lines of one order by a
/// prefix of their primary key and returns them as they are stored. What it
/// allocates beyond the list it returns them in — the probe key — is the
/// same whatever the order: the entries of the range are read through the
/// session's chunk, not collected into a list of the statement's own.
#[test]
fn a_range_read_allocates_for_its_result_and_nothing_per_row_it_reads() {
    use benchpress::workloads::tpcc::{Tpcc, GET_ORDER_LINES};
    let db = Database::new(Personality::test());
    let mut conn = Connection::open(&db);
    Tpcc::new().setup(&mut conn, 1.0, &mut Rng::new(7)).expect("load");
    let lines = conn.prepare(GET_ORDER_LINES).expect("prepare");
    // What a list of `n` rows costs to grow, one push at a time.
    let list_of = |n: usize| {
        let row: benchpress::storage::SharedRow = Arc::from([]);
        allocations(|| drop(std::hint::black_box((0..n).map(|_| row.clone()).fold(Vec::new(), |mut list, r| {
            list.push(r);
            list
        }))))
    };

    let mut beyond_the_list = std::collections::BTreeMap::new();
    conn.begin().expect("begin");
    for round in 0..2 {
        // Every order the loader gave the first warehouse.
        for order in 0..300 {
            let key = [Value::Int(1), Value::Int(1 + order % 10), Value::Int(1 + order / 10)];
            let mut rows = 0;
            let allocated = allocations(|| rows = conn.query_prepared(&lines, &key).expect("read").len());
            assert!((5..=15).contains(&rows), "{rows} lines in order {key:?}");
            // The first round warms up: the plan, the session's lists.
            if round == 1 {
                *beyond_the_list.entry(allocated - list_of(rows)).or_insert(0) += 1;
            }
        }
    }
    conn.commit().expect("commit");
    assert_eq!(beyond_the_list.len(), 1, "allocations beyond the result, and how often: {beyond_the_list:?}");
    assert!(beyond_the_list.keys().all(|n| *n <= 2), "{beyond_the_list:?}");
}

/// StockLevel joins the lines of a district's last twenty orders with the
/// warehouse's stock. `s.s_quantity < ?` filters the stock as it is fetched,
/// so only low stock reaches the hash join and only its rows are joined;
/// each line probes it through one key buffer. Every row along both paths
/// is still read, and locked, as before.
#[test]
fn stock_level_joins_only_the_low_stock() {
    use benchpress::workloads::tpcc::Tpcc;
    const NEW_ORDER: usize = 0;
    const STOCK_LEVEL: usize = 4;
    const ROUNDS: u64 = 1_000;
    let tpcc = Tpcc::new();
    let db = Database::new(Personality::test());
    let mut conn = Connection::open(&db);
    tpcc.setup(&mut conn, 1.0, &mut Rng::new(7)).expect("load");
    let mut rng = Rng::new(11);
    for _ in 0..2_000 {
        tpcc.execute(NEW_ORDER, &mut conn, &mut rng).expect("NewOrder");
    }
    let mut run = |rounds: u64| {
        for _ in 0..rounds {
            tpcc.execute(STOCK_LEVEL, &mut conn, &mut rng).expect("StockLevel");
        }
    };
    // Warm up: the statements are planned and cached.
    run(100);
    let read_before = db.metrics().snapshot().rows_read;
    let per_txn = allocations(|| run(ROUNDS)) as f64 / ROUNDS as f64;
    let read = db.metrics().snapshot().rows_read - read_before;
    // Its GET_NEXT_O_ID, both paths' probe keys and row lists, the build
    // side's key list, table and chains, one probe key, a joined row per
    // line of low stock, the group and its result. Before: 1,016.0 (every
    // line joined with its stock row, `s_data` and all, and a key list per
    // line).
    assert!(per_txn <= 49.1, "{per_txn} allocations per StockLevel (1,016 when all stock was joined)");
    // Order lines and stock, as before: 392.8 per StockLevel.
    assert_eq!(read, 392_764, "rows read by {ROUNDS} StockLevels");
}

/// A secondary index holds one entry per row in one ordered set: a new key
/// allocates no list of its own. Inserted in the same order as the primary
/// key's, `n` distinct keys cost the index exactly the nodes they cost the
/// primary key's map: 167 for 1,000 rows. Before: 1,167, one `Vec` per key
/// on top of the nodes.
#[test]
fn a_new_secondary_key_allocates_no_list() {
    use benchpress::storage::{Column, DataType, IndexDef, SharedRow, Table, TableSchema};
    const N: i64 = 1_000;
    // What inserting `N` rows costs a table keyed by `primary_key` with an
    // index on `v` or none; the rows are built beforehand.
    let cost = |primary_key: &[&str], indexed: bool| {
        let columns = vec![Column::new("id", DataType::Int), Column::new("v", DataType::Int)];
        let table = Table::new(1, TableSchema::new("t", columns, primary_key).expect("schema"));
        if indexed {
            let def = IndexDef { name: "t_v".into(), table: "t".into(), key_columns: vec![1], unique: false };
            table.add_index(def).expect("index");
        }
        let rows: Vec<SharedRow> = (0..N).map(|id| SharedRow::from(vec![Value::Int(id), Value::Int(id)])).collect();
        allocations(|| {
            for row in rows {
                table.insert(row).expect("insert");
            }
        })
    };
    let heap = cost(&[], false);
    let primary_key = cost(&["id"], false) - heap;
    let index = cost(&["id"], true) - heap - primary_key;
    assert!(primary_key > 0 && (primary_key as i64) < N / 5, "{primary_key} allocations for {N} primary keys");
    assert_eq!(index, primary_key, "{index} allocations for {N} secondary keys ({} when each had a list)", primary_key + N as u64);
}
