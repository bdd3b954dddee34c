//! Storage-substrate microbenchmarks: the primitive operations whose costs
//! determine every workload's throughput envelope. Plain `fn main()`
//! harness (hermetic build — no criterion).
//!
//! Asserts one ratio taken inside this process, so the host's speed
//! cancels: an uncontended lock cycle costs less than one idle
//! `notify_all`. The text-vs-prepared difference is timed here and measured
//! by `perf`'s `sql.text_minus_prepared_ns`; it is not gated, because two
//! timings taken seconds apart do not make a stable ratio.

use std::hint::black_box;
use std::ops::{Bound, ControlFlow};

use bp_bench::timing::{bench, group};
use bp_sql::Connection;
use bp_storage::{
    Column, DataType, Database, LockManager, LockMode, LockTarget, Personality, ServerMetrics,
    StorageError, TableSchema, Value,
};

fn test_db(rows: i64) -> std::sync::Arc<Database> {
    let db = Database::new(Personality::test());
    db.create_table(
        TableSchema::new(
            "t",
            vec![
                Column::new("id", DataType::Int),
                Column::new("grp", DataType::Int),
                Column::new("data", DataType::Str),
            ],
            &["id"],
        )
        .unwrap(),
    )
    .unwrap();
    db.create_index("t", "t_grp", &["grp"], false).unwrap();
    let t = db.table("t").unwrap();
    let mut s = db.session();
    s.begin().unwrap();
    for i in 0..rows {
        s.insert(&t, vec![Value::Int(i), Value::Int(i % 100), Value::Str("x".repeat(64))])
            .unwrap();
    }
    s.commit().unwrap();
    db
}

fn bench_point_ops() {
    group("storage_point_ops");
    let db = test_db(10_000);
    let t = db.table("t").unwrap();

    let mut s = db.session();
    let mut i = 0i64;
    bench("storage_point_read", || {
        i = (i + 7) % 10_000;
        s.begin().unwrap();
        // The read the executor makes: the row is the table's, not a copy.
        let r = s.read_pk_shared(&t, &[Value::Int(i)], false).unwrap();
        s.commit().unwrap();
        black_box(r)
    });

    let mut s = db.session();
    let mut i = 0i64;
    bench("storage_update_txn", || {
        i = (i + 13) % 10_000;
        s.begin().unwrap();
        let (rid, mut row) = s.read_pk(&t, &[Value::Int(i)], true).unwrap().unwrap();
        row[1] = Value::Int(i % 50);
        s.update(&t, rid, row).unwrap();
        s.commit().unwrap();
    });

    let mut s = db.session();
    let mut i = 1_000_000i64;
    bench("storage_insert_delete_txn", || {
        i += 1;
        s.begin().unwrap();
        let rid = s
            .insert(&t, vec![Value::Int(i), Value::Int(0), Value::Str("y".into())])
            .unwrap();
        s.delete(&t, rid).unwrap();
        s.commit().unwrap();
    });
}

fn bench_lock_table() {
    group("lock_table");
    let locks = LockManager::new(
        std::time::Duration::from_secs(1),
        std::sync::Arc::new(ServerMetrics::new()),
        std::sync::Arc::new(bp_chaos::ChaosController::new()),
    );
    let mut txn = 0u64;
    let cycle = bench("uncontended_x_lock_cycle", || {
        txn += 1;
        let target = LockTarget::Row(1, txn & 0xFFF);
        locks.acquire(txn, target, LockMode::Exclusive).unwrap();
        locks.release_all(txn, &[target]);
    });
    // The yardstick is one wake-up call with nobody to wake — a system call
    // on this platform, and what every release used to end with. Both sides
    // are timed here, in one process, so the host's speed cancels.
    let idle = std::sync::Condvar::new();
    let notify = bench("condvar_notify_all_no_waiter", || idle.notify_all());
    assert!(
        cycle < notify,
        "an uncontended lock cycle costs {cycle:.0} ns, an idle notify_all {notify:.0} ns"
    );
}

fn bench_index_scans() {
    group("storage_index_lookup");
    let db = test_db(10_000);
    let t = db.table("t").unwrap();
    let mut s = db.session();
    bench("secondary_eq_100rows", || {
        s.begin().unwrap();
        let group = t.range(Some("t_grp"), &[Value::Int(42)], Bound::Unbounded, Bound::Unbounded);
        let mut rows = 0;
        s.read_rows(&t, group, false, false, |_, _, row| {
            rows += 1;
            black_box(row);
            Ok::<_, StorageError>(ControlFlow::Continue(()))
        })
        .unwrap();
        s.commit().unwrap();
        black_box(rows)
    });
}

fn bench_sql_layer() {
    group("sql");
    let db = test_db(10_000);
    bench("parse_select", || {
        black_box(
            bp_sql::parse(
                "SELECT id, data FROM t WHERE grp = ? AND id > 100 ORDER BY id DESC LIMIT 10",
            )
            .unwrap(),
        )
    });

    const POINT: &str = "SELECT data FROM t WHERE id = ?";
    let mut conn = Connection::open(&db);
    let stmt = conn.prepare(POINT).unwrap();
    let mut i = 0i64;
    bench("prepared_point_select", || {
        i = (i + 3) % 10_000;
        black_box(conn.query_prepared(&stmt, &[Value::Int(i)]).unwrap())
    });
    // The same statement as text: every execution after the first finds it
    // in the connection's statement cache, so all it may cost on top of the
    // prepared path is that lookup.
    bench("text_point_select", || {
        i = (i + 3) % 10_000;
        black_box(conn.query(POINT, &[Value::Int(i)]).unwrap())
    });

    let mut conn = Connection::open(&db);
    let stmt = conn
        .prepare("SELECT grp, COUNT(*) AS n, AVG(id) AS a FROM t GROUP BY grp")
        .unwrap();
    bench("aggregate_group_by", || {
        black_box(conn.query_prepared(&stmt, &[]).unwrap())
    });
}

fn bench_dialect_rendering() {
    group("dialect_render");
    let stmt = bp_sql::parse(
        "SELECT a, b AS x FROM t WHERE a = ? AND b > 3 ORDER BY x DESC LIMIT 5",
    )
    .unwrap();
    for d in bp_sql::Dialect::all() {
        bench(d.name(), || black_box(d.render(&stmt)));
    }
}

fn main() {
    bench_point_ops();
    bench_lock_table();
    bench_index_scans();
    bench_sql_layer();
    bench_dialect_rendering();
}
