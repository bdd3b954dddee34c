//! Differential test of the statement cache and bound plans over the whole
//! benchmark catalog: a statement replayed from a connection's warm cache
//! must behave exactly like the same statement parsed and bound from scratch
//! on a fresh connection — same rows or affected count (or error), same
//! rows read and written (so the same access path), same database state.
//!
//! Two databases are loaded identically per benchmark. One is driven through
//! a single long-lived connection, the other through a new connection per
//! statement (or per transaction), so nothing there is ever replayed.

#[path = "support/catalog.rs"]
mod catalog;

use bp_sql::Connection;
use bp_storage::{Database, Value};
use bp_util::rng::Rng;
use catalog::{dml_statements, draw, loaded, param_types};

const DRAWS: usize = 64;

/// Rows read and written so far.
fn rows_moved(db: &Database) -> (u64, u64) {
    let m = db.metrics().snapshot();
    (m.rows_read, m.rows_written)
}

fn rows_moved_since(db: &Database, before: (u64, u64)) -> (u64, u64) {
    let after = rows_moved(db);
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn catalog_statements_warm_equals_cold() {
    let mut statements = 0;
    for w in bp_workloads::all_workloads() {
        let (warm_db, cold_db) = (loaded(&*w), loaded(&*w));
        assert_eq!(warm_db.state_digest(), cold_db.state_digest(), "{}: loads differ", w.name());
        let mut warm = Connection::open(&warm_db);
        for (name, sql, stmt) in dml_statements(w.name()) {
            statements += 1;
            let prepared = warm.prepare(&sql).expect("prepare");
            let types = param_types(&warm_db, &stmt, prepared.param_count());
            let mut rng = Rng::new(0x5EED ^ statements);
            for round in 0..DRAWS {
                let params: Vec<Value> = types.iter().map(|ty| draw(*ty, &mut rng)).collect();
                let what = format!("{} {name} round {round}: {sql} {params:?}", w.name());
                let (warm_before, cold_before) = (rows_moved(&warm_db), rows_moved(&cold_db));
                let warm_result = warm.execute(&sql, &params);
                let cold_result = Connection::open(&cold_db).execute(&sql, &params);
                assert_eq!(warm_result, cold_result, "{what}");
                assert_eq!(
                    rows_moved_since(&warm_db, warm_before),
                    rows_moved_since(&cold_db, cold_before),
                    "rows moved, {what}"
                );
            }
            assert_eq!(warm_db.state_digest(), cold_db.state_digest(), "{} {name}: state", w.name());
        }
    }
    assert!(statements >= 60, "only {statements} catalog statements exercised");
}

#[test]
fn transaction_bodies_warm_equals_cold() {
    for (warm_w, cold_w) in bp_workloads::all_workloads().into_iter().zip(bp_workloads::all_workloads()) {
        // Each side needs its own instance: benchmarks keep counters (the
        // next key to insert) that their transactions advance.
        let (warm_db, cold_db) = (loaded(&*warm_w), loaded(&*cold_w));
        let mut warm = Connection::open(&warm_db);
        let (mut warm_rng, mut cold_rng) = (Rng::new(0xB0D1E5), Rng::new(0xB0D1E5));
        for idx in 0..warm_w.transaction_types().len() {
            for round in 0..DRAWS {
                let what = format!("{} txn {idx} round {round}", warm_w.name());
                let (warm_before, cold_before) = (rows_moved(&warm_db), rows_moved(&cold_db));
                let warm_result = warm_w.execute(idx, &mut warm, &mut warm_rng);
                let cold_result = cold_w.execute(idx, &mut Connection::open(&cold_db), &mut cold_rng);
                assert_eq!(warm_result, cold_result, "{what}");
                assert_eq!(
                    rows_moved_since(&warm_db, warm_before),
                    rows_moved_since(&cold_db, cold_before),
                    "rows moved, {what}"
                );
            }
            assert_eq!(warm_db.state_digest(), cold_db.state_digest(), "{} txn {idx}: state", warm_w.name());
        }
    }
}
