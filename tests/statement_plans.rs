//! Differential test of the statement cache and bound plans over the whole
//! benchmark catalog: a statement replayed from a connection's warm cache
//! must behave exactly like the same statement parsed and bound from scratch
//! on a fresh connection — same rows or affected count (or error), same
//! rows read and written (so the same access path), same database state.
//!
//! Two databases are loaded identically per benchmark. One is driven through
//! a single long-lived connection, the other through a new connection per
//! statement (or per transaction), so nothing there is ever replayed.

use std::sync::Arc;

use bp_sql::ast::{Expr, Statement};
use bp_sql::{Connection, Dialect};
use bp_storage::{DataType, Database, Personality, Value};
use bp_util::rng::Rng;

const DRAWS: usize = 64;

fn loaded(w: &dyn bp_core::Workload) -> Arc<Database> {
    let db = Database::new(Personality::test());
    w.setup(&mut Connection::open(&db), 0.1, &mut Rng::new(0xD1FF)).expect("load");
    db
}

/// Rows read and written so far.
fn rows_moved(db: &Database) -> (u64, u64) {
    let m = db.metrics().snapshot();
    (m.rows_read, m.rows_written)
}

fn rows_moved_since(db: &Database, before: (u64, u64)) -> (u64, u64) {
    let after = rows_moved(db);
    (after.0 - before.0, after.1 - before.1)
}

/// The type of the column each `?` of `stmt` is compared with, assigned to
/// or inserted into (`Int` when it is none of these: LIMIT, arithmetic).
fn param_types(db: &Database, stmt: &Statement, count: usize) -> Vec<DataType> {
    let column_type = |name: &str| {
        db.table_names().iter().find_map(|t| {
            let schema = &db.table(t).ok()?.schema;
            schema.column_index(name).ok().map(|i| schema.columns[i].ty)
        })
    };
    let mut types = vec![DataType::Int; count];
    let mut pair = |column: &Expr, other: &Expr| {
        if let (Expr::Column { name, .. }, Expr::Param(p)) = (column, other) {
            if let Some(ty) = column_type(name) {
                types[*p] = ty;
            }
        }
    };
    let mut walk = |e: &Expr| {
        e.any(&mut |node| {
            match node {
                Expr::Binary { left, right, .. } => {
                    pair(left, right);
                    pair(right, left);
                }
                Expr::Between { expr, low, high, .. } => {
                    pair(expr, low);
                    pair(expr, high);
                }
                Expr::InList { expr, list, .. } => list.iter().for_each(|item| pair(expr, item)),
                _ => {}
            }
            false
        });
    };
    match stmt {
        Statement::Insert(ins) => {
            let schema = &db.table(&ins.table).expect("insert target").schema;
            for row in &ins.rows {
                for (i, value) in row.iter().enumerate() {
                    let column = match ins.columns.get(i) {
                        Some(name) => schema.column_index(name).expect("insert column"),
                        None => i,
                    };
                    if let Expr::Param(p) = value {
                        types[*p] = schema.columns[column].ty;
                    }
                }
            }
        }
        Statement::Select(sel) => {
            sel.joins.iter().map(|j| &j.on).chain(&sel.where_clause).for_each(&mut walk);
        }
        Statement::Update(u) => {
            for (column, value) in &u.sets {
                // `SET c = ?` and `SET c = c + ?` alike.
                walk(&Expr::bin(bp_sql::ast::BinOp::Eq, Expr::col(column), value.clone()));
            }
            u.where_clause.iter().for_each(&mut walk);
        }
        Statement::Delete(d) => d.where_clause.iter().for_each(&mut walk),
        _ => {}
    }
    types
}

/// Mostly small values, so keys of the small load are hit often; now and
/// then a NULL, which no key matches.
fn draw(ty: DataType, rng: &mut Rng) -> Value {
    if rng.bool_with(0.02) {
        return Value::Null;
    }
    match ty {
        DataType::Int if rng.bool_with(0.75) => Value::Int(rng.int_range(0, 12)),
        DataType::Int => Value::Int(rng.int_range(0, 3000)),
        DataType::Float => Value::Float(rng.int_range(0, 400) as f64 / 4.0),
        DataType::Str => Value::Str(rng.astring(1, 12)),
        DataType::Bool => Value::Bool(rng.bool_with(0.5)),
        DataType::Bytes => Value::Bytes(rng.astring(1, 12).into_bytes().into()),
    }
}

#[test]
fn catalog_statements_warm_equals_cold() {
    let mut statements = 0;
    for w in bp_workloads::all_workloads() {
        let catalog = bp_workloads::catalog_of(w.name()).expect("catalog");
        let (warm_db, cold_db) = (loaded(&*w), loaded(&*w));
        assert_eq!(warm_db.state_digest(), cold_db.state_digest(), "{}: loads differ", w.name());
        let mut warm = Connection::open(&warm_db);
        for name in catalog.names() {
            let sql = catalog.resolve(name, Dialect::MySql).expect("defined statement");
            let stmt = bp_sql::parse(&sql).expect("catalog statement parses");
            if !stmt.is_dml() {
                continue;
            }
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
