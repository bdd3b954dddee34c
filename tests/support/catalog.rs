//! Driving the bundled benchmarks' statement catalogs with seeded
//! parameters, for the test binaries that include this file
//! (`#[path = "support/catalog.rs"] mod catalog;`).

use std::sync::Arc;

use bp_sql::ast::{Expr, Statement};
use bp_sql::{Connection, Dialect};
use bp_storage::{DataType, Database, Personality, Value};
use bp_util::rng::Rng;

/// A database holding `w`'s schema and its seeded load at scale 0.1.
pub fn loaded(w: &dyn bp_core::Workload) -> Arc<Database> {
    let db = Database::new(Personality::test());
    w.setup(&mut Connection::open(&db), 0.1, &mut Rng::new(0xD1FF)).expect("load");
    db
}

/// The DML statements of a benchmark's catalog, by name: `(name, sql, parsed)`.
pub fn dml_statements(benchmark: &str) -> Vec<(String, String, Statement)> {
    let catalog = bp_workloads::catalog_of(benchmark).expect("catalog");
    let resolved = catalog.names().into_iter().map(|name| {
        let sql = catalog.resolve(name, Dialect::MySql).expect("defined statement");
        let stmt = bp_sql::parse(&sql).expect("catalog statement parses");
        (name.to_string(), sql, stmt)
    });
    resolved.filter(|(_, _, stmt)| stmt.is_dml()).collect()
}

/// The type of the column each `?` of `stmt` is compared with, assigned to
/// or inserted into (`Int` when it is none of these: LIMIT, arithmetic).
pub fn param_types(db: &Database, stmt: &Statement, count: usize) -> Vec<DataType> {
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
pub fn draw(ty: DataType, rng: &mut Rng) -> Value {
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
