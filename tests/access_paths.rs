//! Access paths fetch what a scan would have kept, and the bytes an index
//! is ordered by order values the way `Value` does.
//!
//! *Plan vs scan*: over seeded random tables and random conjunctions, a
//! statement run along the path its plan chose returns exactly the rows, in
//! the order, with the error or lack of one, that it returns when every
//! table is scanned and the whole predicate decides
//! ([`Connection::prepare_scanning`]). A join is held to the cross product
//! of its tables, scanned, under every conjunct of its ON conditions and
//! WHERE: no hash keys, nothing pushed below it.
//!
//! *Stopping short*: a statement whose LIMIT ends its fetch — no ORDER BY,
//! or one its path's key order answers — returns the sequence it returns
//! when everything is read, sorted and cut, and reads no more rows than it
//! returns and its predicate rejects on the way.
//!
//! *Codec*: `Key::encode` keeps `Value`'s order for tuples of one type
//! signature, and the key of a tuple's prefix is a prefix of its key.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use bp_sql::{Connection, Prepared};
use bp_storage::{DataType, Database, Key, Personality, SharedRow, Value};
use bp_util::rng::Rng;

const KEY_TYPES: [DataType; 4] = [DataType::Int, DataType::Float, DataType::Str, DataType::Bool];

/// A value a column of type `ty` can hold. The domains are small, so keys
/// share prefixes and parameters hit, and sit on both sides of what the
/// codec treats specially: zero, sign, length class, embedded NUL, a string
/// too long for an inline key.
fn stored(ty: DataType, rng: &mut Rng) -> Value {
    match ty {
        DataType::Int => Value::Int(*rng.choose(&[-300, -2, -1, 0, 1, 2, 3, 255, 256])),
        DataType::Float => Value::Float(*rng.choose(&[-1.5, -0.0, 0.0, 0.5, 1.0, 2.0, 2.5, 3.0])),
        DataType::Str => {
            let strings = ["", "a", "a\0", "a\0b", "ab", "b", "a long string, longer than a key holds inline"];
            Value::Str(rng.choose(&strings).to_string())
        }
        DataType::Bool => Value::Bool(rng.bool_with(0.5)),
        DataType::Bytes => unreachable!("no bytes columns here"),
    }
}

/// A parameter to compare a column of type `ty` with: mostly of its type,
/// sometimes NULL, sometimes of a type that converts (an integer against a
/// FLOAT column, an integral float against an INT column) or does not (a
/// fraction, `-0.0` or a string against an INT column).
fn parameter(ty: DataType, rng: &mut Rng) -> Value {
    match rng.bounded(10) {
        0 => Value::Null,
        1 | 2 => match ty {
            DataType::Int => {
                rng.choose(&[Value::Float(2.0), Value::Float(2.5), Value::Float(-0.0), Value::Str("1".into())]).clone()
            }
            DataType::Float => rng.choose(&[Value::Int(1), Value::Int(2), Value::Str("x".into())]).clone(),
            DataType::Str | DataType::Bool | DataType::Bytes => Value::Int(1),
        },
        _ => stored(ty, rng),
    }
}

struct RandomTable {
    db: Arc<Database>,
    /// Column names and types: the key columns `k0..`, then `v INT` and
    /// `s VARCHAR`, both nullable.
    columns: Vec<(String, DataType)>,
    /// How many of `columns` form the primary key.
    pk: usize,
    rows: usize,
}

fn random_table(rng: &mut Rng) -> RandomTable {
    let pk = rng.int_range(1, 4) as usize;
    let mut columns: Vec<(String, DataType)> =
        (0..pk).map(|i| (format!("k{i}"), *rng.choose(&KEY_TYPES))).collect();
    columns.extend([("v".to_string(), DataType::Int), ("s".to_string(), DataType::Str)]);
    let sql_type = |ty: &DataType| match ty {
        DataType::Int => "INT",
        DataType::Float => "FLOAT",
        DataType::Str => "VARCHAR(64)",
        DataType::Bool => "BOOLEAN",
        DataType::Bytes => unreachable!(),
    };
    let defs: Vec<String> = columns.iter().map(|(n, ty)| format!("{n} {}", sql_type(ty))).collect();
    let keys: Vec<&str> = columns[..pk].iter().map(|(n, _)| n.as_str()).collect();
    // A secondary index over one to three columns in any order, the
    // nullable ones included.
    let mut indexed: Vec<&str> = columns.iter().map(|(n, _)| n.as_str()).collect();
    rng.shuffle(&mut indexed);
    indexed.truncate(rng.int_range(1, 3) as usize);

    let db = Database::new(Personality::test());
    let mut c = Connection::open(&db);
    c.execute_batch(&format!(
        "CREATE TABLE t ({}, PRIMARY KEY ({})); CREATE INDEX t_ix ON t ({});",
        defs.join(", "),
        keys.join(", "),
        indexed.join(", ")
    ))
    .unwrap();
    let insert = format!("INSERT INTO t VALUES ({})", vec!["?"; columns.len()].join(", "));
    let mut rows = 0;
    for _ in 0..rng.int_range(20, 80) {
        let row: Vec<Value> = columns
            .iter()
            .enumerate()
            .map(|(i, (_, ty))| if i >= pk && rng.bool_with(0.3) { Value::Null } else { stored(*ty, rng) })
            .collect();
        // Random keys collide; a refused duplicate is part of the history.
        rows += c.execute(&insert, &row).is_ok() as usize;
    }
    // Holes and reuse: rowid order is neither key order nor insertion order.
    rows -= c.execute("DELETE FROM t WHERE v = 1", &[]).unwrap().affected() as usize;
    RandomTable { db, columns, pk, rows }
}

/// A random conjunction over `t`'s columns and the parameters it takes.
fn conjunction(t: &RandomTable, rng: &mut Rng) -> (String, Vec<Value>) {
    // Each term with its own parameters, so the terms can be shuffled.
    let mut terms: Vec<(String, Vec<Value>)> = Vec::new();
    for _ in 0..rng.int_range(1, 4) {
        // Mostly key columns, mostly the leading ones.
        let at = if rng.bool_with(0.8) { rng.index(t.pk).min(rng.index(t.pk)) } else { rng.index(t.columns.len()) };
        let (name, ty) = &t.columns[at];
        let (sql, takes) = match rng.bounded(8) {
            0 => (format!("{name} BETWEEN ? AND ?"), 2),
            1 => (format!("? >= {name}"), 1),
            2 => (format!("? < {name}"), 1),
            op => (format!("{name} {} ?", ["=", "=", "=", "<", "<=", ">", ">="][op as usize - 1]), 1),
        };
        terms.push((sql, (0..takes).map(|_| parameter(*ty, rng)).collect()));
    }
    if rng.bool_with(0.15) {
        terms.push((rng.choose(&["v IS NULL", "s LIKE 'a%'", "v + 1 > 2"]).to_string(), Vec::new()));
    }
    rng.shuffle(&mut terms);
    let (sql, params): (Vec<String>, Vec<Vec<Value>>) = terms.into_iter().unzip();
    (sql.join(" AND "), params.concat())
}

/// Rows and columns, or the error, as text.
fn outcome(c: &mut Connection, p: &Prepared, params: &[Value]) -> Result<String, String> {
    c.execute_prepared(p, params).map(|r| format!("{r:?}")).map_err(|e| e.to_string())
}

#[test]
fn planned_statements_return_what_scans_return() {
    let mut narrowed = 0;
    let mut statements = 0;
    for seed in 0..48u64 {
        let mut rng = Rng::new(0xACCE55 + seed);
        let t = random_table(&mut rng);
        let mut c = Connection::open(&t.db);
        let order: Vec<&str> = t.columns[..t.pk].iter().map(|(n, _)| n.as_str()).collect();
        for _ in 0..64 {
            let (predicate, mut params) = conjunction(&t, &mut rng);
            let sql = match rng.bounded(8) {
                0 => format!("UPDATE t SET v = v + 10 WHERE {predicate}"),
                1 => format!("DELETE FROM t WHERE {predicate}"),
                2 => format!("SELECT COUNT(*) AS n, MIN(v) AS lo FROM t WHERE {predicate}"),
                3 => {
                    params.push(rng.choose(&[Value::Int(3), Value::Int(0), Value::Str("three".into())]).clone());
                    format!("SELECT * FROM t WHERE {predicate} ORDER BY {} DESC LIMIT ?", order.join(" DESC, "))
                }
                4 => format!("SELECT * FROM t WHERE {predicate} ORDER BY {} FOR UPDATE", order.join(", ")),
                // The whole key in its order: whatever path is taken, and
                // however much of the order it answers, no two rows tie.
                5 => {
                    params.push(rng.choose(&[Value::Int(2), Value::Int(0), Value::Int(-1), Value::Int(500)]).clone());
                    format!("SELECT * FROM t WHERE {predicate} ORDER BY {} LIMIT ?", order.join(", "))
                }
                _ => format!("SELECT * FROM t WHERE {predicate} ORDER BY {}", order.join(", ")),
            };
            let (planned, scanning) = (c.prepare(&sql).unwrap(), c.prepare_scanning(&sql).unwrap());
            // Each in a transaction that is rolled back, so a write is
            // judged by the table it leaves and both start from the same one.
            let mut run = |p: &Prepared| {
                c.begin().unwrap();
                let before = t.db.metrics().snapshot().rows_read;
                let result = outcome(&mut c, p, &params);
                let read = t.db.metrics().snapshot().rows_read - before;
                let left = c.query(&format!("SELECT * FROM t ORDER BY {}", order.join(", ")), &[]).unwrap();
                c.rollback().unwrap();
                (result, left.rows, read)
            };
            let (by_scan, scan_left, _) = run(&scanning);
            let (by_plan, plan_left, read) = run(&planned);
            assert_eq!(by_plan, by_scan, "seed {seed}: {sql} with {params:?}");
            assert_eq!(plan_left, scan_left, "seed {seed}: {sql} with {params:?}");
            statements += 1;
            // The count after a planned statement includes the check query's
            // own scan of the table.
            narrowed += (read < 2 * t.rows as u64) as usize;
        }
    }
    // The comparison means something only if paths were taken: most
    // statements constrain a leading key column.
    assert!(narrowed * 2 > statements, "{narrowed} of {statements} statements read less than their table");
}

// ---- Plan vs scan, joined ----

/// A value for a joined table's column: domains so small that equi-joins
/// find partners — across INT and FLOAT too — with `-0.0` beside `0.0` and
/// a NaN.
fn joined_value(ty: DataType, rng: &mut Rng) -> Value {
    match ty {
        DataType::Int => Value::Int(rng.int_range(-1, 3)),
        DataType::Float => Value::Float(*rng.choose(&[-0.0, 0.0, 1.0, 2.0, 2.5, f64::NAN])),
        DataType::Str => Value::Str(rng.choose(&["", "a", "b"]).to_string()),
        DataType::Bool => Value::Bool(rng.bool_with(0.5)),
        DataType::Bytes => unreachable!("no bytes columns here"),
    }
}

/// `a`, `b` and `c`, each with key columns `k0..` of random types, then
/// `x INT`, `f FLOAT` and `s VARCHAR` (nullable), and an index over one or
/// two random columns. Every column's values ascend with the rows' order of
/// insertion, so every key of a table orders its rows as a scan does: a
/// path yields them in scan order, and a join's output — each tuple, then
/// its partners in the order they were fetched — is one sequence whichever
/// paths fetched them.
fn joined_tables(rng: &mut Rng) -> (Arc<Database>, Vec<Vec<(String, DataType)>>) {
    let db = Database::new(Personality::test());
    let mut c = Connection::open(&db);
    let mut tables = Vec::new();
    for name in ["a", "b", "c"] {
        let pk = rng.int_range(1, 2) as usize;
        let mut columns: Vec<(String, DataType)> =
            (0..pk).map(|i| (format!("k{i}"), *rng.choose(&KEY_TYPES))).collect();
        let values = [("x", DataType::Int), ("f", DataType::Float), ("s", DataType::Str)];
        columns.extend(values.map(|(n, t)| (n.to_string(), t)));
        let sql_type = |ty: &DataType| match ty {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "VARCHAR(8)",
            DataType::Bool => "BOOLEAN",
            DataType::Bytes => unreachable!(),
        };
        let defs: Vec<String> = columns.iter().map(|(n, ty)| format!("{n} {}", sql_type(ty))).collect();
        let keys: Vec<&str> = columns[..pk].iter().map(|(n, _)| n.as_str()).collect();
        let mut indexed: Vec<&str> = columns.iter().map(|(n, _)| n.as_str()).collect();
        rng.shuffle(&mut indexed);
        indexed.truncate(rng.int_range(1, 2) as usize);
        c.execute_batch(&format!(
            "CREATE TABLE {name} ({}, PRIMARY KEY ({})); CREATE INDEX {name}_ix ON {name} ({});",
            defs.join(", "),
            keys.join(", "),
            indexed.join(", ")
        ))
        .unwrap();
        // Each column drawn on its own and sorted: NULLs first, then by value.
        let n = rng.int_range(4, 16) as usize;
        let mut values: Vec<Vec<Value>> = columns
            .iter()
            .enumerate()
            .map(|(i, (_, ty))| {
                let mut value = || if i >= pk && rng.bool_with(0.2) { Value::Null } else { joined_value(*ty, rng) };
                (0..n).map(|_| value()).collect()
            })
            .collect();
        values.iter_mut().for_each(|column| column.sort());
        let insert = format!("INSERT INTO {name} VALUES ({})", vec!["?"; columns.len()].join(", "));
        for row in 0..n {
            let row: Vec<Value> = values.iter().map(|column| column[row].clone()).collect();
            // Equal keys collide; a refused duplicate leaves the order as it is.
            let _ = c.execute(&insert, &row);
        }
        tables.push(columns);
    }
    (db, tables)
}

/// A random join of the first two or three of `tables` — by `JOIN .. ON`
/// or by commas and WHERE — and the parameters it takes. Its conditions:
/// equi-joins between columns of one type or of INT and FLOAT; conjuncts on
/// one table (comparisons either way round, BETWEEN, IN, IS NULL, with NULL
/// and cross-type parameters), some by a name every table has and that
/// means the first; and conjuncts over two tables that are no equi-join.
/// None of them can fail, so neither can the statement, in any order.
fn joined_statement(tables: &[Vec<(String, DataType)>], rng: &mut Rng) -> (String, Vec<Value>) {
    let n = rng.int_range(2, 3) as usize;
    let names = ["a", "b", "c"];
    let column = |t: usize, rng: &mut Rng| rng.choose(&tables[t]).clone();
    // Conjuncts with their parameters; `on[t]` joins table `t` on.
    let mut on: Vec<Vec<(String, Vec<Value>)>> = vec![Vec::new(); n];
    let mut rest: Vec<(String, Vec<Value>)> = Vec::new();
    for t in 1..n {
        for _ in 0..rng.int_range(0, 2) {
            let partner = rng.index(t);
            let (left, ty) = column(partner, rng);
            // A column of the same type, or of the other numeric one.
            let numeric = |t: &DataType| matches!(t, DataType::Int | DataType::Float);
            let fits = |other: &DataType| other == &ty || (numeric(&ty) && numeric(other));
            let candidates: Vec<&(String, DataType)> = tables[t].iter().filter(|(_, o)| fits(o)).collect();
            let Some((right, _)) = candidates.get(rng.index(candidates.len().max(1))) else { continue };
            on[t].push((format!("{}.{left} = {}.{right}", names[partner], names[t]), Vec::new()));
        }
    }
    for _ in 0..rng.int_range(0, 4) {
        let t = rng.index(n);
        let (name, ty) = column(t, rng);
        // Unqualified, a name every table has is the first table's.
        let col = if t == 0 && ["x", "f", "s"].contains(&name.as_str()) && rng.bool_with(0.3) {
            name.clone()
        } else {
            format!("{}.{name}", names[t])
        };
        let p = |rng: &mut Rng| if rng.bool_with(0.5) { joined_value(ty, rng) } else { parameter(ty, rng) };
        let term = match rng.bounded(7) {
            0 => (format!("{col} BETWEEN ? AND ?"), vec![p(rng), p(rng)]),
            1 => (format!("{col} IN (?, ?)"), vec![p(rng), p(rng)]),
            2 => (format!("{col} IS NULL"), Vec::new()),
            3 => (format!("? >= {col}"), vec![p(rng)]),
            op => (format!("{col} {} ?", ["=", "<", "<>", "="][op as usize - 3]), vec![p(rng)]),
        };
        // In the ON condition of its table or of a later one, or in WHERE.
        match rng.index(n + 1).max(t) {
            at if at < n && at > 0 => on[at].push(term),
            _ => rest.push(term),
        }
    }
    if rng.bool_with(0.3) {
        let (l, r) = (rng.index(n), rng.index(n));
        let term = match rng.bounded(3) {
            0 => format!("{}.x < {}.x", names[l], names[r]),
            1 => format!("{}.x + {}.x > 2", names[l], names[r]),
            _ => format!("{}.f <> {}.x", names[l], names[r]),
        };
        rest.push((term, Vec::new()));
    }

    let commas = rng.bool_with(0.4);
    let mut params = Vec::new();
    let mut conjunction = |terms: &mut Vec<(String, Vec<Value>)>| {
        rng.shuffle(terms);
        let (sql, ps): (Vec<String>, Vec<Vec<Value>>) = std::mem::take(terms).into_iter().unzip();
        params.extend(ps.concat());
        sql.join(" AND ")
    };
    let mut from = names[0].to_string();
    let mut predicate = Vec::new();
    for (t, terms) in on.iter_mut().enumerate().skip(1) {
        let conjuncts = conjunction(terms);
        if commas {
            from += &format!(", {}", names[t]);
            predicate.extend((!conjuncts.is_empty()).then_some(conjuncts));
        } else {
            let conjuncts = if conjuncts.is_empty() { "1 = 1".to_string() } else { conjuncts };
            from += &format!(" JOIN {} ON {conjuncts}", names[t]);
        }
    }
    predicate.extend(Some(conjunction(&mut rest)).filter(|w| !w.is_empty()));
    let predicate = if predicate.is_empty() { String::new() } else { format!(" WHERE {}", predicate.join(" AND ")) };
    let (x, s) = (format!("{}.x", names[n - 1]), format!("{}.s", names[rng.index(n)]));
    let sql = match rng.bounded(5) {
        0 => format!("SELECT COUNT(DISTINCT {x}) AS d, COUNT(*) AS n FROM {from}{predicate}"),
        1 => format!("SELECT {s}, COUNT(*) AS n, MAX(a.f) AS m FROM {from}{predicate} GROUP BY {s}"),
        2 => format!("SELECT {x}, {s} FROM {from}{predicate}"),
        _ => format!("SELECT * FROM {from}{predicate}"),
    };
    (sql, params)
}

/// Joins return what the cross product of every table, scanned, returns
/// under the whole predicate — as a sequence: pushing a conjunct below the
/// join and hashing its keys change neither which tuples come out nor their
/// order — and read no more rows.
#[test]
fn planned_joins_return_what_the_scanned_cross_product_returns() {
    let (mut statements, mut narrowed, mut answered) = (0, 0, 0);
    for seed in 0..40u64 {
        let mut rng = Rng::new(0x501_0E0 + seed);
        let (db, tables) = joined_tables(&mut rng);
        let mut c = Connection::open(&db);
        for _ in 0..40 {
            let (sql, params) = joined_statement(&tables, &mut rng);
            let (planned, scanning) = (c.prepare(&sql).unwrap(), c.prepare_scanning(&sql).unwrap());
            let mut run = |p: &Prepared| {
                let before = db.metrics().snapshot().rows_read;
                let result = c.query_prepared(p, &params).map(|rs| rs.rows).map_err(|e| e.to_string());
                (result, db.metrics().snapshot().rows_read - before)
            };
            // As text: a NaN is not `==` itself.
            let text = |result: &Result<Vec<SharedRow>, String>| format!("{result:?}");
            let (by_scan, read_by_scan) = run(&scanning);
            let (by_plan, read) = run(&planned);
            let context = format!("seed {seed}: {sql} with {params:?}");
            assert_eq!(text(&by_plan), text(&by_scan), "{context}");
            assert!(read <= read_by_scan, "{read} rows read, {read_by_scan} by the scans; {context}");
            statements += 1;
            narrowed += (read < read_by_scan) as usize;
            answered += by_scan.is_ok_and(|rows| !rows.is_empty() && rows[0].iter().any(|v| !v.is_null())) as usize;
        }
    }
    // The comparison means something only if paths were taken and rows came
    // out.
    assert!(narrowed * 4 > statements, "{narrowed} of {statements} joins read less than their tables");
    assert!(answered * 3 > statements, "{answered} of {statements} joins answered with a row");
}

// ---- LIMIT ends the fetch ----

/// `t (a, b, c, g, h, v)` with primary key `(a, b, c)` and the index `t_gh`
/// on `(g, h)`, where many rows share a key: fifty have `g = 1, h = 2`, so
/// whatever the size of a cursor's first chunks, one ends among them. Slots
/// are freed and filled again, so neither key order is rowid order.
fn limited_table(rng: &mut Rng) -> (Arc<Database>, Connection) {
    let db = Database::new(Personality::test());
    let mut c = Connection::open(&db);
    c.execute_batch(
        "CREATE TABLE t (a INT, b INT, c INT, g INT, h INT, v INT, PRIMARY KEY (a, b, c)); \
         CREATE INDEX t_gh ON t (g, h);",
    )
    .unwrap();
    let insert = |c: &mut Connection, rng: &mut Rng, g: i64, h: i64| {
        let row = [rng.int_range(0, 3), rng.int_range(0, 9), rng.int_range(0, 40), g, h, rng.int_range(0, 5)];
        // Random keys collide; a refused duplicate is part of the history.
        let _ = c.execute("INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)", &row.map(Value::Int));
    };
    for _ in 0..400 {
        let (g, h) = (rng.int_range(0, 3), rng.int_range(0, 4));
        insert(&mut c, rng, g, h);
    }
    c.execute("DELETE FROM t WHERE v = 5", &[]).unwrap();
    for _ in 0..60 {
        insert(&mut c, rng, 1, 2);
    }
    (db, c)
}

#[test]
fn a_limit_ends_the_fetch_and_not_the_answer() {
    // Where a path starts, what it is then ordered by, and a select list
    // under which rows that tie in that order are equal rows: the sequence
    // is then the same however ties fall.
    let paths = [
        ("a = ?", "b, c", "*"),
        ("a = ?", "b", "b"),
        ("a = ? AND b >= ?", "b, c", "*"),
        ("g = ?", "h", "h"),
        ("g >= ?", "g, h", "g, h"),
        ("g = ? AND h > ?", "h", "g, h"),
    ];
    let residuals = ["", " AND v <> 0", " AND v > ?", " AND c % 2 = 1"];
    let limits = [0, 1, 3, 9, 60, 10_000, -1];
    let (mut stopped_short, mut cut_inside_the_first_chunk) = (0, 0);
    for seed in 0..6u64 {
        let mut rng = Rng::new(0x11_417 + seed);
        let (db, mut c) = limited_table(&mut rng);
        let run = |c: &mut Connection, p: &Prepared, params: &[Value]| {
            let before = db.metrics().snapshot().rows_read;
            let rows = c.query_prepared(p, params).unwrap().rows;
            (rows, db.metrics().snapshot().rows_read - before)
        };
        for (pinned, order, list) in paths {
            for residual in residuals {
                let predicate = format!("{pinned}{residual}");
                let mut params: Vec<Value> =
                    (0..predicate.matches('?').count()).map(|_| Value::Int(rng.int_range(0, 3))).collect();
                // Everything the path passes, in its order — the rows a scan
                // passes — and how many the residual predicate rejects.
                let unlimited = format!("SELECT {list} FROM t WHERE {predicate}");
                let (whole, scanning) = (c.prepare(&unlimited).unwrap(), c.prepare_scanning(&unlimited).unwrap());
                let (all, read_whole) = run(&mut c, &whole, &params);
                let (mut by_scan, mut by_path) = (run(&mut c, &scanning, &params).0, all.clone());
                by_scan.sort();
                by_path.sort();
                assert_eq!(by_path, by_scan, "seed {seed}: {unlimited} with {params:?}");
                let rejected = read_whole - all.len() as u64;
                params.push(Value::Int(*rng.choose(&limits)));
                let n = params.last().unwrap().as_int().unwrap();

                for ordered in [false, true] {
                    let order_by = if ordered { format!(" ORDER BY {order}") } else { String::new() };
                    let sql = format!("SELECT {list} FROM t WHERE {predicate}{order_by} LIMIT ?");
                    let context = format!("seed {seed}: {sql} with {params:?}");
                    let (planned, scanning) = (c.prepare(&sql).unwrap(), c.prepare_scanning(&sql).unwrap());
                    let (rows, read) = run(&mut c, &planned, &params);
                    if ordered {
                        assert_eq!(rows, run(&mut c, &scanning, &params).0, "{context}");
                    } else {
                        // Any `n` rows answer; the path's first `n` are given.
                        assert_eq!(rows, all[..all.len().min(n.max(0) as usize)], "{context}");
                    }
                    assert!(read <= n.max(0) as u64 + rejected, "{read} rows read, {rejected} rejected; {context}");
                    stopped_short += (read < read_whole) as usize;
                    cut_inside_the_first_chunk += (rejected > 0 && (1..8).contains(&n) && rows.len() as i64 == n) as usize;
                }
            }
        }
    }
    assert!(stopped_short > 100, "{stopped_short} statements stopped short of their range");
    assert!(cut_inside_the_first_chunk > 10, "{cut_inside_the_first_chunk}");
}

/// An execution that cannot pin what its plan pins reads a wider range, in
/// another order than the plan counted on: it sorts, and reads to the end.
#[test]
fn a_cut_prefix_falls_back_to_the_sort() {
    let (_, mut c) = limited_table(&mut Rng::new(0x11_417));
    let sql = "SELECT * FROM t WHERE a = ? AND b = ? ORDER BY c LIMIT 4";
    let (planned, scanning) = (c.prepare(sql).unwrap(), c.prepare_scanning(sql).unwrap());
    // `2.5` is no INT: the path ends before `b`, and `b = 2.5` rejects
    // every row; `'x'` fails the comparison once a row reaches it.
    for b in [Value::Int(2), Value::Float(2.0), Value::Float(2.5), Value::Str("x".into()), Value::Null] {
        let params = [Value::Int(1), b];
        assert_eq!(outcome(&mut c, &planned, &params), outcome(&mut c, &scanning, &params), "{params:?}");
    }
    // A float too large to name one integer equals two of them: with the
    // first column cut, their rows come in `(a, b)` order, not in `b` order.
    let big = 1i64 << 53;
    for (a, b) in [(big, 5), (big + 1, 1)] {
        c.execute("INSERT INTO t VALUES (?, ?, 0, 0, 0, 0)", &[Value::Int(a), Value::Int(b)]).unwrap();
    }
    let sql = "SELECT a, b FROM t WHERE a = ? ORDER BY b LIMIT 1";
    let (planned, scanning) = (c.prepare(sql).unwrap(), c.prepare_scanning(sql).unwrap());
    for a in [[Value::Int(1)], [Value::Float(1.0)], [Value::Float(-0.0)]] {
        assert_eq!(outcome(&mut c, &planned, &a), outcome(&mut c, &scanning, &a), "{a:?}");
    }
    let first = c.query_prepared(&planned, &[Value::Float(big as f64)]).unwrap();
    assert_eq!(*first.rows[0], [Value::Int(big + 1), Value::Int(1)]);
    assert_eq!(first, c.query_prepared(&scanning, &[Value::Float(big as f64)]).unwrap());
}

// ---- Codec ----

fn special(ty: DataType, rng: &mut Rng) -> Value {
    if rng.bool_with(0.1) {
        return Value::Null;
    }
    match ty {
        DataType::Int => Value::Int(match rng.bounded(4) {
            0 => *rng.choose(&[i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX]),
            // Around every length class, both signs.
            1 => {
                let edge = 1i64 << (8 * rng.int_range(1, 7));
                (edge + rng.int_range(-2, 2)) * *rng.choose(&[1, -1])
            }
            2 => rng.int_range(-70_000, 70_000),
            _ => rng.next_u64() as i64,
        }),
        DataType::Float => Value::Float(match rng.bounded(3) {
            0 => {
                let edges = [0.0, -0.0, f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE, f64::MAX];
                *rng.choose(&edges)
            }
            1 => rng.f64_range(-1e6, 1e6),
            _ => f64::from_bits(rng.next_u64()),
        }),
        DataType::Bool => Value::Bool(rng.bool_with(0.5)),
        DataType::Str | DataType::Bytes => {
            let alphabet = ["", "\0", "\u{1}", "a", "b", "\u{ff}", "\0\0", "a\0", "é"];
            let s: String = (0..rng.int_range(0, 12)).map(|_| *rng.choose(&alphabet)).collect();
            let s = if rng.bool_with(0.2) { s.repeat(4) } else { s };
            if ty == DataType::Str {
                Value::Str(s)
            } else {
                Value::Bytes(s.into_bytes().into())
            }
        }
    }
}

#[test]
fn key_bytes_order_as_values_do() {
    let types = [DataType::Int, DataType::Float, DataType::Str, DataType::Bool, DataType::Bytes];
    let mut rng = Rng::new(0xC0DEC);
    let mut spilled = 0;
    for _ in 0..300 {
        let signature: Vec<DataType> = (0..rng.int_range(1, 4)).map(|_| *rng.choose(&types)).collect();
        let mut tuples: Vec<Vec<Value>> =
            (0..24).map(|_| signature.iter().map(|ty| special(*ty, &mut rng)).collect()).collect();
        // Some share a prefix with another, so later columns decide.
        for i in 1..tuples.len() {
            if rng.bool_with(0.4) {
                let n = rng.index(signature.len() + 1);
                let (head, tail) = tuples.split_at_mut(i);
                tail[0][..n].clone_from_slice(&head[rng.index(i)][..n]);
            }
        }
        let keys: Vec<Key> = tuples.iter().map(Key::encode).collect();
        for (a, ka) in tuples.iter().zip(&keys) {
            for (b, kb) in tuples.iter().zip(&keys) {
                assert_eq!(ka.cmp(kb), a.cmp(b), "{a:?} vs {b:?}: {ka:?} vs {kb:?}");
                assert_eq!(ka.as_bytes().cmp(kb.as_bytes()), a.cmp(b), "{a:?} vs {b:?}");
                assert_eq!(ka == kb, a.cmp(b).is_eq());
            }
            for k in 0..=a.len() {
                let prefix = Key::encode(&a[..k]);
                assert!(ka.as_bytes().starts_with(prefix.as_bytes()), "{a:?}[..{k}]");
            }
            spilled += (ka.as_bytes().len() > 22) as usize;
        }
    }
    assert!(spilled > 500, "only {spilled} keys outgrew the inline form");
}

// ---- A constant crosses an equi-join ----

/// TATP's GetNewDestination pins `call_forwarding.s_id` only through
/// `sf.s_id = cf.s_id`. A subscriber has at most four facilities of at most
/// three forwardings each, and the statement names one facility.
#[test]
fn tatp_get_new_destination_reads_one_facility() {
    let tatp = bp_workloads::by_name("tatp").expect("tatp is bundled");
    let db = Database::new(Personality::test());
    let mut c = Connection::open(&db);
    tatp.setup(&mut c, 0.1, &mut Rng::new(7)).unwrap();
    let subscribers = c.query("SELECT COUNT(*) AS n FROM subscriber", &[]).unwrap().get_int(0, "n").unwrap();
    let forwardings = c.query("SELECT COUNT(*) AS n FROM call_forwarding", &[]).unwrap().get_int(0, "n").unwrap();
    assert!(forwardings > 100, "{forwardings} forwardings loaded");
    let sql = "SELECT cf.numberx FROM special_facility sf JOIN call_forwarding cf \
               ON sf.s_id = cf.s_id WHERE sf.s_id = ? AND sf.sf_type = ? AND sf.is_active = 1 \
               AND cf.sf_type = ? AND cf.start_time <= ? AND cf.end_time > ?";
    let planned = c.prepare(sql).unwrap();
    // The reference, from one scan of each table: the forwardings of the
    // subscriber's facility of that type, in the order a scan has them, if
    // the facility is active.
    let facilities = c.query("SELECT s_id, sf_type, is_active FROM special_facility", &[]).unwrap();
    let active: HashSet<(i64, i64)> = (0..facilities.len())
        .filter(|&i| facilities.get_int(i, "is_active") == Some(1))
        .map(|i| (facilities.get_int(i, "s_id").unwrap(), facilities.get_int(i, "sf_type").unwrap()))
        .collect();
    let scanned = c.query("SELECT * FROM call_forwarding", &[]).unwrap();
    let mut by_facility: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
    for i in 0..scanned.len() {
        let at = (scanned.get_int(i, "s_id").unwrap(), scanned.get_int(i, "sf_type").unwrap());
        by_facility.entry(at).or_default().push(i);
    }
    let expected = |s_id: i64, sf_type: i64, start: i64, end: i64| -> Vec<Vec<Value>> {
        let rows = by_facility.get(&(s_id, sf_type)).filter(|_| active.contains(&(s_id, sf_type)));
        let int = |i: usize, col| scanned.get_int(i, col);
        let current =
            |i: &&usize| int(**i, "start_time").is_some_and(|t| t <= start) && int(**i, "end_time").is_some_and(|t| t > end);
        rows.into_iter().flatten().filter(current).map(|&i| vec![scanned.get(i, "numberx").unwrap().clone()]).collect()
    };
    let mut rng = Rng::new(11);
    let (mut found, mut draws_found) = (0, 0);
    for _ in 0..500 {
        let sf_type = rng.int_range(1, 4);
        let start = *rng.choose(&[0, 8, 16]);
        let (s_id, end) = (rng.int_range(1, subscribers), start + rng.int_range(1, 8));
        let params = [s_id, sf_type, sf_type, start, end].map(Value::Int);
        let before = db.metrics().snapshot().rows_read;
        let rows = c.query_prepared(&planned, &params).unwrap();
        let read = db.metrics().snapshot().rows_read - before;
        assert!(read <= 4, "{read} rows read for {params:?}");
        let rows: Vec<Vec<Value>> = rows.rows.iter().map(|r| r.to_vec()).collect();
        assert_eq!(rows, expected(s_id, sf_type, start, end), "{params:?}");
        found += rows.len();
        draws_found += !rows.is_empty() as usize;
    }
    // 105 of them do.
    assert!(draws_found > 50, "only {draws_found} of 500 draws found a forwarding ({found} in all)");
}
