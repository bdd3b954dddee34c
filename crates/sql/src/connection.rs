//! JDBC-style connections and prepared statements.
//!
//! Workers in the testbed each hold one [`Connection`] to the target
//! database, prepare the benchmark's parameterized statements once and then
//! execute them inside explicit transactions — the same structure as
//! OLTP-Bench's transaction control code over JDBC. The preparing happens
//! behind [`Connection::execute`]: the connection keeps every statement it
//! has been handed as text, parsed and bound, and finds it again by that
//! text.

use std::fmt;
use std::sync::Arc;

use bp_storage::{Database, Session, Value};
use bp_util::hash::MixMap;
use bp_util::sync::Mutex;

use crate::ast::{statement_param_count, Statement};
use crate::error::{Result, SqlError};
use crate::exec::{execute, execute_unplanned, ResultSet, StatementResult};
use crate::parser::parse;
use crate::plan::{bind, Plan};

/// A parsed, reusable statement. A DML statement or query also carries its
/// bound plan from its first execution on: later executions only check that
/// the catalog has not changed since. Cloning shares the plan, and a
/// statement prepared on one connection runs on any other.
#[derive(Clone)]
pub struct Prepared(Arc<PreparedStatement>);

struct PreparedStatement {
    stmt: Statement,
    params: usize,
    sql: String,
    /// Empty until the first execution that binds (the statement's tables
    /// may not exist yet when it is prepared).
    plan: Mutex<Option<Arc<Plan>>>,
}

impl Prepared {
    pub fn sql(&self) -> &str {
        &self.0.sql
    }

    pub fn param_count(&self) -> usize {
        self.0.params
    }

    pub fn statement(&self) -> &Statement {
        &self.0.stmt
    }

    /// The plan to execute against `db`: the one at hand if it was bound
    /// under `db`'s current schema version, else a fresh one.
    fn plan(&self, db: &Database) -> Result<Arc<Plan>> {
        let mut slot = self.0.plan.lock();
        match &*slot {
            Some(plan) if plan.version == db.schema_version() => Ok(plan.clone()),
            _ => {
                let plan = Arc::new(bind(db, &self.0.stmt)?);
                *slot = Some(plan.clone());
                Ok(plan)
            }
        }
    }
}

impl fmt::Debug for Prepared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Prepared").field("sql", &self.0.sql).field("params", &self.0.params).finish()
    }
}

/// Most statements a connection keeps prepared by text. The largest bundled
/// benchmark issues under a hundred distinct statements; a client that
/// formats literals into its SQL would otherwise grow the cache forever, so
/// a full cache is emptied and refills with whatever is still in use.
const STATEMENT_CACHE_CAP: usize = 256;

/// A session plus SQL front end; the JDBC-connection analogue.
pub struct Connection {
    session: Session,
    /// DML statements and queries seen by [`Connection::execute`], by text.
    statements: MixMap<Box<str>, Prepared>,
}

impl Connection {
    pub fn open(db: &Arc<Database>) -> Connection {
        Connection { session: db.session(), statements: MixMap::default() }
    }

    pub fn database(&self) -> &Arc<Database> {
        self.session.database()
    }

    /// Direct access to the underlying session (stored-procedure style
    /// workloads use this for hot paths).
    pub fn session(&mut self) -> &mut Session {
        &mut self.session
    }

    pub fn in_transaction(&self) -> bool {
        self.session.in_txn()
    }

    pub fn begin(&mut self) -> Result<()> {
        self.session.begin().map_err(Into::into)
    }

    pub fn commit(&mut self) -> Result<()> {
        self.session.commit().map_err(Into::into)
    }

    pub fn rollback(&mut self) -> Result<()> {
        self.session.rollback().map_err(Into::into)
    }

    /// Parse a statement for repeated execution.
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        let stmt = parse(sql)?;
        let params = statement_param_count(&stmt);
        Ok(Prepared(Arc::new(PreparedStatement {
            stmt,
            params,
            sql: sql.to_string(),
            plan: Mutex::new(None),
        })))
    }

    /// [`prepare`](Connection::prepare), bound now and to fetch every table
    /// by a full scan with the whole predicate applied to each row — what a
    /// statement means, against which what its access path fetches is
    /// tested. (A later schema change binds it again, with paths.)
    #[doc(hidden)]
    pub fn prepare_scanning(&self, sql: &str) -> Result<Prepared> {
        let p = self.prepare(sql)?;
        if p.0.stmt.is_dml() {
            *p.0.plan.lock() = Some(Arc::new(bind(self.database(), &p.0.stmt)?.scanning()));
        }
        Ok(p)
    }

    /// The texts this connection holds prepared: every DML statement and
    /// query it was handed since the cache last filled. For checking what a
    /// benchmark sent against what it declares.
    #[doc(hidden)]
    pub fn cached_statements(&self) -> impl Iterator<Item = &str> {
        self.statements.keys().map(|sql| &**sql)
    }

    /// Execute a prepared statement. Runs in the current transaction, or in
    /// an autocommit transaction when none is open.
    pub fn execute_prepared(&mut self, p: &Prepared, params: &[Value]) -> Result<StatementResult> {
        Self::run(&mut self.session, p, params)
    }

    fn run(session: &mut Session, p: &Prepared, params: &[Value]) -> Result<StatementResult> {
        if params.len() != p.0.params {
            return Err(SqlError::ParamCount { expected: p.0.params, got: params.len() });
        }
        if !p.0.stmt.is_dml() {
            return execute_unplanned(session, &p.0.stmt);
        }
        let planned = |session: &mut Session| {
            let plan = p.plan(session.database())?;
            execute(session, &plan, params)
        };
        if session.in_txn() {
            return planned(session);
        }
        session.begin()?;
        match planned(session) {
            Ok(r) => {
                session.commit()?;
                Ok(r)
            }
            Err(e) => {
                if session.in_txn() {
                    let _ = session.rollback();
                }
                Err(e)
            }
        }
    }

    /// Execute a statement given as text. The first execution of a DML
    /// statement or query prepares it and keeps it by its text, so every
    /// later one is an [`execute_prepared`](Connection::execute_prepared);
    /// DDL and transaction control are parsed and run once.
    pub fn execute(&mut self, sql: &str, params: &[Value]) -> Result<StatementResult> {
        if let Some(p) = self.statements.get(sql) {
            return Self::run(&mut self.session, p, params);
        }
        let p = self.prepare(sql)?;
        if p.0.stmt.is_dml() {
            if self.statements.len() >= STATEMENT_CACHE_CAP {
                self.statements.clear();
            }
            self.statements.insert(sql.into(), p.clone());
        }
        Self::run(&mut self.session, &p, params)
    }

    /// [`execute`](Connection::execute) for a query, returning its rows.
    pub fn query(&mut self, sql: &str, params: &[Value]) -> Result<ResultSet> {
        match self.execute(sql, params)? {
            StatementResult::Rows(rs) => Ok(rs),
            other => Err(SqlError::Eval(format!("statement did not return rows: {other:?}"))),
        }
    }

    /// Query via a prepared statement.
    pub fn query_prepared(&mut self, p: &Prepared, params: &[Value]) -> Result<ResultSet> {
        match self.execute_prepared(p, params)? {
            StatementResult::Rows(rs) => Ok(rs),
            other => Err(SqlError::Eval(format!("statement did not return rows: {other:?}"))),
        }
    }

    /// Run several semicolon-separated statements (DDL scripts).
    pub fn execute_batch(&mut self, script: &str) -> Result<()> {
        for piece in split_statements(script) {
            self.execute(&piece, &[])?;
        }
        Ok(())
    }
}

/// Split a script into statements on semicolons, respecting string literals.
pub fn split_statements(script: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    let mut in_str = false;
    for c in script.chars() {
        match c {
            '\'' => {
                in_str = !in_str;
                current.push(c);
            }
            ';' if !in_str => {
                if !current.trim().is_empty() {
                    out.push(current.trim().to_string());
                }
                current.clear();
            }
            _ => current.push(c),
        }
    }
    if !current.trim().is_empty() {
        out.push(current.trim().to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_storage::Personality;

    fn conn() -> Connection {
        let db = Database::new(Personality::test());
        let mut c = Connection::open(&db);
        c.execute_batch(
            "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(32), age INT);
             CREATE INDEX users_age ON users (age);",
        )
        .unwrap();
        c
    }

    #[test]
    fn autocommit_insert_and_query() {
        let mut c = conn();
        c.execute("INSERT INTO users VALUES (1, 'alice', 30)", &[]).unwrap();
        c.execute("INSERT INTO users (id, name, age) VALUES (?, ?, ?)",
            &[Value::Int(2), Value::Str("bob".into()), Value::Int(25)])
            .unwrap();
        let rs = c.query("SELECT name FROM users WHERE id = ?", &[Value::Int(2)]).unwrap();
        assert_eq!(rs.get_str(0, "name"), Some("bob"));
        assert!(!c.in_transaction());
    }

    #[test]
    fn explicit_transaction_commit() {
        let mut c = conn();
        c.begin().unwrap();
        c.execute("INSERT INTO users VALUES (1, 'x', 1)", &[]).unwrap();
        assert!(c.in_transaction());
        c.commit().unwrap();
        assert_eq!(c.query("SELECT COUNT(*) AS n FROM users", &[]).unwrap().get_int(0, "n"), Some(1));
    }

    #[test]
    fn explicit_transaction_rollback() {
        let mut c = conn();
        c.begin().unwrap();
        c.execute("INSERT INTO users VALUES (1, 'x', 1)", &[]).unwrap();
        c.rollback().unwrap();
        assert_eq!(c.query("SELECT COUNT(*) AS n FROM users", &[]).unwrap().get_int(0, "n"), Some(0));
    }

    #[test]
    fn sql_txn_control_statements() {
        let mut c = conn();
        c.execute("BEGIN", &[]).unwrap();
        c.execute("INSERT INTO users VALUES (1, 'x', 1)", &[]).unwrap();
        c.execute("COMMIT", &[]).unwrap();
        assert_eq!(c.query("SELECT COUNT(*) AS n FROM users", &[]).unwrap().get_int(0, "n"), Some(1));
    }

    #[test]
    fn prepared_reuse() {
        let mut c = conn();
        let ins = c.prepare("INSERT INTO users VALUES (?, ?, ?)").unwrap();
        assert_eq!(ins.param_count(), 3);
        for i in 0..10 {
            c.execute_prepared(&ins, &[Value::Int(i), Value::Str(format!("u{i}")), Value::Int(20 + i)])
                .unwrap();
        }
        let q = c.prepare("SELECT COUNT(*) AS n FROM users WHERE age >= ?").unwrap();
        let rs = c.query_prepared(&q, &[Value::Int(25)]).unwrap();
        assert_eq!(rs.get_int(0, "n"), Some(5));
    }

    #[test]
    fn param_count_mismatch() {
        let mut c = conn();
        let err = c
            .execute("INSERT INTO users VALUES (?, ?, ?)", &[Value::Int(1)])
            .unwrap_err();
        assert!(matches!(err, SqlError::ParamCount { expected: 3, got: 1 }));
    }

    #[test]
    fn param_count_checked_on_cached_statement() {
        let mut c = conn();
        let sql = "SELECT name FROM users WHERE id = ?";
        assert!(c.query(sql, &[Value::Int(1)]).unwrap().is_empty());
        let err = c.query(sql, &[]).unwrap_err();
        assert!(matches!(err, SqlError::ParamCount { expected: 1, got: 0 }));
        assert!(!c.in_transaction(), "rejected before a transaction was opened");
    }

    /// Rows read by one execution of `sql`.
    fn rows_read(c: &mut Connection, sql: &str, params: &[Value]) -> (usize, u64) {
        let before = c.database().metrics().snapshot().rows_read;
        let n = c.query(sql, params).unwrap().len();
        (n, c.database().metrics().snapshot().rows_read - before)
    }

    fn users(c: &mut Connection, n: i64) {
        for i in 0..n {
            c.execute(
                "INSERT INTO users VALUES (?, ?, ?)",
                &[Value::Int(i), Value::Str(format!("u{i}")), Value::Int(20 + i % 10)],
            )
            .unwrap();
        }
    }

    #[test]
    fn create_index_after_first_execution_switches_the_path() {
        let mut c = conn();
        users(&mut c, 50);
        let sql = "SELECT id FROM users WHERE name = ?";
        let who = [Value::Str("u7".into())];
        assert_eq!(rows_read(&mut c, sql, &who), (1, 50), "no index on name: full scan");
        assert_eq!(rows_read(&mut c, sql, &who), (1, 50));
        c.execute("CREATE INDEX users_name ON users (name)", &[]).unwrap();
        assert_eq!(rows_read(&mut c, sql, &who), (1, 1), "re-bound onto the new index");
    }

    #[test]
    fn drop_and_recreate_rebinds() {
        let mut c = conn();
        users(&mut c, 3);
        let sql = "SELECT name, age FROM users WHERE id = ?";
        let first = c.query(sql, &[Value::Int(1)]).unwrap();
        assert_eq!(first.rows, [[Value::Str("u1".into()), Value::Int(21)].into()]);

        c.execute("DROP TABLE users", &[]).unwrap();
        let err = c.query(sql, &[Value::Int(1)]).unwrap_err();
        assert!(matches!(err, SqlError::Storage(bp_storage::StorageError::NoSuchTable(_))), "{err}");
        assert!(!c.in_transaction());

        // Same names, different positions: stale slots would swap the columns.
        c.execute("CREATE TABLE users (age INT, name VARCHAR(32), id INT PRIMARY KEY)", &[]).unwrap();
        c.execute("INSERT INTO users VALUES (44, 'zed', 1)", &[]).unwrap();
        let again = c.query(sql, &[Value::Int(1)]).unwrap();
        assert_eq!(again.rows, [[Value::Str("zed".into()), Value::Int(44)].into()]);
    }

    #[test]
    fn reset_schema_invalidates_plans() {
        let mut c = conn();
        users(&mut c, 3);
        let count = c.prepare("SELECT COUNT(*) AS n FROM users").unwrap();
        assert_eq!(c.query_prepared(&count, &[]).unwrap().get_int(0, "n"), Some(3));
        c.database().reset_schema();
        assert!(c.query_prepared(&count, &[]).is_err(), "the table is gone");
        c.execute("CREATE TABLE users (id INT PRIMARY KEY)", &[]).unwrap();
        assert_eq!(c.query_prepared(&count, &[]).unwrap().get_int(0, "n"), Some(0));
    }

    #[test]
    fn null_key_parameter_matches_nothing() {
        let mut c = conn();
        users(&mut c, 5);
        for sql in [
            "SELECT id FROM users WHERE id = ?",
            "SELECT id FROM users WHERE age = ?",
            "SELECT id FROM users WHERE id >= ?",
            "SELECT id FROM users WHERE age < ? AND age > 0",
        ] {
            assert!(c.query(sql, &[Value::Int(0)]).is_ok());
            assert!(c.query(sql, &[Value::Null]).unwrap().is_empty(), "{sql}");
        }
        let n = c.query("SELECT COUNT(*) AS n FROM users WHERE id = ?", &[Value::Null]).unwrap();
        assert_eq!(n.get_int(0, "n"), Some(0));
        assert_eq!(c.execute("UPDATE users SET age = 1 WHERE id = ?", &[Value::Null]).unwrap().affected(), 0);
        assert_eq!(c.execute("DELETE FROM users WHERE age = ?", &[Value::Null]).unwrap().affected(), 0);
    }

    #[test]
    fn cache_stays_under_its_cap() {
        let mut c = conn();
        users(&mut c, 5);
        for i in 0..10_000 {
            let sql = format!("SELECT name FROM users WHERE id = {}", i % 7);
            let sql = format!("{sql} AND age <> {i}");
            c.query(&sql, &[]).unwrap();
            assert!(c.statements.len() <= STATEMENT_CACHE_CAP);
        }
        // DDL and transaction control are never kept.
        let kept = c.statements.len();
        c.execute_batch("BEGIN; COMMIT; CREATE TABLE other (id INT PRIMARY KEY); DROP TABLE other;").unwrap();
        assert_eq!(c.statements.len(), kept);
    }

    #[test]
    fn prepared_on_one_connection_runs_on_another() {
        let db = Database::new(Personality::test());
        let mut a = Connection::open(&db);
        let mut b = Connection::open(&db);
        a.execute_batch("CREATE TABLE t (id INT PRIMARY KEY, v INT);").unwrap();
        let put = a.prepare("INSERT INTO t VALUES (?, ?)").unwrap();
        let get = a.prepare("SELECT v FROM t WHERE id = ?").unwrap();
        a.execute_prepared(&put, &[Value::Int(1), Value::Int(10)]).unwrap();
        b.execute_prepared(&put, &[Value::Int(2), Value::Int(20)]).unwrap();
        assert_eq!(b.query_prepared(&get, &[Value::Int(1)]).unwrap().get_int(0, "v"), Some(10));
        assert_eq!(a.query_prepared(&get.clone(), &[Value::Int(2)]).unwrap().get_int(0, "v"), Some(20));

        // Even on another database: the plan is bound again, not misapplied.
        let other = Database::new(Personality::test());
        let mut c = Connection::open(&other);
        c.execute_batch("CREATE TABLE t (v INT, id INT PRIMARY KEY);").unwrap();
        c.execute("INSERT INTO t VALUES (30, 1)", &[]).unwrap();
        assert_eq!(c.query_prepared(&get, &[Value::Int(1)]).unwrap().get_int(0, "v"), Some(30));
        assert_eq!(a.query_prepared(&get, &[Value::Int(1)]).unwrap().get_int(0, "v"), Some(10));
    }

    #[test]
    fn prepare_before_the_table_exists() {
        let db = Database::new(Personality::test());
        let mut c = Connection::open(&db);
        let get = c.prepare("SELECT v FROM late WHERE id = ?").unwrap();
        for _ in 0..2 {
            let err = c.query_prepared(&get, &[Value::Int(1)]).unwrap_err();
            assert!(matches!(err, SqlError::Storage(bp_storage::StorageError::NoSuchTable(_))), "{err}");
            assert!(!c.in_transaction());
        }
        c.execute_batch("CREATE TABLE late (id INT PRIMARY KEY, v INT); INSERT INTO late VALUES (1, 5);").unwrap();
        assert_eq!(c.query_prepared(&get, &[Value::Int(1)]).unwrap().get_int(0, "v"), Some(5));
    }

    #[test]
    fn connection_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Connection>();
        assert_send::<Prepared>();
    }

    #[test]
    fn autocommit_rolls_back_on_error() {
        let mut c = conn();
        c.execute("INSERT INTO users VALUES (1, 'a', 1)", &[]).unwrap();
        // Duplicate key in autocommit: statement fails, no txn left open.
        let err = c.execute("INSERT INTO users VALUES (1, 'b', 2)", &[]).unwrap_err();
        assert!(matches!(err, SqlError::Storage(_)));
        assert!(!c.in_transaction());
        assert_eq!(c.query("SELECT COUNT(*) AS n FROM users", &[]).unwrap().get_int(0, "n"), Some(1));
    }

    #[test]
    fn batch_split_respects_strings() {
        let parts = split_statements("INSERT INTO t VALUES ('a;b'); SELECT 1 ;");
        assert_eq!(parts.len(), 2);
        assert!(parts[0].contains("a;b"));
    }
}
