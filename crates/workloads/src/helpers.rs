//! Shared helpers for benchmark transaction control code.

use bp_sql::{Connection, Dialect, Result as SqlResult};
use bp_storage::Value;

/// A benchmark's statement table: `(name, SQL text)` rows in declaration
/// order, the schema's `CREATE`s first.
pub type Statements = [(&'static str, &'static str)];

/// A benchmark's SQL, written once. Each `NAME = "text";` becomes
/// `pub const NAME: &str`, which is what the control code hands to
/// [`Connection::execute`] (the text itself, so the connection's statement
/// cache finds it without a lookup by name), and a row of
/// `pub const STATEMENTS`, from which [`create_schema`] builds the schema
/// and [`crate::registry::Benchmark::catalog`] the dialect catalog; there a
/// statement goes by its constant's name in lower case.
macro_rules! statements {
    ($($name:ident = $sql:literal;)*) => {
        $(pub const $name: &str = $sql;)*
        pub const STATEMENTS: &$crate::helpers::Statements = &[$((stringify!($name), $name)),*];
    };
}
pub(crate) use statements;

/// Whether a statement of a table is schema: its text says so, and its name
/// (`create_…`) must agree, which the registry's tests hold every table to.
pub fn is_ddl(sql: &str) -> bool {
    sql.starts_with("CREATE ")
}

/// Send the table's DDL, in declaration order, as the MySQL dialect
/// renders it.
pub fn create_schema(conn: &mut Connection, statements: &Statements) -> SqlResult<()> {
    for (_, sql) in statements.iter().filter(|(_, sql)| is_ddl(sql)) {
        conn.execute(&Dialect::MySql.render(&bp_sql::parse(sql)?), &[])?;
    }
    Ok(())
}

/// Run `body` in an explicit transaction: commit on success, roll back on
/// error. The standard wrapper for every benchmark transaction.
pub fn run_txn<T>(
    conn: &mut Connection,
    body: impl FnOnce(&mut Connection) -> SqlResult<T>,
) -> SqlResult<T> {
    conn.begin()?;
    match body(conn) {
        Ok(v) => {
            // The body may have rolled back itself (benchmark-level aborts
            // like TPC-C's invalid-item NewOrder).
            if conn.in_transaction() {
                conn.commit()?;
            }
            Ok(v)
        }
        Err(e) => {
            if conn.in_transaction() {
                let _ = conn.rollback();
            }
            Err(e)
        }
    }
}

/// Integer parameter shorthand.
pub fn p_i(v: i64) -> Value {
    Value::Int(v)
}

/// Float parameter shorthand.
pub fn p_f(v: f64) -> Value {
    Value::Float(v)
}

/// String parameter shorthand.
pub fn p_s(v: impl Into<String>) -> Value {
    Value::Str(v.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_sql::SqlError;
    use bp_storage::{Database, Personality};

    #[test]
    fn run_txn_commits() {
        let db = Database::new(Personality::test());
        let mut c = Connection::open(&db);
        c.execute_batch("CREATE TABLE t (id INT PRIMARY KEY);").unwrap();
        run_txn(&mut c, |c| c.execute("INSERT INTO t VALUES (1)", &[])).unwrap();
        assert!(!c.in_transaction());
        assert_eq!(c.query("SELECT COUNT(*) AS n FROM t", &[]).unwrap().get_int(0, "n"), Some(1));
    }

    #[test]
    fn run_txn_rolls_back_on_error() {
        let db = Database::new(Personality::test());
        let mut c = Connection::open(&db);
        c.execute_batch("CREATE TABLE t (id INT PRIMARY KEY);").unwrap();
        let r: SqlResult<()> = run_txn(&mut c, |c| {
            c.execute("INSERT INTO t VALUES (1)", &[])?;
            Err(SqlError::Eval("boom".into()))
        });
        assert!(r.is_err());
        assert!(!c.in_transaction());
        assert_eq!(c.query("SELECT COUNT(*) AS n FROM t", &[]).unwrap().get_int(0, "n"), Some(0));
    }
}
