//! SIBench: the transactional-isolation micro-benchmark (Table 1, Feature
//! Testing). A single table of (id, value); readers scan for the minimum
//! value while writers bump individual records — the canonical probe for
//! write-skew / snapshot-isolation anomalies. Our engine runs strict 2PL
//! (serializable), so the invariant checked below must always hold.

use std::sync::atomic::{AtomicI64, Ordering};

use bp_core::{BenchmarkClass, LoadSummary, TransactionType, TxnOutcome, Workload};
use bp_sql::{Connection, Result as SqlResult};
use bp_util::rng::Rng;

use crate::helpers::{create_schema, p_i, run_txn, statements};

const BASE_ROWS: i64 = 100;

pub struct SiBench {
    rows: AtomicI64,
}

impl Default for SiBench {
    fn default() -> Self {
        SiBench::new()
    }
}

impl SiBench {
    pub fn new() -> SiBench {
        SiBench { rows: AtomicI64::new(BASE_ROWS) }
    }
}

statements! {
    // Schema, in creation order.
    CREATE_SITEST = "CREATE TABLE sitest (id INT PRIMARY KEY, value INT NOT NULL)";
    // First sent by the loader.
    LOAD_RECORD = "INSERT INTO sitest VALUES (?, ?)";
    // First sent by a transaction.
    MIN_VALUE = "SELECT MIN(value) AS m FROM sitest";
    UPDATE_RECORD = "UPDATE sitest SET value = value + 1 WHERE id = ?";
}

impl Workload for SiBench {
    fn name(&self) -> &'static str {
        "sibench"
    }

    fn class(&self) -> BenchmarkClass {
        BenchmarkClass::FeatureTesting
    }

    fn domain(&self) -> &'static str {
        "Transactional Isolation"
    }

    fn transaction_types(&self) -> Vec<TransactionType> {
        vec![
            TransactionType::new("MinRecord", 50.0, true),
            TransactionType::new("UpdateRecord", 50.0, false),
        ]
    }

    fn create_schema(&self, conn: &mut Connection) -> SqlResult<()> {
        create_schema(conn, STATEMENTS)
    }

    fn load(&self, conn: &mut Connection, scale: f64, _rng: &mut Rng) -> SqlResult<LoadSummary> {
        let n = ((BASE_ROWS as f64 * scale) as i64).max(10);
        for i in 0..n {
            conn.execute(LOAD_RECORD, &[p_i(i), p_i(i)])?;
        }
        self.rows.store(n, Ordering::Relaxed);
        Ok(LoadSummary { tables: 1, rows: n as u64 })
    }

    fn execute(&self, txn_idx: usize, conn: &mut Connection, rng: &mut Rng) -> SqlResult<TxnOutcome> {
        let n = self.rows.load(Ordering::Relaxed).max(1);
        match txn_idx {
            0 => run_txn(conn, |c| {
                c.query(MIN_VALUE, &[])?;
                Ok(TxnOutcome::Committed)
            }),
            1 => {
                let id = rng.int_range(0, n - 1);
                run_txn(conn, |c| {
                    c.execute(UPDATE_RECORD, &[p_i(id)])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            other => panic!("sibench has no transaction {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_storage::{Database, Personality};
    use std::sync::Arc;

    fn setup() -> (Arc<bp_storage::Database>, SiBench) {
        let db = Database::new(Personality::test());
        let w = SiBench::new();
        let mut conn = Connection::open(&db);
        w.setup(&mut conn, 1.0, &mut Rng::new(1)).unwrap();
        (db, w)
    }

    #[test]
    fn serializable_min_never_goes_backwards_under_concurrency() {
        // Readers and writers race; under serializable execution the minimum
        // observed by successive reads is monotonically non-decreasing
        // (values only increase). An SI anomaly would not show here, but a
        // broken lock manager would.
        let (db, w) = setup();
        let w = Arc::new(w);
        let writer_db = db.clone();
        let ww = w.clone();
        let writer = std::thread::spawn(move || {
            let mut conn = Connection::open(&writer_db);
            let mut rng = Rng::new(3);
            for _ in 0..300 {
                // Retry on wait-die aborts.
                loop {
                    match ww.execute(1, &mut conn, &mut rng) {
                        Ok(_) => break,
                        Err(e) if e.is_retryable() => continue,
                        Err(e) => panic!("{e}"),
                    }
                }
            }
        });
        let mut conn = Connection::open(&db);
        let mut last_min = -1i64;
        for _ in 0..50 {
            let m = loop {
                match conn.query("SELECT MIN(value) AS m FROM sitest", &[]) {
                    Ok(rs) => break rs.get_int(0, "m").unwrap(),
                    Err(e) if e.is_retryable() => continue,
                    Err(e) => panic!("{e}"),
                }
            };
            assert!(m >= last_min, "min went backwards: {m} < {last_min}");
            last_min = m;
        }
        writer.join().unwrap();
    }
}
