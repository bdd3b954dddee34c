//! YCSB: the Yahoo! Cloud Serving Benchmark ("Scalable Key-value Store",
//! Table 1, Feature Testing).
//!
//! One `usertable` with a key and 10 value fields; operations Read, Update,
//! Insert, Scan, ReadModifyWrite and Delete over a zipfian key
//! distribution.

use std::sync::atomic::{AtomicI64, Ordering};

use bp_core::{BenchmarkClass, LoadSummary, TransactionType, TxnOutcome, Workload};
use bp_sql::{Connection, Result as SqlResult};
use bp_util::rng::{Rng, Zipf};

use crate::helpers::{create_schema, p_i, p_s, run_txn, statements};

const FIELDS: usize = 10;
const BASE_RECORDS: i64 = 1_000;
const ZIPF_THETA: f64 = 0.9;

pub struct Ycsb {
    records: AtomicI64,
    zipf: Zipf,
}

impl Default for Ycsb {
    fn default() -> Self {
        Ycsb::new()
    }
}

impl Ycsb {
    pub fn new() -> Ycsb {
        Ycsb { records: AtomicI64::new(0), zipf: Zipf::new(BASE_RECORDS as u64, ZIPF_THETA) }
    }

    fn key(&self, rng: &mut Rng) -> i64 {
        let n = self.records.load(Ordering::Relaxed).max(1) as u64;
        // Zipf over the loaded domain, clamped in case of deletes.
        (self.zipf.sample(rng) % n) as i64
    }
}

statements! {
    // Schema, in creation order.
    CREATE_USERTABLE = "CREATE TABLE usertable (ycsb_key INT PRIMARY KEY, field0 VARCHAR(100), \
        field1 VARCHAR(100), field2 VARCHAR(100), field3 VARCHAR(100), field4 VARCHAR(100), \
        field5 VARCHAR(100), field6 VARCHAR(100), field7 VARCHAR(100), field8 VARCHAR(100), \
        field9 VARCHAR(100))";
    // First sent by the loader.
    INSERT = "INSERT INTO usertable VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)";
    // First sent by a transaction.
    READ = "SELECT * FROM usertable WHERE ycsb_key = ?";
    UPDATE = "UPDATE usertable SET field0 = ? WHERE ycsb_key = ?";
    SCAN = "SELECT * FROM usertable WHERE ycsb_key >= ? AND ycsb_key < ? LIMIT 100";
    RMW_READ = "SELECT * FROM usertable WHERE ycsb_key = ? FOR UPDATE";
    RMW_WRITE = "UPDATE usertable SET field1 = ? WHERE ycsb_key = ?";
    DELETE = "DELETE FROM usertable WHERE ycsb_key = ?";
}

fn field(rng: &mut Rng) -> bp_storage::Value {
    p_s(rng.astring(32, 100))
}

impl Workload for Ycsb {
    fn name(&self) -> &'static str {
        "ycsb"
    }

    fn class(&self) -> BenchmarkClass {
        BenchmarkClass::FeatureTesting
    }

    fn domain(&self) -> &'static str {
        "Scalable Key-value Store"
    }

    fn transaction_types(&self) -> Vec<TransactionType> {
        vec![
            TransactionType::new("Read", 50.0, true),
            TransactionType::new("Update", 35.0, false),
            TransactionType::new("Insert", 5.0, false),
            TransactionType::new("Scan", 5.0, true),
            TransactionType::new("ReadModifyWrite", 4.0, false),
            TransactionType::new("Delete", 1.0, false),
        ]
    }

    fn create_schema(&self, conn: &mut Connection) -> SqlResult<()> {
        create_schema(conn, STATEMENTS)
    }

    fn load(&self, conn: &mut Connection, scale: f64, rng: &mut Rng) -> SqlResult<LoadSummary> {
        let n = ((BASE_RECORDS as f64 * scale) as i64).max(10);
        for key in 0..n {
            let mut params = Vec::with_capacity(FIELDS + 1);
            params.push(p_i(key));
            for _ in 0..FIELDS {
                params.push(field(rng));
            }
            conn.execute(INSERT, &params)?;
        }
        self.records.store(n, Ordering::Relaxed);
        Ok(LoadSummary { tables: 1, rows: n as u64 })
    }

    fn execute(&self, txn_idx: usize, conn: &mut Connection, rng: &mut Rng) -> SqlResult<TxnOutcome> {
        let key = self.key(rng);
        match txn_idx {
            0 => run_txn(conn, |c| {
                c.query(READ, &[p_i(key)])?;
                Ok(TxnOutcome::Committed)
            }),
            1 => {
                let v = field(rng);
                run_txn(conn, |c| {
                    c.execute(UPDATE, &[v, p_i(key)])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            2 => {
                let new_key = self.records.fetch_add(1, Ordering::Relaxed);
                let mut params = Vec::with_capacity(FIELDS + 1);
                params.push(p_i(new_key));
                for _ in 0..FIELDS {
                    params.push(field(rng));
                }
                run_txn(conn, |c| {
                    c.execute(INSERT, &params)?;
                    Ok(TxnOutcome::Committed)
                })
            }
            3 => {
                let span = rng.int_range(10, 100);
                run_txn(conn, |c| {
                    c.query(SCAN, &[p_i(key), p_i(key + span)])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            4 => {
                let v = field(rng);
                run_txn(conn, |c| {
                    c.query(RMW_READ, &[p_i(key)])?;
                    c.execute(RMW_WRITE, &[v, p_i(key)])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            5 => run_txn(conn, |c| {
                c.execute(DELETE, &[p_i(key)])?;
                Ok(TxnOutcome::Committed)
            }),
            other => panic!("ycsb has no transaction {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_storage::{Database, Personality};

    fn setup() -> (Ycsb, Connection) {
        let db = Database::new(Personality::test());
        let w = Ycsb::new();
        let mut conn = Connection::open(&db);
        w.create_schema(&mut conn).unwrap();
        w.load(&mut conn, 0.1, &mut Rng::new(1)).unwrap();
        (w, conn)
    }

    #[test]
    fn load_scales() {
        let (_, mut conn) = setup();
        let n = conn
            .query("SELECT COUNT(*) AS n FROM usertable", &[])
            .unwrap()
            .get_int(0, "n")
            .unwrap();
        assert_eq!(n, 100);
    }

    #[test]
    fn insert_grows_table() {
        let (w, mut conn) = setup();
        let mut rng = Rng::new(3);
        let before = conn.query("SELECT COUNT(*) AS n FROM usertable", &[]).unwrap().get_int(0, "n").unwrap();
        for _ in 0..10 {
            w.execute(2, &mut conn, &mut rng).unwrap();
        }
        let after = conn.query("SELECT COUNT(*) AS n FROM usertable", &[]).unwrap().get_int(0, "n").unwrap();
        assert_eq!(after, before + 10);
    }

    #[test]
    fn zipf_keys_skewed() {
        let (w, _) = setup();
        let mut rng = Rng::new(4);
        let head = (0..10_000).filter(|_| w.key(&mut rng) < 10).count();
        assert!(head > 1_000, "zipf head share too small: {head}");
    }
}
