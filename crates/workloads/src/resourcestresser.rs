//! ResourceStresser: the isolated-resource stress benchmark (Table 1,
//! Feature Testing). Each transaction type stresses one server resource in
//! isolation: CPU (expensive in-transaction computation), disk IO (large
//! scattered writes), and lock contention (hot-row updates).

use std::sync::atomic::{AtomicI64, Ordering};

use bp_core::{BenchmarkClass, LoadSummary, TransactionType, TxnOutcome, Workload};
use bp_sql::{Connection, Result as SqlResult};
use bp_util::rng::Rng;

use crate::helpers::{create_schema, p_i, p_s, run_txn, statements};

const IO_ROWS: i64 = 1_000;
const LOCK_ROWS: i64 = 10;
const CPU_ROWS: i64 = 50;

pub struct ResourceStresser {
    io_rows: AtomicI64,
}

impl Default for ResourceStresser {
    fn default() -> Self {
        ResourceStresser::new()
    }
}

impl ResourceStresser {
    pub fn new() -> ResourceStresser {
        ResourceStresser { io_rows: AtomicI64::new(IO_ROWS) }
    }
}

statements! {
    // Schema, in creation order.
    CREATE_IOTABLE = "CREATE TABLE iotable (id INT PRIMARY KEY, data VARCHAR(255) NOT NULL)";
    CREATE_CPUTABLE = "CREATE TABLE cputable (id INT PRIMARY KEY, seed INT NOT NULL)";
    CREATE_LOCKTABLE = "CREATE TABLE locktable (id INT PRIMARY KEY, counter INT NOT NULL)";
    // First sent by the loader.
    LOAD_IO = "INSERT INTO iotable VALUES (?, ?)";
    LOAD_CPU = "INSERT INTO cputable VALUES (?, ?)";
    LOAD_LOCK = "INSERT INTO locktable VALUES (?, 0)";
    // First sent by a transaction.
    CPU_READ = "SELECT seed FROM cputable WHERE id = ?";
    IO_READ = "SELECT data FROM iotable WHERE id >= ? AND id < ?";
    IO_WRITE = "UPDATE iotable SET data = ? WHERE id = ?";
    LOCK_BUMP = "UPDATE locktable SET counter = counter + 1 WHERE id = ?";
}

/// Deliberately CPU-heavy pure computation (iterated mixing).
fn burn_cpu(seed: i64, rounds: u32) -> u64 {
    let mut acc = seed as u64 ^ 0x9E37_79B9_7F4A_7C15;
    for _ in 0..rounds {
        acc = bp_util::rng::mix64(acc);
    }
    acc
}

impl Workload for ResourceStresser {
    fn name(&self) -> &'static str {
        "resourcestresser"
    }

    fn class(&self) -> BenchmarkClass {
        BenchmarkClass::FeatureTesting
    }

    fn domain(&self) -> &'static str {
        "Isolated Resource Stresser"
    }

    fn transaction_types(&self) -> Vec<TransactionType> {
        vec![
            TransactionType::new("CPU1", 17.0, true),
            TransactionType::new("CPU2", 17.0, true),
            TransactionType::new("IO1", 17.0, true),
            TransactionType::new("IO2", 17.0, false),
            TransactionType::new("Contention1", 16.0, false),
            TransactionType::new("Contention2", 16.0, false),
        ]
    }

    fn create_schema(&self, conn: &mut Connection) -> SqlResult<()> {
        create_schema(conn, STATEMENTS)
    }

    fn load(&self, conn: &mut Connection, scale: f64, rng: &mut Rng) -> SqlResult<LoadSummary> {
        let io = ((IO_ROWS as f64 * scale) as i64).max(100);
        for i in 0..io {
            conn.execute(LOAD_IO, &[p_i(i), p_s(rng.astring(100, 255))])?;
        }
        for i in 0..CPU_ROWS {
            conn.execute(LOAD_CPU, &[p_i(i), p_i(rng.int_range(1, 1_000_000))])?;
        }
        for i in 0..LOCK_ROWS {
            conn.execute(LOAD_LOCK, &[p_i(i)])?;
        }
        self.io_rows.store(io, Ordering::Relaxed);
        Ok(LoadSummary { tables: 3, rows: (io + CPU_ROWS + LOCK_ROWS) as u64 })
    }

    fn execute(&self, txn_idx: usize, conn: &mut Connection, rng: &mut Rng) -> SqlResult<TxnOutcome> {
        let io_rows = self.io_rows.load(Ordering::Relaxed);
        match txn_idx {
            // CPU1/CPU2: small read + heavy computation inside the txn.
            0 | 1 => {
                let id = rng.int_range(0, CPU_ROWS - 1);
                let rounds = if txn_idx == 0 { 2_000 } else { 10_000 };
                run_txn(conn, |c| {
                    let seed = c.query(CPU_READ, &[p_i(id)])?.get_int(0, "seed").unwrap_or(1);
                    let digest = burn_cpu(seed, rounds);
                    // Keep the optimizer honest: the digest flows into a
                    // predicate so the loop cannot be eliminated.
                    if digest == 0 {
                        return Ok(TxnOutcome::UserAborted);
                    }
                    Ok(TxnOutcome::Committed)
                })
            }
            // IO1: read a large contiguous range.
            2 => {
                let start = rng.int_range(0, (io_rows - 100).max(1));
                run_txn(conn, |c| {
                    c.query(IO_READ, &[p_i(start), p_i(start + 100)])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            // IO2: scattered writes across many pages.
            3 => {
                let ids: Vec<i64> = (0..10).map(|_| rng.int_range(0, io_rows - 1)).collect();
                let data = rng.astring(100, 255);
                run_txn(conn, |c| {
                    for id in &ids {
                        c.execute(IO_WRITE, &[p_s(data.clone()), p_i(*id)])?;
                    }
                    Ok(TxnOutcome::Committed)
                })
            }
            // Contention1: bump a single hot row.
            4 => {
                let id = rng.int_range(0, 1); // two hottest rows
                run_txn(conn, |c| {
                    c.execute(LOCK_BUMP, &[p_i(id)])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            // Contention2: bump two hot rows in a fixed order.
            5 => {
                let a = rng.int_range(0, LOCK_ROWS - 2);
                let b = a + 1;
                run_txn(conn, |c| {
                    c.execute(LOCK_BUMP, &[p_i(a)])?;
                    c.execute(LOCK_BUMP, &[p_i(b)])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            other => panic!("resourcestresser has no transaction {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_storage::{Database, Personality};

    fn setup() -> (ResourceStresser, Connection) {
        let db = Database::new(Personality::test());
        let w = ResourceStresser::new();
        let mut conn = Connection::open(&db);
        w.setup(&mut conn, 0.2, &mut Rng::new(1)).unwrap();
        (w, conn)
    }

    #[test]
    fn contention_counters_advance() {
        let (w, mut conn) = setup();
        let mut rng = Rng::new(3);
        for _ in 0..30 {
            w.execute(4, &mut conn, &mut rng).unwrap();
        }
        let total = conn
            .query("SELECT SUM(counter) AS t FROM locktable", &[])
            .unwrap()
            .get_int(0, "t")
            .unwrap();
        assert_eq!(total, 30);
    }

    #[test]
    fn burn_cpu_is_deterministic_and_nonzero() {
        assert_eq!(burn_cpu(42, 1000), burn_cpu(42, 1000));
        assert_ne!(burn_cpu(42, 1000), 0);
        assert_ne!(burn_cpu(42, 1000), burn_cpu(43, 1000));
    }

    #[test]
    fn io_writes_touch_many_rows() {
        let (w, mut conn) = setup();
        let mut rng = Rng::new(4);
        let before = conn.database().metrics().snapshot().rows_written;
        for _ in 0..5 {
            w.execute(3, &mut conn, &mut rng).unwrap();
        }
        let after = conn.database().metrics().snapshot().rows_written;
        assert!(after - before >= 40, "only {} rows written", after - before);
    }
}
