//! JPAB: the JPA (object-relational mapping) benchmark (Table 1, Feature
//! Testing). Emulates an ORM's entity lifecycle — persist / retrieve /
//! update / delete of simple entity rows, each in its own transaction, the
//! access pattern a JPA provider generates.

use std::sync::atomic::{AtomicI64, Ordering};

use bp_core::{BenchmarkClass, LoadSummary, TransactionType, TxnOutcome, Workload};
use bp_sql::{Connection, Result as SqlResult};
use bp_util::rng::Rng;

use crate::helpers::{create_schema, p_f, p_i, p_s, run_txn, statements};

const BASE_ENTITIES: i64 = 500;

pub struct Jpab {
    next_id: AtomicI64,
}

impl Default for Jpab {
    fn default() -> Self {
        Jpab::new()
    }
}

impl Jpab {
    pub fn new() -> Jpab {
        Jpab { next_id: AtomicI64::new(BASE_ENTITIES) }
    }

    fn existing(&self, rng: &mut Rng) -> i64 {
        rng.int_range(0, self.next_id.load(Ordering::Relaxed).max(1) - 1)
    }
}

statements! {
    // Schema, in creation order.
    CREATE_PERSON = "CREATE TABLE jpab_person (id INT PRIMARY KEY, first_name VARCHAR(32), \
        last_name VARCHAR(32), phone VARCHAR(16), balance FLOAT, version INT NOT NULL)";
    // First sent by the loader.
    PERSIST = "INSERT INTO jpab_person VALUES (?, ?, ?, ?, ?, 0)";
    // First sent by a transaction.
    RETRIEVE = "SELECT * FROM jpab_person WHERE id = ?";
    MERGE_LOCK = "SELECT version FROM jpab_person WHERE id = ? FOR UPDATE";
    MERGE = "UPDATE jpab_person SET phone = ?, version = version + 1 WHERE id = ?";
    REMOVE = "DELETE FROM jpab_person WHERE id = ?";
}

impl Workload for Jpab {
    fn name(&self) -> &'static str {
        "jpab"
    }

    fn class(&self) -> BenchmarkClass {
        BenchmarkClass::FeatureTesting
    }

    fn domain(&self) -> &'static str {
        "Object-Relational Mapping"
    }

    fn transaction_types(&self) -> Vec<TransactionType> {
        vec![
            TransactionType::new("Persist", 25.0, false),
            TransactionType::new("Retrieve", 40.0, true),
            TransactionType::new("Update", 25.0, false),
            TransactionType::new("Delete", 10.0, false),
        ]
    }

    fn create_schema(&self, conn: &mut Connection) -> SqlResult<()> {
        create_schema(conn, STATEMENTS)
    }

    fn load(&self, conn: &mut Connection, scale: f64, rng: &mut Rng) -> SqlResult<LoadSummary> {
        let n = ((BASE_ENTITIES as f64 * scale) as i64).max(20);
        for id in 0..n {
            conn.execute(
                PERSIST,
                &[
                    p_i(id),
                    p_s(bp_util::text::first_name(rng)),
                    p_s(bp_util::text::last_name(rng)),
                    p_s(bp_util::text::phone(rng)),
                    p_f(rng.f64_range(0.0, 1_000.0)),
                ],
            )?;
        }
        self.next_id.store(n, Ordering::Relaxed);
        Ok(LoadSummary { tables: 1, rows: n as u64 })
    }

    fn execute(&self, txn_idx: usize, conn: &mut Connection, rng: &mut Rng) -> SqlResult<TxnOutcome> {
        match txn_idx {
            0 => {
                let id = self.next_id.fetch_add(1, Ordering::Relaxed);
                let first = bp_util::text::first_name(rng);
                let last = bp_util::text::last_name(rng);
                let phone = bp_util::text::phone(rng);
                let bal = rng.f64_range(0.0, 1_000.0);
                run_txn(conn, |c| {
                    c.execute(
                        PERSIST,
                        &[p_i(id), p_s(first.clone()), p_s(last.clone()), p_s(phone.clone()), p_f(bal)],
                    )?;
                    Ok(TxnOutcome::Committed)
                })
            }
            1 => {
                let id = self.existing(rng);
                run_txn(conn, |c| {
                    let rs = c.query(RETRIEVE, &[p_i(id)])?;
                    Ok(if rs.is_empty() { TxnOutcome::UserAborted } else { TxnOutcome::Committed })
                })
            }
            2 => {
                // ORM merge: optimistic-locking style read + versioned write.
                let id = self.existing(rng);
                let phone = bp_util::text::phone(rng);
                run_txn(conn, |c| {
                    let rs = c.query(MERGE_LOCK, &[p_i(id)])?;
                    if rs.is_empty() {
                        return Ok(TxnOutcome::UserAborted);
                    }
                    c.execute(MERGE, &[p_s(phone.clone()), p_i(id)])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            3 => {
                let id = self.existing(rng);
                run_txn(conn, |c| {
                    let n = c.execute(REMOVE, &[p_i(id)])?.affected();
                    Ok(if n == 0 { TxnOutcome::UserAborted } else { TxnOutcome::Committed })
                })
            }
            other => panic!("jpab has no transaction {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_storage::{Database, Personality};

    fn setup() -> (Jpab, Connection) {
        let db = Database::new(Personality::test());
        let w = Jpab::new();
        let mut conn = Connection::open(&db);
        w.setup(&mut conn, 0.2, &mut Rng::new(1)).unwrap();
        (w, conn)
    }

    #[test]
    fn version_bumps_on_update() {
        let (w, mut conn) = setup();
        let mut rng = Rng::new(3);
        for _ in 0..50 {
            w.execute(2, &mut conn, &mut rng).unwrap();
        }
        let max_v = conn
            .query("SELECT MAX(version) AS v FROM jpab_person", &[])
            .unwrap()
            .get_int(0, "v")
            .unwrap();
        assert!(max_v >= 1);
    }

    #[test]
    fn persist_then_delete_balances() {
        let (w, mut conn) = setup();
        let mut rng = Rng::new(4);
        let before = conn.query("SELECT COUNT(*) AS n FROM jpab_person", &[]).unwrap().get_int(0, "n").unwrap();
        let mut delta = 0i64;
        for _ in 0..40 {
            if w.execute(0, &mut conn, &mut rng).unwrap() == TxnOutcome::Committed {
                delta += 1;
            }
            if w.execute(3, &mut conn, &mut rng).unwrap() == TxnOutcome::Committed {
                delta -= 1;
            }
        }
        let after = conn.query("SELECT COUNT(*) AS n FROM jpab_person", &[]).unwrap().get_int(0, "n").unwrap();
        assert_eq!(after - before, delta);
    }
}
