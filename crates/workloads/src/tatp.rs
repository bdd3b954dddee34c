//! TATP: the Telecom Application Transaction Processing benchmark
//! ("Caller Location App", Table 1, Transactional).
//!
//! Subscriber / access-info / special-facility / call-forwarding tables
//! with the canonical 7-transaction mix (80% reads, 20% writes).

use std::sync::atomic::{AtomicI64, Ordering};

use bp_core::{BenchmarkClass, LoadSummary, TransactionType, TxnOutcome, Workload};
use bp_sql::{Connection, Result as SqlResult};
use bp_util::rng::Rng;

use crate::helpers::{create_schema, p_i, p_s, run_txn, statements};

const BASE_SUBSCRIBERS: i64 = 1_000;

pub struct Tatp {
    subscribers: AtomicI64,
}

impl Default for Tatp {
    fn default() -> Self {
        Tatp::new()
    }
}

impl Tatp {
    pub fn new() -> Tatp {
        Tatp { subscribers: AtomicI64::new(BASE_SUBSCRIBERS) }
    }

    fn sid(&self, rng: &mut Rng) -> i64 {
        rng.int_range(1, self.subscribers.load(Ordering::Relaxed).max(1))
    }
}

statements! {
    // Schema, in creation order.
    CREATE_SUBSCRIBER = "CREATE TABLE subscriber (s_id INT PRIMARY KEY, \
        sub_nbr VARCHAR(15) NOT NULL, bit_1 INT, hex_1 INT, byte2_1 INT, msc_location INT, \
        vlr_location INT)";
    CREATE_SUBSCRIBER_NBR_IDX = "CREATE UNIQUE INDEX idx_sub_nbr ON subscriber (sub_nbr)";
    CREATE_ACCESS_INFO = "CREATE TABLE access_info (s_id INT NOT NULL, ai_type INT NOT NULL, \
        data1 INT, data2 INT, data3 VARCHAR(3), data4 VARCHAR(5), PRIMARY KEY (s_id, ai_type))";
    CREATE_SPECIAL_FACILITY = "CREATE TABLE special_facility (s_id INT NOT NULL, \
        sf_type INT NOT NULL, is_active INT NOT NULL, error_cntrl INT, data_a INT, \
        data_b VARCHAR(5), PRIMARY KEY (s_id, sf_type))";
    CREATE_CALL_FORWARDING = "CREATE TABLE call_forwarding (s_id INT NOT NULL, \
        sf_type INT NOT NULL, start_time INT NOT NULL, end_time INT, numberx VARCHAR(15), \
        PRIMARY KEY (s_id, sf_type, start_time))";
    // First sent by the loader.
    LOAD_SUBSCRIBER = "INSERT INTO subscriber VALUES (?, ?, ?, ?, ?, ?, ?)";
    LOAD_ACCESS_INFO = "INSERT INTO access_info VALUES (?, ?, ?, ?, ?, ?)";
    LOAD_SPECIAL_FACILITY = "INSERT INTO special_facility VALUES (?, ?, ?, ?, ?, ?)";
    INSERT_CALL_FORWARDING = "INSERT INTO call_forwarding VALUES (?, ?, ?, ?, ?)";
    // First sent by a transaction.
    GET_SUBSCRIBER = "SELECT * FROM subscriber WHERE s_id = ?";
    GET_NEW_DESTINATION = "SELECT cf.numberx FROM special_facility sf JOIN call_forwarding cf \
        ON sf.s_id = cf.s_id WHERE sf.s_id = ? AND sf.sf_type = ? AND sf.is_active = 1 \
        AND cf.sf_type = ? AND cf.start_time <= ? AND cf.end_time > ?";
    GET_ACCESS_DATA =
        "SELECT data1, data2, data3, data4 FROM access_info WHERE s_id = ? AND ai_type = ?";
    UPDATE_SUBSCRIBER_BIT = "UPDATE subscriber SET bit_1 = ? WHERE s_id = ?";
    UPDATE_SPECIAL_FACILITY =
        "UPDATE special_facility SET data_a = ? WHERE s_id = ? AND sf_type = ?";
    UPDATE_LOCATION = "UPDATE subscriber SET vlr_location = ? WHERE sub_nbr = ?";
    CHECK_SPECIAL_FACILITY = "SELECT sf_type FROM special_facility WHERE s_id = ? AND sf_type = ?";
    DELETE_CALL_FORWARDING =
        "DELETE FROM call_forwarding WHERE s_id = ? AND sf_type = ? AND start_time = ?";
}

fn sub_nbr(s_id: i64) -> String {
    format!("{s_id:015}")
}

impl Workload for Tatp {
    fn name(&self) -> &'static str {
        "tatp"
    }

    fn class(&self) -> BenchmarkClass {
        BenchmarkClass::Transactional
    }

    fn domain(&self) -> &'static str {
        "Caller Location App"
    }

    fn transaction_types(&self) -> Vec<TransactionType> {
        vec![
            TransactionType::new("GetSubscriberData", 35.0, true),
            TransactionType::new("GetNewDestination", 10.0, true),
            TransactionType::new("GetAccessData", 35.0, true),
            TransactionType::new("UpdateSubscriberData", 2.0, false),
            TransactionType::new("UpdateLocation", 14.0, false),
            TransactionType::new("InsertCallForwarding", 2.0, false),
            TransactionType::new("DeleteCallForwarding", 2.0, false),
        ]
    }

    fn create_schema(&self, conn: &mut Connection) -> SqlResult<()> {
        create_schema(conn, STATEMENTS)
    }

    fn load(&self, conn: &mut Connection, scale: f64, rng: &mut Rng) -> SqlResult<LoadSummary> {
        let n = ((BASE_SUBSCRIBERS as f64 * scale) as i64).max(10);
        let mut rows = 0u64;
        for s in 1..=n {
            conn.execute(
                LOAD_SUBSCRIBER,
                &[
                    p_i(s),
                    p_s(sub_nbr(s)),
                    p_i(rng.int_range(0, 1)),
                    p_i(rng.int_range(0, 15)),
                    p_i(rng.int_range(0, 255)),
                    p_i(rng.int_range(0, i32::MAX as i64)),
                    p_i(rng.int_range(0, i32::MAX as i64)),
                ],
            )?;
            rows += 1;
            // 1-4 access-info rows.
            for ai in 1..=rng.int_range(1, 4) {
                conn.execute(
                    LOAD_ACCESS_INFO,
                    &[
                        p_i(s),
                        p_i(ai),
                        p_i(rng.int_range(0, 255)),
                        p_i(rng.int_range(0, 255)),
                        p_s(rng.astring(3, 3)),
                        p_s(rng.astring(5, 5)),
                    ],
                )?;
                rows += 1;
            }
            // 1-4 special facilities, each with 0-3 call forwardings.
            for sf in 1..=rng.int_range(1, 4) {
                conn.execute(
                    LOAD_SPECIAL_FACILITY,
                    &[
                        p_i(s),
                        p_i(sf),
                        p_i(if rng.bool_with(0.85) { 1 } else { 0 }),
                        p_i(rng.int_range(0, 255)),
                        p_i(rng.int_range(0, 255)),
                        p_s(rng.astring(5, 5)),
                    ],
                )?;
                rows += 1;
                for start in [0i64, 8, 16].iter().take(rng.int_range(0, 3) as usize) {
                    conn.execute(
                        INSERT_CALL_FORWARDING,
                        &[
                            p_i(s),
                            p_i(sf),
                            p_i(*start),
                            p_i(*start + 8),
                            p_s(sub_nbr(rng.int_range(1, n))),
                        ],
                    )?;
                    rows += 1;
                }
            }
        }
        self.subscribers.store(n, Ordering::Relaxed);
        Ok(LoadSummary { tables: 4, rows })
    }

    fn execute(&self, txn_idx: usize, conn: &mut Connection, rng: &mut Rng) -> SqlResult<TxnOutcome> {
        let s = self.sid(rng);
        match txn_idx {
            0 => run_txn(conn, |c| {
                c.query(GET_SUBSCRIBER, &[p_i(s)])?;
                Ok(TxnOutcome::Committed)
            }),
            1 => {
                let sf = p_i(rng.int_range(1, 4));
                let time = p_i(rng.int_range(0, 23));
                run_txn(conn, |c| {
                    let rs = c.query(
                        GET_NEW_DESTINATION,
                        &[p_i(s), sf.clone(), sf.clone(), time.clone(), time.clone()],
                    )?;
                    Ok(if rs.is_empty() { TxnOutcome::UserAborted } else { TxnOutcome::Committed })
                })
            }
            2 => {
                let ai = p_i(rng.int_range(1, 4));
                run_txn(conn, |c| {
                    let rs = c.query(GET_ACCESS_DATA, &[p_i(s), ai])?;
                    Ok(if rs.is_empty() { TxnOutcome::UserAborted } else { TxnOutcome::Committed })
                })
            }
            3 => {
                let bit = p_i(rng.int_range(0, 1));
                let data_a = p_i(rng.int_range(0, 255));
                let sf = p_i(rng.int_range(1, 4));
                run_txn(conn, |c| {
                    c.execute(UPDATE_SUBSCRIBER_BIT, &[bit, p_i(s)])?;
                    let n = c.execute(UPDATE_SPECIAL_FACILITY, &[data_a, p_i(s), sf])?.affected();
                    Ok(if n == 0 { TxnOutcome::UserAborted } else { TxnOutcome::Committed })
                })
            }
            4 => {
                let loc = p_i(rng.int_range(0, i32::MAX as i64));
                run_txn(conn, |c| {
                    c.execute(UPDATE_LOCATION, &[loc, p_s(sub_nbr(s))])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            5 => {
                let sf = rng.int_range(1, 4);
                let start = *rng.choose(&[0i64, 8, 16]);
                run_txn(conn, |c| {
                    let active = c.query(CHECK_SPECIAL_FACILITY, &[p_i(s), p_i(sf)])?;
                    if active.is_empty() {
                        return Ok(TxnOutcome::UserAborted);
                    }
                    match c.execute(
                        INSERT_CALL_FORWARDING,
                        &[p_i(s), p_i(sf), p_i(start), p_i(start + 8), p_s(sub_nbr(s))],
                    ) {
                        Ok(_) => Ok(TxnOutcome::Committed),
                        // Duplicate key: the TATP spec expects this as a
                        // benchmark-level abort.
                        Err(bp_sql::SqlError::Storage(bp_storage::StorageError::DuplicateKey { .. })) => {
                            Ok(TxnOutcome::UserAborted)
                        }
                        Err(e) => Err(e),
                    }
                })
            }
            6 => {
                let sf = p_i(rng.int_range(1, 4));
                let start = p_i(*rng.choose(&[0i64, 8, 16]));
                run_txn(conn, |c| {
                    let n = c.execute(DELETE_CALL_FORWARDING, &[p_i(s), sf, start])?.affected();
                    Ok(if n == 0 { TxnOutcome::UserAborted } else { TxnOutcome::Committed })
                })
            }
            other => panic!("tatp has no transaction {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_storage::{Database, Personality};

    fn setup() -> (Tatp, Connection) {
        let db = Database::new(Personality::test());
        let w = Tatp::new();
        let mut conn = Connection::open(&db);
        w.setup(&mut conn, 0.1, &mut Rng::new(1)).unwrap();
        (w, conn)
    }

    #[test]
    fn update_location_by_secondary_index() {
        let (w, mut conn) = setup();
        let mut rng = Rng::new(3);
        for _ in 0..10 {
            assert_eq!(w.execute(4, &mut conn, &mut rng).unwrap(), TxnOutcome::Committed);
        }
    }

    #[test]
    fn insert_then_delete_call_forwarding() {
        let (w, mut conn) = setup();
        let mut rng = Rng::new(4);
        let mut committed_insert = false;
        let mut committed_delete = false;
        for _ in 0..200 {
            if w.execute(5, &mut conn, &mut rng).unwrap() == TxnOutcome::Committed {
                committed_insert = true;
            }
            if w.execute(6, &mut conn, &mut rng).unwrap() == TxnOutcome::Committed {
                committed_delete = true;
            }
        }
        assert!(committed_insert && committed_delete);
    }
}
