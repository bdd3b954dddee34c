//! Voter: the talent-show telephone-voting benchmark (Table 1,
//! Transactional). One transaction type (`Vote`) that validates the
//! contestant, enforces the per-phone vote limit, and records the vote —
//! the high-throughput benchmark used throughout the BenchPress demo.

use std::sync::atomic::{AtomicI64, Ordering};

use bp_core::{BenchmarkClass, LoadSummary, TransactionType, TxnOutcome, Workload};
use bp_sql::{Connection, Result as SqlResult};
use bp_util::rng::Rng;

use crate::helpers::{create_schema, p_i, p_s, run_txn, statements};

const NUM_CONTESTANTS: i64 = 12;
const MAX_VOTES_PER_PHONE: i64 = 10;
const BASE_AREA_CODES: i64 = 100;

pub struct Voter {
    vote_id: AtomicI64,
    area_codes: AtomicI64,
}

impl Default for Voter {
    fn default() -> Self {
        Voter::new()
    }
}

impl Voter {
    pub fn new() -> Voter {
        Voter { vote_id: AtomicI64::new(0), area_codes: AtomicI64::new(BASE_AREA_CODES) }
    }
}

statements! {
    // Schema, in creation order.
    CREATE_CONTESTANTS = "CREATE TABLE contestants (contestant_number INT PRIMARY KEY, \
        contestant_name VARCHAR(50) NOT NULL)";
    CREATE_AREA_CODE_STATE =
        "CREATE TABLE area_code_state (area_code INT PRIMARY KEY, state VARCHAR(2) NOT NULL)";
    CREATE_VOTES = "CREATE TABLE votes (vote_id INT PRIMARY KEY, phone_number INT NOT NULL, \
        state VARCHAR(2) NOT NULL, contestant_number INT NOT NULL, created INT NOT NULL)";
    CREATE_VOTES_PHONE_IDX = "CREATE INDEX idx_votes_phone ON votes (phone_number)";
    // First sent by the loader.
    LOAD_CONTESTANT = "INSERT INTO contestants VALUES (?, ?)";
    LOAD_AREA_CODE = "INSERT INTO area_code_state VALUES (?, ?)";
    // First sent by a transaction.
    CHECK_CONTESTANT = "SELECT contestant_number FROM contestants WHERE contestant_number = ?";
    CHECK_VOTE_COUNT = "SELECT COUNT(*) AS n FROM votes WHERE phone_number = ?";
    GET_STATE = "SELECT state FROM area_code_state WHERE area_code = ?";
    INSERT_VOTE = "INSERT INTO votes (vote_id, phone_number, state, contestant_number, created) \
        VALUES (?, ?, ?, ?, ?)";
}

impl Workload for Voter {
    fn name(&self) -> &'static str {
        "voter"
    }

    fn class(&self) -> BenchmarkClass {
        BenchmarkClass::Transactional
    }

    fn domain(&self) -> &'static str {
        "Talent Show Voting"
    }

    fn transaction_types(&self) -> Vec<TransactionType> {
        vec![TransactionType::new("Vote", 100.0, false)]
    }

    fn create_schema(&self, conn: &mut Connection) -> SqlResult<()> {
        create_schema(conn, STATEMENTS)
    }

    fn load(&self, conn: &mut Connection, scale: f64, rng: &mut Rng) -> SqlResult<LoadSummary> {
        const NAMES: [&str; 12] = [
            "Edwina Burnam", "Tabatha Gehling", "Kelly Clauss", "Jessie Alloway",
            "Alana Bregman", "Jessie Eichman", "Allie Rogalski", "Nita Coster",
            "Kurt Walser", "Ericka Dieter", "Loraine Nygren", "Tania Mattioli",
        ];
        for (i, name) in NAMES.iter().enumerate() {
            conn.execute(LOAD_CONTESTANT, &[p_i(i as i64 + 1), p_s(*name)])?;
        }
        let areas = ((BASE_AREA_CODES as f64 * scale) as i64).max(10);
        for code in 0..areas {
            conn.execute(LOAD_AREA_CODE, &[p_i(200 + code), p_s(bp_util::text::state(rng))])?;
        }
        self.area_codes.store(areas, Ordering::Relaxed);
        Ok(LoadSummary { tables: 3, rows: (NAMES.len() as i64 + areas) as u64 })
    }

    fn execute(&self, txn_idx: usize, conn: &mut Connection, rng: &mut Rng) -> SqlResult<TxnOutcome> {
        assert_eq!(txn_idx, 0, "voter has a single transaction type");
        let areas = self.area_codes.load(Ordering::Relaxed).max(1);
        let area_code = 200 + rng.int_range(0, areas - 1);
        let phone = area_code * 10_000_000 + rng.int_range(0, 9_999_999);
        // A small probability of an invalid contestant exercises the
        // user-abort path, like the original benchmark.
        let contestant = if rng.bool_with(0.001) {
            999
        } else {
            rng.int_range(1, NUM_CONTESTANTS)
        };
        let vote_id = self.vote_id.fetch_add(1, Ordering::Relaxed);

        run_txn(conn, |c| {
            let found = c.query(CHECK_CONTESTANT, &[p_i(contestant)])?;
            if found.is_empty() {
                return Ok(TxnOutcome::UserAborted);
            }
            let votes = c.query(CHECK_VOTE_COUNT, &[p_i(phone)])?.get_int(0, "n").unwrap_or(0);
            if votes >= MAX_VOTES_PER_PHONE {
                return Ok(TxnOutcome::UserAborted);
            }
            let state = c
                .query(GET_STATE, &[p_i(area_code)])?
                .get_str(0, "state")
                .unwrap_or("XX")
                .to_string();
            c.execute(
                INSERT_VOTE,
                &[p_i(vote_id), p_i(phone), p_s(state), p_i(contestant), p_i(0)],
            )?;
            Ok(TxnOutcome::Committed)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_storage::{Database, Personality};

    fn setup() -> (Voter, Connection) {
        let db = Database::new(Personality::test());
        let w = Voter::new();
        let mut conn = Connection::open(&db);
        w.setup(&mut conn, 1.0, &mut Rng::new(1)).unwrap();
        (w, conn)
    }

    #[test]
    fn contestants_loaded() {
        let (_, mut conn) = setup();
        let n = conn
            .query("SELECT COUNT(*) AS n FROM contestants", &[])
            .unwrap()
            .get_int(0, "n")
            .unwrap();
        assert_eq!(n, 12);
    }

    #[test]
    fn votes_accumulate() {
        let (w, mut conn) = setup();
        let mut rng = Rng::new(2);
        let mut committed = 0;
        for _ in 0..200 {
            if w.execute(0, &mut conn, &mut rng).unwrap() == TxnOutcome::Committed {
                committed += 1;
            }
        }
        let n = conn
            .query("SELECT COUNT(*) AS n FROM votes", &[])
            .unwrap()
            .get_int(0, "n")
            .unwrap();
        assert_eq!(n, committed);
        assert!(committed > 150);
    }

    #[test]
    fn votes_reference_valid_contestants() {
        let (w, mut conn) = setup();
        let mut rng = Rng::new(3);
        for _ in 0..100 {
            w.execute(0, &mut conn, &mut rng).unwrap();
        }
        let rs = conn
            .query(
                "SELECT COUNT(*) AS n FROM votes WHERE contestant_number < 1 OR contestant_number > 12",
                &[],
            )
            .unwrap();
        assert_eq!(rs.get_int(0, "n"), Some(0));
    }
}
