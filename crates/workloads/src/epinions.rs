//! Epinions: the consumer-review social network (Table 1, Web-Oriented).
//!
//! Users, items, reviews and a trust graph, with the original nine
//! transaction types (five reads over the review/trust join structure,
//! four updates).

use std::sync::atomic::{AtomicI64, Ordering};

use bp_core::{BenchmarkClass, LoadSummary, TransactionType, TxnOutcome, Workload};
use bp_sql::{Connection, Result as SqlResult};
use bp_util::rng::Rng;

use crate::helpers::{create_schema, p_i, p_s, run_txn, statements};

const BASE_USERS: i64 = 200;
const BASE_ITEMS: i64 = 200;
const REVIEWS_PER_ITEM: i64 = 5;
const TRUST_PER_USER: i64 = 10;

pub struct Epinions {
    users: AtomicI64,
    items: AtomicI64,
}

impl Default for Epinions {
    fn default() -> Self {
        Epinions::new()
    }
}

impl Epinions {
    pub fn new() -> Epinions {
        Epinions { users: AtomicI64::new(BASE_USERS), items: AtomicI64::new(BASE_ITEMS) }
    }

    fn user(&self, rng: &mut Rng) -> i64 {
        rng.int_range(0, self.users.load(Ordering::Relaxed).max(1) - 1)
    }

    fn item(&self, rng: &mut Rng) -> i64 {
        rng.int_range(0, self.items.load(Ordering::Relaxed).max(1) - 1)
    }
}

statements! {
    // Schema, in creation order.
    CREATE_USERACCT = "CREATE TABLE ep_user (u_id INT PRIMARY KEY, name VARCHAR(32) NOT NULL)";
    CREATE_ITEM = "CREATE TABLE ep_item (i_id INT PRIMARY KEY, title VARCHAR(64) NOT NULL)";
    CREATE_REVIEW = "CREATE TABLE review (a_id INT PRIMARY KEY, u_id INT NOT NULL, \
        i_id INT NOT NULL, rating INT NOT NULL, comment VARCHAR(256))";
    CREATE_REVIEW_ITEM_IDX = "CREATE INDEX idx_review_item ON review (i_id)";
    CREATE_REVIEW_USER_IDX = "CREATE INDEX idx_review_user ON review (u_id)";
    CREATE_TRUST = "CREATE TABLE trust (source_u_id INT NOT NULL, target_u_id INT NOT NULL, \
        trust INT NOT NULL, PRIMARY KEY (source_u_id, target_u_id))";
    // First sent by the loader.
    LOAD_USER = "INSERT INTO ep_user VALUES (?, ?)";
    LOAD_ITEM = "INSERT INTO ep_item VALUES (?, ?)";
    LOAD_REVIEW = "INSERT INTO review VALUES (?, ?, ?, ?, ?)";
    LOAD_TRUST = "INSERT INTO trust VALUES (?, ?, ?)";
    // First sent by a transaction.
    GET_REVIEW_BY_ITEM = "SELECT * FROM review WHERE i_id = ? ORDER BY rating DESC LIMIT 10";
    GET_REVIEWS_BY_USER = "SELECT * FROM review WHERE u_id = ? LIMIT 10";
    GET_AVG_RATING_TRUSTED = "SELECT AVG(r.rating) AS avg_r FROM review r JOIN trust t \
        ON r.u_id = t.target_u_id WHERE r.i_id = ? AND t.source_u_id = ?";
    GET_ITEM_AVG_RATING = "SELECT AVG(rating) AS avg_r FROM review WHERE i_id = ?";
    GET_REVIEWS_BY_TRUSTED_USER = "SELECT r.rating, r.comment FROM review r JOIN trust t \
        ON r.u_id = t.target_u_id WHERE r.i_id = ? AND t.source_u_id = ? LIMIT 10";
    UPDATE_USER_NAME = "UPDATE ep_user SET name = ? WHERE u_id = ?";
    UPDATE_ITEM_TITLE = "UPDATE ep_item SET title = ? WHERE i_id = ?";
    UPDATE_REVIEW_RATING = "UPDATE review SET rating = ? WHERE i_id = ? AND u_id = ?";
    UPDATE_TRUST = "UPDATE trust SET trust = ? WHERE source_u_id = ? AND target_u_id = ?";
}

impl Workload for Epinions {
    fn name(&self) -> &'static str {
        "epinions"
    }

    fn class(&self) -> BenchmarkClass {
        BenchmarkClass::WebOriented
    }

    fn domain(&self) -> &'static str {
        "Social Networking"
    }

    fn transaction_types(&self) -> Vec<TransactionType> {
        vec![
            TransactionType::new("GetReviewItemById", 20.0, true),
            TransactionType::new("GetReviewsByUser", 15.0, true),
            TransactionType::new("GetAverageRatingByTrustedUser", 10.0, true),
            TransactionType::new("GetItemAverageRating", 15.0, true),
            TransactionType::new("GetItemReviewsByTrustedUser", 10.0, true),
            TransactionType::new("UpdateUserName", 7.5, false),
            TransactionType::new("UpdateItemTitle", 7.5, false),
            TransactionType::new("UpdateReviewRating", 7.5, false),
            TransactionType::new("UpdateTrustRating", 7.5, false),
        ]
    }

    fn create_schema(&self, conn: &mut Connection) -> SqlResult<()> {
        create_schema(conn, STATEMENTS)
    }

    fn load(&self, conn: &mut Connection, scale: f64, rng: &mut Rng) -> SqlResult<LoadSummary> {
        let users = ((BASE_USERS as f64 * scale) as i64).max(10);
        let items = ((BASE_ITEMS as f64 * scale) as i64).max(10);
        let mut rows = 0u64;
        for u in 0..users {
            conn.execute(LOAD_USER, &[p_i(u), p_s(bp_util::text::full_name(rng))])?;
            rows += 1;
        }
        for i in 0..items {
            conn.execute(LOAD_ITEM, &[p_i(i), p_s(rng.astring(10, 40))])?;
            rows += 1;
        }
        let mut a_id = 0;
        for i in 0..items {
            for _ in 0..rng.int_range(1, REVIEWS_PER_ITEM) {
                conn.execute(
                    LOAD_REVIEW,
                    &[
                        p_i(a_id),
                        p_i(rng.int_range(0, users - 1)),
                        p_i(i),
                        p_i(rng.int_range(0, 5)),
                        p_s(bp_util::text::words(rng, 8)),
                    ],
                )?;
                a_id += 1;
                rows += 1;
            }
        }
        for u in 0..users {
            let mut targets = std::collections::HashSet::new();
            for _ in 0..rng.int_range(1, TRUST_PER_USER) {
                let t = rng.int_range(0, users - 1);
                if t != u && targets.insert(t) {
                    conn.execute(LOAD_TRUST, &[p_i(u), p_i(t), p_i(rng.int_range(0, 1))])?;
                    rows += 1;
                }
            }
        }
        self.users.store(users, Ordering::Relaxed);
        self.items.store(items, Ordering::Relaxed);
        Ok(LoadSummary { tables: 4, rows })
    }

    fn execute(&self, txn_idx: usize, conn: &mut Connection, rng: &mut Rng) -> SqlResult<TxnOutcome> {
        let u = self.user(rng);
        let i = self.item(rng);
        match txn_idx {
            0 => run_txn(conn, |c| {
                c.query(GET_REVIEW_BY_ITEM, &[p_i(i)])?;
                Ok(TxnOutcome::Committed)
            }),
            1 => run_txn(conn, |c| {
                c.query(GET_REVIEWS_BY_USER, &[p_i(u)])?;
                Ok(TxnOutcome::Committed)
            }),
            2 => run_txn(conn, |c| {
                c.query(GET_AVG_RATING_TRUSTED, &[p_i(i), p_i(u)])?;
                Ok(TxnOutcome::Committed)
            }),
            3 => run_txn(conn, |c| {
                c.query(GET_ITEM_AVG_RATING, &[p_i(i)])?;
                Ok(TxnOutcome::Committed)
            }),
            4 => run_txn(conn, |c| {
                c.query(GET_REVIEWS_BY_TRUSTED_USER, &[p_i(i), p_i(u)])?;
                Ok(TxnOutcome::Committed)
            }),
            5 => {
                let name = bp_util::text::full_name(rng);
                run_txn(conn, |c| {
                    c.execute(UPDATE_USER_NAME, &[p_s(name.clone()), p_i(u)])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            6 => {
                let title = rng.astring(10, 40);
                run_txn(conn, |c| {
                    c.execute(UPDATE_ITEM_TITLE, &[p_s(title.clone()), p_i(i)])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            7 => {
                let rating = rng.int_range(0, 5);
                run_txn(conn, |c| {
                    let n = c
                        .execute(UPDATE_REVIEW_RATING, &[p_i(rating), p_i(i), p_i(u)])?
                        .affected();
                    Ok(if n == 0 { TxnOutcome::UserAborted } else { TxnOutcome::Committed })
                })
            }
            8 => {
                let target = self.user(rng);
                let trust = rng.int_range(0, 1);
                run_txn(conn, |c| {
                    let n = c.execute(UPDATE_TRUST, &[p_i(trust), p_i(u), p_i(target)])?.affected();
                    Ok(if n == 0 { TxnOutcome::UserAborted } else { TxnOutcome::Committed })
                })
            }
            other => panic!("epinions has no transaction {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_storage::{Database, Personality};

    fn setup() -> (Epinions, Connection) {
        let db = Database::new(Personality::test());
        let w = Epinions::new();
        let mut conn = Connection::open(&db);
        w.setup(&mut conn, 0.3, &mut Rng::new(1)).unwrap();
        (w, conn)
    }

    #[test]
    fn trusted_rating_join_returns_subset() {
        let (_, mut conn) = setup();
        // The trusted average is computed over a subset of all reviews.
        let all = conn
            .query("SELECT COUNT(*) AS n FROM review WHERE i_id = 0", &[])
            .unwrap()
            .get_int(0, "n")
            .unwrap();
        let trusted = conn
            .query(
                "SELECT COUNT(*) AS n FROM review r JOIN trust t ON r.u_id = t.target_u_id \
                 WHERE r.i_id = 0 AND t.source_u_id = 0",
                &[],
            )
            .unwrap()
            .get_int(0, "n")
            .unwrap();
        assert!(trusted <= all * TRUST_PER_USER);
    }
}
