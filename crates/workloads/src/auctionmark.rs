//! AuctionMark: the on-line auction benchmark (Table 1, Transactional).
//!
//! Users, items, bids and comments with the core transaction set of the
//! original workload (a reduced but behaviour-preserving port).

use std::sync::atomic::{AtomicI64, Ordering};

use bp_core::{BenchmarkClass, LoadSummary, TransactionType, TxnOutcome, Workload};
use bp_sql::{Connection, Result as SqlResult};
use bp_util::rng::Rng;

use crate::helpers::{create_schema, p_f, p_i, p_s, run_txn, statements};

const BASE_USERS: i64 = 300;
const BASE_ITEMS: i64 = 500;
const CATEGORIES: i64 = 20;

pub struct AuctionMark {
    users: AtomicI64,
    items: AtomicI64,
    next_bid: AtomicI64,
    next_comment: AtomicI64,
}

impl Default for AuctionMark {
    fn default() -> Self {
        AuctionMark::new()
    }
}

impl AuctionMark {
    pub fn new() -> AuctionMark {
        AuctionMark {
            users: AtomicI64::new(BASE_USERS),
            items: AtomicI64::new(BASE_ITEMS),
            next_bid: AtomicI64::new(0),
            next_comment: AtomicI64::new(0),
        }
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
    CREATE_USERACCT =
        "CREATE TABLE am_user (u_id INT PRIMARY KEY, u_rating INT, u_balance FLOAT, u_created INT)";
    CREATE_CATEGORY = "CREATE TABLE am_category (c_id INT PRIMARY KEY, c_name VARCHAR(32))";
    CREATE_ITEM = "CREATE TABLE am_item (i_id INT PRIMARY KEY, i_u_id INT NOT NULL, \
        i_c_id INT NOT NULL, i_name VARCHAR(64), i_current_price FLOAT, i_num_bids INT, \
        i_status INT, i_end_date INT)";
    CREATE_ITEM_SELLER_IDX = "CREATE INDEX idx_item_seller ON am_item (i_u_id)";
    CREATE_ITEM_CATEGORY_IDX = "CREATE INDEX idx_item_category ON am_item (i_c_id)";
    CREATE_ITEM_BID = "CREATE TABLE am_item_bid (ib_id INT PRIMARY KEY, ib_i_id INT NOT NULL, \
        ib_u_id INT NOT NULL, ib_bid FLOAT NOT NULL, ib_created INT)";
    CREATE_BID_ITEM_IDX = "CREATE INDEX idx_bid_item ON am_item_bid (ib_i_id)";
    CREATE_ITEM_COMMENT = "CREATE TABLE am_item_comment (ic_id INT PRIMARY KEY, \
        ic_i_id INT NOT NULL, ic_u_id INT NOT NULL, ic_question VARCHAR(128))";
    // First sent by the loader.
    LOAD_CATEGORY = "INSERT INTO am_category VALUES (?, ?)";
    LOAD_USER = "INSERT INTO am_user VALUES (?, ?, ?, ?)";
    INSERT_ITEM = "INSERT INTO am_item VALUES (?, ?, ?, ?, ?, ?, ?, ?)";
    // First sent by a transaction.
    GET_ITEM = "SELECT * FROM am_item WHERE i_id = ?";
    GET_USER_INFO = "SELECT u_id, u_rating, u_balance FROM am_user WHERE u_id = ?";
    GET_USER_ITEMS = "SELECT i_id, i_name, i_current_price FROM am_item WHERE i_u_id = ? LIMIT 25";
    NEW_BID_CHECK = "SELECT i_current_price, i_status FROM am_item WHERE i_id = ? FOR UPDATE";
    INSERT_BID = "INSERT INTO am_item_bid VALUES (?, ?, ?, ?, ?)";
    UPDATE_ITEM_PRICE =
        "UPDATE am_item SET i_current_price = ?, i_num_bids = i_num_bids + 1 WHERE i_id = ?";
    INSERT_COMMENT = "INSERT INTO am_item_comment VALUES (?, ?, ?, ?)";
    GET_EXPIRING_ITEMS = "SELECT i_id, i_u_id, i_current_price FROM am_item WHERE i_status = 0 \
        ORDER BY i_end_date LIMIT 3";
    CLOSE_ITEM = "UPDATE am_item SET i_status = 1 WHERE i_id = ?";
    CREDIT_SELLER = "UPDATE am_user SET u_balance = u_balance + ? WHERE u_id = ?";
}

impl Workload for AuctionMark {
    fn name(&self) -> &'static str {
        "auctionmark"
    }

    fn class(&self) -> BenchmarkClass {
        BenchmarkClass::Transactional
    }

    fn domain(&self) -> &'static str {
        "On-line Auctions"
    }

    fn transaction_types(&self) -> Vec<TransactionType> {
        vec![
            TransactionType::new("GetItem", 45.0, true),
            TransactionType::new("GetUserInfo", 10.0, true),
            TransactionType::new("NewBid", 20.0, false),
            TransactionType::new("NewItem", 10.0, false),
            TransactionType::new("NewComment", 5.0, false),
            TransactionType::new("CloseAuctions", 10.0, false),
        ]
    }

    fn create_schema(&self, conn: &mut Connection) -> SqlResult<()> {
        create_schema(conn, STATEMENTS)
    }

    fn load(&self, conn: &mut Connection, scale: f64, rng: &mut Rng) -> SqlResult<LoadSummary> {
        let mut rows = 0u64;
        for c in 0..CATEGORIES {
            conn.execute(LOAD_CATEGORY, &[p_i(c), p_s(rng.astring(6, 20))])?;
            rows += 1;
        }
        let users = ((BASE_USERS as f64 * scale) as i64).max(10);
        for u in 0..users {
            conn.execute(
                LOAD_USER,
                &[p_i(u), p_i(rng.int_range(0, 10_000)), p_f(rng.f64_range(0.0, 500.0)), p_i(0)],
            )?;
            rows += 1;
        }
        let items = ((BASE_ITEMS as f64 * scale) as i64).max(20);
        for i in 0..items {
            conn.execute(
                INSERT_ITEM,
                &[
                    p_i(i),
                    p_i(rng.int_range(0, users - 1)),
                    p_i(rng.int_range(0, CATEGORIES - 1)),
                    p_s(rng.astring(10, 40)),
                    p_f(rng.f64_range(1.0, 500.0)),
                    p_i(0),
                    p_i(if rng.bool_with(0.9) { 0 } else { 1 }), // 0=open, 1=closed
                    p_i(rng.int_range(100, 10_000)),
                ],
            )?;
            rows += 1;
        }
        self.users.store(users, Ordering::Relaxed);
        self.items.store(items, Ordering::Relaxed);
        Ok(LoadSummary { tables: 5, rows })
    }

    fn execute(&self, txn_idx: usize, conn: &mut Connection, rng: &mut Rng) -> SqlResult<TxnOutcome> {
        match txn_idx {
            0 => {
                let i = self.item(rng);
                run_txn(conn, |c| {
                    let rs = c.query(GET_ITEM, &[p_i(i)])?;
                    Ok(if rs.is_empty() { TxnOutcome::UserAborted } else { TxnOutcome::Committed })
                })
            }
            1 => {
                let u = self.user(rng);
                run_txn(conn, |c| {
                    c.query(GET_USER_INFO, &[p_i(u)])?;
                    c.query(GET_USER_ITEMS, &[p_i(u)])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            // NewBid: only on open auctions, must beat the current price.
            2 => {
                let i = self.item(rng);
                let u = self.user(rng);
                let bid_id = self.next_bid.fetch_add(1, Ordering::Relaxed);
                run_txn(conn, |c| {
                    let rs = c.query(NEW_BID_CHECK, &[p_i(i)])?;
                    let Some(price) = rs.get_f64(0, "i_current_price") else {
                        return Ok(TxnOutcome::UserAborted);
                    };
                    if rs.get_int(0, "i_status") != Some(0) {
                        return Ok(TxnOutcome::UserAborted);
                    }
                    let bid = price * 1.05 + 1.0;
                    c.execute(INSERT_BID, &[p_i(bid_id), p_i(i), p_i(u), p_f(bid), p_i(0)])?;
                    c.execute(UPDATE_ITEM_PRICE, &[p_f(bid), p_i(i)])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            // NewItem.
            3 => {
                let u = self.user(rng);
                let new_id = self.items.fetch_add(1, Ordering::Relaxed);
                let name = rng.astring(10, 40);
                let cat_id = rng.int_range(0, CATEGORIES - 1);
                let price = rng.f64_range(1.0, 100.0);
                run_txn(conn, |c| {
                    c.execute(
                        INSERT_ITEM,
                        &[
                            p_i(new_id),
                            p_i(u),
                            p_i(cat_id),
                            p_s(name.clone()),
                            p_f(price),
                            p_i(0),
                            p_i(0),
                            p_i(10_000),
                        ],
                    )?;
                    Ok(TxnOutcome::Committed)
                })
            }
            // NewComment.
            4 => {
                let i = self.item(rng);
                let u = self.user(rng);
                let ic = self.next_comment.fetch_add(1, Ordering::Relaxed);
                let q = rng.astring(20, 100);
                run_txn(conn, |c| {
                    c.execute(INSERT_COMMENT, &[p_i(ic), p_i(i), p_i(u), p_s(q.clone())])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            // CloseAuctions: close a few expiring open auctions and settle
            // the winning bid into the seller's balance.
            5 => {
                run_txn(conn, |c| {
                    let rs = c.query(GET_EXPIRING_ITEMS, &[])?;
                    if rs.is_empty() {
                        return Ok(TxnOutcome::UserAborted);
                    }
                    for r in 0..rs.len() {
                        let i_id = rs.get_int(r, "i_id").unwrap();
                        let seller = rs.get_int(r, "i_u_id").unwrap();
                        let price = rs.get_f64(r, "i_current_price").unwrap_or(0.0);
                        c.execute(CLOSE_ITEM, &[p_i(i_id)])?;
                        c.execute(CREDIT_SELLER, &[p_f(price), p_i(seller)])?;
                    }
                    Ok(TxnOutcome::Committed)
                })
            }
            other => panic!("auctionmark has no transaction {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_storage::{Database, Personality};

    fn setup() -> (AuctionMark, Connection) {
        let db = Database::new(Personality::test());
        let w = AuctionMark::new();
        let mut conn = Connection::open(&db);
        w.setup(&mut conn, 0.2, &mut Rng::new(1)).unwrap();
        (w, conn)
    }

    #[test]
    fn bids_raise_prices() {
        let (w, mut conn) = setup();
        let mut rng = Rng::new(3);
        let before = conn
            .query("SELECT SUM(i_num_bids) AS t FROM am_item", &[])
            .unwrap()
            .get_int(0, "t")
            .unwrap();
        let mut committed = 0;
        for _ in 0..50 {
            if w.execute(2, &mut conn, &mut rng).unwrap() == TxnOutcome::Committed {
                committed += 1;
            }
        }
        let after = conn
            .query("SELECT SUM(i_num_bids) AS t FROM am_item", &[])
            .unwrap()
            .get_int(0, "t")
            .unwrap();
        assert_eq!(after - before, committed);
        assert!(committed > 20);
    }

    #[test]
    fn close_auctions_reduces_open_set() {
        let (w, mut conn) = setup();
        let mut rng = Rng::new(4);
        let open_before = conn
            .query("SELECT COUNT(*) AS n FROM am_item WHERE i_status = 0", &[])
            .unwrap()
            .get_int(0, "n")
            .unwrap();
        w.execute(5, &mut conn, &mut rng).unwrap();
        let open_after = conn
            .query("SELECT COUNT(*) AS n FROM am_item WHERE i_status = 0", &[])
            .unwrap()
            .get_int(0, "n")
            .unwrap();
        assert_eq!(open_before - open_after, 3);
    }
}
