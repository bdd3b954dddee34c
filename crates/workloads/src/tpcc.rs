//! TPC-C: the order-processing OLTP benchmark (Table 1, Transactional).
//!
//! All nine tables and the five standard transactions with the canonical
//! 45/43/4/4/4 mixture, NURand parameter generation, customer-by-last-name
//! lookups and the 1% NewOrder rollback. Loader cardinalities are reduced
//! (items, customers per district) so a scale-factor-1 database loads in
//! milliseconds; the access *patterns* — per-warehouse hot districts,
//! stock updates, order-line fan-out — are preserved.

use std::sync::atomic::{AtomicI64, Ordering};

use bp_core::{BenchmarkClass, LoadSummary, TransactionType, TxnOutcome, Workload};
use bp_sql::{Connection, Result as SqlResult};
use bp_util::rng::{NuRand, Rng};
use bp_util::text::tpcc_last_name;

use crate::helpers::{create_schema, p_f, p_i, p_s, run_txn, statements};

pub const DISTRICTS_PER_WAREHOUSE: i64 = 10;
pub const CUSTOMERS_PER_DISTRICT: i64 = 30;
pub const ITEMS: i64 = 200;
pub const INITIAL_ORDERS_PER_DISTRICT: i64 = 30;

pub struct Tpcc {
    warehouses: AtomicI64,
    nurand_c_last: NuRand,
    nurand_c_id: NuRand,
    nurand_i_id: NuRand,
    next_h_id: AtomicI64,
}

impl Default for Tpcc {
    fn default() -> Self {
        Tpcc::new()
    }
}

impl Tpcc {
    pub fn new() -> Tpcc {
        Tpcc {
            warehouses: AtomicI64::new(1),
            nurand_c_last: NuRand::new(255, 123),
            nurand_c_id: NuRand::new(1023, 259),
            nurand_i_id: NuRand::new(8191, 7911),
            next_h_id: AtomicI64::new(0),
        }
    }

    fn wid(&self, rng: &mut Rng) -> i64 {
        rng.int_range(1, self.warehouses.load(Ordering::Relaxed).max(1))
    }

    fn item_id(&self, rng: &mut Rng) -> i64 {
        self.nurand_i_id.sample(rng, 1, ITEMS)
    }

    fn customer_id(&self, rng: &mut Rng) -> i64 {
        self.nurand_c_id.sample(rng, 1, CUSTOMERS_PER_DISTRICT)
    }

    fn last_name(&self, rng: &mut Rng) -> String {
        tpcc_last_name(self.nurand_c_last.sample(rng, 0, 999) % CUSTOMERS_PER_DISTRICT)
    }
}

statements! {
    // Schema, in creation order.
    CREATE_WAREHOUSE = "CREATE TABLE warehouse (w_id INT PRIMARY KEY, w_name VARCHAR(10), \
        w_street_1 VARCHAR(20), w_city VARCHAR(20), w_state VARCHAR(2), w_zip VARCHAR(9), \
        w_tax FLOAT, w_ytd FLOAT)";
    CREATE_DISTRICT = "CREATE TABLE district (d_w_id INT NOT NULL, d_id INT NOT NULL, \
        d_name VARCHAR(10), d_street_1 VARCHAR(20), d_city VARCHAR(20), d_state VARCHAR(2), \
        d_zip VARCHAR(9), d_tax FLOAT, d_ytd FLOAT, d_next_o_id INT, PRIMARY KEY (d_w_id, d_id))";
    CREATE_CUSTOMER = "CREATE TABLE customer (c_w_id INT NOT NULL, c_d_id INT NOT NULL, \
        c_id INT NOT NULL, c_first VARCHAR(16), c_middle VARCHAR(2), c_last VARCHAR(16), \
        c_city VARCHAR(20), c_state VARCHAR(2), c_credit VARCHAR(2), c_credit_lim FLOAT, \
        c_discount FLOAT, c_balance FLOAT, c_ytd_payment FLOAT, c_payment_cnt INT, \
        c_delivery_cnt INT, PRIMARY KEY (c_w_id, c_d_id, c_id))";
    CREATE_CUSTOMER_NAME_IDX =
        "CREATE INDEX idx_customer_name ON customer (c_w_id, c_d_id, c_last)";
    CREATE_HISTORY = "CREATE TABLE history (h_id INT PRIMARY KEY, h_c_id INT, h_c_d_id INT, \
        h_c_w_id INT, h_d_id INT, h_w_id INT, h_amount FLOAT, h_data VARCHAR(24))";
    CREATE_ITEM = "CREATE TABLE item (i_id INT PRIMARY KEY, i_im_id INT, i_name VARCHAR(24), \
        i_price FLOAT, i_data VARCHAR(50))";
    CREATE_STOCK = "CREATE TABLE stock (s_w_id INT NOT NULL, s_i_id INT NOT NULL, s_quantity INT, \
        s_ytd FLOAT, s_order_cnt INT, s_remote_cnt INT, s_data VARCHAR(50), \
        PRIMARY KEY (s_w_id, s_i_id))";
    CREATE_ORDERS = "CREATE TABLE orders (o_w_id INT NOT NULL, o_d_id INT NOT NULL, \
        o_id INT NOT NULL, o_c_id INT, o_carrier_id INT, o_ol_cnt INT, o_all_local INT, \
        o_entry_d INT, PRIMARY KEY (o_w_id, o_d_id, o_id))";
    CREATE_ORDERS_CUSTOMER_IDX =
        "CREATE INDEX idx_orders_customer ON orders (o_w_id, o_d_id, o_c_id)";
    CREATE_NEW_ORDER = "CREATE TABLE new_order (no_w_id INT NOT NULL, no_d_id INT NOT NULL, \
        no_o_id INT NOT NULL, PRIMARY KEY (no_w_id, no_d_id, no_o_id))";
    CREATE_ORDER_LINE = "CREATE TABLE order_line (ol_w_id INT NOT NULL, ol_d_id INT NOT NULL, \
        ol_o_id INT NOT NULL, ol_number INT NOT NULL, ol_i_id INT, ol_supply_w_id INT, \
        ol_quantity INT, ol_amount FLOAT, PRIMARY KEY (ol_w_id, ol_d_id, ol_o_id, ol_number))";
    // First sent by the loader.
    LOAD_ITEM = "INSERT INTO item VALUES (?, ?, ?, ?, ?)";
    LOAD_WAREHOUSE = "INSERT INTO warehouse VALUES (?, ?, ?, ?, ?, ?, ?, ?)";
    LOAD_STOCK = "INSERT INTO stock VALUES (?, ?, ?, ?, ?, ?, ?)";
    LOAD_DISTRICT = "INSERT INTO district VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)";
    LOAD_CUSTOMER = "INSERT INTO customer VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)";
    INSERT_ORDER = "INSERT INTO orders VALUES (?, ?, ?, ?, ?, ?, ?, ?)";
    INSERT_NEW_ORDER = "INSERT INTO new_order VALUES (?, ?, ?)";
    INSERT_ORDER_LINE = "INSERT INTO order_line VALUES (?, ?, ?, ?, ?, ?, ?, ?)";
    // First sent by a transaction.
    GET_DISTRICT =
        "SELECT d_next_o_id, d_tax FROM district WHERE d_w_id = ? AND d_id = ? FOR UPDATE";
    BUMP_NEXT_O_ID =
        "UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = ? AND d_id = ?";
    GET_CUSTOMER = "SELECT c_discount, c_last, c_credit FROM customer WHERE c_w_id = ? \
        AND c_d_id = ? AND c_id = ?";
    GET_ITEM_PRICE = "SELECT i_price FROM item WHERE i_id = ?";
    GET_STOCK = "SELECT s_quantity FROM stock WHERE s_w_id = ? AND s_i_id = ? FOR UPDATE";
    UPDATE_STOCK = "UPDATE stock SET s_quantity = ?, s_order_cnt = s_order_cnt + 1 \
        WHERE s_w_id = ? AND s_i_id = ?";
    UPDATE_WAREHOUSE_YTD = "UPDATE warehouse SET w_ytd = w_ytd + ? WHERE w_id = ?";
    UPDATE_DISTRICT_YTD = "UPDATE district SET d_ytd = d_ytd + ? WHERE d_w_id = ? AND d_id = ?";
    GET_CUSTOMER_BY_NAME =
        "SELECT c_id FROM customer WHERE c_w_id = ? AND c_d_id = ? AND c_last = ? ORDER BY c_first";
    UPDATE_CUSTOMER_PAYMENT = "UPDATE customer SET c_balance = c_balance - ?, \
        c_ytd_payment = c_ytd_payment + ?, c_payment_cnt = c_payment_cnt + 1 WHERE c_w_id = ? \
        AND c_d_id = ? AND c_id = ?";
    INSERT_HISTORY = "INSERT INTO history VALUES (?, ?, ?, ?, ?, ?, ?, ?)";
    GET_LAST_ORDER = "SELECT o_id FROM orders WHERE o_w_id = ? AND o_d_id = ? AND o_c_id = ? \
        ORDER BY o_id DESC LIMIT 1";
    GET_ORDER_LINES = "SELECT * FROM order_line WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?";
    GET_OLDEST_NEW_ORDER =
        "SELECT no_o_id FROM new_order WHERE no_w_id = ? AND no_d_id = ? ORDER BY no_o_id LIMIT 1";
    DELETE_NEW_ORDER = "DELETE FROM new_order WHERE no_w_id = ? AND no_d_id = ? AND no_o_id = ?";
    GET_ORDER_CUSTOMER = "SELECT o_c_id FROM orders WHERE o_w_id = ? AND o_d_id = ? AND o_id = ?";
    UPDATE_ORDER_CARRIER =
        "UPDATE orders SET o_carrier_id = ? WHERE o_w_id = ? AND o_d_id = ? AND o_id = ?";
    SUM_ORDER_LINES = "SELECT SUM(ol_amount) AS t FROM order_line WHERE ol_w_id = ? \
        AND ol_d_id = ? AND ol_o_id = ?";
    UPDATE_CUSTOMER_DELIVERY = "UPDATE customer SET c_balance = c_balance + ?, \
        c_delivery_cnt = c_delivery_cnt + 1 WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?";
    GET_NEXT_O_ID = "SELECT d_next_o_id FROM district WHERE d_w_id = ? AND d_id = ?";
    STOCK_LEVEL_JOIN = "SELECT COUNT(DISTINCT ol.ol_i_id) AS low FROM order_line ol JOIN stock s \
        ON ol.ol_i_id = s.s_i_id WHERE ol.ol_w_id = ? AND ol.ol_d_id = ? AND ol.ol_o_id >= ? \
        AND s.s_w_id = ? AND s.s_quantity < ?";
}

impl Workload for Tpcc {
    fn name(&self) -> &'static str {
        "tpcc"
    }

    fn class(&self) -> BenchmarkClass {
        BenchmarkClass::Transactional
    }

    fn domain(&self) -> &'static str {
        "Order Processing"
    }

    fn transaction_types(&self) -> Vec<TransactionType> {
        vec![
            TransactionType::new("NewOrder", 45.0, false),
            TransactionType::new("Payment", 43.0, false),
            TransactionType::new("OrderStatus", 4.0, true),
            TransactionType::new("Delivery", 4.0, false),
            TransactionType::new("StockLevel", 4.0, true),
        ]
    }

    fn create_schema(&self, conn: &mut Connection) -> SqlResult<()> {
        create_schema(conn, STATEMENTS)
    }

    fn load(&self, conn: &mut Connection, scale: f64, rng: &mut Rng) -> SqlResult<LoadSummary> {
        let warehouses = (scale.max(0.01).ceil() as i64).max(1);
        let mut rows = 0u64;

        // Items (shared).
        for i in 1..=ITEMS {
            conn.execute(
                LOAD_ITEM,
                &[
                    p_i(i),
                    p_i(rng.int_range(1, 10_000)),
                    p_s(rng.astring(14, 24)),
                    p_f(rng.f64_range(1.0, 100.0)),
                    p_s(rng.astring(26, 50)),
                ],
            )?;
            rows += 1;
        }

        for w in 1..=warehouses {
            conn.execute(
                LOAD_WAREHOUSE,
                &[
                    p_i(w),
                    p_s(rng.astring(6, 10)),
                    p_s(rng.astring(10, 20)),
                    p_s(rng.astring(10, 20)),
                    p_s(bp_util::text::state(rng)),
                    p_s(bp_util::text::zip(rng)),
                    p_f(rng.f64_range(0.0, 0.2)),
                    p_f(300_000.0),
                ],
            )?;
            rows += 1;
            for i in 1..=ITEMS {
                conn.execute(
                    LOAD_STOCK,
                    &[
                        p_i(w),
                        p_i(i),
                        p_i(rng.int_range(10, 100)),
                        p_f(0.0),
                        p_i(0),
                        p_i(0),
                        p_s(rng.astring(26, 50)),
                    ],
                )?;
                rows += 1;
            }
            for d in 1..=DISTRICTS_PER_WAREHOUSE {
                conn.execute(
                    LOAD_DISTRICT,
                    &[
                        p_i(w),
                        p_i(d),
                        p_s(rng.astring(6, 10)),
                        p_s(rng.astring(10, 20)),
                        p_s(rng.astring(10, 20)),
                        p_s(bp_util::text::state(rng)),
                        p_s(bp_util::text::zip(rng)),
                        p_f(rng.f64_range(0.0, 0.2)),
                        p_f(30_000.0),
                        p_i(INITIAL_ORDERS_PER_DISTRICT + 1),
                    ],
                )?;
                rows += 1;
                for c in 1..=CUSTOMERS_PER_DISTRICT {
                    let last = if c <= CUSTOMERS_PER_DISTRICT {
                        tpcc_last_name((c - 1) % CUSTOMERS_PER_DISTRICT)
                    } else {
                        tpcc_last_name(self.nurand_c_last.sample(rng, 0, 999))
                    };
                    conn.execute(
                        LOAD_CUSTOMER,
                        &[
                            p_i(w),
                            p_i(d),
                            p_i(c),
                            p_s(rng.astring(8, 16)),
                            p_s("OE"),
                            p_s(last),
                            p_s(rng.astring(10, 20)),
                            p_s(bp_util::text::state(rng)),
                            p_s(if rng.bool_with(0.1) { "BC" } else { "GC" }),
                            p_f(50_000.0),
                            p_f(rng.f64_range(0.0, 0.5)),
                            p_f(-10.0),
                            p_f(10.0),
                            p_i(1),
                            p_i(0),
                        ],
                    )?;
                    rows += 1;
                }
                // Initial orders with order lines; the most recent third
                // stay in new_order (undelivered).
                for o in 1..=INITIAL_ORDERS_PER_DISTRICT {
                    let c = rng.int_range(1, CUSTOMERS_PER_DISTRICT);
                    let ol_cnt = rng.int_range(5, 15);
                    let delivered = o <= INITIAL_ORDERS_PER_DISTRICT * 2 / 3;
                    conn.execute(
                        INSERT_ORDER,
                        &[
                            p_i(w),
                            p_i(d),
                            p_i(o),
                            p_i(c),
                            if delivered { p_i(rng.int_range(1, 10)) } else { bp_storage::Value::Null },
                            p_i(ol_cnt),
                            p_i(1),
                            p_i(o),
                        ],
                    )?;
                    rows += 1;
                    if !delivered {
                        conn.execute(INSERT_NEW_ORDER, &[p_i(w), p_i(d), p_i(o)])?;
                        rows += 1;
                    }
                    for ol in 1..=ol_cnt {
                        conn.execute(
                            INSERT_ORDER_LINE,
                            &[
                                p_i(w),
                                p_i(d),
                                p_i(o),
                                p_i(ol),
                                p_i(rng.int_range(1, ITEMS)),
                                p_i(w),
                                p_i(5),
                                p_f(rng.f64_range(0.01, 9_999.99)),
                            ],
                        )?;
                        rows += 1;
                    }
                }
            }
        }
        self.warehouses.store(warehouses, Ordering::Relaxed);
        Ok(LoadSummary { tables: 9, rows })
    }

    fn execute(&self, txn_idx: usize, conn: &mut Connection, rng: &mut Rng) -> SqlResult<TxnOutcome> {
        match txn_idx {
            0 => self.new_order(conn, rng),
            1 => self.payment(conn, rng),
            2 => self.order_status(conn, rng),
            3 => self.delivery(conn, rng),
            4 => self.stock_level(conn, rng),
            other => panic!("tpcc has no transaction {other}"),
        }
    }
}

impl Tpcc {
    fn new_order(&self, conn: &mut Connection, rng: &mut Rng) -> SqlResult<TxnOutcome> {
        let w = self.wid(rng);
        let d = rng.int_range(1, DISTRICTS_PER_WAREHOUSE);
        let c = self.customer_id(rng);
        let ol_cnt = rng.int_range(5, 15);
        // Clause 2.4.1.4: 1% of NewOrders use an invalid item and roll back.
        let rollback = rng.bool_with(0.01);
        let warehouses = self.warehouses.load(Ordering::Relaxed);

        // Pre-generate the order lines.
        let mut lines = Vec::with_capacity(ol_cnt as usize);
        for ol in 1..=ol_cnt {
            let i_id = if rollback && ol == ol_cnt { -1 } else { self.item_id(rng) };
            // 1% remote warehouse when there is more than one.
            let supply_w = if warehouses > 1 && rng.bool_with(0.01) {
                loop {
                    let other = rng.int_range(1, warehouses);
                    if other != w {
                        break other;
                    }
                }
            } else {
                w
            };
            lines.push((ol, i_id, supply_w, rng.int_range(1, 10)));
        }

        run_txn(conn, |cn| {
            // District: read + bump next_o_id (the per-district hot spot).
            let rs = cn.query(GET_DISTRICT, &[p_i(w), p_i(d)])?;
            let o_id = rs.get_int(0, "d_next_o_id").expect("district exists");
            cn.execute(BUMP_NEXT_O_ID, &[p_i(w), p_i(d)])?;
            cn.query(GET_CUSTOMER, &[p_i(w), p_i(d), p_i(c)])?;
            cn.execute(
                INSERT_ORDER,
                &[
                    p_i(w),
                    p_i(d),
                    p_i(o_id),
                    p_i(c),
                    bp_storage::Value::Null,
                    p_i(lines.len() as i64),
                    p_i(1),
                    p_i(o_id),
                ],
            )?;
            cn.execute(INSERT_NEW_ORDER, &[p_i(w), p_i(d), p_i(o_id)])?;

            for (ol, i_id, supply_w, qty) in &lines {
                let item = cn.query(GET_ITEM_PRICE, &[p_i(*i_id)])?;
                if item.is_empty() {
                    // Invalid item: the whole transaction rolls back.
                    cn.rollback()?;
                    return Ok(TxnOutcome::UserAborted);
                }
                let price = item.get_f64(0, "i_price").unwrap();
                let stock = cn.query(GET_STOCK, &[p_i(*supply_w), p_i(*i_id)])?;
                let s_qty = stock.get_int(0, "s_quantity").unwrap_or(50);
                let new_qty = if s_qty >= qty + 10 { s_qty - qty } else { s_qty - qty + 91 };
                cn.execute(UPDATE_STOCK, &[p_i(new_qty), p_i(*supply_w), p_i(*i_id)])?;
                cn.execute(
                    INSERT_ORDER_LINE,
                    &[
                        p_i(w),
                        p_i(d),
                        p_i(o_id),
                        p_i(*ol),
                        p_i(*i_id),
                        p_i(*supply_w),
                        p_i(*qty),
                        p_f(price * *qty as f64),
                    ],
                )?;
            }
            Ok(TxnOutcome::Committed)
        })
    }

    fn payment(&self, conn: &mut Connection, rng: &mut Rng) -> SqlResult<TxnOutcome> {
        let w = self.wid(rng);
        let d = rng.int_range(1, DISTRICTS_PER_WAREHOUSE);
        let amount = rng.f64_range(1.0, 5_000.0);
        let by_name = rng.bool_with(0.6);
        let h_id = self.next_h_id.fetch_add(1, Ordering::Relaxed);
        let c_id = self.customer_id(rng);
        let c_last = self.last_name(rng);

        run_txn(conn, |cn| {
            cn.execute(UPDATE_WAREHOUSE_YTD, &[p_f(amount), p_i(w)])?;
            cn.execute(UPDATE_DISTRICT_YTD, &[p_f(amount), p_i(w), p_i(d)])?;
            // Customer selection: 60% by last name (middle row), 40% by id.
            let cid = if by_name {
                let rs = cn.query(GET_CUSTOMER_BY_NAME, &[p_i(w), p_i(d), p_s(c_last.clone())])?;
                if rs.is_empty() {
                    return Ok(TxnOutcome::UserAborted);
                }
                rs.get_int(rs.len() / 2, "c_id").unwrap()
            } else {
                c_id
            };
            cn.execute(
                UPDATE_CUSTOMER_PAYMENT,
                &[p_f(amount), p_f(amount), p_i(w), p_i(d), p_i(cid)],
            )?;
            cn.execute(
                INSERT_HISTORY,
                &[
                    p_i(h_id),
                    p_i(cid),
                    p_i(d),
                    p_i(w),
                    p_i(d),
                    p_i(w),
                    p_f(amount),
                    p_s(rng.astring(12, 24)),
                ],
            )?;
            Ok(TxnOutcome::Committed)
        })
    }

    fn order_status(&self, conn: &mut Connection, rng: &mut Rng) -> SqlResult<TxnOutcome> {
        let w = self.wid(rng);
        let d = rng.int_range(1, DISTRICTS_PER_WAREHOUSE);
        let by_name = rng.bool_with(0.6);
        let c_id = self.customer_id(rng);
        let c_last = self.last_name(rng);

        run_txn(conn, |cn| {
            let cid = if by_name {
                let rs = cn.query(GET_CUSTOMER_BY_NAME, &[p_i(w), p_i(d), p_s(c_last.clone())])?;
                if rs.is_empty() {
                    return Ok(TxnOutcome::UserAborted);
                }
                rs.get_int(rs.len() / 2, "c_id").unwrap()
            } else {
                c_id
            };
            let orders = cn.query(GET_LAST_ORDER, &[p_i(w), p_i(d), p_i(cid)])?;
            if let Some(o_id) = orders.get_int(0, "o_id") {
                cn.query(GET_ORDER_LINES, &[p_i(w), p_i(d), p_i(o_id)])?;
            }
            Ok(TxnOutcome::Committed)
        })
    }

    fn delivery(&self, conn: &mut Connection, rng: &mut Rng) -> SqlResult<TxnOutcome> {
        let w = self.wid(rng);
        let carrier = rng.int_range(1, 10);

        run_txn(conn, |cn| {
            let mut delivered_any = false;
            for d in 1..=DISTRICTS_PER_WAREHOUSE {
                // Oldest undelivered order.
                let rs = cn.query(GET_OLDEST_NEW_ORDER, &[p_i(w), p_i(d)])?;
                let Some(o_id) = rs.get_int(0, "no_o_id") else { continue };
                delivered_any = true;
                cn.execute(DELETE_NEW_ORDER, &[p_i(w), p_i(d), p_i(o_id)])?;
                let order = cn.query(GET_ORDER_CUSTOMER, &[p_i(w), p_i(d), p_i(o_id)])?;
                let c_id = order.get_int(0, "o_c_id").unwrap_or(1);
                cn.execute(UPDATE_ORDER_CARRIER, &[p_i(carrier), p_i(w), p_i(d), p_i(o_id)])?;
                let total = cn
                    .query(SUM_ORDER_LINES, &[p_i(w), p_i(d), p_i(o_id)])?
                    .get_f64(0, "t")
                    .unwrap_or(0.0);
                cn.execute(UPDATE_CUSTOMER_DELIVERY, &[p_f(total), p_i(w), p_i(d), p_i(c_id)])?;
            }
            Ok(if delivered_any { TxnOutcome::Committed } else { TxnOutcome::UserAborted })
        })
    }

    fn stock_level(&self, conn: &mut Connection, rng: &mut Rng) -> SqlResult<TxnOutcome> {
        let w = self.wid(rng);
        let d = rng.int_range(1, DISTRICTS_PER_WAREHOUSE);
        let threshold = rng.int_range(10, 20);

        run_txn(conn, |cn| {
            let next = cn
                .query(GET_NEXT_O_ID, &[p_i(w), p_i(d)])?
                .get_int(0, "d_next_o_id")
                .unwrap_or(1);
            cn.query(STOCK_LEVEL_JOIN, &[p_i(w), p_i(d), p_i(next - 20), p_i(w), p_i(threshold)])?;
            Ok(TxnOutcome::Committed)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_storage::{Database, Personality};

    fn setup() -> (Tpcc, Connection) {
        let db = Database::new(Personality::test());
        let w = Tpcc::new();
        let mut conn = Connection::open(&db);
        w.setup(&mut conn, 1.0, &mut Rng::new(1)).unwrap();
        (w, conn)
    }

    #[test]
    fn loader_cardinalities() {
        let (_, mut conn) = setup();
        let count = |c: &mut Connection, t: &str| {
            c.query(&format!("SELECT COUNT(*) AS n FROM {t}"), &[])
                .unwrap()
                .get_int(0, "n")
                .unwrap()
        };
        assert_eq!(count(&mut conn, "warehouse"), 1);
        assert_eq!(count(&mut conn, "district"), DISTRICTS_PER_WAREHOUSE);
        assert_eq!(count(&mut conn, "customer"), DISTRICTS_PER_WAREHOUSE * CUSTOMERS_PER_DISTRICT);
        assert_eq!(count(&mut conn, "item"), ITEMS);
        assert_eq!(count(&mut conn, "stock"), ITEMS);
        assert_eq!(count(&mut conn, "orders"), DISTRICTS_PER_WAREHOUSE * INITIAL_ORDERS_PER_DISTRICT);
        assert!(count(&mut conn, "new_order") > 0);
        assert!(count(&mut conn, "order_line") > 5 * DISTRICTS_PER_WAREHOUSE * INITIAL_ORDERS_PER_DISTRICT);
    }

    #[test]
    fn new_order_advances_district_counter() {
        let (w, mut conn) = setup();
        let mut rng = Rng::new(2);
        let before = conn
            .query("SELECT SUM(d_next_o_id) AS t FROM district", &[])
            .unwrap()
            .get_int(0, "t")
            .unwrap();
        let mut committed = 0;
        for _ in 0..20 {
            if w.new_order(&mut conn, &mut rng).unwrap() == TxnOutcome::Committed {
                committed += 1;
            }
        }
        let after = conn
            .query("SELECT SUM(d_next_o_id) AS t FROM district", &[])
            .unwrap()
            .get_int(0, "t")
            .unwrap();
        // Rolled-back NewOrders must not advance the counter.
        assert_eq!(after - before, committed);
    }

    #[test]
    fn new_order_rollback_rate_roughly_one_percent() {
        let (w, mut conn) = setup();
        let mut rng = Rng::new(3);
        let mut aborted = 0;
        let n = 500;
        for _ in 0..n {
            if w.new_order(&mut conn, &mut rng).unwrap() == TxnOutcome::UserAborted {
                aborted += 1;
            }
        }
        assert!((1..=20).contains(&aborted), "aborts {aborted}/{n}");
    }

    #[test]
    fn payment_updates_balances() {
        let (w, mut conn) = setup();
        let mut rng = Rng::new(4);
        let before = conn
            .query("SELECT w_ytd FROM warehouse WHERE w_id = 1", &[])
            .unwrap()
            .get_f64(0, "w_ytd")
            .unwrap();
        for _ in 0..10 {
            w.payment(&mut conn, &mut rng).unwrap();
        }
        let after = conn
            .query("SELECT w_ytd FROM warehouse WHERE w_id = 1", &[])
            .unwrap()
            .get_f64(0, "w_ytd")
            .unwrap();
        assert!(after > before);
        let hist = conn
            .query("SELECT COUNT(*) AS n FROM history", &[])
            .unwrap()
            .get_int(0, "n")
            .unwrap();
        assert!(hist >= 10 - 5, "history rows {hist}");
    }

    #[test]
    fn delivery_clears_new_orders() {
        let (w, mut conn) = setup();
        let mut rng = Rng::new(5);
        let before = conn
            .query("SELECT COUNT(*) AS n FROM new_order", &[])
            .unwrap()
            .get_int(0, "n")
            .unwrap();
        w.delivery(&mut conn, &mut rng).unwrap();
        let after = conn
            .query("SELECT COUNT(*) AS n FROM new_order", &[])
            .unwrap()
            .get_int(0, "n")
            .unwrap();
        assert_eq!(before - after, DISTRICTS_PER_WAREHOUSE);
    }

    #[test]
    fn order_status_and_stock_level_run() {
        let (w, mut conn) = setup();
        let mut rng = Rng::new(6);
        for _ in 0..20 {
            w.order_status(&mut conn, &mut rng).unwrap();
            w.stock_level(&mut conn, &mut rng).unwrap();
        }
    }

    #[test]
    fn standard_mixture() {
        let w = Tpcc::new();
        assert_eq!(w.default_weights(), vec![45.0, 43.0, 4.0, 4.0, 4.0]);
    }

    #[test]
    fn multi_warehouse_scale() {
        let db = Database::new(Personality::test());
        let w = Tpcc::new();
        let mut conn = Connection::open(&db);
        w.setup(&mut conn, 2.0, &mut Rng::new(7)).unwrap();
        let n = conn
            .query("SELECT COUNT(*) AS n FROM warehouse", &[])
            .unwrap()
            .get_int(0, "n")
            .unwrap();
        assert_eq!(n, 2);
        let mut rng = Rng::new(8);
        for idx in 0..5 {
            w.execute(idx, &mut conn, &mut rng).unwrap();
        }
    }
}
