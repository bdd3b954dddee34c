//! CH-benCHmark: the mixed OLTP + OLAP benchmark (Table 1, Transactional,
//! "Mixture of OLTP and OLAP").
//!
//! Runs the five TPC-C transactions alongside TPC-H-style analytic queries
//! over the same (slightly extended) schema. The analytic queries here are
//! Q1-, Q4-, Q6- and Q12-flavored, rewritten for the supported SQL subset;
//! they produce the OLTP/OLAP interference the benchmark exists to measure.

use bp_core::{BenchmarkClass, LoadSummary, TransactionType, TxnOutcome, Workload};
use bp_sql::{Connection, Result as SqlResult};
use bp_util::rng::Rng;

use crate::helpers::{create_schema, p_i, p_s, run_txn, statements};
use crate::tpcc::Tpcc;

const NATIONS: i64 = 25;
const SUPPLIERS: i64 = 50;

pub struct ChBenchmark {
    tpcc: Tpcc,
}

impl Default for ChBenchmark {
    fn default() -> Self {
        ChBenchmark::new()
    }
}

impl ChBenchmark {
    pub fn new() -> ChBenchmark {
        ChBenchmark { tpcc: Tpcc::new() }
    }
}

statements! {
    // Schema, in creation order.
    CREATE_REGION = "CREATE TABLE region (r_id INT PRIMARY KEY, r_name VARCHAR(32) NOT NULL)";
    CREATE_NATION = "CREATE TABLE nation (n_id INT PRIMARY KEY, n_name VARCHAR(32) NOT NULL, \
        n_r_id INT NOT NULL)";
    CREATE_SUPPLIER = "CREATE TABLE supplier (su_id INT PRIMARY KEY, \
        su_name VARCHAR(32) NOT NULL, su_n_id INT NOT NULL)";
    // First sent by the loader.
    LOAD_REGION = "INSERT INTO region VALUES (?, ?)";
    LOAD_NATION = "INSERT INTO nation VALUES (?, ?, ?)";
    LOAD_SUPPLIER = "INSERT INTO supplier VALUES (?, ?, ?)";
    // First sent by a transaction.
    Q1 = "SELECT ol_number, SUM(ol_quantity) AS sum_qty, SUM(ol_amount) AS sum_amount, \
        AVG(ol_quantity) AS avg_qty, COUNT(*) AS count_order FROM order_line WHERE ol_o_id > ? \
        GROUP BY ol_number ORDER BY ol_number";
    Q4 = "SELECT o_ol_cnt, COUNT(*) AS order_count FROM orders WHERE o_entry_d >= ? \
        GROUP BY o_ol_cnt ORDER BY o_ol_cnt";
    Q6 = "SELECT SUM(ol_amount) AS revenue FROM order_line WHERE ol_quantity BETWEEN ? AND ? \
        AND ol_amount > ?";
    Q12 = "SELECT o.o_ol_cnt, COUNT(*) AS line_count FROM orders o JOIN order_line ol \
        ON o.o_id = ol.ol_o_id WHERE o.o_w_id = ? AND ol.ol_w_id = ? AND o.o_d_id = ol.ol_d_id \
        GROUP BY o.o_ol_cnt ORDER BY o.o_ol_cnt";
}

impl Workload for ChBenchmark {
    fn name(&self) -> &'static str {
        "chbenchmark"
    }

    fn class(&self) -> BenchmarkClass {
        BenchmarkClass::Transactional
    }

    fn domain(&self) -> &'static str {
        "Mixture of OLTP and OLAP"
    }

    fn transaction_types(&self) -> Vec<TransactionType> {
        let mut types: Vec<TransactionType> = self
            .tpcc
            .transaction_types()
            .into_iter()
            .map(|mut t| {
                t.default_weight *= 0.88; // leave 12% for the analytic side
                t
            })
            .collect();
        types.push(TransactionType::new("Q1", 3.0, true));
        types.push(TransactionType::new("Q4", 3.0, true));
        types.push(TransactionType::new("Q6", 3.0, true));
        types.push(TransactionType::new("Q12", 3.0, true));
        types
    }

    fn create_schema(&self, conn: &mut Connection) -> SqlResult<()> {
        self.tpcc.create_schema(conn)?;
        create_schema(conn, STATEMENTS)
    }

    fn load(&self, conn: &mut Connection, scale: f64, rng: &mut Rng) -> SqlResult<LoadSummary> {
        let base = self.tpcc.load(conn, scale, rng)?;
        for r in 0..5 {
            conn.execute(LOAD_REGION, &[p_i(r), p_s(rng.astring(5, 20))])?;
        }
        for n in 0..NATIONS {
            conn.execute(
                LOAD_NATION,
                &[p_i(n), p_s(rng.astring(5, 20)), p_i(rng.int_range(0, 4))],
            )?;
        }
        for s in 0..SUPPLIERS {
            conn.execute(
                LOAD_SUPPLIER,
                &[p_i(s), p_s(rng.astring(5, 20)), p_i(rng.int_range(0, NATIONS - 1))],
            )?;
        }
        Ok(LoadSummary {
            tables: base.tables + 3,
            rows: base.rows + 5 + NATIONS as u64 + SUPPLIERS as u64,
        })
    }

    fn execute(&self, txn_idx: usize, conn: &mut Connection, rng: &mut Rng) -> SqlResult<TxnOutcome> {
        match txn_idx {
            0..=4 => self.tpcc.execute(txn_idx, conn, rng),
            // Q1: pricing summary over recent order lines.
            5 => {
                let cutoff = rng.int_range(0, 10);
                run_txn(conn, |c| {
                    c.query(Q1, &[p_i(cutoff)])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            // Q4: order-priority checking.
            6 => {
                let since = rng.int_range(0, 20);
                run_txn(conn, |c| {
                    c.query(Q4, &[p_i(since)])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            // Q6: revenue forecast.
            7 => run_txn(conn, |c| {
                c.query(Q6, &[p_i(1), p_i(10), p_i(100)])?;
                Ok(TxnOutcome::Committed)
            }),
            // Q12: shipping-mode / order-priority join.
            8 => run_txn(conn, |c| {
                c.query(Q12, &[p_i(1), p_i(1)])?;
                Ok(TxnOutcome::Committed)
            }),
            other => panic!("chbenchmark has no transaction {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_storage::{Database, Personality};

    fn setup() -> (ChBenchmark, Connection) {
        let db = Database::new(Personality::test());
        let w = ChBenchmark::new();
        let mut conn = Connection::open(&db);
        w.setup(&mut conn, 1.0, &mut Rng::new(1)).unwrap();
        (w, conn)
    }

    #[test]
    fn q1_returns_grouped_rows() {
        let (_, mut conn) = setup();
        let rs = conn
            .query(
                "SELECT ol_number, COUNT(*) AS count_order FROM order_line \
                 WHERE ol_o_id > 0 GROUP BY ol_number ORDER BY ol_number",
                &[],
            )
            .unwrap();
        assert!(rs.len() >= 5, "groups {}", rs.len());
        // ol_number 1 exists for every order.
        assert_eq!(rs.get_int(0, "ol_number"), Some(1));
    }

    #[test]
    fn q6_revenue_positive() {
        let (_, mut conn) = setup();
        let rs = conn
            .query(
                "SELECT SUM(ol_amount) AS revenue FROM order_line WHERE ol_quantity BETWEEN 1 AND 10 AND ol_amount > 100",
                &[],
            )
            .unwrap();
        assert!(rs.get_f64(0, "revenue").unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn mixture_is_88_percent_tpcc() {
        let w = ChBenchmark::new();
        let weights = w.default_weights();
        let tpcc_share: f64 = weights[..5].iter().sum();
        let olap_share: f64 = weights[5..].iter().sum();
        assert!((tpcc_share - 88.0).abs() < 1e-9);
        assert!((olap_share - 12.0).abs() < 1e-9);
    }
}
