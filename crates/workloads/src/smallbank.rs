//! SmallBank: the banking micro-benchmark (Table 1, Transactional).
//!
//! Six transactions over `accounts` / `savings` / `checking`, with a hot-spot
//! access pattern: a small fraction of accounts receives most operations,
//! which generates realistic lock contention for the mixture experiments.

use std::sync::atomic::{AtomicI64, Ordering};

use bp_core::{BenchmarkClass, LoadSummary, TransactionType, TxnOutcome, Workload};
use bp_sql::{Connection, Result as SqlResult};
use bp_util::rng::Rng;

use crate::helpers::{create_schema, p_f, p_i, p_s, run_txn, statements};

const BASE_ACCOUNTS: i64 = 1_000;
/// Probability of touching the hot set.
const HOT_PROB: f64 = 0.9;
/// Size of the hot set as a fraction of all accounts.
const HOT_FRACTION: f64 = 0.05;

pub struct SmallBank {
    accounts: AtomicI64,
}

impl Default for SmallBank {
    fn default() -> Self {
        SmallBank::new()
    }
}

impl SmallBank {
    pub fn new() -> SmallBank {
        SmallBank { accounts: AtomicI64::new(BASE_ACCOUNTS) }
    }

    fn account(&self, rng: &mut Rng) -> i64 {
        let n = self.accounts.load(Ordering::Relaxed).max(1);
        let hot = ((n as f64 * HOT_FRACTION) as i64).max(1);
        if rng.bool_with(HOT_PROB) {
            rng.int_range(0, hot - 1)
        } else {
            rng.int_range(0, n - 1)
        }
    }

    fn two_accounts(&self, rng: &mut Rng) -> (i64, i64) {
        let a = self.account(rng);
        loop {
            let b = self.account(rng);
            if b != a {
                return (a, b);
            }
        }
    }
}

statements! {
    // Schema, in creation order.
    CREATE_ACCOUNTS = "CREATE TABLE accounts (custid INT PRIMARY KEY, name VARCHAR(64) NOT NULL)";
    CREATE_SAVINGS = "CREATE TABLE savings (custid INT PRIMARY KEY, bal FLOAT NOT NULL)";
    CREATE_CHECKING = "CREATE TABLE checking (custid INT PRIMARY KEY, bal FLOAT NOT NULL)";
    // First sent by the loader.
    LOAD_ACCOUNT = "INSERT INTO accounts VALUES (?, ?)";
    LOAD_SAVINGS = "INSERT INTO savings VALUES (?, ?)";
    LOAD_CHECKING = "INSERT INTO checking VALUES (?, ?)";
    // First sent by a transaction.
    GET_SAVINGS = "SELECT bal FROM savings WHERE custid = ?";
    GET_CHECKING = "SELECT bal FROM checking WHERE custid = ?";
    UPDATE_CHECKING = "UPDATE checking SET bal = bal + ? WHERE custid = ?";
    LOCK_SAVINGS = "SELECT bal FROM savings WHERE custid = ? FOR UPDATE";
    DEBIT_SAVINGS = "UPDATE savings SET bal = bal - ? WHERE custid = ?";
    LOCK_CHECKING = "SELECT bal FROM checking WHERE custid = ? FOR UPDATE";
    ZERO_SAVINGS = "UPDATE savings SET bal = 0 WHERE custid = ?";
    ZERO_CHECKING = "UPDATE checking SET bal = 0 WHERE custid = ?";
    DEBIT_CHECKING = "UPDATE checking SET bal = bal - ? WHERE custid = ?";
}

impl Workload for SmallBank {
    fn name(&self) -> &'static str {
        "smallbank"
    }

    fn class(&self) -> BenchmarkClass {
        BenchmarkClass::Transactional
    }

    fn domain(&self) -> &'static str {
        "Banking System"
    }

    fn transaction_types(&self) -> Vec<TransactionType> {
        vec![
            TransactionType::new("Balance", 25.0, true),
            TransactionType::new("DepositChecking", 15.0, false),
            TransactionType::new("TransactSavings", 15.0, false),
            TransactionType::new("Amalgamate", 15.0, false),
            TransactionType::new("WriteCheck", 15.0, false),
            TransactionType::new("SendPayment", 15.0, false),
        ]
    }

    fn create_schema(&self, conn: &mut Connection) -> SqlResult<()> {
        create_schema(conn, STATEMENTS)
    }

    fn load(&self, conn: &mut Connection, scale: f64, rng: &mut Rng) -> SqlResult<LoadSummary> {
        let n = ((BASE_ACCOUNTS as f64 * scale) as i64).max(20);
        for id in 0..n {
            conn.execute(LOAD_ACCOUNT, &[p_i(id), p_s(bp_util::text::full_name(rng))])?;
            conn.execute(LOAD_SAVINGS, &[p_i(id), p_f(rng.f64_range(100.0, 50_000.0))])?;
            conn.execute(LOAD_CHECKING, &[p_i(id), p_f(rng.f64_range(100.0, 50_000.0))])?;
        }
        self.accounts.store(n, Ordering::Relaxed);
        Ok(LoadSummary { tables: 3, rows: (3 * n) as u64 })
    }

    fn execute(&self, txn_idx: usize, conn: &mut Connection, rng: &mut Rng) -> SqlResult<TxnOutcome> {
        match txn_idx {
            // Balance: read both balances.
            0 => {
                let id = self.account(rng);
                run_txn(conn, |c| {
                    c.query(GET_SAVINGS, &[p_i(id)])?;
                    c.query(GET_CHECKING, &[p_i(id)])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            // DepositChecking.
            1 => {
                let id = self.account(rng);
                let amount = rng.f64_range(1.0, 100.0);
                run_txn(conn, |c| {
                    c.execute(UPDATE_CHECKING, &[p_f(amount), p_i(id)])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            // TransactSavings: withdraw if sufficient funds.
            2 => {
                let id = self.account(rng);
                let amount = rng.f64_range(1.0, 100.0);
                run_txn(conn, |c| {
                    let bal = c.query(LOCK_SAVINGS, &[p_i(id)])?.get_f64(0, "bal").unwrap_or(0.0);
                    if bal < amount {
                        return Ok(TxnOutcome::UserAborted);
                    }
                    c.execute(DEBIT_SAVINGS, &[p_f(amount), p_i(id)])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            // Amalgamate: move everything from savings+checking of A to
            // checking of B.
            3 => {
                let (a, b) = self.two_accounts(rng);
                run_txn(conn, |c| {
                    let s = c.query(LOCK_SAVINGS, &[p_i(a)])?.get_f64(0, "bal").unwrap_or(0.0);
                    let k = c.query(LOCK_CHECKING, &[p_i(a)])?.get_f64(0, "bal").unwrap_or(0.0);
                    c.execute(ZERO_SAVINGS, &[p_i(a)])?;
                    c.execute(ZERO_CHECKING, &[p_i(a)])?;
                    c.execute(UPDATE_CHECKING, &[p_f(s + k), p_i(b)])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            // WriteCheck: overdraft penalty if insufficient.
            4 => {
                let id = self.account(rng);
                let amount = rng.f64_range(1.0, 200.0);
                run_txn(conn, |c| {
                    let s = c.query(GET_SAVINGS, &[p_i(id)])?.get_f64(0, "bal").unwrap_or(0.0);
                    let k = c.query(LOCK_CHECKING, &[p_i(id)])?.get_f64(0, "bal").unwrap_or(0.0);
                    let charge = if s + k < amount { amount + 1.0 } else { amount };
                    c.execute(DEBIT_CHECKING, &[p_f(charge), p_i(id)])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            // SendPayment: checking -> checking transfer.
            5 => {
                let (a, b) = self.two_accounts(rng);
                let amount = rng.f64_range(1.0, 100.0);
                run_txn(conn, |c| {
                    let bal = c.query(LOCK_CHECKING, &[p_i(a)])?.get_f64(0, "bal").unwrap_or(0.0);
                    if bal < amount {
                        return Ok(TxnOutcome::UserAborted);
                    }
                    c.execute(DEBIT_CHECKING, &[p_f(amount), p_i(a)])?;
                    c.execute(UPDATE_CHECKING, &[p_f(amount), p_i(b)])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            other => panic!("smallbank has no transaction {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_storage::{Database, Personality};

    fn setup() -> (SmallBank, Connection) {
        let db = Database::new(Personality::test());
        let w = SmallBank::new();
        let mut conn = Connection::open(&db);
        w.setup(&mut conn, 0.1, &mut Rng::new(1)).unwrap();
        (w, conn)
    }

    #[test]
    fn send_payment_conserves_total_checking() {
        let (w, mut conn) = setup();
        let mut rng = Rng::new(3);
        let before = conn
            .query("SELECT SUM(bal) AS t FROM checking", &[])
            .unwrap()
            .get_f64(0, "t")
            .unwrap();
        for _ in 0..50 {
            w.execute(5, &mut conn, &mut rng).unwrap();
        }
        let after = conn
            .query("SELECT SUM(bal) AS t FROM checking", &[])
            .unwrap()
            .get_f64(0, "t")
            .unwrap();
        assert!((before - after).abs() < 1e-6, "leaked {}", before - after);
    }

    #[test]
    fn amalgamate_zeroes_source() {
        let (w, mut conn) = setup();
        let mut rng = Rng::new(4);
        for _ in 0..20 {
            w.execute(3, &mut conn, &mut rng).unwrap();
        }
        // At least one account should now have zero savings.
        let zeros = conn
            .query("SELECT COUNT(*) AS n FROM savings WHERE bal = 0", &[])
            .unwrap()
            .get_int(0, "n")
            .unwrap();
        assert!(zeros > 0);
    }

    #[test]
    fn hot_accounts_dominate() {
        let (w, _) = setup();
        let mut rng = Rng::new(5);
        let hot = (0..10_000).filter(|_| w.account(&mut rng) < 5).count();
        assert!(hot > 5_000, "hot share {hot}");
    }
}
