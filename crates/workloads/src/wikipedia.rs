//! Wikipedia: the on-line encyclopedia workload (Table 1, Web-Oriented),
//! based on the MediaWiki schema and the published request mix: page reads
//! dominate, edits create a new revision + text and touch watchlists.

use std::sync::atomic::{AtomicI64, Ordering};

use bp_core::{BenchmarkClass, LoadSummary, TransactionType, TxnOutcome, Workload};
use bp_sql::{Connection, Result as SqlResult};
use bp_util::rng::{Rng, Zipf};

use crate::helpers::{create_schema, p_i, p_s, run_txn, statements};

const BASE_PAGES: i64 = 300;
const BASE_USERS: i64 = 100;

pub struct Wikipedia {
    pages: AtomicI64,
    users: AtomicI64,
    next_rev: AtomicI64,
    page_zipf: Zipf,
}

impl Default for Wikipedia {
    fn default() -> Self {
        Wikipedia::new()
    }
}

impl Wikipedia {
    pub fn new() -> Wikipedia {
        Wikipedia {
            pages: AtomicI64::new(BASE_PAGES),
            users: AtomicI64::new(BASE_USERS),
            next_rev: AtomicI64::new(BASE_PAGES),
            page_zipf: Zipf::new(BASE_PAGES as u64, 0.8),
        }
    }

    fn page(&self, rng: &mut Rng) -> i64 {
        let n = self.pages.load(Ordering::Relaxed).max(1) as u64;
        (self.page_zipf.sample(rng) % n) as i64
    }

    fn user(&self, rng: &mut Rng) -> i64 {
        rng.int_range(0, self.users.load(Ordering::Relaxed).max(1) - 1)
    }
}

statements! {
    // Schema, in creation order.
    CREATE_USERACCT = "CREATE TABLE wp_user (user_id INT PRIMARY KEY, \
        user_name VARCHAR(32) NOT NULL, user_touched INT)";
    CREATE_PAGE = "CREATE TABLE page (page_id INT PRIMARY KEY, page_title VARCHAR(64) NOT NULL, \
        page_latest INT NOT NULL, page_touched INT)";
    CREATE_PAGE_TITLE_IDX = "CREATE UNIQUE INDEX idx_page_title ON page (page_title)";
    CREATE_REVISION = "CREATE TABLE revision (rev_id INT PRIMARY KEY, rev_page INT NOT NULL, \
        rev_text_id INT NOT NULL, rev_user INT, rev_timestamp INT)";
    CREATE_REVISION_PAGE_IDX = "CREATE INDEX idx_rev_page ON revision (rev_page)";
    CREATE_TEXT = "CREATE TABLE wp_text (old_id INT PRIMARY KEY, old_text VARCHAR(4096) NOT NULL)";
    CREATE_WATCHLIST = "CREATE TABLE watchlist (wl_user INT NOT NULL, wl_page INT NOT NULL, \
        PRIMARY KEY (wl_user, wl_page))";
    // First sent by the loader.
    LOAD_USER = "INSERT INTO wp_user VALUES (?, ?, ?)";
    INSERT_TEXT = "INSERT INTO wp_text VALUES (?, ?)";
    INSERT_REVISION = "INSERT INTO revision VALUES (?, ?, ?, ?, ?)";
    LOAD_PAGE = "INSERT INTO page VALUES (?, ?, ?, ?)";
    INSERT_WATCHLIST = "INSERT INTO watchlist VALUES (?, ?)";
    // First sent by a transaction.
    SELECT_PAGE = "SELECT page_latest FROM page WHERE page_id = ?";
    SELECT_PAGE_REVISION = "SELECT r.rev_id, t.old_text FROM revision r JOIN wp_text t \
        ON r.rev_text_id = t.old_id WHERE r.rev_id = ?";
    SELECT_USER = "SELECT * FROM wp_user WHERE user_id = ?";
    SELECT_WATCHLIST = "SELECT wl_page FROM watchlist WHERE wl_user = ? LIMIT 50";
    DELETE_WATCHLIST = "DELETE FROM watchlist WHERE wl_user = ? AND wl_page = ?";
    LOCK_PAGE = "SELECT page_id FROM page WHERE page_id = ? FOR UPDATE";
    UPDATE_PAGE_LATEST = "UPDATE page SET page_latest = ?, page_touched = ? WHERE page_id = ?";
}

impl Workload for Wikipedia {
    fn name(&self) -> &'static str {
        "wikipedia"
    }

    fn class(&self) -> BenchmarkClass {
        BenchmarkClass::WebOriented
    }

    fn domain(&self) -> &'static str {
        "On-line Encyclopedia"
    }

    fn transaction_types(&self) -> Vec<TransactionType> {
        // Published trace mix (rounded to one decimal).
        vec![
            TransactionType::new("GetPageAnonymous", 92.1, true),
            TransactionType::new("GetPageAuthenticated", 7.1, true),
            TransactionType::new("AddWatchList", 0.3, false),
            TransactionType::new("RemoveWatchList", 0.2, false),
            TransactionType::new("UpdatePage", 0.3, false),
        ]
    }

    fn create_schema(&self, conn: &mut Connection) -> SqlResult<()> {
        create_schema(conn, STATEMENTS)
    }

    fn load(&self, conn: &mut Connection, scale: f64, rng: &mut Rng) -> SqlResult<LoadSummary> {
        let users = ((BASE_USERS as f64 * scale) as i64).max(5);
        let pages = ((BASE_PAGES as f64 * scale) as i64).max(10);
        let mut rows = 0u64;
        for u in 0..users {
            conn.execute(LOAD_USER, &[p_i(u), p_s(format!("user_{u}")), p_i(0)])?;
            rows += 1;
        }
        for p in 0..pages {
            conn.execute(INSERT_TEXT, &[p_i(p), p_s(bp_util::text::text(rng, 400))])?;
            conn.execute(
                INSERT_REVISION,
                &[p_i(p), p_i(p), p_i(p), p_i(rng.int_range(0, users - 1)), p_i(0)],
            )?;
            conn.execute(LOAD_PAGE, &[p_i(p), p_s(format!("Page_{p}")), p_i(p), p_i(0)])?;
            rows += 3;
        }
        for u in 0..users {
            let mut seen = std::collections::HashSet::new();
            for _ in 0..rng.int_range(0, 10) {
                let pg = rng.int_range(0, pages - 1);
                if seen.insert(pg) {
                    conn.execute(INSERT_WATCHLIST, &[p_i(u), p_i(pg)])?;
                    rows += 1;
                }
            }
        }
        self.users.store(users, Ordering::Relaxed);
        self.pages.store(pages, Ordering::Relaxed);
        self.next_rev.store(pages, Ordering::Relaxed);
        Ok(LoadSummary { tables: 5, rows })
    }

    fn execute(&self, txn_idx: usize, conn: &mut Connection, rng: &mut Rng) -> SqlResult<TxnOutcome> {
        let page = self.page(rng);
        let user = self.user(rng);
        match txn_idx {
            // GetPageAnonymous: page -> latest revision -> text.
            0 => run_txn(conn, |c| {
                let rs = c.query(SELECT_PAGE, &[p_i(page)])?;
                let Some(rev) = rs.get_int(0, "page_latest") else {
                    return Ok(TxnOutcome::UserAborted);
                };
                c.query(SELECT_PAGE_REVISION, &[p_i(rev)])?;
                Ok(TxnOutcome::Committed)
            }),
            // GetPageAuthenticated: also touches the user + their watchlist.
            1 => run_txn(conn, |c| {
                c.query(SELECT_USER, &[p_i(user)])?;
                c.query(SELECT_WATCHLIST, &[p_i(user)])?;
                let rs = c.query(SELECT_PAGE, &[p_i(page)])?;
                if let Some(rev) = rs.get_int(0, "page_latest") {
                    c.query(SELECT_PAGE_REVISION, &[p_i(rev)])?;
                }
                Ok(TxnOutcome::Committed)
            }),
            2 => run_txn(conn, |c| {
                match c.execute(INSERT_WATCHLIST, &[p_i(user), p_i(page)]) {
                    Ok(_) => Ok(TxnOutcome::Committed),
                    Err(bp_sql::SqlError::Storage(bp_storage::StorageError::DuplicateKey { .. })) => {
                        Ok(TxnOutcome::UserAborted)
                    }
                    Err(e) => Err(e),
                }
            }),
            3 => run_txn(conn, |c| {
                let n = c.execute(DELETE_WATCHLIST, &[p_i(user), p_i(page)])?.affected();
                Ok(if n == 0 { TxnOutcome::UserAborted } else { TxnOutcome::Committed })
            }),
            // UpdatePage: new text + new revision + bump page_latest.
            4 => {
                let rev = self.next_rev.fetch_add(1, Ordering::Relaxed);
                let body = bp_util::text::text(rng, 400);
                run_txn(conn, |c| {
                    let exists = c.query(LOCK_PAGE, &[p_i(page)])?;
                    if exists.is_empty() {
                        return Ok(TxnOutcome::UserAborted);
                    }
                    c.execute(INSERT_TEXT, &[p_i(rev), p_s(body.clone())])?;
                    c.execute(
                        INSERT_REVISION,
                        &[p_i(rev), p_i(page), p_i(rev), p_i(user), p_i(rev)],
                    )?;
                    c.execute(UPDATE_PAGE_LATEST, &[p_i(rev), p_i(rev), p_i(page)])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            other => panic!("wikipedia has no transaction {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_storage::{Database, Personality};

    fn setup() -> (Wikipedia, Connection) {
        let db = Database::new(Personality::test());
        let w = Wikipedia::new();
        let mut conn = Connection::open(&db);
        w.setup(&mut conn, 0.2, &mut Rng::new(1)).unwrap();
        (w, conn)
    }

    #[test]
    fn update_page_creates_revision_chain() {
        let (w, mut conn) = setup();
        let mut rng = Rng::new(3);
        let revs_before = conn.query("SELECT COUNT(*) AS n FROM revision", &[]).unwrap().get_int(0, "n").unwrap();
        let mut edits = 0;
        for _ in 0..20 {
            if w.execute(4, &mut conn, &mut rng).unwrap() == TxnOutcome::Committed {
                edits += 1;
            }
        }
        let revs_after = conn.query("SELECT COUNT(*) AS n FROM revision", &[]).unwrap().get_int(0, "n").unwrap();
        assert_eq!(revs_after - revs_before, edits);
        // page_latest always points at an existing revision.
        let joined = conn
            .query(
                "SELECT COUNT(*) AS n FROM page p JOIN revision r ON p.page_latest = r.rev_id",
                &[],
            )
            .unwrap()
            .get_int(0, "n")
            .unwrap();
        let pages = conn.query("SELECT COUNT(*) AS n FROM page", &[]).unwrap().get_int(0, "n").unwrap();
        assert_eq!(joined, pages);
    }

    #[test]
    fn reads_dominate_mix() {
        let w = Wikipedia::new();
        let types = w.transaction_types();
        let ro: f64 = types.iter().filter(|t| t.read_only).map(|t| t.default_weight).sum();
        let total: f64 = types.iter().map(|t| t.default_weight).sum();
        assert!(ro / total > 0.98);
    }
}
