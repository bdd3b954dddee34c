//! LinkBench: Facebook's social-graph storage benchmark (Table 1,
//! Web-Oriented). Nodes, typed links and link counts with the standard
//! operation mix (read-dominated, ~69% GetLinkList).

use std::sync::atomic::{AtomicI64, Ordering};

use bp_core::{BenchmarkClass, LoadSummary, TransactionType, TxnOutcome, Workload};
use bp_sql::{Connection, Result as SqlResult};
use bp_util::rng::Rng;

use crate::helpers::{create_schema, p_i, p_s, run_txn, statements};

const BASE_NODES: i64 = 500;
const LINKS_PER_NODE: i64 = 5;
const LINK_TYPE: i64 = 123;

pub struct LinkBench {
    nodes: AtomicI64,
}

impl Default for LinkBench {
    fn default() -> Self {
        LinkBench::new()
    }
}

impl LinkBench {
    pub fn new() -> LinkBench {
        LinkBench { nodes: AtomicI64::new(BASE_NODES) }
    }

    fn node(&self, rng: &mut Rng) -> i64 {
        rng.int_range(0, self.nodes.load(Ordering::Relaxed).max(1) - 1)
    }
}

statements! {
    // Schema, in creation order.
    CREATE_NODETABLE = "CREATE TABLE nodetable (id INT PRIMARY KEY, node_type INT NOT NULL, \
        version INT NOT NULL, time INT NOT NULL, data VARCHAR(255))";
    CREATE_LINKTABLE = "CREATE TABLE linktable (id1 INT NOT NULL, link_type INT NOT NULL, \
        id2 INT NOT NULL, visibility INT NOT NULL, data VARCHAR(255), version INT, time INT, \
        PRIMARY KEY (id1, link_type, id2))";
    CREATE_COUNTTABLE = "CREATE TABLE counttable (id INT NOT NULL, link_type INT NOT NULL, \
        count INT NOT NULL, PRIMARY KEY (id, link_type))";
    // First sent by the loader.
    ADD_NODE = "INSERT INTO nodetable VALUES (?, ?, ?, ?, ?)";
    ADD_LINK = "INSERT INTO linktable VALUES (?, ?, ?, 1, ?, 0, ?)";
    LOAD_COUNT = "INSERT INTO counttable VALUES (?, ?, ?)";
    // First sent by a transaction.
    GET_NODE = "SELECT * FROM nodetable WHERE id = ?";
    GET_LINK = "SELECT * FROM linktable WHERE id1 = ? AND link_type = ? AND id2 = ?";
    GET_LINK_LIST = "SELECT * FROM linktable WHERE id1 = ? AND link_type = ? AND visibility = 1 \
        ORDER BY time DESC LIMIT 50";
    COUNT_LINK = "SELECT count FROM counttable WHERE id = ? AND link_type = ?";
    INIT_COUNT = "INSERT INTO counttable VALUES (?, ?, 0)";
    UPDATE_NODE = "UPDATE nodetable SET data = ?, version = version + 1 WHERE id = ?";
    DELETE_NODE = "DELETE FROM nodetable WHERE id = ?";
    INCREMENT_COUNT = "UPDATE counttable SET count = count + 1 WHERE id = ? AND link_type = ?";
    DELETE_LINK = "UPDATE linktable SET visibility = 0 WHERE id1 = ? AND link_type = ? AND id2 = ?";
    DECREMENT_COUNT = "UPDATE counttable SET count = count - 1 WHERE id = ? AND link_type = ?";
    UPDATE_LINK = "UPDATE linktable SET data = ?, version = version + 1 WHERE id1 = ? \
        AND link_type = ? AND id2 = ?";
}

impl Workload for LinkBench {
    fn name(&self) -> &'static str {
        "linkbench"
    }

    fn class(&self) -> BenchmarkClass {
        BenchmarkClass::WebOriented
    }

    fn domain(&self) -> &'static str {
        "Social Networking"
    }

    fn transaction_types(&self) -> Vec<TransactionType> {
        // Facebook-published mix, lightly rounded.
        vec![
            TransactionType::new("GetNode", 13.0, true),
            TransactionType::new("GetLink", 2.0, true),
            TransactionType::new("GetLinkList", 50.0, true),
            TransactionType::new("CountLink", 5.0, true),
            TransactionType::new("AddNode", 3.0, false),
            TransactionType::new("UpdateNode", 7.0, false),
            TransactionType::new("DeleteNode", 1.0, false),
            TransactionType::new("AddLink", 9.0, false),
            TransactionType::new("DeleteLink", 3.0, false),
            TransactionType::new("UpdateLink", 7.0, false),
        ]
    }

    fn create_schema(&self, conn: &mut Connection) -> SqlResult<()> {
        create_schema(conn, STATEMENTS)
    }

    fn load(&self, conn: &mut Connection, scale: f64, rng: &mut Rng) -> SqlResult<LoadSummary> {
        let nodes = ((BASE_NODES as f64 * scale) as i64).max(20);
        let mut rows = 0u64;
        for n in 0..nodes {
            conn.execute(ADD_NODE, &[p_i(n), p_i(1), p_i(0), p_i(n), p_s(rng.astring(20, 120))])?;
            rows += 1;
            let mut count = 0;
            let mut seen = std::collections::HashSet::new();
            for _ in 0..rng.int_range(1, LINKS_PER_NODE) {
                let id2 = rng.int_range(0, nodes - 1);
                if id2 != n && seen.insert(id2) {
                    conn.execute(
                        ADD_LINK,
                        &[p_i(n), p_i(LINK_TYPE), p_i(id2), p_s(rng.astring(10, 60)), p_i(n)],
                    )?;
                    count += 1;
                    rows += 1;
                }
            }
            conn.execute(LOAD_COUNT, &[p_i(n), p_i(LINK_TYPE), p_i(count)])?;
            rows += 1;
        }
        self.nodes.store(nodes, Ordering::Relaxed);
        Ok(LoadSummary { tables: 3, rows })
    }

    fn execute(&self, txn_idx: usize, conn: &mut Connection, rng: &mut Rng) -> SqlResult<TxnOutcome> {
        let id1 = self.node(rng);
        let id2 = self.node(rng);
        match txn_idx {
            0 => run_txn(conn, |c| {
                c.query(GET_NODE, &[p_i(id1)])?;
                Ok(TxnOutcome::Committed)
            }),
            1 => run_txn(conn, |c| {
                c.query(GET_LINK, &[p_i(id1), p_i(LINK_TYPE), p_i(id2)])?;
                Ok(TxnOutcome::Committed)
            }),
            2 => run_txn(conn, |c| {
                c.query(GET_LINK_LIST, &[p_i(id1), p_i(LINK_TYPE)])?;
                Ok(TxnOutcome::Committed)
            }),
            3 => run_txn(conn, |c| {
                c.query(COUNT_LINK, &[p_i(id1), p_i(LINK_TYPE)])?;
                Ok(TxnOutcome::Committed)
            }),
            4 => {
                let new_id = self.nodes.fetch_add(1, Ordering::Relaxed);
                let data = rng.astring(20, 120);
                run_txn(conn, |c| {
                    c.execute(
                        ADD_NODE,
                        &[p_i(new_id), p_i(1), p_i(0), p_i(new_id), p_s(data.clone())],
                    )?;
                    c.execute(INIT_COUNT, &[p_i(new_id), p_i(LINK_TYPE)])?;
                    Ok(TxnOutcome::Committed)
                })
            }
            5 => {
                let data = rng.astring(20, 120);
                run_txn(conn, |c| {
                    let n = c.execute(UPDATE_NODE, &[p_s(data.clone()), p_i(id1)])?.affected();
                    Ok(if n == 0 { TxnOutcome::UserAborted } else { TxnOutcome::Committed })
                })
            }
            6 => run_txn(conn, |c| {
                let n = c.execute(DELETE_NODE, &[p_i(id1)])?.affected();
                Ok(if n == 0 { TxnOutcome::UserAborted } else { TxnOutcome::Committed })
            }),
            7 => {
                let data = rng.astring(10, 60);
                run_txn(conn, |c| {
                    let ins = c.execute(
                        ADD_LINK,
                        &[p_i(id1), p_i(LINK_TYPE), p_i(id2), p_s(data.clone()), p_i(id1)],
                    );
                    match ins {
                        Ok(_) => {
                            c.execute(INCREMENT_COUNT, &[p_i(id1), p_i(LINK_TYPE)])?;
                            Ok(TxnOutcome::Committed)
                        }
                        Err(bp_sql::SqlError::Storage(
                            bp_storage::StorageError::DuplicateKey { .. },
                        )) => Ok(TxnOutcome::UserAborted),
                        Err(e) => Err(e),
                    }
                })
            }
            8 => run_txn(conn, |c| {
                let n = c.execute(DELETE_LINK, &[p_i(id1), p_i(LINK_TYPE), p_i(id2)])?.affected();
                if n > 0 {
                    c.execute(DECREMENT_COUNT, &[p_i(id1), p_i(LINK_TYPE)])?;
                    Ok(TxnOutcome::Committed)
                } else {
                    Ok(TxnOutcome::UserAborted)
                }
            }),
            9 => {
                let data = rng.astring(10, 60);
                run_txn(conn, |c| {
                    let n = c
                        .execute(
                            UPDATE_LINK,
                            &[p_s(data.clone()), p_i(id1), p_i(LINK_TYPE), p_i(id2)],
                        )?
                        .affected();
                    Ok(if n == 0 { TxnOutcome::UserAborted } else { TxnOutcome::Committed })
                })
            }
            other => panic!("linkbench has no transaction {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_storage::{Database, Personality};

    fn setup() -> (LinkBench, Connection) {
        let db = Database::new(Personality::test());
        let w = LinkBench::new();
        let mut conn = Connection::open(&db);
        w.setup(&mut conn, 0.2, &mut Rng::new(1)).unwrap();
        (w, conn)
    }

    #[test]
    fn add_link_maintains_count() {
        let (w, mut conn) = setup();
        let mut rng = Rng::new(3);
        for _ in 0..100 {
            w.execute(7, &mut conn, &mut rng).unwrap();
        }
        // Every node's counttable entry matches its visible links.
        let rs = conn
            .query(
                "SELECT id1, COUNT(*) AS n FROM linktable WHERE visibility = 1 GROUP BY id1 ORDER BY id1",
                &[],
            )
            .unwrap();
        for r in 0..rs.len() {
            let id = rs.get_int(r, "id1").unwrap();
            let links = rs.get_int(r, "n").unwrap();
            let counted = conn
                .query("SELECT count FROM counttable WHERE id = ? AND link_type = ?", &[p_i(id), p_i(LINK_TYPE)])
                .unwrap()
                .get_int(0, "count")
                .unwrap_or(0);
            assert_eq!(links, counted, "node {id}");
        }
    }
}
