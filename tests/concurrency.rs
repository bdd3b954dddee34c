//! Serializability invariants under real multi-threaded chaos: the
//! substrate guarantees the workload-control experiments rest on.


use benchpress::sql::Connection;
use benchpress::storage::{Database, Personality, Value};
use benchpress::util::rng::Rng;

/// Money conservation: concurrent transfers between accounts (with wait-die
/// retries) never create or destroy money.
#[test]
fn concurrent_transfers_conserve_total() {
    const ACCOUNTS: i64 = 40;
    const THREADS: usize = 6;
    const TRANSFERS: usize = 150;

    let db = Database::new(Personality::test());
    let mut setup = Connection::open(&db);
    setup
        .execute_batch("CREATE TABLE acct (id INT PRIMARY KEY, bal INT NOT NULL);")
        .unwrap();
    for i in 0..ACCOUNTS {
        setup
            .execute("INSERT INTO acct VALUES (?, 1000)", &[Value::Int(i)])
            .unwrap();
    }
    let expected_total = ACCOUNTS * 1000;

    // A transfer takes microseconds, so a fixed number of them can finish
    // without two threads ever meeting on a row. The test is only
    // meaningful under real contention: start each round's threads together
    // and run rounds until the lock manager has seen some.
    let contended = || {
        let m = db.metrics().snapshot();
        m.deadlocks > 0 || m.lock_waits > 0
    };
    for round in 0u64.. {
        assert!(round < 200, "no contention observed");
        let start = std::sync::Arc::new(std::sync::Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let db = db.clone();
                let start = start.clone();
                std::thread::spawn(move || {
                    let mut conn = Connection::open(&db);
                    let mut rng = Rng::new(round * THREADS as u64 + t as u64 + 1);
                    start.wait();
                    let mut done = 0;
                    while done < TRANSFERS {
                        let a = rng.int_range(0, ACCOUNTS - 1);
                        let b = rng.int_range(0, ACCOUNTS - 1);
                        if a == b {
                            continue;
                        }
                        let amount = rng.int_range(1, 50);
                        let result = (|| -> benchpress::sql::Result<()> {
                            conn.begin()?;
                            let bal = conn
                                .query("SELECT bal FROM acct WHERE id = ? FOR UPDATE", &[Value::Int(a)])?
                                .get_int(0, "bal")
                                .unwrap_or(0);
                            if bal >= amount {
                                conn.execute(
                                    "UPDATE acct SET bal = bal - ? WHERE id = ?",
                                    &[Value::Int(amount), Value::Int(a)],
                                )?;
                                conn.execute(
                                    "UPDATE acct SET bal = bal + ? WHERE id = ?",
                                    &[Value::Int(amount), Value::Int(b)],
                                )?;
                            }
                            conn.commit()?;
                            Ok(())
                        })();
                        match result {
                            Ok(()) => done += 1,
                            Err(e) if e.is_retryable() => {
                                if conn.in_transaction() {
                                    let _ = conn.rollback();
                                }
                            }
                            Err(e) => panic!("thread {t}: {e}"),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        if contended() {
            break;
        }
    }

    let total = setup
        .query("SELECT SUM(bal) AS t, COUNT(*) AS n FROM acct", &[])
        .unwrap();
    assert_eq!(total.get_int(0, "t"), Some(expected_total), "money not conserved");
    assert_eq!(total.get_int(0, "n"), Some(ACCOUNTS));
    // No account went negative (FOR UPDATE + balance check is atomic).
    let negative = setup
        .query("SELECT COUNT(*) AS n FROM acct WHERE bal < 0", &[])
        .unwrap();
    assert_eq!(negative.get_int(0, "n"), Some(0));
}

/// Index consistency after concurrent insert/update/delete chaos: every
/// secondary-index probe must agree with a full scan.
#[test]
fn secondary_index_consistent_after_chaos() {
    let db = Database::new(Personality::test());
    let mut setup = Connection::open(&db);
    setup
        .execute_batch(
            "CREATE TABLE t (id INT PRIMARY KEY, grp INT NOT NULL, v INT NOT NULL);
             CREATE INDEX t_grp ON t (grp);",
        )
        .unwrap();
    for i in 0..200 {
        setup
            .execute(
                "INSERT INTO t VALUES (?, ?, 0)",
                &[Value::Int(i), Value::Int(i % 10)],
            )
            .unwrap();
    }

    let handles: Vec<_> = (0..4usize)
            .map(|t| {
                let db = db.clone();
                std::thread::spawn(move || {
                    let mut conn = Connection::open(&db);
                    let mut rng = Rng::new(100 + t as u64);
                    let mut next_id = 1_000 + (t as i64) * 10_000;
                    for _ in 0..200 {
                        let op = rng.int_range(0, 2);
                        let r = match op {
                            0 => {
                                next_id += 1;
                                conn.execute(
                                    "INSERT INTO t VALUES (?, ?, 0)",
                                    &[Value::Int(next_id), Value::Int(rng.int_range(0, 9))],
                                )
                            }
                            1 => conn.execute(
                                "UPDATE t SET grp = ? WHERE id = ?",
                                &[Value::Int(rng.int_range(0, 9)), Value::Int(rng.int_range(0, 199))],
                            ),
                            _ => conn.execute(
                                "DELETE FROM t WHERE id = ?",
                                &[Value::Int(rng.int_range(0, 199))],
                            ),
                        };
                        match r {
                            Ok(_) => {}
                            Err(e) if e.is_retryable() => {
                                if conn.in_transaction() {
                                    let _ = conn.rollback();
                                }
                            }
                            Err(e) => panic!("{e}"),
                        }
                    }
                })
            })
            .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Cross-check: per-group counts via the index path (WHERE grp = ?) vs
    // the scan path (GROUP BY over a full scan).
    let scan = setup
        .query("SELECT grp, COUNT(*) AS n FROM t GROUP BY grp ORDER BY grp", &[])
        .unwrap();
    let mut total_via_index = 0i64;
    for r in 0..scan.len() {
        let grp = scan.get_int(r, "grp").unwrap();
        let scan_n = scan.get_int(r, "n").unwrap();
        let idx_n = setup
            .query("SELECT COUNT(*) AS n FROM t WHERE grp = ?", &[Value::Int(grp)])
            .unwrap()
            .get_int(0, "n")
            .unwrap();
        assert_eq!(scan_n, idx_n, "index/scan mismatch for grp {grp}");
        total_via_index += idx_n;
    }
    let total = setup
        .query("SELECT COUNT(*) AS n FROM t", &[])
        .unwrap()
        .get_int(0, "n")
        .unwrap();
    assert_eq!(total, total_via_index);
}
