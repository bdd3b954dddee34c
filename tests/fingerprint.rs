//! Differential fingerprint of the engine: what every bundled benchmark's
//! transactions and catalog statements do to a seeded database, one line
//! each, against a committed golden file.
//!
//! An engine change either leaves `tests/golden/fingerprint.txt` byte-equal
//! or explains each line it changes. Per line: commits, aborts, rows read,
//! rows written and WAL bytes of 64 seeded rounds; for a statement also how
//! many draws failed and a hash of every outcome (result rows, affected
//! count or error text) both as returned and with each result's rows
//! sorted, so a change of order alone reads as one; and a hash of
//! `state_digest()` when the rounds are done. Everything is single-threaded
//! and seeded, so the text is the same in every run and build profile.

#[path = "support/catalog.rs"]
mod catalog;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use bp_sql::{Connection, StatementResult};
use bp_storage::{Database, MetricsSnapshot, Value};
use bp_util::rng::Rng;
use catalog::{dml_statements, draw, loaded, param_types};

const ROUNDS: usize = 64;
const GOLDEN: &str = include_str!("golden/fingerprint.txt");

/// FNV-1a, 64 bits, fed piecewise.
struct Hash(u64);

impl Hash {
    fn new() -> Hash {
        Hash(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ *b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// One result row, by the text of its values: independent of the type
    /// that holds them.
    fn row(&mut self, row: &[Value]) {
        for v in row {
            self.bytes(format!("{v:?},").as_bytes());
        }
        self.bytes(b";");
    }
}

/// The counters of one line, since `before`, and the state they left.
fn counters(db: &Database, before: &MetricsSnapshot) -> String {
    let m = db.metrics().snapshot().delta(before);
    let mut state = Hash::new();
    state.bytes(&db.state_digest());
    format!(
        "commits={} aborts={} rows_read={} rows_written={} wal_bytes={} state={:016x}",
        m.commits, m.aborts, m.rows_read, m.rows_written, m.wal_bytes, state.0
    )
}

fn fingerprint() -> String {
    let mut out = String::new();
    for w in bp_workloads::all_workloads() {
        // Transaction bodies, each type in turn on one database.
        let db = loaded(&*w);
        let mut conn = Connection::open(&db);
        let mut rng = Rng::new(0xF1_6E57);
        for (idx, ty) in w.transaction_types().iter().enumerate() {
            let before = db.metrics().snapshot();
            let (mut committed, mut user_aborted, mut failed) = (0, 0, 0);
            for _ in 0..ROUNDS {
                match w.execute(idx, &mut conn, &mut rng) {
                    Ok(bp_core::TxnOutcome::Committed) => committed += 1,
                    Ok(bp_core::TxnOutcome::UserAborted) => user_aborted += 1,
                    Err(_) => failed += 1,
                }
            }
            writeln!(
                out,
                "{} txn {}: committed={committed} user_aborted={user_aborted} failed={failed} {}",
                w.name(),
                ty.name,
                counters(&db, &before)
            )
            .unwrap();
        }

        // Catalog statements, each autocommitted, on a database of their own.
        let db = loaded(&*w);
        let mut conn = Connection::open(&db);
        for (nth, (name, sql, stmt)) in dml_statements(w.name()).into_iter().enumerate() {
            let prepared = conn.prepare(&sql).expect("prepare");
            let types = param_types(&db, &stmt, prepared.param_count());
            let mut rng = Rng::new(0x5747_E000 + nth as u64);
            let before = db.metrics().snapshot();
            let (mut exact, mut sorted, mut errors) = (Hash::new(), Hash::new(), 0);
            for _ in 0..ROUNDS {
                let params: Vec<Value> = types.iter().map(|ty| draw(*ty, &mut rng)).collect();
                match conn.execute_prepared(&prepared, &params) {
                    Ok(StatementResult::Rows(rs)) => {
                        rs.rows.iter().for_each(|r| exact.row(r));
                        let mut rows = rs.rows;
                        rows.sort();
                        rows.iter().for_each(|r| sorted.row(r));
                    }
                    Ok(other) => {
                        let text = format!("{other:?}");
                        exact.bytes(text.as_bytes());
                        sorted.bytes(text.as_bytes());
                    }
                    Err(e) => {
                        errors += 1;
                        exact.bytes(e.to_string().as_bytes());
                        sorted.bytes(e.to_string().as_bytes());
                    }
                }
                // A draw ends; `[1],[2]` and `[1,2]` are different answers.
                exact.bytes(b"|");
                sorted.bytes(b"|");
            }
            writeln!(
                out,
                "{} stmt {name}: errors={errors} results={:016x} sorted={:016x} {}",
                w.name(),
                exact.0,
                sorted.0,
                counters(&db, &before)
            )
            .unwrap();
        }
    }
    out
}

/// The lines of a fingerprint by what they measure.
fn keyed(text: &str) -> BTreeMap<&str, &str> {
    text.lines().map(|line| (line.split_once(':').map_or(line, |(key, _)| key), line)).collect()
}

#[test]
fn engine_fingerprint_matches_golden() {
    let actual = fingerprint();
    // Kept where a deliberate change can be accepted from:
    //   cp target/tmp/fingerprint.txt tests/golden/fingerprint.txt
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fingerprint.txt");
    std::fs::write(&path, &actual).expect("write the actual fingerprint");
    // Lines pair up by what they measure, `<benchmark> <txn|stmt> <name>`,
    // so a statement added or dropped reads as that one line.
    let (golden, got) = (keyed(GOLDEN), keyed(&actual));
    let mut report = Vec::new();
    for (key, line) in &golden {
        match got.get(key) {
            Some(now) if now == line => {}
            Some(now) => report.push(format!("changed  {key}\n  - {line}\n  + {now}")),
            None => report.push(format!("dropped  {key}")),
        }
    }
    report.extend(got.keys().filter(|k| !golden.contains_key(*k)).map(|k| format!("added    {k}")));
    assert!(
        report.is_empty(),
        "{} of {} lines of tests/golden/fingerprint.txt differ ({} lines now; all of them in {}):\n{}",
        report.len(),
        golden.len(),
        got.len(),
        path.display(),
        report.join("\n")
    );
    assert_eq!(GOLDEN, actual, "same lines, another order");
}
