//! Output checks, run after every window once the run has stopped. A
//! benchmark that measures a broken run measures nothing.

use bp_storage::Database;

use crate::window::WindowData;
use crate::workloads::{Drive, Spec};

/// The table whose size `check` compares with the run's commits.
fn checked_table(spec: &Spec) -> Option<&'static str> {
    match spec.bench {
        "voter" => Some("votes"),
        "ycsb" => Some("usertable"),
        _ => None,
    }
}

/// Rows in the checked table now; read before a run for `check`'s
/// `rows_before`.
pub fn checked_rows(spec: &Spec, db: &Database) -> u64 {
    checked_table(spec)
        .and_then(|name| db.table(name).ok())
        .map_or(0, |t| t.len() as u64)
}

/// Violations found in a stopped run; empty means its outputs are correct.
/// `rows_before` is the size, before the run, of the table the check
/// compares (`votes` for voter, `usertable` for ycsb).
pub fn check(spec: &Spec, data: &WindowData, rows_before: u64) -> Vec<String> {
    let mut bad = Vec::new();
    let db = data.controller.database();
    let stats = data.controller.stats();
    let backlog_min = data
        .seconds
        .iter()
        .map(|s| s.backlog)
        .fold(f64::MAX, f64::min);
    let types = stats.per_type_summary();
    let committed: u64 = types.iter().map(|t| t.committed).sum();
    let failed: u64 = types.iter().map(|t| t.failed).sum();
    let accounted: u64 = types
        .iter()
        .map(|t| t.committed + t.user_aborted + t.failed)
        .sum();

    if accounted != stats.total_completed() {
        bad.push(format!(
            "per-type committed + aborted + failed = {accounted}, but {} requests completed",
            stats.total_completed()
        ));
    }
    if spec.drive == Drive::Saturated && backlog_min <= 0.0 {
        bad.push("the queue ran empty during a saturated window".to_string());
    }
    let rows_now = checked_rows(spec, db);
    match spec.bench {
        // Every committed Vote inserts exactly one row, and nothing else does.
        "voter" if rows_now - rows_before != committed => bad.push(format!(
            "votes grew by {} rows but {committed} Vote transactions committed",
            rows_now - rows_before
        )),
        // The read-only mix must leave the table as loaded.
        "ycsb" if rows_now != rows_before => bad.push(format!(
            "usertable holds {rows_now} rows, held {rows_before} before the run"
        )),
        // One terminal has nobody to conflict with.
        "tpcc" if failed != 0 => bad.push(format!("{failed} requests failed on one terminal")),
        _ => {}
    }
    bad
}
