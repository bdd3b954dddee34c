//! Crash recovery end to end: for every chaos crashpoint, a run that dies
//! mid-commit and recovers must land byte-for-byte on the committed prefix
//! of an identical run that never crashed — `BeforeAppend` and
//! `AfterAppendBeforeFsync` lose the dying transaction, `AfterFsync` keeps
//! it (durable despite the client-visible error). A mid-run checkpoint
//! bounds replay to the redo tail, and a recovered engine continues the
//! workload deterministically. Workloads that share a database share its
//! one recovery supervisor.

use std::sync::Arc;
use std::time::{Duration, Instant};

use benchpress::api::{ApiServer, Request};
use benchpress::chaos::{FaultKind, FaultPlan, FaultWindow};
use benchpress::core::{Phase, PhaseScript, Rate, RunConfig};
use benchpress::sql::{Connection, SqlError};
use benchpress::storage::{
    Column, CrashPoint, DataType, Database, Personality, StorageError, TableSchema, Value,
};
use benchpress::util::json::Json;
use benchpress::util::rng::Rng;
use benchpress::workloads::by_name;

/// The transaction index at which the crash runs die. Must be a committing
/// index under the abort rule below (11 % 5 != 4).
const CRASH_AT: u64 = 11;

fn fresh_db() -> Arc<Database> {
    let db = Database::new(Personality::test());
    db.create_table(
        TableSchema::new(
            "accounts",
            vec![Column::new("id", DataType::Int), Column::new("balance", DataType::Int)],
            &["id"],
        )
        .unwrap(),
    )
    .unwrap();
    db
}

/// Apply transaction `i` of the fixed sequence: insert one row, sometimes
/// update or delete an earlier one, and abort every fifth transaction. The
/// ops are a pure function of `i`, so any two runs that commit the same
/// index set hold identical state.
fn apply_txn(db: &Arc<Database>, i: u64) -> Result<(), StorageError> {
    let t = db.table("accounts").unwrap();
    let mut s = db.session();
    s.begin()?;
    s.insert(&t, vec![Value::Int(i as i64 * 10), Value::Int(i as i64)])?;
    if i.is_multiple_of(3) && i > 0 {
        let key = [Value::Int((i as i64 - 1) * 10)];
        if let Some((rid, row)) = s.read_pk(&t, &key, true)? {
            let bumped = match row[1] {
                Value::Int(b) => b + 100,
                _ => unreachable!(),
            };
            s.update(&t, rid, vec![row[0].clone(), Value::Int(bumped)])?;
        }
    }
    if i % 7 == 3 && i >= 2 {
        let key = [Value::Int((i as i64 - 2) * 10)];
        if let Some((rid, _)) = s.read_pk(&t, &key, true)? {
            s.delete(&t, rid)?;
        }
    }
    if i % 5 == 4 {
        s.rollback()
    } else {
        s.commit()
    }
}

/// A reference run that commits transactions `0..n` and never crashes.
fn reference_digest(n: u64) -> Vec<u8> {
    let db = fresh_db();
    for i in 0..n {
        apply_txn(&db, i).unwrap();
    }
    db.state_digest()
}

fn arm_crash(db: &Arc<Database>, cp: CrashPoint) {
    db.chaos().arm(FaultPlan::new("crash", 1).with_window(FaultWindow::always(
        FaultKind::ServerCrash,
        1.0,
        cp.index(),
    )));
}

#[test]
fn crashpoint_matrix_recovers_to_committed_prefix() {
    for cp in CrashPoint::ALL {
        // AfterFsync crashes after the redo record is durable: the dying
        // transaction survives recovery even though its client saw an error.
        let survives = cp == CrashPoint::AfterFsync;
        let want = reference_digest(if survives { CRASH_AT + 1 } else { CRASH_AT });

        let db = fresh_db();
        for i in 0..CRASH_AT {
            apply_txn(&db, i).unwrap();
        }
        arm_crash(&db, cp);
        assert_eq!(apply_txn(&db, CRASH_AT), Err(StorageError::Crashed), "{}", cp.name());
        db.chaos().disarm();
        assert!(db.is_crashed());

        // Every operation fast-fails with the retryable error while down.
        assert_eq!(db.session().begin(), Err(StorageError::Crashed));

        let report = db.recover().expect("a crashed engine recovers");
        assert!(!db.is_crashed());
        assert_eq!(db.state_digest(), want, "crashpoint {}", cp.name());
        if cp == CrashPoint::AfterAppendBeforeFsync {
            assert_eq!(report.torn_truncated, 1, "half-written record must be truncated");
        } else {
            assert_eq!(report.torn_truncated, 0, "{}", cp.name());
        }

        let status = db.recovery_status();
        assert_eq!(status.crashes, 1);
        assert_eq!(status.recoveries, 1);
        assert_eq!(status.last_crashpoint, Some(cp));

        let events = db.journal().all();
        let kinds: Vec<&str> = events.iter().map(|e| &*e.kind).collect();
        assert!(kinds.contains(&"server_crash"), "{kinds:?}");
        assert!(kinds.contains(&"recovery_begin"), "{kinds:?}");
        assert!(kinds.contains(&"recovery_complete"), "{kinds:?}");
    }
}

#[test]
fn mid_run_checkpoint_bounds_replay_and_preserves_state() {
    let want = reference_digest(CRASH_AT);

    // Run A: no checkpoint — recovery replays the whole log.
    let a = fresh_db();
    for i in 0..CRASH_AT {
        apply_txn(&a, i).unwrap();
    }
    arm_crash(&a, CrashPoint::BeforeAppend);
    assert_eq!(apply_txn(&a, CRASH_AT), Err(StorageError::Crashed));
    let report_a = a.recover().expect("a crashed engine recovers");
    assert_eq!(a.state_digest(), want);

    // Run B: checkpoint halfway — recovery replays only the tail.
    let b = fresh_db();
    for i in 0..CRASH_AT {
        apply_txn(&b, i).unwrap();
        if i == CRASH_AT / 2 {
            b.checkpoint().unwrap();
        }
    }
    arm_crash(&b, CrashPoint::BeforeAppend);
    assert_eq!(apply_txn(&b, CRASH_AT), Err(StorageError::Crashed));
    let report_b = b.recover().expect("a crashed engine recovers");
    assert_eq!(b.state_digest(), want, "checkpointed run recovers to the same state");
    assert!(
        report_b.replayed_records < report_a.replayed_records,
        "checkpoint must shorten replay: {} vs {}",
        report_b.replayed_records,
        report_a.replayed_records,
    );
    assert!(report_b.checkpoint_lsn > 0);
    assert!(b.recovery_status().checkpoints >= 1);
}

#[test]
fn recovered_engine_continues_the_workload_deterministically() {
    const TOTAL: u64 = CRASH_AT + 6;
    let want = reference_digest(TOTAL);

    let db = fresh_db();
    for i in 0..CRASH_AT {
        apply_txn(&db, i).unwrap();
    }
    // BeforeAppend loses the dying transaction entirely, so the client-side
    // retry (here: just re-applying the same index) must reproduce it.
    arm_crash(&db, CrashPoint::BeforeAppend);
    assert_eq!(apply_txn(&db, CRASH_AT), Err(StorageError::Crashed));
    db.chaos().disarm();
    db.recover();
    for i in CRASH_AT..TOTAL {
        apply_txn(&db, i).unwrap();
    }
    assert_eq!(db.state_digest(), want, "post-recovery run diverged from the uncrashed run");
}

#[test]
fn prepared_statement_reads_recovered_data_after_a_crash() {
    // Recovery rebuilds tables in place: a plan bound before the crash holds
    // the same table handles afterwards and needs no re-binding.
    let db = fresh_db();
    let mut conn = Connection::open(&db);
    let insert = conn.prepare("INSERT INTO accounts VALUES (?, ?)").unwrap();
    let update = conn.prepare("UPDATE accounts SET balance = ? WHERE id = ?").unwrap();
    let read = conn.prepare("SELECT balance FROM accounts WHERE id = ?").unwrap();
    let balance = |conn: &mut Connection| {
        conn.query_prepared(&read, &[Value::Int(10)]).map(|rs| rs.get_int(0, "balance"))
    };
    conn.execute_prepared(&insert, &[Value::Int(10), Value::Int(1)]).unwrap();
    conn.execute_prepared(&update, &[Value::Int(2), Value::Int(10)]).unwrap();
    assert_eq!(balance(&mut conn), Ok(Some(2)));
    let version = db.schema_version();

    // The next update dies before its redo record reaches the log.
    arm_crash(&db, CrashPoint::BeforeAppend);
    let crashed = SqlError::Storage(StorageError::Crashed);
    assert_eq!(conn.execute_prepared(&update, &[Value::Int(3), Value::Int(10)]), Err(crashed.clone()));
    db.chaos().disarm();
    assert_eq!(balance(&mut conn), Err(crashed));

    db.recover();
    assert_eq!(db.schema_version(), version, "recovery is not a schema change");
    assert_eq!(balance(&mut conn), Ok(Some(2)), "the lost update is gone, the committed one is back");
    conn.execute_prepared(&update, &[Value::Int(4), Value::Int(10)]).unwrap();
    assert_eq!(balance(&mut Connection::open(&db)), Ok(Some(4)));
}

/// Two workloads on one database share its one supervisor: arming through
/// either replaces it, both report the last arming, and one crash is
/// recovered once.
#[test]
fn workloads_on_one_database_share_its_recovery_supervisor() {
    let db = Database::new(Personality::test());
    let voter = by_name("voter").unwrap();
    voter.setup(&mut Connection::open(&db), 0.1, &mut Rng::new(5)).unwrap();
    let api = ApiServer::new();
    let runs = ["a", "b"].map(|id| {
        let cfg = RunConfig {
            terminals: 2,
            script: PhaseScript::new(vec![Phase::new(Rate::Limited(100.0), 30.0)]),
            collect_trace: false,
            ..Default::default()
        };
        let run = benchpress::core::start(db.clone(), voter.clone(), cfg);
        api.register(id, run.controller.clone());
        run
    });
    let status = |id: &str| api.handle(&Request::get(&format!("/recovery/status?workload={id}"))).body;
    let supervisor = |id: &str, key: &str| status(id).get("supervisor").and_then(|s| s.get(key)?.as_u64());

    let arm = |id: &str, poll_ms: u64, checkpoint_ms: u64| {
        let body = Json::obj().set("poll_ms", poll_ms).set("checkpoint_ms", checkpoint_ms);
        let r = api.handle(&Request::post(&format!("/recovery?workload={id}"), body));
        assert!(r.is_ok(), "{r:?}");
    };
    arm("a", 50, 1_000);
    arm("b", 2, 0);
    for id in ["a", "b"] {
        assert_eq!(supervisor(id, "poll_us"), Some(2_000), "{id}: {}", status(id));
        assert_eq!(supervisor(id, "checkpoint_us"), Some(0), "{id}: {}", status(id));
    }

    // With both runs paused, the one crash is the test's own commit.
    for run in &runs {
        run.controller.pause();
    }
    std::thread::sleep(Duration::from_millis(100));
    arm_crash(&db, CrashPoint::BeforeAppend);
    let mut s = db.session();
    s.begin().unwrap();
    assert_eq!(s.commit(), Err(StorageError::Crashed));
    db.chaos().disarm();
    let deadline = Instant::now() + Duration::from_secs(5);
    while supervisor("a", "recoveries_run") != Some(1) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    for id in ["a", "b"] {
        let body = status(id);
        for (key, want) in [("crashes", 1), ("recoveries", 1)] {
            assert_eq!(body.get(key).and_then(Json::as_u64), Some(want), "{id} {key}: {body}");
        }
        assert_eq!(supervisor(id, "recoveries_run"), Some(1), "{id}: {body}");
    }
    assert!(!db.is_crashed());
    for run in runs {
        run.stop_and_join();
    }
}
