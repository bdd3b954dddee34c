//! Chaos gate overhead (ISSUE 3 acceptance): with no fault plan armed, the
//! injection probe on the commit/charge path must be a single relaxed
//! atomic load — under 5 ns — so that a chaos-capable build costs nothing
//! when chaos is off. Plain `fn main()` harness (hermetic build — no
//! criterion).

use std::hint::black_box;

use bp_bench::timing::{bench, group};
use bp_chaos::{ChaosController, FaultKind, FaultPlan, FaultWindow};
use bp_storage::{Column, DataType, Database, Personality, TableSchema, Value};

fn main() {
    group("chaos_gate");

    // Disarmed: the per-probe residue every commit/charge/lock pays when
    // chaos is off — one relaxed load and a branch. The result is reduced
    // to a bool so the measurement doesn't include spilling an Option<u64>
    // through black_box.
    let chaos = ChaosController::new();
    let disarmed_ns = bench("roll_disarmed", || chaos.roll(FaultKind::FsyncStall).is_some());
    let blackout_ns = bench("blackout_disarmed", || chaos.blackout(0));

    // Armed with an inactive window: the slow path without an injection —
    // what a run pays per probe while a scenario is loaded.
    let armed = ChaosController::new();
    armed.arm(
        FaultPlan::new("bench", 42)
            .with_window(FaultWindow::always(FaultKind::LatencySpike, 0.0, 100)),
    );
    bench("roll_armed_no_hit", || black_box(armed.roll(black_box(FaultKind::FsyncStall))));

    // End-to-end: a full single-row insert+commit on the embedded engine,
    // chaos disarmed — the gate must vanish inside the engine's own costs.
    let db = Database::new(Personality::test());
    db.create_table(
        TableSchema::new("t", vec![Column::new("id", DataType::Int)], &["id"]).unwrap(),
    )
    .unwrap();
    let table = db.table("t").unwrap();
    let mut id = 0i64;
    let commit = bench("insert_commit_disarmed", || {
        id += 1;
        let mut s = db.session();
        s.begin().unwrap();
        s.insert(&table, vec![Value::Int(id)]).unwrap();
        s.commit().unwrap();
    });

    assert!(
        disarmed_ns < 5.0,
        "disarmed chaos gate too slow: {disarmed_ns:.2} ns (budget 5 ns)"
    );
    assert!(
        blackout_ns < 5.0,
        "disarmed blackout gate too slow: {blackout_ns:.2} ns (budget 5 ns)"
    );
    println!(
        "OK: disarmed roll {disarmed_ns:.2} ns, blackout {blackout_ns:.2} ns (< 5 ns); \
         insert+commit {:.0} ns/txn",
        commit
    );
}
