//! Multi-tenancy (§2.2.3): two benchmarks share one database instance, each
//! a run of its own started with `bp_core::start`; a second tenant added on
//! the fly degrades the first one's throughput.
//!
//! ```sh
//! cargo run --release --example multitenant
//! ```

use std::sync::Arc;

use benchpress::core::{start, Phase, PhaseScript, Rate, RunConfig, RunHandle};
use benchpress::sql::Connection;
use benchpress::storage::{Database, Personality};
use benchpress::util::rng::Rng;
use benchpress::workloads::by_name;

/// Load `name` into `db` and start it as a tenant, open loop for `seconds`.
fn tenant(db: &Arc<Database>, name: &str, seed: u64, seconds: f64) -> RunHandle {
    let workload = by_name(name).unwrap();
    workload.setup(&mut Connection::open(db), 0.5, &mut Rng::new(seed)).expect("load the tenant");
    let cfg = RunConfig {
        terminals: 4,
        script: PhaseScript::new(vec![Phase::new(Rate::Unlimited, seconds)]),
        collect_trace: false,
        ..Default::default()
    };
    start(db.clone(), workload, cfg)
}

fn main() {
    let db = Database::new(Personality::mysql_like());

    // Tenant 1: YCSB, open loop for 4 seconds.
    let ycsb = tenant(&db, "ycsb", 1, 4.0);

    // Let it run alone for 2 seconds, then add a noisy neighbor on the fly.
    // Each reading is the last complete second: `status()` averages three,
    // which 1.5 s after the neighbor joins are mostly the solo ones.
    std::thread::sleep(std::time::Duration::from_millis(2000));
    let solo = ycsb.controller.stats().window_snapshot(1).throughput;
    println!("ycsb alone:              {solo:>8.0} tx/s");

    let smallbank = tenant(&db, "smallbank", 2, 2.0);

    std::thread::sleep(std::time::Duration::from_millis(1500));
    let contended = ycsb.controller.stats().window_snapshot(1).throughput;
    let neighbor_tput = smallbank.controller.stats().window_snapshot(1).throughput;
    println!("ycsb with neighbor:      {contended:>8.0} tx/s");
    println!("smallbank (the neighbor):{neighbor_tput:>8.0} tx/s");
    println!(
        "interference:            {:>7.0}% slowdown",
        (1.0 - contended / solo.max(1.0)) * 100.0
    );

    for (name, handle) in [("ycsb", ycsb), ("smallbank", smallbank)] {
        let status = handle.stop_and_join().status();
        println!("tenant {name}: {} committed, {} failed", status.committed, status.failed);
    }
}
