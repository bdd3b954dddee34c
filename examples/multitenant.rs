//! Multi-tenancy (§2.2.3): two benchmarks share one database instance; a
//! second tenant added on the fly degrades the first one's throughput.
//!
//! ```sh
//! cargo run --release --example multitenant
//! ```

use benchpress::core::{Phase, PhaseScript, Rate, RunConfig, Testbed};
use benchpress::storage::{Database, Personality};
use benchpress::workloads::by_name;

fn main() {
    let db = Database::new(Personality::mysql_like());
    let mut bed = Testbed::new(db);

    // Tenant 1: YCSB, open loop for 4 seconds.
    let ycsb = by_name("ycsb").unwrap();
    bed.setup_workload(ycsb.as_ref(), 0.5, 1).expect("load ycsb");
    let cfg = RunConfig {
        terminals: 4,
        script: PhaseScript::new(vec![Phase::new(Rate::Unlimited, 4.0)]),
        collect_trace: false,
        ..Default::default()
    };
    bed.start_tenant("ycsb", ycsb, cfg.clone());

    // Let it run alone for 2 seconds, then add a noisy neighbor on the fly.
    std::thread::sleep(std::time::Duration::from_millis(2000));
    let solo = bed.tenants()[0].handle.controller.status().throughput;
    println!("ycsb alone:              {solo:>8.0} tx/s");

    let neighbor = by_name("smallbank").unwrap();
    bed.setup_workload(neighbor.as_ref(), 0.5, 2).expect("load smallbank");
    let cfg2 = RunConfig {
        terminals: 4,
        script: PhaseScript::new(vec![Phase::new(Rate::Unlimited, 2.0)]),
        collect_trace: false,
        ..Default::default()
    };
    bed.start_tenant("smallbank", neighbor, cfg2);

    std::thread::sleep(std::time::Duration::from_millis(1500));
    let contended = bed.tenants()[0].handle.controller.status().throughput;
    let neighbor_tput = bed.tenants()[1].handle.controller.status().throughput;
    println!("ycsb with neighbor:      {contended:>8.0} tx/s");
    println!("smallbank (the neighbor):{neighbor_tput:>8.0} tx/s");
    println!(
        "interference:            {:>7.0}% slowdown",
        (1.0 - contended / solo.max(1.0)) * 100.0
    );

    for (name, controller) in bed.stop_all() {
        println!(
            "tenant {name}: {} committed, {} failed",
            controller.status().committed,
            controller.status().failed
        );
    }
}
