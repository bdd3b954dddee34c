//! Quickstart: load a benchmark, run it throttled for a few seconds, change
//! the rate and mixture at runtime, and print the results.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use benchpress::core::{Phase, PhaseScript, Rate, RunConfig};
use benchpress::sql::Connection;
use benchpress::storage::{Database, Personality};
use benchpress::util::rng::Rng;
use benchpress::workloads::by_name;

fn main() {
    // 1. Bring up the system under test: the embedded engine with the
    //    MySQL-like personality.
    let db = Database::new(Personality::mysql_like());

    // 2. Pick a benchmark from Table 1 and load it.
    let workload = by_name("voter").expect("voter is bundled");
    let mut conn = Connection::open(&db);
    let summary = workload
        .setup(&mut conn, 1.0, &mut Rng::new(42))
        .expect("load");
    println!(
        "loaded {}: {} rows across {} tables",
        workload.name(),
        summary.rows,
        summary.tables
    );

    // 3. Run: 2s at 200 tps, then 2s at 400 tps (a predefined phase script).
    let script = PhaseScript::new(vec![
        Phase::new(Rate::Limited(200.0), 2.0),
        Phase::new(Rate::Limited(400.0), 2.0),
    ]);
    let cfg = RunConfig { terminals: 4, script, ..Default::default() };
    let handle = benchpress::core::start(db, workload, cfg);

    // 4. While it runs, poke the controller like the REST API would.
    let controller = handle.controller.clone();
    std::thread::sleep(std::time::Duration::from_millis(1000));
    let status = controller.status();
    println!(
        "t={:.1}s: throughput {:.0} tx/s, committed {}",
        status.elapsed_s, status.throughput, status.committed
    );

    // 5. Wait for the script to finish and print the summary.
    let controller = handle.join();
    println!("\nper-transaction-type summary:");
    for t in controller.stats().per_type_summary() {
        println!(
            "  {:<10} count={:<6} mean={:>8.0}µs p95={:>8}µs committed={} aborted={}",
            t.name, t.count, t.mean_us, t.p95_us, t.committed, t.user_aborted
        );
    }
    let series = controller.stats().throughput_series();
    println!("\nper-second delivered throughput: {:?}", series.iter().map(|v| *v as i64).collect::<Vec<_>>());
    let (p50, p95, max) = controller.stats().queue_delay();
    println!("queue delay: p50={p50}µs p95={p95}µs max={max}µs");
    let (p50, p95, max) = controller.stats().response_time();
    println!("response time (arrival to end): p50={p50}µs p95={p95}µs max={max}µs");
    let _ = Arc::strong_count(controller.database());
}
