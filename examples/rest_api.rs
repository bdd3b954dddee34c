//! The RESTful control API (§2.2.4) end to end over real HTTP: start a
//! workload, throttle it, switch the mixture to read-only, and read the
//! instantaneous feedback — from a plain TCP client.
//!
//! ```sh
//! cargo run --release --example rest_api
//! ```

use std::sync::Arc;

use benchpress::api::{http::http_request, ApiServer};
use benchpress::core::{Phase, PhaseScript, Rate, RunConfig};
use benchpress::sql::Connection;
use benchpress::storage::{Database, Personality};
use benchpress::util::json::Json;
use benchpress::util::rng::Rng;
use benchpress::workloads::by_name;

fn main() {
    // A live smallbank run.
    let db = Database::new(Personality::test());
    let workload = by_name("smallbank").unwrap();
    let mut conn = Connection::open(&db);
    workload.setup(&mut conn, 0.5, &mut Rng::new(1)).expect("load");
    let cfg = RunConfig {
        terminals: 4,
        script: PhaseScript::new(vec![Phase::new(Rate::Limited(300.0), 20.0)]),
        collect_trace: false,
        ..Default::default()
    };
    let handle = benchpress::core::start(db, workload, cfg);

    // Expose it over HTTP.
    let api = Arc::new(ApiServer::new());
    api.register("smallbank", handle.controller.clone());
    let server = api.serve_http("127.0.0.1:0").expect("bind");
    let addr = server.addr();
    println!("control API listening on http://{addr}");

    std::thread::sleep(std::time::Duration::from_millis(1500));

    // GET /workloads/smallbank — instantaneous feedback.
    let (status, body) = http_request(addr, "GET", "/workloads/smallbank", None).unwrap();
    println!("GET /workloads/smallbank -> {status}");
    println!(
        "  throughput: {:.0} tx/s (target 300)",
        body.get("status").and_then(|s| s.get("throughput")).and_then(Json::as_f64).unwrap_or(0.0)
    );

    // POST rate change.
    let (status, body) = http_request(
        addr,
        "POST",
        "/workloads/smallbank/rate",
        Some(&Json::obj().set("tps", 800.0)),
    )
    .unwrap();
    println!("POST rate 800 -> {status} (rate now {})", body.get("rate").unwrap());

    // POST mixture preset.
    let (status, body) = http_request(
        addr,
        "POST",
        "/workloads/smallbank/mixture",
        Some(&Json::obj().set("preset", "read_only")),
    )
    .unwrap();
    println!(
        "POST mixture read_only -> {status} (weights {})",
        body.get("mixture").unwrap()
    );

    std::thread::sleep(std::time::Duration::from_millis(2000));
    let (_, body) = http_request(addr, "GET", "/workloads/smallbank", None).unwrap();
    println!(
        "after changes: throughput {:.0} tx/s",
        body.get("status").and_then(|s| s.get("throughput")).and_then(Json::as_f64).unwrap_or(0.0)
    );

    // Stop.
    let (status, _) = http_request(addr, "POST", "/workloads/smallbank/stop", Some(&Json::obj())).unwrap();
    println!("POST stop -> {status}");
    handle.join();
}
