//! `--smoke` runs one workload end to end on small data with 2 s windows:
//! it must finish quickly, pass its own output checks, and emit exactly the
//! metric names `BENCHMARK.json` lists.

use std::collections::BTreeSet;
use std::process::Command;
use std::time::Instant;

use bp_util::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn listed(section: &str) -> BTreeSet<String> {
    Json::parse(BENCHMARK_JSON)
        .expect("BENCHMARK.json parses")
        .get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{section} list"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn emitted(result: &Json, section: &str) -> BTreeSet<String> {
    match result.get(section) {
        Some(Json::Obj(m)) => m.keys().cloned().collect(),
        other => panic!("{section} is not an object: {other:?}"),
    }
}

#[test]
fn smoke_run_emits_every_listed_metric() {
    let t0 = Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_bp-perf"))
        .args([
            "run",
            "--workload",
            "ycsb_read_sat",
            "--smoke",
            "--seed",
            "3",
        ])
        .output()
        .expect("run bp-perf");
    let took = t0.elapsed();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "bp-perf failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.trim_end().lines().last().expect("a result line");
    let result = Json::parse(last).expect("the last line is a JSON object");

    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_u64)
            .expect("attempted")
            >= 1
    );
    assert_eq!(emitted(&result, "end_to_end"), listed("end_to_end"));
    assert_eq!(emitted(&result, "per_layer"), listed("per_layer"));
    assert!(took.as_secs() < 30, "smoke run took {took:?}");
}

#[test]
fn workload_names_match_the_benchmark_file() {
    let output = Command::new(env!("CARGO_BIN_EXE_bp-perf"))
        .args(["run", "--workload", "no_such_workload"])
        .output()
        .expect("run bp-perf");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    for name in listed("workloads") {
        assert!(
            stderr.contains(&name),
            "{name} is not a workload of bp-perf: {stderr}"
        );
    }
}
