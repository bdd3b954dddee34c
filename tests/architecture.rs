//! E2 (Fig. 1): the full testbed pipeline, end to end.
//!
//! XML config → workload manager + workers → SQL connections → embedded
//! engine, with the telemetry recorder sampling the server's counters
//! alongside, producing a trace that the Trace Analyzer rolls up — every
//! box of the architecture figure.

use benchpress::core::{RunConfig, TraceAnalyzer, WorkloadConfig};
use benchpress::sql::Connection;
use benchpress::storage::{Database, Personality};
use benchpress::util::clock::wall_clock;
use benchpress::util::rng::Rng;
use benchpress::workloads::by_name;

const CONFIG_XML: &str = r#"<?xml version="1.0"?>
<parameters>
    <dbtype>test</dbtype>
    <benchmark>smallbank</benchmark>
    <scalefactor>0.3</scalefactor>
    <terminals>4</terminals>
    <works>
        <work>
            <time>1.5</time>
            <rate>150</rate>
        </work>
        <work>
            <time>1.5</time>
            <rate>300</rate>
            <arrival>exponential</arrival>
        </work>
    </works>
</parameters>"#;

#[test]
fn full_pipeline_from_config_xml() {
    // 1. Parse the workload configuration file.
    let cfg = WorkloadConfig::parse(CONFIG_XML).expect("config parses");
    assert_eq!(cfg.benchmark, "smallbank");

    // 2. Bring up the DBMS with the configured personality.
    let personality = Personality::by_name(&cfg.dbtype).expect("personality");
    let db = Database::new(personality);

    // 3. Load the benchmark's schema and data.
    let workload = by_name(&cfg.benchmark).expect("benchmark");
    let mut conn = Connection::open(&db);
    let summary = workload
        .setup(&mut conn, cfg.scale_factor, &mut Rng::new(1))
        .expect("load");
    assert!(summary.rows > 0);

    // 4. Monitoring (dstat-style) runs alongside: the run's telemetry
    //    recorder samples the engine's counters every 200 ms.
    let run_cfg = RunConfig { telemetry_interval_us: 200_000, ..cfg.run_config(99) };

    // 5. Run the phase script with the threaded executor.
    let script = run_cfg.script.clone();
    let handle = benchpress::core::start(db, workload, wall_clock(), run_cfg);
    let trace = handle.trace.clone().expect("trace collection enabled");
    let controller = handle.join();

    // 6. Analyze the trace: both phases visible, rate tracked, no overshoot.
    let analysis = TraceAnalyzer::analyze(&trace, 6);
    assert!(analysis.committed > 300, "committed {}", analysis.committed);
    let tracking = TraceAnalyzer::tracking(&trace, &script, 50_000.0, 0.10);
    assert_eq!(tracking.overshoot_seconds, 0, "never-exceed violated");
    // Phase 2 is twice the rate of phase 1.
    let p1 = tracking.delivered[0];
    let p2 = tracking.delivered[2];
    assert!(p2 > p1 * 1.5, "phase change not visible: {p1} -> {p2}");

    // 7. Monitoring saw the run.
    let recorder = controller.recorder().expect("telemetry recorder wired");
    let samples = recorder.samples();
    assert!(samples.len() >= 5, "{} samples", samples.len());
    assert!(samples.iter().any(|s| s.commits as f64 / 0.2 > 50.0), "no sample above 50 commits/s");
    let report = recorder.report(controller.journal()).to_text();
    assert!(report.lines().count() > 5);

    // 8. Per-type stats flowed into the collector too.
    let per_type = controller.stats().per_type_summary();
    assert_eq!(per_type.len(), 6, "smallbank has six transaction types");
    assert!(per_type.iter().map(|t| t.count).sum::<u64>() > 300);

    // 9. The trace round-trips through the text format (trace.txt).
    let text = trace.to_text();
    let reloaded = benchpress::core::Trace::from_text(&text).expect("reload");
    assert_eq!(reloaded.len(), trace.len());
}

#[test]
fn tpcc_runs_under_throttle_on_real_engine() {
    let db = Database::new(Personality::test());
    let workload = by_name("tpcc").unwrap();
    let mut conn = Connection::open(&db);
    workload.setup(&mut conn, 1.0, &mut Rng::new(5)).unwrap();
    let cfg = RunConfig {
        terminals: 4,
        script: benchpress::core::PhaseScript::constant(benchpress::core::Rate::Limited(120.0), 2.0),
        ..Default::default()
    };
    let handle = benchpress::core::start(db, workload, wall_clock(), cfg);
    let controller = handle.join();
    let done = controller.stats().total_completed();
    assert!((180..=260).contains(&(done as i64)), "completed {done}");
    // The standard mix: NewOrder ~45%, Payment ~43%.
    let per_type = controller.stats().per_type_summary();
    let total: u64 = per_type.iter().map(|t| t.count).sum();
    let new_order_share = per_type[0].count as f64 / total as f64;
    assert!((0.3..=0.6).contains(&new_order_share), "NewOrder share {new_order_share}");
}

/// Every periodic background thread is a `bp_util::Periodic`. Outside test
/// modules, threads are spawned only by `Periodic` itself, the executor
/// (manager + workers) and the HTTP server (accept + per connection), and
/// the guard types `Periodic` replaced stay gone — as do the second SLO
/// controller and the second sampler of the engine's counters. Likewise
/// there is one bounded ring (`bp_util::ring`): its arithmetic appears
/// nowhere else, and only the sharded stores read a thread's shard slot.
#[test]
fn background_threads_go_through_periodic() {
    fn rust_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("readable source dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                rust_files(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    const MAY_SPAWN: [&str; 3] = ["util/src/periodic.rs", "core/src/executor.rs", "api/src/http.rs"];
    const MAY_READ_SLOT: [&str; 4] =
        ["util/src/sync.rs", "core/src/stats.rs", "obs/src/span.rs", "obs/src/journal.rs"];
    const RING_ARITHMETIC: [&str; 2] = ["written %", "fn ordered("];
    const RETIRED: [&str; 7] = [
        "TelemetryGuard", "MonitorGuard", "DetectorGuard", "AgentGuard",
        // One SLO controller, one sampler of the engine's counters.
        "ClusterSloConfig", "slo_config_from_json", "bp_monitor",
    ];

    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&crates).expect("crates dir") {
        let src = entry.expect("dir entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 50, "walked only {} files under {crates:?}", files.len());
    for path in files {
        let text = std::fs::read_to_string(&path).expect("source is utf-8");
        // The test module, if any, starts at the first column-0 `#[cfg(test)]`.
        let code = text.split("\n#[cfg(test)]").next().unwrap_or(&text);
        let rel = path.strip_prefix(&crates).expect("under crates/").to_string_lossy();
        for name in RETIRED {
            assert!(!code.contains(name), "{rel} mentions the retired {name}");
        }
        if code.contains("thread::Builder") || code.contains("thread::spawn") {
            assert!(MAY_SPAWN.contains(&&*rel), "{rel} spawns a thread outside its test module");
        }
        if code.contains("thread_slot()") {
            assert!(MAY_READ_SLOT.contains(&&*rel), "{rel} reads a thread slot outside the sharded stores");
        }
        for arithmetic in RING_ARITHMETIC {
            assert!(
                rel == "util/src/ring.rs" || !code.contains(arithmetic),
                "{rel} hand-rolls a ring (`{arithmetic}`) instead of using bp_util::ring::Ring"
            );
        }
    }
}
