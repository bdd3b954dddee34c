//! E2 (Fig. 1): the full testbed pipeline, end to end.
//!
//! XML config → workload manager + workers → SQL connections → embedded
//! engine, with the telemetry recorder sampling the server's counters
//! alongside, producing a trace that the Trace Analyzer rolls up — every
//! box of the architecture figure.

use benchpress::core::{RunConfig, TraceAnalyzer, WorkloadConfig};
use benchpress::sql::Connection;
use benchpress::storage::{Database, Personality};
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
    let handle = benchpress::core::start(db, workload, run_cfg);
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
    let handle = benchpress::core::start(db, workload, cfg);
    let controller = handle.join();
    let done = controller.stats().total_completed();
    assert!((180..=260).contains(&(done as i64)), "completed {done}");
    // The standard mix: NewOrder ~45%, Payment ~43%.
    let per_type = controller.stats().per_type_summary();
    let total: u64 = per_type.iter().map(|t| t.count).sum();
    let new_order_share = per_type[0].count as f64 / total as f64;
    assert!((0.3..=0.6).contains(&new_order_share), "NewOrder share {new_order_share}");
}

/// Every `.rs` file under `dir`, recursively.
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

fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Occurrences of each identifier-shaped word in `text`.
fn word_counts(text: &str) -> std::collections::HashMap<&str, usize> {
    let mut counts = std::collections::HashMap::new();
    for word in text.split(|c: char| !is_word(c)) {
        if !word.is_empty() {
            *counts.entry(word).or_insert(0) += 1;
        }
    }
    counts
}

/// The reachability rule over `(path, source)` pairs, paths relative to the
/// repo root: each `pub fn` before the first column-0 `#[cfg(test)]` of a
/// `crates/*/src` file must be named, as a word, somewhere other than its
/// defining line and its own file's test module. Returns how many `pub fn`s
/// it checked and `path: name` for each one nothing names.
fn unnamed_pub_fns(files: &[(String, String)]) -> (usize, Vec<String>) {
    let mut everywhere = std::collections::HashMap::new();
    for (_, text) in files {
        for (word, n) in word_counts(text) {
            *everywhere.entry(word).or_insert(0) += n;
        }
    }
    let (mut checked, mut unnamed) = (0, Vec::new());
    let defining = |path: &str| path.starts_with("crates/") && path.contains("/src/");
    for (path, text) in files.iter().filter(|(p, _)| defining(p)) {
        let (code, tests) = text.split_at(text.find("\n#[cfg(test)]").unwrap_or(text.len()));
        let in_tests = word_counts(tests);
        for line in code.lines() {
            let Some(rest) = line.trim_start().strip_prefix("pub fn ") else { continue };
            let name = rest.split(|c: char| !is_word(c)).next().unwrap_or("");
            if name.is_empty() {
                continue; // `pub fn $name` in a macro body
            }
            checked += 1;
            let own = in_tests.get(name).unwrap_or(&0) + word_counts(line)[name];
            if everywhere[name] == own {
                unnamed.push(format!("{path}: {name}"));
            }
        }
    }
    (checked, unnamed)
}

/// Every Rust source of the repo as `(path, text)`, paths relative to its
/// root: the crates' code, tests and benches, `src/`, `examples/`, `tests/`
/// and the repo benchmark in `perf/src`.
fn repo_sources() -> Vec<(String, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths = Vec::new();
    for dir in ["src", "examples", "tests", "perf/src"] {
        rust_files(&root.join(dir), &mut paths);
    }
    for entry in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let krate = entry.expect("dir entry").path();
        for dir in ["src", "tests", "benches"] {
            if krate.join(dir).is_dir() {
                rust_files(&krate.join(dir), &mut paths);
            }
        }
    }
    paths
        .iter()
        .map(|p| {
            let rel = p.strip_prefix(root).expect("under the repo").to_string_lossy().into_owned();
            (rel, std::fs::read_to_string(p).expect("source is utf-8"))
        })
        .collect()
}

/// Public API a binary or the embedding program exposes, which no code in
/// the repo names. Each entry is `path: name` with its reason.
const REACHABLE_FROM_OUTSIDE: [(&str, &str); 0] = [];

/// A `pub fn` nothing names is deleted, or made test-only when a test needs
/// it: the rule runs over every crate's sources against everything that
/// could call them (the crates' own code and tests, `src/`, `examples/`,
/// `tests/` and the repo benchmark in `perf/src`).
#[test]
fn every_pub_fn_is_named_outside_its_own_line_and_tests() {
    let (checked, unnamed) = unnamed_pub_fns(&repo_sources());
    assert!(checked > 500, "checked only {checked} pub fns: the walk missed the sources");
    let unnamed: Vec<&String> = unnamed
        .iter()
        .filter(|u| !REACHABLE_FROM_OUTSIDE.iter().any(|(allowed, _)| u == allowed))
        .collect();
    assert!(unnamed.is_empty(), "pub fns nothing names ({}):\n{unnamed:#?}", unnamed.len());
}

/// The rule can fail: it flags a `pub fn` named only on its own line and one
/// named only in its file's test module, and passes one another file calls.
#[test]
fn reachability_rule_flags_a_planted_fixture() {
    let files = [
        (
            "crates/a/src/lib.rs",
            "pub fn lonely() {}\npub fn tested_only() {}\npub fn called() -> u8 { 1 }\n\
             #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { super::tested_only(); }\n}\n",
        ),
        ("crates/b/src/lib.rs", "fn f() -> u8 { a::called() }\n"),
    ]
    .map(|(p, t)| (p.to_string(), t.to_string()));
    let (checked, unnamed) = unnamed_pub_fns(&files);
    assert_eq!(checked, 3);
    assert_eq!(unnamed, ["crates/a/src/lib.rs: lonely", "crates/a/src/lib.rs: tested_only"]);
}

/// The one-hasher rule over `(path, source)` pairs: no file outside
/// `crates/util/src` implements a `Hasher`, and the code of
/// `crates/storage/src` and `crates/sql/src` before its first column-0
/// `#[cfg(test)]` names no std `HashMap` or `HashSet`, whose default state
/// is SipHash: their maps are `bp_util::hash::{MixMap, MixSet}`. Returns
/// `path: what` for each file that breaks it.
fn second_hashers(files: &[(String, String)]) -> Vec<String> {
    let mut found = Vec::new();
    for (path, text) in files {
        let implements = |line: &str| line.trim_start().starts_with("impl") && line.contains("Hasher for ");
        if !path.starts_with("crates/util/src/") && text.lines().any(implements) {
            found.push(format!("{path}: implements a Hasher"));
        }
        if path.starts_with("crates/storage/src/") || path.starts_with("crates/sql/src/") {
            let code = text.split("\n#[cfg(test)]").next().unwrap_or(text);
            let words = word_counts(code);
            if words.contains_key("HashMap") || words.contains_key("HashSet") {
                found.push(format!("{path}: keys a map with SipHash"));
            }
        }
    }
    found
}

/// The engine's maps share one fast hasher, `bp_util::hash::Mix`.
#[test]
fn one_hasher_keys_the_engine_maps() {
    let files = repo_sources();
    assert!(files.iter().any(|(p, _)| p == "crates/util/src/hash.rs"), "the walk missed bp_util's hasher");
    let found = second_hashers(&files);
    assert!(found.is_empty(), "a second hasher:\n{found:#?}");
}

/// The rule can fail: it flags a `Hasher` implemented outside bp_util and a
/// std map in the engine's code, and passes bp_util's own hasher, a
/// `MixMap` and a std set in a test module.
#[test]
fn hasher_rule_flags_a_planted_fixture() {
    let files = [
        ("crates/util/src/hash.rs", "pub struct Mix(u64);\nimpl Hasher for Mix {}\n"),
        ("crates/storage/src/lock.rs", "use bp_util::hash::MixMap;\nstruct Shard(MixMap<u64, u32>);\n"),
        (
            "crates/sql/src/plan.rs",
            "use std::collections::HashMap;\nstruct Bind(HashMap<usize, u8>);\n\
             #[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}\n",
        ),
        (
            "crates/storage/src/schema.rs",
            "pub struct TableSchema;\n#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}\n",
        ),
        ("crates/core/src/stats.rs", "struct Fold(u64);\nimpl std::hash::Hasher for Fold {}\n"),
    ]
    .map(|(p, t)| (p.to_string(), t.to_string()));
    assert_eq!(
        second_hashers(&files),
        ["crates/sql/src/plan.rs: keys a map with SipHash", "crates/core/src/stats.rs: implements a Hasher"]
    );
}

/// Every periodic background thread is a `bp_util::Periodic`. Outside test
/// modules, threads are spawned only by `Periodic` itself, the executor
/// (manager + workers) and the HTTP server (accept + per connection), and
/// the guard types `Periodic` replaced stay gone — as do the second SLO
/// controller, the second sampler of the engine's counters and the
/// settings nothing set (retry budget, deadlines, queue trip, PID law,
/// `<cluster>`'s coordinator and heartbeat). Likewise
/// there is one bounded ring (`bp_util::ring`): its arithmetic appears
/// nowhere else, and only the sharded stores read a thread's shard slot.
/// And the exposition is read in one place: only the registry, which
/// renders it and parses it back, spells out its syntax. The agent sends
/// the coordinator one message, the heartbeat. And a run has one clock: no
/// code reads ambient time but the wall clock itself, `Periodic`'s pacing,
/// the personality's busy-wait (it burns real CPU on purpose) and the
/// bench's timers. And there is one driver: the simulated path's own
/// (`SimDbms`'s lag, `SimServer`'s split, `simulate_script`) stays gone.
/// And a layer adds control routes one way, by mounting a surface on the
/// API server: bp-api's manifest names no layer above it. And a run has one
/// handle, its `Controller`: no testbed wraps runs into tenants. And a
/// database has one recovery supervisor, its own: no run arms another. And
/// an experiment's pass criteria are rows of one table: no per-row report
/// type states them again. And the last seconds are one `WindowSnapshot`:
/// in bp-core and bp-cluster only its codec spells the window's JSON. And a
/// request is served by one step, the threaded terminal's and the virtual
/// stage's alike: in bp-core only the executor records a sample, catches a
/// panic or backs off, and only `Controller::for_run` builds a `Controller`.
/// And a window is one range of whole seconds, read from the per-second ring:
/// the second horizon (`recent_rate`) and the unread latency series stay gone.
#[test]
fn background_threads_go_through_periodic() {
    const MAY_SPAWN: [&str; 3] = ["util/src/periodic.rs", "core/src/executor.rs", "api/src/http.rs"];
    const MAY_READ_SLOT: [&str; 3] = ["util/src/sync.rs", "core/src/stats.rs", "obs/src/span.rs"];
    const RING_ARITHMETIC: [&str; 2] = ["written %", "fn ordered("];
    const EXPOSITION_SYNTAX: [&str; 2] = ["\"# TYPE", "_bucket\""];
    const WINDOW_JSON: [&str; 4] =
        [".set(\"p50_us\"", ".set(\"p99_us\"", "get(\"p50_us\")", "get(\"p99_us\")"];
    const ONE_REQUEST_STEP: [&str; 3] = [".record(Sample", "catch_unwind(", "next_backoff("];
    const RETIRED: [&str; 76] = [
        "TelemetryGuard", "MonitorGuard", "DetectorGuard", "AgentGuard",
        // One SLO controller, one sampler of the engine's counters.
        "ClusterSloConfig", "slo_config_from_json", "bp_monitor",
        // Settings no run set: the breaker is on or off, the SLO law is
        // AIMD, and `<cluster>` is its `<node>`.
        "RetryBudget", "ResilienceConfig", "ControlLaw", "deadline_us", "queue_limit",
        "ClusterMemberConfig",
        // One exposition codec: no JSON twin of the samples and the route
        // that served it, one set of histogram bounds, one journal ring.
        "AgentRoutes", "cluster/snapshot", "histogram_with_bounds", "journal_shards",
        // One message each way between agent and coordinator: the heartbeat
        // is the join, and a share rides only its response.
        "cluster/join", "join_once", "resplit_and_fanout",
        // One clock per run: the journal stamps from the database's.
        "journal_now_us",
        // One driver: a simulated stage runs the real one in virtual time,
        // with no fluid lag and no share split of its own.
        "simulate_script", "SimDbms", "SimServer", "SimRun", "SimSample", "response_tau_s",
        // One definition per DBMS: the personality charges the database's
        // clock, and the game's stage runs the engine rather than a fitted
        // table of capacities.
        "CapacityModel", "DelayMode", "apply_delay", "relative_cost", "overload_droop",
        // One way to add routes: a layer above bp-api mounts a surface, and
        // `/chaos` addresses a registered workload's engine.
        "ReplayLauncher", "RecordProvider", "with_chaos", "set_extension",
        // One handle per run: tenants are runs started on one database, and
        // a run's threads and a virtual tenant hold its `Controller`.
        "Testbed", "start_tenant", "active_workers",
        // One recovery supervisor per database, owned by the database: no
        // run keeps a watchdog of its own.
        "RecoveryHandle", "start_recovery", "stop_recovery",
        // An experiment's outcome is data: one `Outcome` value judged by its
        // row's criteria table, no report type or hand-written check per row.
        "impl Outcome for", "fn failed(", "Table1Report", "Table1VerifiedRow", "RateControlReport",
        "MixtureReport", "TenancyReport", "ChallengeReport", "PhysicsReport", "PersonalityReport",
        "ApiReport", "DialectReport", "ObservabilityReport", "ResilienceReport", "SloReport",
        "QueueAblationReport", "ReplayReport", "DoctorReport", "RecoveryExperimentReport",
        "ClusterReport", "TraceReport",
        // The redo store is the one record of durability: segments rotate by
        // the bytes it stores, and its watermarks have no second copy.
        "note_durable", "segment_bytes", "segments_rotated", "base_lsn", "RedoSegment",
        // One window: the SLO law, the heartbeat and the fleet loop read one
        // `WindowSnapshot`, and only its `to_json`/`from_json` spell its JSON.
        "SloObservation", "NodeWindow", "window_from_json",
        // One request step: the virtual stage serves through the worker's.
        "fn settle",
        // One range per window: a snapshot reads the per-second ring alone,
        // and the per-second series is a count with no latency beside it.
        "recent_rate", "latency_series", "latency_mean_us", "throughput_summary",
    ];
    const NO_AMBIENT_TIME: [&str; 2] = ["Instant::now", "SystemTime::now"];
    const MAY_READ_TIME: [&str; 2] = ["util/src/clock.rs", "util/src/periodic.rs"];

    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    // bp-api knows no layer that mounts on it.
    let api_manifest = std::fs::read_to_string(crates.join("api/Cargo.toml")).expect("bp-api manifest");
    assert!(!api_manifest.contains("bp-replay"), "bp-api depends on bp-replay");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&crates).expect("crates dir") {
        let src = entry.expect("dir entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 50, "walked only {} files under {crates:?}", files.len());
    let mut builds_controller = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(&path).expect("source is utf-8");
        // The test module, if any, starts at the first column-0 `#[cfg(test)]`.
        let code = text.split("\n#[cfg(test)]").next().unwrap_or(&text);
        let rel = path.strip_prefix(&crates).expect("under crates/").to_string_lossy();
        for name in RETIRED {
            assert!(!code.contains(name), "{rel} mentions the retired {name}");
        }
        if rel.starts_with("core/") && rel != "core/src/executor.rs" {
            for step in ONE_REQUEST_STEP {
                assert!(!code.contains(step), "{rel} serves a request (`{step}`) outside the request step");
            }
        }
        let not_word = |(at, _): &(usize, &str)| !code[..*at].ends_with(is_word);
        for _ in code.match_indices("Controller::new(").filter(not_word) {
            builds_controller.push(rel.to_string());
        }
        if code.contains("thread::Builder") || code.contains("thread::spawn") {
            assert!(MAY_SPAWN.contains(&&*rel), "{rel} spawns a thread outside its test module");
        }
        if code.contains("thread_slot()") {
            assert!(MAY_READ_SLOT.contains(&&*rel), "{rel} reads a thread slot outside the sharded stores");
        }
        for syntax in EXPOSITION_SYNTAX {
            assert!(
                rel == "obs/src/registry.rs" || !code.contains(syntax),
                "{rel} reads or writes the exposition (`{syntax}`) instead of using bp_obs's codec"
            );
        }
        if rel.starts_with("cluster/") || (rel.starts_with("core/") && rel != "core/src/stats.rs") {
            for key in WINDOW_JSON {
                assert!(
                    !code.contains(key),
                    "{rel} spells the window's JSON (`{key}`) outside WindowSnapshot's codec"
                );
            }
        }
        for now in NO_AMBIENT_TIME {
            assert!(
                MAY_READ_TIME.contains(&&*rel) || rel.starts_with("bench/src/") || !code.contains(now),
                "{rel} calls {now} instead of reading its injected clock"
            );
        }
        for arithmetic in RING_ARITHMETIC {
            assert!(
                rel == "util/src/ring.rs" || !code.contains(arithmetic),
                "{rel} hand-rolls a ring (`{arithmetic}`) instead of using bp_util::ring::Ring"
            );
        }
    }
    assert_eq!(builds_controller, ["core/src/controller.rs"], "a Controller is built by the one tenant constructor");
}

/// The body of the first `fn name` in `code`: from its name to the closing
/// brace at its signature's indentation.
fn fn_body<'a>(code: &'a str, name: &str) -> Option<&'a str> {
    let at = code.find(&format!("fn {name}("))?;
    let line = code[..at].rfind('\n').map_or(0, |i| i + 1);
    let indent: String = code[line..at].chars().take_while(|c| *c == ' ').collect();
    let close = format!("\n{indent}}}\n");
    let end = at + code[at..].find(&close)? + close.len();
    Some(&code[at..end])
}

/// What a window snapshot reads beyond the per-second ring: `name: read` for
/// each body among `window_snapshot`'s and the `self.` methods it calls,
/// transitively, that reads the completion series or the merged shards that
/// hold it.
fn snapshot_reads_beyond_the_ring(stats: &str) -> Vec<String> {
    let (mut todo, mut seen, mut found) =
        (vec!["window_snapshot".to_string()], Vec::new(), Vec::new());
    while let Some(name) = todo.pop() {
        let Some(body) = fn_body(stats, &name).filter(|_| !seen.contains(&name)) else { continue };
        for read in ["all_completions", "merged()"] {
            if body.contains(read) {
                found.push(format!("{name}: {read}"));
            }
        }
        for (at, _) in body.match_indices("self.") {
            let callee: String = body[at + 5..].chars().take_while(|c| is_word(*c)).collect();
            if body[at + 5 + callee.len()..].starts_with('(') {
                todo.push(callee);
            }
        }
        seen.push(name);
    }
    found
}

/// A window snapshot reads each shard's per-second ring and nothing of the
/// run before the window, so its cost does not grow with the run. The rule
/// can fail: it flags a planted snapshot whose helper reads the series.
#[test]
fn a_window_snapshot_reads_the_ring_alone() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src/stats.rs");
    let text = std::fs::read_to_string(path).expect("stats.rs");
    let code = text.split("\n#[cfg(test)]").next().unwrap_or(&text);
    assert!(fn_body(code, "window_snapshot").is_some(), "stats.rs has no window_snapshot");
    assert_eq!(snapshot_reads_beyond_the_ring(code), Vec::<String>::new());
    let planted = "impl S {\n    pub fn window_snapshot(&self) -> f64 {\n        self.rate(3)\n    }\n\n    \
                   fn rate(&self, w: u64) -> f64 {\n        self.merged().all_completions.total() as f64\n    }\n}\n";
    assert_eq!(
        snapshot_reads_beyond_the_ring(planted),
        ["rate: all_completions", "rate: merged()"]
    );
}
