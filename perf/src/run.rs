//! The `run`, `check` and `counts` commands.
//!
//! `run --workload W` measures one workload in this process. `run` without
//! a workload measures all four, each in a child process of its own, so
//! every workload starts from a clean peak-RSS and CPU account, and writes
//! `out/latest.json`.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::Arc;

use bp_api::{http_request, http_request_text, ApiServer};
use bp_obs::MetricsRegistry;
use bp_util::json::Json;

use crate::check::{check, checked_rows};
use crate::direct;
use crate::probes::{self, Effort};
use crate::report::{self, Metric};
use crate::traced;
use crate::window::{self, Recording, WindowData};
use crate::workloads::{self, Loaded, Spec, SPECS};
use crate::Options;

const DEFAULT_SEED: u64 = 42;
/// Window length when the caller names none: long enough that the middle
/// half of its seconds is not one of the host's bad stretches.
const DEFAULT_SECONDS: u64 = 40;
const SMOKE_SECONDS: u64 = 2;
/// The scratch loads behind `setup_s`, besides the one the window runs on.
const EXTRA_LOADS: usize = 2;

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What one workload's run produced.
#[derive(Default)]
struct Outcome {
    violations: Vec<String>,
    attempted: u64,
    failed: u64,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

/// One driver pass plus its output checks.
fn pass(
    spec: &Spec,
    loaded: &Loaded,
    seed: u64,
    seconds: u64,
    recording: Recording,
    outcome: &mut Outcome,
) -> WindowData {
    let rows_before = checked_rows(spec, &loaded.db);
    let data = window::run(spec, loaded, seed, seconds, recording);
    outcome.violations.extend(check(spec, &data, rows_before));
    let (attempted, failed) = report::attempts(&data);
    outcome.attempted += attempted;
    outcome.failed += failed;
    data
}

/// The measured window: tracing off, and the loads behind `setup_s` spread
/// over the process's lifetime.
fn end_to_end(spec: &Spec, seed: u64, seconds: u64, outcome: &mut Outcome) {
    let loaded = workloads::load(spec, seed);
    let mut setup_s = vec![loaded.seconds];
    let data = pass(spec, &loaded, seed, seconds, Recording::Off, outcome);
    for _ in 0..EXTRA_LOADS {
        setup_s.push(workloads::load(spec, seed).seconds);
    }
    outcome.end_to_end = report::end_to_end(spec, &data, &setup_s);
}

/// The per-layer numbers: the direct-call pass on a fresh load, a short
/// untraced and a short traced driver pass on the same data, then the layer
/// probes.
fn per_layer(spec: &Spec, seed: u64, seconds: u64, effort: Effort, outcome: &mut Outcome) {
    let loaded = workloads::load(spec, seed);
    let direct = direct::mix(spec, &loaded, seed, effort);
    let untraced = pass(spec, &loaded, seed, seconds, Recording::Off, outcome);
    let traced = pass(spec, &loaded, seed, seconds, Recording::Full, outcome);
    let mut rows = report::from_passes(spec, &untraced, &traced, &direct);

    if let Some(log) = &traced.log {
        let path = out_dir().join(format!("{}.spans.jsonl", spec.name));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| traced::write_jsonl(&path, &traced.spans.recent(usize::MAX), log));
        match written {
            Ok(lines) => println!("{lines} spans written to {}", path.display()),
            Err(e) => outcome
                .violations
                .push(format!("cannot write {}: {e}", path.display())),
        }
    }

    let registry = MetricsRegistry::new();
    traced.controller.register_metrics(&registry);
    let render = probes::rtt_us(
        || drop(std::hint::black_box(registry.render_prometheus())),
        20,
    );
    drop((untraced, traced, loaded));

    probes::util(&mut rows, effort);
    rows.push(Metric::new(
        "sql.parse_ns",
        probes::sql_parse_ns(spec.bench, effort),
        "ns",
    ));
    probes::sql(&mut rows, effort);
    probes::storage(&mut rows, effort);
    probes::core(&mut rows, effort);
    probes::obs(&mut rows, effort);
    rows.push(Metric::new("obs.metrics_render_us", render, "us"));
    probes::chaos(&mut rows, effort);
    api_probe(&mut rows, seed);
    for bench in ["tpcc", "smallbank"] {
        // Small data: these rows compare transaction types with each other.
        let small = Spec {
            bench,
            scale: if bench == "tpcc" { 4.0 } else { 10.0 },
            ..*spec
        };
        let loaded = workloads::load(&small, seed);
        let per_batch = if bench == "tpcc" { 40 } else { 1_000 } / effort.direct_div;
        for (ty, us) in direct::per_type(&loaded, seed, per_batch) {
            rows.push(Metric::new(
                &format!("workloads.exec_us.{bench}.{ty}"),
                us,
                "us",
            ));
        }
    }
    outcome.per_layer = rows;
}

/// Round trips of the control API over loopback HTTP against a live paced
/// voter run on small data.
fn api_probe(rows: &mut Vec<Metric>, seed: u64) {
    const CALLS: usize = 25;
    let spec = Spec {
        scale: 100.0,
        ..*workloads::spec_by_name("voter_paced").expect("voter_paced")
    };
    let loaded = workloads::load(&spec, seed);
    let live = window::start(&spec, &loaded, seed, 5, Recording::Off);
    let api = Arc::new(ApiServer::new().with_registry(Arc::new(MetricsRegistry::new())));
    api.register("w", live.handle.controller.clone());
    let server = api.serve_http("127.0.0.1:0").expect("bind loopback");
    let addr = server.addr();
    live.clock.sleep(500_000);
    let status = probes::rtt_us(
        || drop(http_request(addr, "GET", "/workloads/w", None).expect("GET status")),
        CALLS,
    );
    let body = Json::obj().set("tps", 20_000.0);
    let set_rate = probes::rtt_us(
        || drop(http_request(addr, "POST", "/workloads/w/rate", Some(&body)).expect("POST rate")),
        CALLS,
    );
    let scrape = probes::rtt_us(
        || drop(http_request_text(addr, "GET", "/metrics", None).expect("GET /metrics")),
        CALLS,
    );
    drop(server);
    live.handle.stop_and_join();
    rows.push(Metric::new("api.status_rtt_us", status, "us"));
    rows.push(Metric::new("api.set_rate_rtt_us", set_rate, "us"));
    rows.push(Metric::new("api.metrics_scrape_us", scrape, "us"));
}

fn metrics_json(metrics: &[Metric], full: bool) -> Json {
    metrics.iter().fold(Json::obj(), |j, m| {
        j.set(&m.name, if full { m.to_json_full() } else { m.to_json() })
    })
}

/// Measure one workload in this process. The last line printed is the
/// result object.
fn one(spec: &Spec, o: &Options) -> bool {
    let seed = o.seed.unwrap_or(DEFAULT_SEED);
    let seconds = o.seconds.unwrap_or(if o.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    // A smoke run shows that everything works, on a tenth of the data.
    let (spec, effort) = if o.smoke {
        (
            Spec {
                scale: spec.scale / 10.0,
                ..*spec
            },
            Effort::SMOKE,
        )
    } else {
        (*spec, Effort::FULL)
    };
    let spec = &spec;
    let mut outcome = Outcome::default();
    if o.trace != Some(true) {
        end_to_end(spec, seed, seconds, &mut outcome);
    }
    if o.trace != Some(false) {
        // The driver passes of the traced half are a quarter of the window
        // each; their numbers are diagnostics.
        per_layer(
            spec,
            seed,
            (seconds / 4).max(SMOKE_SECONDS),
            effort,
            &mut outcome,
        );
    }

    println!(
        "== {} (seed {seed}, {seconds} s window, {} cores) ==",
        spec.name,
        cores()
    );
    if !outcome.end_to_end.is_empty() {
        report::print_table("end to end", &outcome.end_to_end);
    }
    if !outcome.per_layer.is_empty() {
        report::print_table("per layer", &outcome.per_layer);
    }
    for v in &outcome.violations {
        println!("CHECK FAILED: {v}");
    }
    let correct = outcome.violations.is_empty();
    let head = Json::obj()
        .set("correct", correct)
        .set("attempted", outcome.attempted.max(1))
        .set("failed", outcome.failed);
    let line = match o.trace {
        Some(false) => head.set("metrics", metrics_json(&outcome.end_to_end, false)),
        Some(true) => head.set("metrics", metrics_json(&outcome.per_layer, false)),
        None => head
            .set("end_to_end", metrics_json(&outcome.end_to_end, true))
            .set("per_layer", metrics_json(&outcome.per_layer, true))
            .set(
                "violations",
                Json::Arr(
                    outcome
                        .violations
                        .iter()
                        .map(|v| v.as_str().into())
                        .collect(),
                ),
            ),
    };
    println!("{line}");
    correct
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `bp-perf run --workload <name> <args>` as a child, pass its report
/// through, and return the result object on its last line.
pub fn child(name: &str, args: &[String], echo: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", name])
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    if echo {
        println!("{report}");
    }
    let json = Json::parse(last).map_err(|e| format!("{name}: last line is not a result: {e}"))?;
    if !output.status.success() && json.get("correct").and_then(Json::as_bool) != Some(false) {
        return Err(format!("{name}: exited with {}", output.status));
    }
    Ok(json)
}

/// Measure all four workloads, one child each.
fn all(o: &Options) -> bool {
    let mut args = vec![
        "--seed".to_string(),
        o.seed.unwrap_or(DEFAULT_SEED).to_string(),
    ];
    if let Some(s) = o.seconds {
        args.extend(["--seconds".to_string(), s.to_string()]);
    }
    if let Some(t) = o.trace {
        args.extend(["--trace".to_string(), (t as u8).to_string()]);
    }
    if o.smoke {
        args.push("--smoke".to_string());
    }
    let mut ok = true;
    let mut by_workload = Json::obj();
    for spec in &SPECS {
        match child(spec.name, &args, true) {
            Ok(json) => {
                ok &= json.get("correct").and_then(Json::as_bool) == Some(true);
                by_workload = by_workload.set(spec.name, json);
            }
            Err(e) => {
                eprintln!("bp-perf: {e}");
                ok = false;
            }
        }
    }
    let latest = Json::obj()
        .set("seed", o.seed.unwrap_or(DEFAULT_SEED))
        .set("cores", cores())
        .set("workloads", by_workload);
    let path = out_dir().join("latest.json");
    match std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, format!("{latest}\n")))
    {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("bp-perf: cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    ok
}

pub fn command(o: &Options) -> bool {
    match &o.workload {
        Some(name) => one(
            workloads::spec_by_name(name).expect("validated by the parser"),
            o,
        ),
        None => all(o),
    }
}

/// `check`: a smoke-sized window of every workload, reporting only whether
/// its outputs are correct.
pub fn check_command(o: &Options) -> bool {
    let seed = o.seed.unwrap_or(DEFAULT_SEED);
    let mut ok = true;
    for spec in &SPECS {
        let mut outcome = Outcome::default();
        let loaded = workloads::load(spec, seed);
        pass(
            spec,
            &loaded,
            seed,
            SMOKE_SECONDS,
            Recording::Off,
            &mut outcome,
        );
        if outcome.violations.is_empty() {
            println!(
                "{:<16} ok ({} requests, {} failed)",
                spec.name, outcome.attempted, outcome.failed
            );
        }
        for v in &outcome.violations {
            println!("{:<16} CHECK FAILED: {v}", spec.name);
            ok = false;
        }
    }
    ok
}

/// `counts`: the direct-call pass of every workload on a fresh load. With
/// `--twice` it runs twice from the same seed and requires identical counts.
pub fn counts_command(o: &Options) -> bool {
    let seed = o.seed.unwrap_or(DEFAULT_SEED);
    let mut ok = true;
    for spec in &SPECS {
        let counts = || {
            let d = direct::mix(spec, &workloads::load(spec, seed), seed, Effort::FULL);
            [
                d.allocs_per_tx,
                d.alloc_bytes_per_tx,
                d.wal_bytes_per_tx,
                d.rows_read_per_tx,
                d.rows_written_per_tx,
            ]
        };
        let first = counts();
        println!(
            "{:<16} allocs/tx {:.4}  alloc bytes/tx {:.2}  wal bytes/tx {:.4}  rows read/tx {:.4}  rows written/tx {:.4}",
            spec.name, first[0], first[1], first[2], first[3], first[4]
        );
        if !o.twice {
            continue;
        }
        let second = counts();
        // Log bytes and rows are the program's own counts and must match
        // exactly. The engine's lock table is a randomly seeded hash map
        // that regrows when its probe chains say so, so one regrowth in a
        // million allocations can land on either side of the batch's end.
        const ALLOCATOR_SLACK: f64 = 2e-3;
        let same = first[2..] == second[2..]
            && first[..2]
                .iter()
                .zip(&second[..2])
                .all(|(a, b)| (a - b).abs() <= ALLOCATOR_SLACK * a.abs());
        if !same {
            println!("{:<16} second pass: {second:?}", spec.name);
            println!(
                "{:<16} COUNTS DIFFER between two passes from seed {seed}",
                spec.name
            );
            ok = false;
        }
    }
    ok
}
