//! Metric names, units and definitions: turns what the passes measured
//! into the rows `BENCHMARK.json` lists. `README.md` documents each row.

use bp_obs::Stage;
use bp_util::json::Json;

use crate::direct::Direct;
use crate::summary::{midmean, Quartiles};
use crate::window::{Second, WindowData};
use crate::workloads::{Drive, Spec};

/// One reported number. `slices` carries the sample count and quartiles of
/// the per-second (or per-load) values the number summarises.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub slices: Option<Quartiles>,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            slices: None,
        }
    }

    /// A metric whose value is the mean of the middle half of `values`.
    fn midmean_of(name: &str, values: &[f64], unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value: midmean(values),
            unit,
            slices: Some(Quartiles::of(values)),
        }
    }

    /// The `{"value": .., "unit": ..}` object of the result line.
    pub fn to_json(&self) -> Json {
        Json::obj().set("value", self.value).set("unit", self.unit)
    }

    /// The same plus the slice statistics, for `out/latest.json`.
    pub fn to_json_full(&self) -> Json {
        match self.slices {
            Some(q) => self.to_json().set("slices", q.to_json()),
            None => self.to_json(),
        }
    }
}

/// Requests that ended in the window, by how: `(attempted, failed + shed)`.
pub fn attempts(data: &WindowData) -> (u64, u64) {
    (data.completed + data.shed, data.failed + data.shed)
}

/// A second from which the hypervisor took more than this is a measurement
/// of the hypervisor. A quiet second loses 0 to 0.02 s; in the one throttled
/// spell seen while this was written (a quarter of an hour) every second lost
/// 0.2 to 1.6 s of its two cores.
const STOLEN_LIMIT_S: f64 = 0.05;

/// `f(second, slowdown)` for every second of the window in which the host
/// reference ran and the hypervisor let the machine run: the per-second
/// values of a host-normalised metric. When fewer than a quarter of the
/// seconds were let run, all of them count: a number is still due.
fn normalised(data: &WindowData, f: impl Fn(&Second, f64) -> f64) -> Vec<f64> {
    let values = |limit_s: f64| -> Vec<f64> {
        data.seconds
            .iter()
            .filter(|s| s.stolen_s <= limit_s)
            .filter_map(|s| s.slowdown.map(|slow| f(s, slow)))
            .collect()
    };
    let quiet = values(STOLEN_LIMIT_S);
    if quiet.len() * 4 >= data.seconds.len() {
        quiet
    } else {
        values(f64::INFINITY)
    }
}

/// What the typical request's time (its median service time, its CPU time)
/// is divided by in a second the host was `slow` times slower than nominal.
/// A saturated terminal follows the host in full. A paced one wakes up for
/// every request and spends half its time in stalls that the host's spells
/// do not lengthen: over 172 seconds of ten runs its median service time and
/// CPU per request rose as the slow-down to the power 0.47 and 0.48, so they
/// are divided by its square root. (Its 95th percentile follows the host in
/// full, like everything saturated: 81 against 115 µs between two spells
/// that were 40 against 47 µs apart at the median.)
fn typical(spec: &Spec, slow: f64) -> f64 {
    match spec.drive {
        Drive::Saturated => slow,
        Drive::Paced { .. } => slow.sqrt(),
    }
}

/// The end-to-end metrics of one measured window. `setup_s` holds the
/// host-normalised wall time of each load made in this process.
///
/// Timings are normalised second by second to the host's nominal speed: a
/// duration is divided by that second's slow-down (see [`typical`]), and a
/// saturated rate multiplied by it. A paced rate is the gate's and is left
/// as measured.
pub fn end_to_end(spec: &Spec, data: &WindowData, setup_s: &[f64]) -> Vec<Metric> {
    let (attempted, failed) = attempts(data);
    let delivered = match spec.drive {
        // The upper quartile of the seconds: a host stall can only lower a
        // second's delivery, so this is what the gate delivers when it is
        // allowed to run. (`tput_tx_s` is the typical second.)
        Drive::Paced { tps } => {
            let pct: Vec<f64> = data
                .seconds
                .iter()
                .map(|s| s.completed / tps * 100.0)
                .collect();
            let q = Quartiles::of(&pct);
            Metric {
                name: "rate_delivered_pct".into(),
                value: q.q3,
                unit: "%",
                slices: Some(q),
            }
        }
        // Nothing is requested of a saturated run, so nothing is missed.
        Drive::Saturated => Metric::new("rate_delivered_pct", 100.0, "%"),
    };
    let setup = Quartiles::of(setup_s);
    vec![
        Metric {
            name: "setup_s".into(),
            value: setup.median,
            unit: "s",
            slices: Some(setup),
        },
        Metric::midmean_of(
            "tput_tx_s",
            &normalised(data, |s, slow| match spec.drive {
                Drive::Saturated => s.completed * slow,
                Drive::Paced { .. } => s.completed,
            }),
            "tx/s",
        ),
        delivered,
        Metric::midmean_of(
            "svc_p50_us",
            &normalised(data, |s, slow| s.p50_us / typical(spec, slow)),
            "us",
        ),
        Metric::midmean_of(
            "svc_p95_us",
            &normalised(data, |s, slow| s.p95_us / slow),
            "us",
        ),
        Metric::midmean_of(
            "cpu_us_per_tx",
            &normalised(data, |s, slow| s.cpu_us_per_tx / typical(spec, slow)),
            "us",
        ),
        Metric::new("peak_rss_mb", data.peak_rss_mb, "MB"),
        // 100 − fail_pct: a metric that is 0 when all is well cannot carry
        // a relative bound.
        Metric::new(
            "ok_pct",
            100.0 - failed as f64 / attempted.max(1) as f64 * 100.0,
            "%",
        ),
    ]
}

/// Per-layer rows that come out of driver passes: the short untraced pass
/// and the traced pass of the same workload, plus the direct-call pass.
pub fn from_passes(
    spec: &Spec,
    untraced: &WindowData,
    traced: &WindowData,
    direct: &Direct,
) -> Vec<Metric> {
    let mut rows = Vec::new();
    let mut row =
        |name: &str, value: f64, unit: &'static str| rows.push(Metric::new(name, value, unit));

    let per_tx = |total: u64| total as f64 / traced.completed.max(1) as f64;
    row(
        "storage.lock_waits_per_ktx",
        per_tx(traced.server.lock_waits) * 1e3,
        "1/ktx",
    );
    row(
        "storage.lock_wait_us_per_tx",
        per_tx(traced.server.lock_wait_micros),
        "us",
    );
    row(
        "storage.deadlocks_per_ktx",
        per_tx(traced.server.deadlocks) * 1e3,
        "1/ktx",
    );
    row("storage.wal_bytes_per_tx", direct.wal_bytes_per_tx, "B");
    row("storage.rows_read_per_tx", direct.rows_read_per_tx, "count");
    row(
        "storage.rows_written_per_tx",
        direct.rows_written_per_tx,
        "count",
    );

    let over = |f: fn(f64, f64) -> f64, init: f64, of: fn(&Second) -> f64| {
        untraced.seconds.iter().map(of).fold(init, f)
    };
    row(
        "core.backlog_min",
        over(f64::min, f64::MAX, |s| s.backlog),
        "count",
    );
    // The never-exceed check: how far the fullest second went over the
    // target, and what the emptiest second delivered of it.
    let (over_max, worst) = match spec.drive {
        Drive::Paced { tps } => (
            (over(f64::max, 0.0, |s| s.completed) / tps - 1.0) * 100.0,
            over(f64::min, f64::MAX, |s| s.completed) / tps * 100.0,
        ),
        Drive::Saturated => (0.0, 100.0),
    };
    row("core.rate_over_max_pct", over_max, "%");
    row("core.rate_worst_s_pct", worst, "%");

    let stages = traced.spans.stage_summaries();
    let stage = |st: Stage| stages[st as usize].mean_us;
    row("core.stage_queue_us", stage(Stage::Queue), "us");
    row("core.stage_lock_us", stage(Stage::Lock), "us");
    row("core.stage_exec_us", stage(Stage::Exec), "us");
    row("core.stage_commit_us", stage(Stage::Commit), "us");
    // Self time of the driver per request: dequeue → end, minus the part
    // the `execute` child spans cover (a retried request has several).
    let service_us = stage(Stage::Lock) + stage(Stage::Exec) + stage(Stage::Commit);
    let in_execute = traced.log.as_ref().map_or(0, |log| log.exec_total_us());
    let requests = stages[Stage::Exec as usize].count.max(1) as f64;
    row(
        "core.self_us",
        service_us - in_execute as f64 / requests,
        "us",
    );

    // Normalised like `cpu_us_per_tx`, so it compares with the direct pass.
    let cpu = |d: &WindowData| {
        midmean(&normalised(d, |s, slow| {
            s.cpu_us_per_tx / typical(spec, slow)
        }))
    };
    row(
        "core.driver_cpu_us",
        cpu(untraced) - direct.exec_cpu_us,
        "us",
    );
    row(
        "obs.traced_overhead_pct",
        (cpu(traced) / cpu(untraced) - 1.0) * 100.0,
        "%",
    );

    row("workloads.exec_us", direct.exec_us, "us");
    row("workloads.exec_cpu_us", direct.exec_cpu_us, "us");
    row("workloads.allocs_per_tx", direct.allocs_per_tx, "count");
    row(
        "workloads.alloc_bytes_per_tx",
        direct.alloc_bytes_per_tx,
        "B",
    );

    // What the window's numbers are before normalisation, and the host
    // speed they were taken at.
    let window_s = untraced.seconds.len().max(1) as f64;
    row(
        "bench.raw_tput_tx_s",
        untraced.completed as f64 / window_s,
        "tx/s",
    );
    row(
        "bench.raw_cpu_us_per_tx",
        untraced.cpu_s * 1e6 / untraced.completed.max(1) as f64,
        "us",
    );
    // Too few samples beyond it per second to gate on; normalised.
    row(
        "bench.svc_p99_us",
        midmean(&normalised(untraced, |s, slow| s.p99_us / slow)),
        "us",
    );
    row("bench.ref_kernel_ms", untraced.burst_ms, "ms");
    // How fast resident memory grew over the window.
    let rss: Vec<f64> = untraced.seconds.iter().map(|s| s.rss_mb).collect();
    row(
        "bench.rss_growth_mb_s",
        (rss[rss.len() - 1] - rss[0]) / (rss.len() - 1).max(1) as f64,
        "MB/s",
    );
    rows
}

/// `name  value unit  [n= q1= median= q3=]`, one metric per line.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        let slices = m
            .slices
            .map(|q| {
                format!(
                    "  (n={} q1={:.4} median={:.4} q3={:.4})",
                    q.n, q.q1, q.median, q.q3
                )
            })
            .unwrap_or_default();
        println!("  {:<38} {:>16.4} {}{}", m.name, m.value, m.unit, slices);
    }
}
