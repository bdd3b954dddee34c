//! Layer probes: each calls one crate's public functions on one thread with
//! a fixed seed and reports the median of a few timed batches. The numbers
//! are diagnostics — they say which layer a change moved — and are not
//! gated.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bp_chaos::{ChaosController, FaultKind};
use bp_core::{
    ArrivalDist, ControlState, Mixture, Phase, PhaseScript, Rate, RequestOutcome, RequestQueue,
    Sample, ScheduleSource, ScheduledRequest, ScriptSchedule, StatsCollector, Trace, TraceRecord,
};
use bp_obs::{EventJournal, ObsConfig, Severity, Span, SpanMode, SpanOutcome, SpanRecorder};
use bp_sql::{Connection, Dialect};
use bp_storage::bufferpool::BufferPool;
use bp_storage::wal::Wal;
use bp_storage::{
    Database, LockManager, LockMode, LockTarget, Personality, Row, ServerMetrics, Value,
};
use bp_util::clock::{wall_clock, MICROS_PER_SEC};
use bp_util::histogram::Histogram;
use bp_util::rng::{Rng, Zipf};

use crate::report::Metric;
use crate::summary::median;

const BATCHES: usize = 5;
/// Caps what a probe that keeps every operation's output can hold.
const MAX_OPS_PER_BATCH: u64 = 1 << 20;
const PROBE_SEED: u64 = 0xBE7C_4B12;
const PROBE_ROWS: i64 = 10_000;

/// How long the probes may take: a smoke run only shows they work.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Length of one timed batch.
    pub batch: Duration,
    /// Length of the bare rate-gate run.
    pub gate_seconds: u64,
    /// Divides the transaction counts of the direct-call passes.
    pub direct_div: u64,
}

impl Effort {
    pub const FULL: Effort = Effort {
        batch: Duration::from_millis(40),
        gate_seconds: 3,
        direct_div: 1,
    };
    pub const SMOKE: Effort = Effort {
        batch: Duration::from_millis(5),
        gate_seconds: 1,
        direct_div: 10,
    };
}

/// Median over batches of the mean time of `op`, in ns. `setup` builds
/// fresh state for each batch, outside the timed part.
fn time_ns<S>(effort: Effort, mut setup: impl FnMut() -> S, mut op: impl FnMut(&mut S)) -> f64 {
    // Size a batch from a short calibration run.
    let mut state = setup();
    let mut calibrate = 64u64;
    let per_op = loop {
        let t0 = Instant::now();
        for _ in 0..calibrate {
            op(&mut state);
        }
        let took = t0.elapsed();
        if took >= Duration::from_millis(2) || calibrate >= MAX_OPS_PER_BATCH {
            break took.as_secs_f64() / calibrate as f64;
        }
        calibrate *= 4;
    };
    drop(state);
    let ops = ((effort.batch.as_secs_f64() / per_op) as u64).clamp(1, MAX_OPS_PER_BATCH);
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut state = setup();
            let t0 = Instant::now();
            for _ in 0..ops {
                op(&mut state);
            }
            let ns = t0.elapsed().as_nanos() as f64 / ops as f64;
            black_box(&state);
            ns
        })
        .collect();
    median(&batches)
}

/// Keep a result the optimiser would otherwise discard.
fn sink<T>(value: T) {
    black_box(value);
}

type Rows = Vec<Metric>;

fn push(rows: &mut Rows, name: &str, value: f64, unit: &'static str) {
    rows.push(Metric::new(name, value, unit));
}

/// A small table the sql and storage probes share: `PROBE_ROWS` rows, an
/// integer key, a secondary index with ten rows per key.
fn probe_db() -> Arc<Database> {
    let db = Database::new(Personality::test());
    let mut conn = Connection::open(&db);
    conn.execute_batch(
        "CREATE TABLE probe (id INT PRIMARY KEY, k INT NOT NULL, v VARCHAR(64) NOT NULL); \
         CREATE INDEX idx_probe_k ON probe (k);",
    )
    .expect("probe schema");
    let mut rng = Rng::new(PROBE_SEED);
    conn.begin().expect("begin");
    for id in 0..PROBE_ROWS {
        conn.execute(
            "INSERT INTO probe VALUES (?, ?, ?)",
            &[
                Value::Int(id),
                Value::Int(id % (PROBE_ROWS / 10)),
                Value::Str(rng.astring(32, 64)),
            ],
        )
        .expect("probe row");
    }
    conn.commit().expect("commit");
    db
}

pub fn util(rows: &mut Rows, effort: Effort) {
    let clock = wall_clock();
    push(
        rows,
        "util.clock_now_ns",
        time_ns(effort, || (), |_| sink(clock.now())),
        "ns",
    );
    push(
        rows,
        "util.hist_record_ns",
        time_ns(
            effort,
            || (Histogram::latency(), 0u64),
            |(h, i)| {
                *i += 1;
                h.record(*i & 0x3FF);
            },
        ),
        "ns",
    );
    let zipf = Zipf::new(1000, 0.9);
    push(
        rows,
        "util.zipf_sample_ns",
        time_ns(
            effort,
            || Rng::new(PROBE_SEED),
            |rng| sink(zipf.sample(rng)),
        ),
        "ns",
    );
}

/// Mean `bp_sql::parse` time over the DML statements of a benchmark's
/// catalog (unweighted: the catalog does not say which type runs which).
pub fn sql_parse_ns(bench: &str, effort: Effort) -> f64 {
    let catalog = bp_workloads::catalog_of(bench).expect("bundled benchmark");
    let statements: Vec<String> = catalog
        .names()
        .into_iter()
        .filter(|n| !n.starts_with("create_"))
        .map(|n| {
            catalog
                .resolve(n, Dialect::MySql)
                .expect("defined statement")
        })
        .collect();
    time_ns(
        effort,
        || 0usize,
        |i| {
            *i = (*i + 1) % statements.len();
            black_box(bp_sql::parse(&statements[*i]).expect("catalog statement parses"));
        },
    )
}

pub fn sql(rows: &mut Rows, effort: Effort) {
    let db = probe_db();
    let key = |rng: &mut Rng| Value::Int(rng.int_range(0, PROBE_ROWS - 1));
    let session = || (Connection::open(&db), Rng::new(PROBE_SEED));

    const POINT: &str = "SELECT v FROM probe WHERE id = ?";
    let text = time_ns(effort, session, |(c, rng)| {
        black_box(c.execute(POINT, &[key(rng)]).expect("point select"));
    });
    let prepared_stmt = Connection::open(&db).prepare(POINT).expect("prepare");
    let prepared = time_ns(effort, session, |(c, rng)| {
        black_box(
            c.execute_prepared(&prepared_stmt, &[key(rng)])
                .expect("point select"),
        );
    });
    push(rows, "sql.point_select_ns", text, "ns");
    push(rows, "sql.text_minus_prepared_ns", text - prepared, "ns");
    push(
        rows,
        "sql.update_ns",
        time_ns(effort, session, |(c, rng)| {
            let k = Value::Int(rng.int_range(0, 999));
            black_box(
                c.execute("UPDATE probe SET k = ? WHERE id = ?", &[k, key(rng)])
                    .expect("update"),
            );
        }),
        "ns",
    );
    push(
        rows,
        "sql.range_scan_ns",
        time_ns(effort, session, |(c, rng)| {
            let lo = rng.int_range(0, PROBE_ROWS - 21);
            black_box(
                c.query(
                    "SELECT id, k FROM probe WHERE id >= ? AND id < ?",
                    &[Value::Int(lo), Value::Int(lo + 20)],
                )
                .expect("range scan"),
            );
        }),
        "ns",
    );
}

pub fn storage(rows: &mut Rows, effort: Effort) {
    let db = probe_db();
    let table = db.table("probe").expect("probe table");
    let session = || (db.session(), Rng::new(PROBE_SEED));
    let key = |rng: &mut Rng| [Value::Int(rng.int_range(0, PROBE_ROWS - 1))];

    push(
        rows,
        "storage.txn_empty_ns",
        time_ns(effort, session, |(s, _)| {
            s.begin().expect("begin");
            s.commit().expect("commit");
        }),
        "ns",
    );
    push(
        rows,
        "storage.read_pk_ns",
        time_ns(effort, session, |(s, rng)| {
            s.begin().expect("begin");
            black_box(s.read_pk(&table, &key(rng), false).expect("read"));
            s.commit().expect("commit");
        }),
        "ns",
    );
    push(
        rows,
        "storage.update_txn_ns",
        time_ns(effort, session, |(s, rng)| {
            s.begin().expect("begin");
            let (rowid, mut row) = s
                .read_pk(&table, &key(rng), true)
                .expect("read")
                .expect("row");
            row[1] = Value::Int(rng.int_range(0, 999));
            s.update(&table, rowid, row).expect("update");
            s.commit().expect("commit");
        }),
        "ns",
    );
    let mut next_id = PROBE_ROWS;
    push(
        rows,
        "storage.insert_txn_ns",
        time_ns(effort, session, |(s, _)| {
            next_id += 1;
            let row: Row = vec![
                Value::Int(next_id),
                Value::Int(next_id % 1000),
                Value::Str("probe".into()),
            ];
            s.begin().expect("begin");
            s.insert(&table, row).expect("insert");
            s.commit().expect("commit");
        }),
        "ns",
    );
    push(
        rows,
        "storage.index_lookup_ns",
        time_ns(
            effort,
            || Rng::new(PROBE_SEED),
            |rng| {
                let k = [Value::Int(rng.int_range(0, PROBE_ROWS / 10 - 1))];
                black_box(table.index_lookup("idx_probe_k", &k).expect("index"));
            },
        ),
        "ns",
    );

    let metrics = Arc::new(ServerMetrics::new());
    let locks = LockManager::new(
        Duration::from_millis(250),
        metrics.clone(),
        Arc::new(ChaosController::new()),
    );
    push(
        rows,
        "storage.lock_cycle_ns",
        time_ns(
            effort,
            || 0u64,
            |i| {
                *i += 1;
                let target = LockTarget::Row(1, *i & 0xFFF);
                locks
                    .acquire(*i, target, LockMode::Exclusive)
                    .expect("uncontended");
                locks.release_all(*i, &[target]);
            },
        ),
        "ns",
    );
    let wal = Wal::new(0, 0.0, 0.0);
    push(
        rows,
        "storage.wal_commit_ns",
        time_ns(effort, || (), |_| sink(wal.commit(128, &metrics))),
        "ns",
    );
    let pool = BufferPool::new(1024, 64);
    push(
        rows,
        "storage.bufferpool_access_ns",
        time_ns(
            effort,
            || Rng::new(PROBE_SEED),
            |rng| {
                black_box(pool.access(1, rng.bounded(PROBE_ROWS as u64), false, &metrics));
            },
        ),
        "ns",
    );
}

/// Push `n` ungated requests and drain them with `pullers` threads; ns per
/// request.
fn queue_cycle_ns(pullers: usize, n: usize) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let queue = RequestQueue::new(wall_clock());
            let t0 = Instant::now();
            queue.push_scheduled(
                0,
                (0..n).map(|_| ScheduledRequest {
                    offset_us: 0,
                    txn_type: 0,
                    phase: 0,
                }),
            );
            std::thread::scope(|scope| {
                for _ in 0..pullers {
                    // Everything is already due, so `None` means empty.
                    scope.spawn(|| while black_box(queue.try_pull()).is_some() {});
                }
            });
            t0.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&batches)
}

/// The bare rate gate: arrivals at `tps` with exponential gaps for a few
/// seconds, two consumers that do nothing with what they pull. Returns
/// `(delivered share of offered, %, p95 lateness of a dispatch against its
/// scheduled arrival, µs)`.
fn gate(tps: usize, seconds: u64) -> (f64, f64) {
    let clock = wall_clock();
    let queue = RequestQueue::new(clock.clone());
    queue.set_rate(tps as f64);
    let mut rng = Rng::new(PROBE_SEED);
    let late = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let mut mine = Vec::new();
                while let Some(req) = queue.pull(20_000) {
                    mine.push(clock.now().saturating_sub(req.arrival) as f64);
                }
                late.lock().expect("late").extend(mine);
            });
        }
        let start = clock.now();
        for second in 0..seconds {
            let base = start + second * MICROS_PER_SEC;
            clock.sleep_until(base);
            let offsets = ArrivalDist::Exponential.offsets(tps, &mut rng);
            queue.push_arrivals(offsets.into_iter().map(|o| base + o));
        }
        clock.sleep_until(start + seconds * MICROS_PER_SEC);
        queue.close();
    });
    let late = late.into_inner().expect("late");
    let delivered = late.len() as f64 / (tps as u64 * seconds) as f64 * 100.0;
    // Python-style quantiles are for small sets; a plain rank is exact here.
    let mut sorted = late;
    sorted.sort_by(f64::total_cmp);
    let p95 = sorted.get(sorted.len() * 95 / 100).copied().unwrap_or(0.0);
    (delivered, p95)
}

pub fn core(rows: &mut Rows, effort: Effort) {
    push(
        rows,
        "core.queue_cycle_ns",
        queue_cycle_ns(1, 100_000),
        "ns",
    );
    push(
        rows,
        "core.queue_cycle_2t_ns",
        queue_cycle_ns(2, 100_000),
        "ns",
    );

    let clock = wall_clock();
    push(
        rows,
        "core.stats_record_ns",
        time_ns(
            effort,
            || (StatsCollector::new(clock.clone(), &["a", "b"]), 0u64),
            |(stats, t)| {
                *t += 1;
                stats.record(Sample {
                    txn_type: (*t & 1) as usize,
                    arrival: *t,
                    start: *t,
                    end: *t + 7,
                    outcome: RequestOutcome::Committed,
                    retries: 0,
                });
            },
        ),
        "ns",
    );
    push(
        rows,
        "core.trace_append_ns",
        time_ns(effort, Trace::new, |trace| {
            trace.append(TraceRecord {
                start_us: 1,
                latency_us: 7,
                txn_type: 0,
                outcome: RequestOutcome::Committed,
            });
        }),
        "ns",
    );

    const PLAN_TPS: f64 = 20_000.0;
    let script = PhaseScript::new(vec![
        Phase::new(Rate::Limited(PLAN_TPS), 1e6).with_arrival(ArrivalDist::Exponential)
    ]);
    let state = ControlState::new(
        Rate::Limited(PLAN_TPS),
        Mixture::new(vec![1.0]).expect("mix"),
        0.0,
    );
    push(
        rows,
        "core.plan_ns_per_req",
        time_ns(
            effort,
            || (ScriptSchedule::new(script.clone(), 0.0, PROBE_SEED), 0u64),
            |(source, second)| {
                black_box(source.plan(*second, 0, &state));
                *second += 1;
            },
        ) / PLAN_TPS,
        "ns",
    );

    let (delivered, late_p95) = gate(PLAN_TPS as usize, effort.gate_seconds);
    push(rows, "core.gate_delivered_pct", delivered, "%");
    push(rows, "core.gate_late_p95_us", late_p95, "us");
}

fn probe_span(seq: u64) -> Span {
    Span {
        trace_id: seq | 1,
        seq,
        submitted_us: seq,
        dequeued_us: seq + 1,
        end_us: seq + 9,
        lock_wait_us: 0,
        commit_us: 2,
        tenant: 0,
        phase: 0,
        txn_type: 0,
        retries: 0,
        outcome: SpanOutcome::Committed,
    }
}

pub fn obs(rows: &mut Rows, effort: Effort) {
    // What a driver terminal does per request in each mode.
    let offer = |mode| {
        time_ns(
            effort,
            || {
                (
                    SpanRecorder::new(ObsConfig {
                        mode,
                        ..ObsConfig::default()
                    }),
                    0u64,
                )
            },
            |(recorder, seq)| {
                *seq += 1;
                if recorder.enabled() {
                    black_box(bp_obs::take_stage_acc());
                    black_box(recorder.offer(probe_span(*seq)));
                }
            },
        )
    };
    push(rows, "obs.span_offer_ns", offer(SpanMode::Full), "ns");
    push(rows, "obs.span_offer_off_ns", offer(SpanMode::Off), "ns");
    push(
        rows,
        "obs.journal_emit_ns",
        time_ns(effort, EventJournal::new, |journal| {
            journal.emit_with(Severity::Info, "perf", "probe", || {
                ("probe event".to_string(), vec![("k", "v".to_string())])
            });
        }),
        "ns",
    );
}

pub fn chaos(rows: &mut Rows, effort: Effort) {
    let chaos = ChaosController::new();
    push(
        rows,
        "chaos.roll_disarmed_ns",
        time_ns(effort, || (), |_| sink(chaos.roll(FaultKind::PanicStorm))),
        "ns",
    );
}

/// Median round-trip time of `calls` calls, µs.
pub fn rtt_us(mut call: impl FnMut(), calls: usize) -> f64 {
    let times: Vec<f64> = (0..calls)
        .map(|_| {
            let t0 = Instant::now();
            call();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}
