//! Benchmark-side tracing: decorators that record a span around every call
//! from the driver into the workload (`execute`) and into the schedule
//! source (`plan`). Spans stay in memory during the pass and are written
//! out afterwards. Spans recorded inside the crates are a later change.

use std::io::Write as _;
use std::sync::Arc;

use bp_core::{ControlState, ScheduleSource, TxnOutcome, Window, Workload};
use bp_obs::{format_trace_id, Span};
use bp_sql::{Connection, Result as SqlResult};
use bp_util::clock::{Micros, SharedClock};
use bp_util::json::Json;
use bp_util::rng::Rng;
use bp_util::sync::{thread_slot, CachePadded, Mutex};

use crate::workloads::forward_workload_to_inner;

/// One `Workload::execute` call. `trace_id` is the id the driver gave the
/// request that caused it (0 when the driver records no spans).
#[derive(Debug, Clone, Copy)]
pub struct ExecSpan {
    pub trace_id: u64,
    pub start_us: Micros,
    pub end_us: Micros,
    pub txn_type: u16,
}

/// One `ScheduleSource::plan` call.
#[derive(Debug, Clone, Copy)]
pub struct PlanSpan {
    pub second: u64,
    pub start_us: Micros,
    pub end_us: Micros,
    pub requests: usize,
}

const SHARDS: usize = 16;

/// Where the decorators put their spans. Each driver thread appends to its
/// own shard, so recording adds no contention between terminals.
pub struct SpanLog {
    clock: SharedClock,
    exec: Vec<CachePadded<Mutex<Vec<ExecSpan>>>>,
    plan: Mutex<Vec<PlanSpan>>,
}

impl SpanLog {
    pub fn new(clock: SharedClock) -> Arc<SpanLog> {
        Arc::new(SpanLog {
            clock,
            exec: (0..SHARDS)
                .map(|_| CachePadded::new(Mutex::new(Vec::new())))
                .collect(),
            plan: Mutex::new(Vec::new()),
        })
    }

    pub fn exec_spans(&self) -> Vec<ExecSpan> {
        self.exec
            .iter()
            .flat_map(|shard| shard.lock().clone())
            .collect()
    }

    /// Time inside `execute`, summed over every span, µs.
    pub fn exec_total_us(&self) -> u64 {
        self.exec
            .iter()
            .map(|shard| {
                shard
                    .lock()
                    .iter()
                    .map(|e| e.end_us - e.start_us)
                    .sum::<u64>()
            })
            .sum()
    }

    pub fn plan_spans(&self) -> Vec<PlanSpan> {
        self.plan.lock().clone()
    }
}

pub struct TracedWorkload {
    pub inner: Arc<dyn Workload>,
    pub log: Arc<SpanLog>,
}

impl Workload for TracedWorkload {
    forward_workload_to_inner!();

    fn execute(
        &self,
        txn_idx: usize,
        conn: &mut Connection,
        rng: &mut Rng,
    ) -> SqlResult<TxnOutcome> {
        let start_us = self.log.clock.now();
        let result = self.inner.execute(txn_idx, conn, rng);
        let end_us = self.log.clock.now();
        self.log.exec[thread_slot() % SHARDS].lock().push(ExecSpan {
            trace_id: bp_obs::current_trace(),
            start_us,
            end_us,
            txn_type: txn_idx as u16,
        });
        result
    }
}

pub struct TracedSource {
    pub inner: Box<dyn ScheduleSource>,
    pub log: Arc<SpanLog>,
}

impl ScheduleSource for TracedSource {
    fn plan(&mut self, second: u64, behind_us: Micros, state: &ControlState) -> Window {
        let start_us = self.log.clock.now();
        let window = self.inner.plan(second, behind_us, state);
        let end_us = self.log.clock.now();
        self.log.plan.lock().push(PlanSpan {
            second,
            start_us,
            end_us,
            requests: window.requests.len(),
        });
        window
    }

    fn drain_on_done(&self) -> bool {
        self.inner.drain_on_done()
    }
}

/// Write the pass's spans as JSON lines: every `plan` span, and for each
/// request span the driver's flight recorder still holds, the request and
/// the `execute` spans it caused (`parent` is the request's trace id).
/// Returns the number of lines written.
pub fn write_jsonl(
    path: &std::path::Path,
    requests: &[Span],
    log: &SpanLog,
) -> std::io::Result<usize> {
    let mut by_trace: std::collections::HashMap<u64, Vec<ExecSpan>> =
        std::collections::HashMap::new();
    let kept: std::collections::HashSet<u64> = requests.iter().map(|r| r.trace_id).collect();
    for e in log.exec_spans() {
        if kept.contains(&e.trace_id) {
            by_trace.entry(e.trace_id).or_default().push(e);
        }
    }
    let mut lines = Vec::new();
    for p in log.plan_spans() {
        lines.push(
            Json::obj()
                .set("name", "core.plan")
                .set("second", p.second)
                .set("start_us", p.start_us)
                .set("end_us", p.end_us)
                .set("requests", p.requests),
        );
    }
    for r in requests {
        let id = format_trace_id(r.trace_id);
        lines.push(r.to_json().set("name", "core.request"));
        for e in by_trace
            .get(&r.trace_id)
            .map(Vec::as_slice)
            .unwrap_or_default()
        {
            lines.push(
                Json::obj()
                    .set("name", "workloads.execute")
                    .set("parent", id.as_str())
                    .set("txn_type", e.txn_type as u64)
                    .set("start_us", e.start_us)
                    .set("end_us", e.end_us),
            );
        }
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for line in &lines {
        writeln!(out, "{line}")?;
    }
    out.flush()?;
    Ok(lines.len())
}
