//! The direct-call pass: the workload's transactions run closed-loop on one
//! thread with no driver around them. A fixed number of transactions from a
//! fixed seed, so the counts (allocations, log bytes, rows) repeat exactly;
//! the times are the engine-only floor under the driver's cost per request.

use std::time::Instant;

use bp_core::Workload;
use bp_sql::Connection;
use bp_util::rng::Rng;

use crate::alloc;
use crate::host::{self, Cadence, HostRef};
use crate::probes::Effort;
use crate::summary::median;
use crate::workloads::{Loaded, Spec};

/// Timed batches; one more batch before them is counted, not timed.
const BATCHES: u64 = 4;

pub struct Direct {
    /// Median over the timed batches of wall time per transaction, at the
    /// host's nominal speed, µs.
    pub exec_us: f64,
    /// Thread CPU time per transaction over the timed batches, at the
    /// host's nominal speed, µs.
    pub exec_cpu_us: f64,
    pub allocs_per_tx: f64,
    pub alloc_bytes_per_tx: f64,
    pub wal_bytes_per_tx: f64,
    pub rows_read_per_tx: f64,
    pub rows_written_per_tx: f64,
}

/// Transactions per batch, sized so a pass takes about a second.
fn batch_size(spec: &Spec) -> u64 {
    match spec.bench {
        "tpcc" => 600,
        "voter" => 6_000,
        "smallbank" => 10_000,
        _ => 30_000,
    }
}

/// Run the workload's mix on `loaded`, which must be freshly loaded for the
/// counts to repeat. The first batch is counted with nothing else running
/// in the thread; the others are timed, with the host reference's bursts
/// interleaved (which allocate, so the two cannot share a batch).
pub fn mix(spec: &Spec, loaded: &Loaded, seed: u64, effort: Effort) -> Direct {
    let mixture = spec.mixture(loaded.workload.as_ref());
    let mut conn = Connection::open(&loaded.db);
    let mut pick = Rng::new(seed ^ 0xD1_4EC7);
    let mut rng = Rng::new(seed);
    let per_batch = batch_size(spec) / effort.direct_div;
    let mut batch = |workload: &dyn Workload| {
        for _ in 0..per_batch {
            let txn = mixture.sample(&mut pick);
            workload
                .execute(txn, &mut conn, &mut rng)
                .unwrap_or_else(|e| {
                    panic!(
                        "{} transaction {txn} failed with no contention: {e}",
                        spec.name
                    )
                });
        }
    };

    let server_0 = loaded.db.metrics().snapshot();
    let (allocs_0, bytes_0) = alloc::thread_counts();
    batch(loaded.workload.as_ref());
    let (allocs_1, bytes_1) = alloc::thread_counts();
    let server = loaded.db.metrics().snapshot().delta(&server_0);

    let (host_ref, workload) = HostRef::inside(loaded.workload.clone(), Cadence::SATURATED);
    let (mut batch_us, mut cpu_us) = (Vec::new(), 0.0);
    for _ in 0..BATCHES {
        let (t0, cpu_0) = (Instant::now(), host::thread_cpu_seconds());
        batch(workload.as_ref());
        let (t1, cpu_1) = (Instant::now(), host::thread_cpu_seconds());
        let slowdown = host_ref.slowdown(t0, t1).unwrap_or(1.0);
        batch_us.push((t1 - t0).as_secs_f64() * 1e6 / per_batch as f64 / slowdown);
        cpu_us += (cpu_1 - cpu_0) * 1e6 / slowdown;
    }
    let n = per_batch as f64;
    Direct {
        exec_us: median(&batch_us),
        exec_cpu_us: cpu_us / (BATCHES as f64 * n),
        allocs_per_tx: (allocs_1 - allocs_0) as f64 / n,
        alloc_bytes_per_tx: (bytes_1 - bytes_0) as f64 / n,
        wal_bytes_per_tx: server.wal_bytes as f64 / n,
        rows_read_per_tx: server.rows_read as f64 / n,
        rows_written_per_tx: server.rows_written as f64 / n,
    }
}

/// Wall time per transaction of each type of `loaded`'s benchmark, µs:
/// `(type name, median over batches)`.
pub fn per_type(loaded: &Loaded, seed: u64, per_batch: u64) -> Vec<(&'static str, f64)> {
    let mut conn = Connection::open(&loaded.db);
    let mut rng = Rng::new(seed);
    loaded
        .workload
        .transaction_types()
        .iter()
        .enumerate()
        .map(|(txn, ty)| {
            let batches: Vec<f64> = (0..BATCHES + 1)
                .map(|_| {
                    let t0 = Instant::now();
                    for _ in 0..per_batch {
                        loaded
                            .workload
                            .execute(txn, &mut conn, &mut rng)
                            .unwrap_or_else(|e| {
                                panic!("{} failed with no contention: {e}", ty.name)
                            });
                    }
                    t0.elapsed().as_secs_f64() * 1e6 / per_batch as f64
                })
                .collect();
            (ty.name, median(&batches))
        })
        .collect()
}
