//! Regression: the sharded `StatsCollector` must be observably equivalent
//! to the single-mutex layout. N threads, each assigned a thread slot the
//! way the executor assigns its workers one, record M samples each into a
//! four-shard collector; the same sample set recorded into a single-shard
//! collector must produce identical committed/aborted/failed counts,
//! identical histogram counts, and p50/p99 within one histogram bucket (the
//! log-linear histogram is 5-bit, ≈3% relative error, and the merge is
//! exact bucket-wise addition — so in practice they are equal).

#[path = "support/counting.rs"]
mod counting;

use std::cell::Cell;
use std::sync::Arc;

use benchpress::core::{RequestOutcome, Sample, StatsCollector};
use benchpress::util::clock::{sim_clock, MICROS_PER_SEC};
use benchpress::util::rng::Rng;
use benchpress::util::sync::set_thread_slot;

const THREADS: u64 = 8;
const SHARDS: usize = 4;
const SAMPLES_PER_THREAD: u64 = 2_000;

/// Deterministic sample stream for one thread.
fn thread_samples(t: u64) -> Vec<Sample> {
    let mut rng = Rng::new(0x5A75 + t);
    (0..SAMPLES_PER_THREAD)
        .map(|_| {
            let arrival = rng.bounded(3 * MICROS_PER_SEC);
            let start = arrival + rng.bounded(2_000);
            let latency = 100 + rng.bounded(50_000);
            let outcome = match rng.bounded(10) {
                0 => RequestOutcome::Failed,
                1 | 2 => RequestOutcome::UserAborted,
                _ => RequestOutcome::Committed,
            };
            Sample {
                txn_type: (rng.bounded(3)) as usize,
                arrival,
                start,
                end: start + latency,
                outcome,
                retries: rng.bounded(4) as u32,
            }
        })
        .collect()
}

/// Relative gap allowed between percentiles of the two runs: one 5-bit
/// log-linear bucket (2^-5 ≈ 3.2% relative width).
fn within_one_bucket(a: u64, b: u64) -> bool {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    // Bucket width at value `hi` is at most hi / 32 + 1.
    hi - lo <= hi / 32 + 1
}

#[test]
fn sharded_stats_match_single_shard_totals() {
    let types = ["alpha", "beta", "gamma"];

    // Sharded run: THREADS real threads, each recording its own stream.
    let (_, clock) = sim_clock();
    let sharded = Arc::new(StatsCollector::with_shards(clock, &types, SHARDS));
    assert_eq!(sharded.shard_count(), SHARDS);
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let c = sharded.clone();
            std::thread::spawn(move || {
                set_thread_slot(t as usize);
                for s in thread_samples(t) {
                    c.record(s);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Reference run: the same sample multiset into a single-shard
    // collector (the old `Mutex<StatsInner>` layout).
    let (_, clock) = sim_clock();
    let single = StatsCollector::with_shards(clock, &types, 1);
    for t in 0..THREADS {
        for s in thread_samples(t) {
            single.record(s);
        }
    }

    let total = THREADS * SAMPLES_PER_THREAD;
    assert_eq!(sharded.total_completed(), total);
    assert_eq!(single.total_completed(), total);

    // Exact equality on all counters.
    let st_sharded = sharded.status(1);
    let st_single = single.status(1);
    assert_eq!(st_sharded.committed, st_single.committed);
    assert_eq!(st_sharded.user_aborted, st_single.user_aborted);
    assert_eq!(st_sharded.failed, st_single.failed);
    assert_eq!(st_sharded.retries, st_single.retries);
    assert_eq!(
        st_sharded.committed + st_sharded.user_aborted + st_sharded.failed,
        total
    );

    // Per-type summaries: identical counts and outcome tallies, equal
    // means (merge is exact bucket-wise addition), p95 within one bucket.
    let sum_sharded = sharded.per_type_summary();
    let sum_single = single.per_type_summary();
    assert_eq!(sum_sharded.len(), sum_single.len());
    for (a, b) in sum_sharded.iter().zip(&sum_single) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.count, b.count, "type {}", a.name);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.user_aborted, b.user_aborted);
        assert_eq!(a.failed, b.failed);
        assert!((a.mean_us - b.mean_us).abs() < 1e-9, "{} vs {}", a.mean_us, b.mean_us);
        assert!(within_one_bucket(a.p95_us, b.p95_us), "{} vs {}", a.p95_us, b.p95_us);
    }

    // Queue delay percentiles within one bucket of each other.
    let (p50_a, p95_a, max_a) = sharded.queue_delay();
    let (p50_b, p95_b, max_b) = single.queue_delay();
    assert!(within_one_bucket(p50_a, p50_b), "p50 {p50_a} vs {p50_b}");
    assert!(within_one_bucket(p95_a, p95_b), "p95 {p95_a} vs {p95_b}");
    assert_eq!(max_a, max_b, "max is tracked exactly");
    // So are response times (arrival → end), recorded beside queue delay.
    let (p50_a, p95_a, max_a) = sharded.response_time();
    let (p50_b, p95_b, max_b) = single.response_time();
    assert!(within_one_bucket(p50_a, p50_b), "response p50 {p50_a} vs {p50_b}");
    assert!(within_one_bucket(p95_a, p95_b), "response p95 {p95_a} vs {p95_b}");
    assert_eq!(max_a, max_b, "response max is tracked exactly");

    // Throughput series identical second by second (windowed counts are
    // integers; merge adds them exactly).
    assert_eq!(sharded.throughput_series(), single.throughput_series());
}

/// The sliding-window histogram (the SLO controller's sensor) must merge
/// across shards exactly like the cumulative path: each shard keeps its
/// own per-second ring, and `window_histogram` folds the same ring slice
/// from every shard with exact bucket-wise addition.
#[test]
fn sharded_window_histogram_matches_single_shard() {
    let types = ["alpha", "beta", "gamma"];

    // Sharded run: THREADS real threads, each recording its own stream.
    let (sim, clock) = sim_clock();
    let sharded = Arc::new(StatsCollector::with_shards(clock, &types, SHARDS));
    assert_eq!(sharded.shard_count(), SHARDS);
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let c = sharded.clone();
            std::thread::spawn(move || {
                set_thread_slot(t as usize);
                for s in thread_samples(t) {
                    c.record(s);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Reference run: the same sample multiset, one shard.
    let (sim_single, clock) = sim_clock();
    let single = StatsCollector::with_shards(clock, &types, 1);
    for t in 0..THREADS {
        for s in thread_samples(t) {
            single.record(s);
        }
    }

    // Completion times span ~[0, 3.1s); read the windows from mid-second 4
    // so a short window sees only the stream's tail and a huge one sees
    // everything.
    sim.advance_to(4_500_000);
    sim_single.advance_to(4_500_000);

    let total = THREADS * SAMPLES_PER_THREAD;
    for window_s in [1usize, 2, 4, usize::MAX] {
        let a = sharded.window_histogram(window_s);
        let b = single.window_histogram(window_s);
        assert_eq!(a.count(), b.count(), "window {window_s}");
        assert_eq!(a.p50(), b.p50(), "window {window_s}");
        assert_eq!(a.p95(), b.p95(), "window {window_s}");
        assert_eq!(a.p99(), b.p99(), "window {window_s}");
        assert!((a.mean() - b.mean()).abs() < 1e-9, "window {window_s}");
    }
    // The 2s window [3s, 4.5s) catches only the tail of the stream...
    let tail = sharded.window_histogram(2);
    assert!(tail.count() > 0 && tail.count() < total, "tail: {}", tail.count());
    // ...and a huge window is the cumulative histogram, on both layouts.
    assert_eq!(sharded.window_histogram(usize::MAX).count(), total);
    assert_eq!(sharded.window_histogram(usize::MAX).count(), sharded.total_completed());

    // The controller-facing snapshot agrees too (its throughput is the
    // count of the same ring slice over the window's seconds).
    let snap_a = sharded.window_snapshot(4);
    let snap_b = single.window_snapshot(4);
    assert_eq!(snap_a.count, snap_b.count);
    assert_eq!(snap_a.p99_us, snap_b.p99_us);
    assert!((snap_a.throughput - snap_b.throughput).abs() < 1e-9);
}

/// `record_requested` merges across shards the same way.
#[test]
fn sharded_requested_series_matches_single_shard() {
    let (_, clock) = sim_clock();
    let sharded = Arc::new(StatsCollector::with_shards(clock, &["t"], SHARDS));
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let c = sharded.clone();
            std::thread::spawn(move || {
                set_thread_slot(t as usize);
                for s in 0..3u64 {
                    c.record_requested(s * MICROS_PER_SEC, (10 * (t + 1)) as usize);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let (_, clock) = sim_clock();
    let single = StatsCollector::with_shards(clock, &["t"], 1);
    for t in 0..4u64 {
        for s in 0..3u64 {
            single.record_requested(s * MICROS_PER_SEC, (10 * (t + 1)) as usize);
        }
    }
    assert_eq!(sharded.requested_series(), single.requested_series());
    // 10+20+30+40 = 100 per second.
    assert_eq!(sharded.requested_series(), vec![100.0, 100.0, 100.0]);
}

/// A snapshot reads the window's seconds from each shard's ring and nothing
/// of the run before them: one `window_snapshot(3)` on three shards
/// allocates as many bytes at virtual second 10,000 as at second 100.
#[test]
fn a_snapshot_costs_the_same_late_in_a_run() {
    let (sim, clock) = sim_clock();
    let stats = StatsCollector::with_shards(clock, &["t"], 3);
    let record_until = |end: u64, from: u64| {
        for second in from..end {
            for slot in 0..3 {
                set_thread_slot(slot);
                let start = second * MICROS_PER_SEC + 1_000 * slot as u64;
                stats.record(Sample {
                    txn_type: 0,
                    arrival: start,
                    start,
                    end: start + 250,
                    outcome: RequestOutcome::Committed,
                    retries: 0,
                });
            }
        }
        set_thread_slot(0);
        sim.advance_to(end * MICROS_PER_SEC + 500_000);
    };
    let snapshot_bytes = || {
        let before = counting::BYTES.with(Cell::get);
        let window = stats.window_snapshot(3);
        (counting::BYTES.with(Cell::get) - before, window)
    };
    record_until(100, 0);
    let (early, window) = snapshot_bytes();
    assert_eq!((window.count, window.throughput), (9, 3.0));
    record_until(10_000, 100);
    let (late, window) = snapshot_bytes();
    assert_eq!((window.count, window.throughput), (9, 3.0));
    assert!(early > 0, "the snapshot's histograms allocate");
    assert_eq!(late, early, "bytes allocated by one snapshot at second 10,000 and at second 100");
}
