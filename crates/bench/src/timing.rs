//! Minimal timing harness for the `benches/*.rs` targets.
//!
//! The workspace builds hermetically (no registry), so the benches are
//! plain `fn main()` binaries (`harness = false`) built on this module
//! instead of criterion. Each benchmark is warmed up, then run in batches
//! until the wall-clock budget is spent; we report ns/iteration from the
//! fastest batch (least scheduler noise), plus the mean across batches.

use std::time::{Duration, Instant};

/// Measurement and warm-up budget per benchmark. One budget: the bounds the
/// benches assert are ratios and single-digit-nanosecond gates that a short
/// run resolves; long timings are `perf/`'s job.
const BUDGET: Duration = Duration::from_millis(60);
const WARMUP: Duration = Duration::from_millis(15);

/// Time `f`, which performs ONE iteration of the workload per call, print
/// the result line and return ns/iteration of the fastest batch.
pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) -> f64 {
    // Warm-up: also sizes the batch so each batch is ~10ms of work.
    let warm_start = Instant::now();
    let mut warm_iters = 0u64;
    while warm_start.elapsed() < WARMUP || warm_iters == 0 {
        std::hint::black_box(f());
        warm_iters += 1;
    }
    let per_iter = WARMUP.as_nanos() as f64 / warm_iters.max(1) as f64;
    let batch = ((10e6 / per_iter.max(1.0)) as u64).clamp(1, 1_000_000);

    let mut total_iters = 0u64;
    let mut best_ns = f64::INFINITY;
    let mut total_ns = 0.0;
    let run_start = Instant::now();
    while run_start.elapsed() < BUDGET {
        let t = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        let elapsed = t.elapsed().as_nanos() as f64;
        best_ns = best_ns.min(elapsed / batch as f64);
        total_ns += elapsed;
        total_iters += batch;
    }
    let mean_ns = total_ns / total_iters as f64;
    println!("{name:<44} {best_ns:>12.1} ns/iter (best) {mean_ns:>12.1} ns/iter (mean)");
    best_ns
}

/// Print the standard group header the bench binaries use.
pub fn group(title: &str) {
    println!("\n== {title} ==");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        let best_ns = bench("noop_add", || std::hint::black_box(1u64) + 1);
        assert!(best_ns > 0.0 && best_ns < 1e6, "{best_ns} ns for one add");
    }
}
