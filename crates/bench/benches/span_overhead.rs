//! Span flight-recorder overhead (ISSUE 2 acceptance): what a worker runs
//! per request — the `enabled()` gate, then `offer()` of the completed span
//! — must cost < 100ns single-threaded in full mode, and in off mode only
//! the gate, which must be near-free: span recording is compiled in but
//! paid for per-run only when enabled. Plain `fn main()` harness (hermetic
//! build — no criterion).

use std::hint::black_box;

use bp_bench::timing::{bench, group};
use bp_obs::{ObsConfig, Span, SpanMode, SpanOutcome, SpanRecorder};

fn span(seq: u64) -> Span {
    Span {
        trace_id: bp_obs::trace_id(42, seq),
        seq,
        submitted_us: seq * 10,
        dequeued_us: seq * 10 + 3,
        end_us: seq * 10 + 250,
        lock_wait_us: 20,
        commit_us: 30,
        tenant: 0,
        phase: (seq / 1_000) as u16,
        txn_type: (seq % 4) as u16,
        retries: 0,
        outcome: SpanOutcome::Committed,
    }
}

/// Time the worker's per-request span path on a recorder in `mode`.
fn offer_ns(name: &str, mode: SpanMode, sample_ratio: f64) -> f64 {
    let rec = SpanRecorder::new(ObsConfig { mode, sample_ratio, ..ObsConfig::default() });
    let mut seq = 0u64;
    bench(name, || {
        seq += 1;
        if rec.enabled() {
            black_box(rec.offer(black_box(span(seq))));
        }
    })
}

fn main() {
    group("span_overhead");

    // Full mode: gate, 4 histogram records, ring write — what every request
    // pays when spans = full.
    let full_ns = offer_ns("offer_full", SpanMode::Full, 1.0);
    // Off mode: the per-request residue when spans are disabled — one
    // relaxed atomic load in `enabled`.
    let off_ns = offer_ns("enabled_off", SpanMode::Off, 1.0);
    // Sampled mode at 10%: the tail sampler looks at every span and hashes
    // its sequence number; ~10% of iterations also pay the record.
    offer_ns("offer_sampled_10pct", SpanMode::Sampled, 0.1);

    assert!(
        full_ns < 100.0,
        "full-mode span recording too slow: {full_ns:.1} ns/span (budget 100 ns)"
    );
    assert!(off_ns < 10.0, "off-mode gate should be a relaxed load: {off_ns:.1} ns (budget 10 ns)");
    println!("OK: full {full_ns:.1} ns/span (< 100 ns), off-mode gate {off_ns:.1} ns (< 10 ns)");
}
