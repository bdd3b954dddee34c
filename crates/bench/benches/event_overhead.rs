//! Event journal gate overhead (ISSUE 7 acceptance): with the journal
//! disabled, an `emit_with` on a hot path must be a single relaxed atomic
//! load — under 5 ns — so every layer can carry journal emission sites
//! without taxing runs that turn the flight recorder off. The message/field
//! closure must not run at all on the disabled path. Plain `fn main()`
//! harness (hermetic build — no criterion).

use std::hint::black_box;

use bp_bench::timing::{bench, group};
use bp_obs::{EventJournal, Severity};

fn main() {
    group("event_overhead");

    // Disabled: the per-site residue when the flight recorder is off — one
    // relaxed load and a branch; the closure is never called.
    let off = EventJournal::disabled();
    let disabled_ns = bench("emit_disabled", || {
        off.emit_with(Severity::Info, "core", "rate_change", || {
            (
                format!("rate {} -> {}", black_box(100), black_box(200)),
                vec![("before", "100".to_string()), ("after", "200".to_string())],
            )
        });
    });

    // Enabled: the full cost of formatting the message, allocating the
    // fields, and taking one uncontended shard lock.
    let on = EventJournal::new();
    let mut n = 0u64;
    let enabled_ns = bench("emit_enabled", || {
        n += 1;
        on.emit_with(Severity::Info, "core", "rate_change", || {
            (
                format!("rate {} -> {}", n, n + 1),
                vec![("before", n.to_string()), ("after", (n + 1).to_string())],
            )
        });
    });

    // Read path: draining the most recent events, as GET /events does.
    let drain_ns = bench("recent_100", || black_box(on.recent(100, Severity::Debug).len()));

    assert!(disabled_ns < 5.0, "disabled event gate too slow: {disabled_ns:.2} ns (budget 5 ns)");
    println!(
        "OK: disabled emit {disabled_ns:.2} ns (< 5 ns); enabled emit {enabled_ns:.0} ns; \
         recent(100) {drain_ns:.0} ns"
    );
}
