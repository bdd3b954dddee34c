//! An uncontended lock cycle allocates nothing: the first holder sits inline
//! in its shard's map, and an entry that empties goes in the release that
//! emptied it, leaving its slot for the next one.
//!
//! The counting allocator counts per thread, so the test harness's threads do
//! not show in the figure.

#[path = "support/counting.rs"]
mod counting;

use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use benchpress::chaos::ChaosController;
use benchpress::storage::{LockManager, LockMode, LockTarget, ServerMetrics};
use counting::ALLOCS;

#[test]
fn uncontended_lock_cycles_do_not_allocate() {
    let locks = LockManager::new(
        Duration::from_secs(1),
        Arc::new(ServerMetrics::new()),
        Arc::new(ChaosController::new()),
    );
    // What a point read takes: its table's intention lock and one row.
    let cycle = |txn: u64| {
        let held = [LockTarget::Table(1), LockTarget::Row(1, txn % 4096)];
        assert!(locks.acquire(txn, held[0], LockMode::IntentionShared).unwrap());
        assert!(locks.acquire(txn, held[1], LockMode::Shared).unwrap());
        locks.release_all(txn, &held);
    };
    // Warm up: every shard map the rotation reaches gets its first slots.
    (1..=4096).for_each(cycle);
    let before = ALLOCS.with(Cell::get);
    (4097..=4096 + 10_000).for_each(cycle);
    assert_eq!(ALLOCS.with(Cell::get) - before, 0, "allocations in 10k uncontended lock cycles");
    assert_eq!(locks.entry_count(), 0);
}
