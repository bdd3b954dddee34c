//! An uncontended lock cycle allocates nothing: the first holder sits inline
//! in its shard's map, and an entry that empties goes in the release that
//! emptied it, leaving its slot for the next one.
//!
//! The counting allocator is this binary's own, and counts per thread, so
//! the test harness's threads do not show in the figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use benchpress::chaos::ChaosController;
use benchpress::storage::{LockManager, LockMode, LockTarget, ServerMetrics};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// integer and touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the allocator must not panic if the thread is ending.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

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
