//! A counting global allocator for the test binaries that include this file
//! (`#[path = "support/counting.rs"] mod counting;`). It counts per thread,
//! so the test harness's threads do not show in a test's figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Calls to `alloc` and `realloc` on this thread.
    pub static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not freed.
    pub static LIVE: Cell<i64> = const { Cell::new(0) };
    /// Bytes this thread has asked for: each `alloc`'s size and each
    /// `realloc`'s new size.
    pub static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(allocs: u64, bytes: i64, asked: usize) {
    // `try_with`: the allocator must not panic if the thread is ending.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + allocs));
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
    let _ = BYTES.try_with(|n| n.set(n.get() + asked as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain thread-local
// integers and touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64, layout.size());
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64), 0);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as i64 - layout.size() as i64, new_size);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;
