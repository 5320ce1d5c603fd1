//! A counting global allocator for allocation-discipline tests and the
//! benchmark's `simcore.allocs_per_lookup` metric.
//!
//! The SLS datapath promises *zero heap allocations per gathered vector*
//! in steady state. That claim is only trustworthy if it is measured, so
//! this module provides a [`CountingAllocator`] that wraps the system
//! allocator and counts allocation events (allocs and reallocs; frees
//! are not events) and the bytes requested and freed, so
//! [`live_bytes`] reads the heap a region left resident. Install it in a
//! test binary or behind a feature flag:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: recssd_sim::alloc_count::CountingAllocator =
//!     recssd_sim::alloc_count::CountingAllocator;
//! ```
//!
//! then bracket the region of interest with [`allocation_count`] reads.
//! Counters are per thread: a read returns the calling thread's events
//! and bytes, so the threads a test harness runs beside a test (which
//! allocate while it runs) do not pollute its measurement. The simulator
//! runs on one thread, so a read covers all of its work.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// This thread's allocation events, bytes requested and bytes freed.
    static COUNTS: Cell<(u64, u64, u64)> = const { Cell::new((0, 0, 0)) };
}

/// Adds to the calling thread's counters.
fn count(events: u64, requested: usize, freed: usize) {
    COUNTS.with(|c| {
        let (n, a, f) = c.get();
        c.set((n + events, a + requested as u64, f + freed as u64));
    });
}

/// Pass-through allocator that counts events. Zero-cost when not
/// installed; one thread-local update per event when it is.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAllocator;

// SAFETY: defers entirely to `System`, which upholds the GlobalAlloc
// contract; the counters (a `Cell` with a const initializer and no
// destructor, so reading it neither allocates nor fails) have no effect
// on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size(), 0);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, 0, layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size, layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation events (allocs + reallocs) of the calling thread since it
/// started.
pub fn allocation_count() -> u64 {
    COUNTS.with(|c| c.get().0)
}

/// Bytes the calling thread requested across its allocation events.
pub fn allocated_bytes() -> u64 {
    COUNTS.with(|c| c.get().1)
}

/// Requested bytes the calling thread holds on the heap:
/// [`allocated_bytes`] minus what each of its `dealloc`s, and the old
/// size of each of its `realloc`s, gave back (allocator overhead is not
/// included).
pub fn live_bytes() -> u64 {
    COUNTS.with(|c| c.get().1.saturating_sub(c.get().2))
}

/// Allocation events performed by `f` on the calling thread (with the
/// [`CountingAllocator`] installed).
pub fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocation_count();
    let r = f();
    (allocation_count() - before, r)
}
