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
//! Counters are process-global; measurements are only meaningful in a
//! single-threaded section (e.g. a one-`#[test]` integration binary).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Pass-through allocator that counts events. Zero-cost when not
/// installed; a couple of relaxed atomic increments per event when it is.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAllocator;

// SAFETY: defers entirely to `System`, which upholds the GlobalAlloc
// contract; the atomic counters have no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        FREED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation events (allocs + reallocs) since process start.
pub fn allocation_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Bytes requested across all allocation events since process start.
pub fn allocated_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed)
}

/// Requested bytes currently live on the heap: [`allocated_bytes`] minus
/// what every `dealloc`, and the old size of every `realloc`, gave back
/// (allocator overhead is not included).
pub fn live_bytes() -> u64 {
    allocated_bytes().saturating_sub(FREED_BYTES.load(Ordering::Relaxed))
}

/// Allocation events performed by `f` (meaningful only single-threaded,
/// with the [`CountingAllocator`] installed).
pub fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocation_count();
    let r = f();
    (allocation_count() - before, r)
}
