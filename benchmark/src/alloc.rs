//! Heap accounting: the benchmark's global allocator counts live bytes.
//!
//! `VmHWM` cannot be bounded tightly: glibc keeps freed batch tensors in
//! per-thread arenas, so resident memory creeps up in tensor-sized steps
//! for as long as a run lasts, by luck. Live heap bytes have no such
//! memory: they are what the program holds at that moment, pool and
//! server cache included, and their peak within a round repeats.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The system allocator plus three counters. `Relaxed` throughout: the
/// counters publish no other data.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch
// the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout, as the caller guarantees it valid.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout, as the caller guarantees it valid.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout, hence
        // from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, who
        // guarantees them valid for `System` as for this allocator.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Live heap bytes now.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Forgets the peak so far: the next [`peak_bytes`] is the peak since
/// this call.
pub fn reset_peak() {
    PEAK.store(live_bytes(), Ordering::Relaxed);
}

pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Allocations (and growing or shrinking reallocations) so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_follows_a_large_allocation_and_live_its_release() {
        const SIZE: usize = 64 << 20;
        reset_peak();
        let (live_before, count_before) = (live_bytes(), allocations());
        let big = vec![1u8; SIZE];
        assert!(live_bytes() >= live_before.saturating_sub(SIZE / 2) + SIZE / 2);
        assert!(peak_bytes() >= SIZE);
        assert!(allocations() > count_before);
        drop(big);
        // Other tests allocate concurrently, but nothing near 64 MiB.
        assert!(live_bytes() < live_before + SIZE / 2);
        reset_peak();
        assert!(peak_bytes() < live_before + SIZE / 2);
    }
}
