//! A counting global allocator: allocation count, bytes requested, live
//! bytes and their high-water mark. It backs `peak_live_mb` and `alloc.*`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to [`System`] and keeps four statistics. Every counter is a
/// statistic that publishes no other data, hence `Relaxed` throughout.
pub struct Counting {
    allocations: AtomicU64,
    bytes: AtomicU64,
    live: AtomicU64,
    peak: AtomicU64,
}

impl Counting {
    /// A zeroed allocator, for the `#[global_allocator]` static.
    pub const fn new() -> Self {
        Counting {
            allocations: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    fn allocated(&self, size: usize) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size as u64, Ordering::Relaxed);
        self.grew(size as u64);
    }

    fn grew(&self, by: u64) {
        let live = self.live.fetch_add(by, Ordering::Relaxed) + by;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    /// The current statistics.
    pub fn snapshot(&self) -> AllocStats {
        AllocStats {
            allocations: self.allocations.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            live: self.live.load(Ordering::Relaxed),
            peak: self.peak.load(Ordering::Relaxed),
        }
    }

    /// Restarts the high-water mark from the current live bytes.
    pub fn reset_peak(&self) {
        self.peak
            .store(self.live.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

impl Default for Counting {
    fn default() -> Self {
        Counting::new()
    }
}

// SAFETY: every method forwards the caller's pointer and layout unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the counters never
// touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocated(layout.size());
        // SAFETY: forwarded from the caller, who guarantees a valid layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.allocated(layout.size());
        // SAFETY: forwarded from the caller, who guarantees a valid layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.live.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller passes a block this allocator (i.e. `System`)
        // returned, with the layout it was allocated with.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller passes a block `System` returned with `layout`
        // and a non-zero `new_size` valid for that alignment.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            self.allocations.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_add(new_size as u64, Ordering::Relaxed);
            let old = layout.size() as u64;
            let new = new_size as u64;
            if new >= old {
                self.grew(new - old);
            } else {
                self.live.fetch_sub(old - new, Ordering::Relaxed);
            }
        }
        moved
    }
}

/// A reading of the allocator's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocStats {
    /// Allocation and reallocation calls so far.
    pub allocations: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes currently allocated.
    pub live: u64,
    /// High-water mark of `live` since the last [`Counting::reset_peak`].
    pub peak: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_live_bytes_and_their_peak() {
        let a = Counting::new();
        a.allocated(100);
        a.allocated(300);
        a.live.fetch_sub(300, Ordering::Relaxed);
        a.reset_peak();
        a.allocated(50);
        let s = a.snapshot();
        assert_eq!((s.allocations, s.bytes, s.live, s.peak), (3, 450, 150, 150));
    }
}
