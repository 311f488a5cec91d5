//! A counting global allocator: allocations and live bytes as work metrics.
//!
//! Wall time and resident-set size on a shared box are noisy; the number of
//! allocations a stage makes and the most bytes it ever holds are not. A
//! binary or test opts in with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: hpd_obs::alloc::CountingAlloc = hpd_obs::alloc::CountingAlloc;
//! ```
//!
//! and wraps the region it measures in [`measure`]. Counters are
//! per-thread, so tests running on parallel threads do not see each other;
//! a region that hands memory to another thread to free is outside what
//! this measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to [`System`] and counts on the calling thread.
pub struct CountingAlloc;

/// One thread's allocation counters since it started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// `alloc` + `realloc` calls.
    pub allocations: u64,
    /// Bytes those calls asked for (a `realloc` its new size).
    pub allocated_bytes: u64,
    /// Bytes currently allocated and not yet freed by this thread.
    pub live_bytes: i64,
    /// Highest `live_bytes` since the thread started or last entered
    /// [`measure`].
    pub peak_live_bytes: i64,
    /// Largest single request since then.
    pub largest_bytes: usize,
    /// Largest size a `realloc` grew an allocation to since then: a vector
    /// grown by doubling past its length shows here, one reserved at its
    /// length never does.
    pub largest_growth: usize,
}

thread_local! {
    // Const-initialised and without a destructor: reading it from inside
    // the allocator neither allocates nor runs after thread teardown.
    static STATS: Cell<AllocStats> = const {
        Cell::new(AllocStats {
            allocations: 0,
            allocated_bytes: 0,
            live_bytes: 0,
            peak_live_bytes: 0,
            largest_bytes: 0,
            largest_growth: 0,
        })
    };
}

fn record(allocated: usize, freed: usize, counts: bool) {
    // `try_with`: a thread being torn down may free after its locals are
    // gone; those frees go uncounted.
    let _ = STATS.try_with(|s| {
        let mut v = s.get();
        v.allocations += counts as u64;
        v.allocated_bytes += if counts { allocated as u64 } else { 0 };
        v.live_bytes += allocated as i64 - freed as i64;
        v.peak_live_bytes = v.peak_live_bytes.max(v.live_bytes);
        v.largest_bytes = v.largest_bytes.max(allocated);
        if freed > 0 && allocated > freed {
            v.largest_growth = v.largest_growth.max(allocated);
        }
        s.set(v);
    });
}

/// This thread's counters.
pub fn stats() -> AllocStats {
    STATS.with(Cell::get)
}

/// What one region of code did on this thread (see [`measure`]).
#[derive(Debug, Clone, Copy)]
pub struct Region {
    /// Counters when the region began, peak and largest request reset.
    pub before: AllocStats,
    /// Counters when it ended; its peak and largest are the region's own.
    pub after: AllocStats,
}

impl Region {
    /// `alloc` + `realloc` calls made inside the region.
    pub fn allocations(&self) -> u64 {
        self.after.allocations - self.before.allocations
    }

    /// Bytes the region's `alloc` + `realloc` calls asked for.
    pub fn allocated_bytes(&self) -> u64 {
        self.after.allocated_bytes - self.before.allocated_bytes
    }

    /// The most the region held above what was live when it began.
    pub fn peak_over_start(&self) -> i64 {
        self.after.peak_live_bytes - self.before.live_bytes
    }

    /// Bytes the region left allocated (negative: it freed more).
    pub fn left_live(&self) -> i64 {
        self.after.live_bytes - self.before.live_bytes
    }

    /// The largest size the region grew an allocation to by `realloc`.
    pub fn largest_growth(&self) -> usize {
        self.after.largest_growth
    }
}

/// Run `f` as a measured region of this thread: the peak falls back to what
/// is live now and the largest request and growth to zero before it starts.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Region) {
    STATS.with(|s| {
        let mut v = s.get();
        v.peak_live_bytes = v.live_bytes;
        v.largest_bytes = 0;
        v.largest_growth = 0;
        s.set(v);
    });
    let before = stats();
    let out = f();
    (
        out,
        Region {
            before,
            after: stats(),
        },
    )
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping around the calls
// touches only a thread-local `Cell` and never allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), 0, true);
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), 0, true);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, layout.size(), false);
        // SAFETY: `ptr` came from this allocator, which is `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size, layout.size(), true);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
