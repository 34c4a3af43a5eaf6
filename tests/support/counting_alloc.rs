//! A counting global allocator for the allocation-gate tests, stated once.
//!
//! A test binary includes this file as a module —
//! `#[path = "../../../tests/support/counting_alloc.rs"] mod counting_alloc;`
//! from a crate's `tests/` directory — which installs the allocator for
//! that binary; [`allocations`] then counts what a closure allocates on
//! the calling thread only, so tests running beside it on other threads
//! do not disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// Forwards to `System`, counting the allocations of a thread that asked.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`; the
// bookkeeping touches only const-initialised thread-locals without
// destructors, so it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCS.with(|n| n.set(n.get() + 1));
        }
        // SAFETY: the caller's layout is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread (a reallocation counts as one).
pub fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCS.with(Cell::get))
}
