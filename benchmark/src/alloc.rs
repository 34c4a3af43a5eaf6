//! Exact allocation counts: a counting wrapper over the system allocator.
//!
//! Wall-clock time on a shared host moves by tens of percent between
//! identical runs; the number of allocations a fixed op list performs does
//! not move at all. The wrapper is installed for the whole benchmark
//! binary but counts only while [`set_enabled`] is on — the untimed
//! *counted round* of each slice and the traced run — so the timed rounds
//! pay one relaxed load per allocation and nothing else. Load-generator
//! threads opt out with [`exclude_this_thread`], so the counts are the
//! program's own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` and without a destructor: reading it never allocates and is
    // valid for the whole life of the thread, both of which the allocator
    // itself needs.
    static EXCLUDED: Cell<bool> = const { Cell::new(false) };
}

/// The counting allocator; `main.rs` installs it as `#[global_allocator]`.
pub struct Counting;

#[inline]
fn record(bytes: usize) {
    // Relaxed everywhere: the counters publish no other data, and they are
    // read only after the counted threads were joined or were never spawned.
    if ENABLED.load(Ordering::Relaxed) && !EXCLUDED.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `record` only touches atomics and a
// const-initialised thread-local without a destructor, so it neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's layout is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's layout is passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; both are passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turn counting on or off for every thread that has not opted out.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Keep the calling thread's allocations out of the counts (request and
/// response buffers of a load generator) or let them back in.
pub fn exclude_this_thread(excluded: bool) {
    EXCLUDED.with(|e| e.set(excluded));
}

/// `(allocations, bytes requested)` counted so far; callers subtract two
/// readings. A `realloc` counts as one allocation of its new size.
pub fn counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// Allocations and bytes performed by `f` on counted threads.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = counts();
    set_enabled(true);
    let out = f();
    set_enabled(false);
    let (a1, b1) = counts();
    (out, a1 - a0, b1 - b0)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The only in-process test that turns counting on, so nothing races
    // with its "off" half.
    #[test]
    fn counts_only_while_enabled_and_only_included_threads() {
        let before = counts();
        std::hint::black_box(vec![0_u8; 4096]);
        assert_eq!(counts(), before, "the disabled path must add no counts");

        let (_, allocs, bytes) = counted(|| std::hint::black_box(vec![0_u8; 4096]));
        assert!(
            allocs >= 1 && bytes >= 4096,
            "{allocs} allocations, {bytes} bytes"
        );

        // Other test threads may allocate meanwhile, but not 100 000 times.
        exclude_this_thread(true);
        let (_, allocs, _) = counted(|| {
            for _ in 0..100_000 {
                std::hint::black_box(Box::new(0_u64));
            }
        });
        exclude_this_thread(false);
        assert!(allocs < 100_000, "an excluded thread was counted: {allocs}");
    }
}
