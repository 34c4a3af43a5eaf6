//! Extracting a schedule allocates a constant number of times, whatever
//! the machine size: a schedule is one exactly sized buffer plus its
//! offsets, written by builders that allocate nothing per rank. Counted by
//! this binary's own allocator, on this thread only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use collopt_collectives::schedule::{planted_variants, shipped_variants, Variant};

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

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCS.with(Cell::get))
}

/// At most this many allocations an extraction.
const MAX_ALLOCS: usize = 8;

/// Every shipped and planted variant allocates equally often at p = 16 and
/// p = 64 (m = 97), and at most [`MAX_ALLOCS`] times. The non-power-of-two
/// pair p = 24 and p = 96 holds the branches a power of two skips to the
/// same count, where the variant applies there.
#[test]
fn extraction_allocates_a_constant_independent_of_p() {
    let m = 97;
    let variants: Vec<Variant> = shipped_variants()
        .into_iter()
        .chain(planted_variants().into_iter().map(|pv| pv.variant))
        .collect();
    for v in &variants {
        for ps in [[16usize, 64], [24, 96]] {
            if !ps.iter().all(|&p| (v.applicable)(p, m)) {
                continue;
            }
            let counts = ps.map(|p| {
                let (schedule, allocs) = allocations(|| (v.extract)(p, m));
                assert_eq!(schedule.rank_count(), p, "{} p={p}", v.name);
                allocs
            });
            assert_eq!(
                counts[0], counts[1],
                "{}: {} allocations at p = {}, {} at p = {}",
                v.name, counts[0], ps[0], counts[1], ps[1]
            );
            assert!(
                counts[0] <= MAX_ALLOCS,
                "{}: {} allocations, more than {MAX_ALLOCS}",
                v.name,
                counts[0]
            );
        }
    }
}
