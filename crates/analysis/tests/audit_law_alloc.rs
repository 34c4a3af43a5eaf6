//! A known law fact is looked up without allocating: the operator auditor
//! is consulted by the linter's law gate on every window saturation tries,
//! so its hit path is on every cold request. Counted by this binary's own
//! allocator, on this thread only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use collopt_analysis::audit::{audit_law, AuditConfig, Domain};
use collopt_core::op::{lib, RequiredLaw};

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

#[test]
fn a_known_library_law_is_looked_up_without_allocating() {
    let cfg = AuditConfig::default();
    let laws = [
        RequiredLaw::Associative(lib::add()),
        RequiredLaw::Commutative(lib::max()),
        RequiredLaw::DistributesOver(lib::mul(), lib::add()),
    ];
    for law in &laws {
        assert!(audit_law(law, Domain::Int, &cfg).is_none(), "{law:?}");
    }
    for law in &laws {
        let (fact, allocs) = allocations(|| audit_law(law, Domain::Int, &cfg));
        assert!(fact.is_none(), "{law:?}");
        assert_eq!(allocs, 0, "looking up {}", law.describe());
    }
}
