//! Extracting a schedule allocates a constant number of times, whatever
//! the machine size: a schedule is one exactly sized buffer plus its
//! offsets, written by builders that allocate nothing per rank. Counted by
//! this binary's own allocator, on this thread only.

use collopt_collectives::schedule::{planted_variants, shipped_variants, Variant};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;

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
