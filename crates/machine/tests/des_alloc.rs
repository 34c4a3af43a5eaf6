//! A run of the event engine allocates once per rank and a constant on
//! top: the rank's boxed body. Runnable ranks wait in one run queue and
//! parked packets in one slab, both sized per run, and a payload box is
//! refilled by the next send of its type — so no rank pays for an inbox,
//! and no message for a box, of its own. Counted by this binary's own
//! allocator, on this thread only.

use collopt_machine::{ClockParams, Machine};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;

/// At most this many allocations a run, beside the `p` boxed bodies.
const MAX_FIXED: usize = 32;

/// A token ring: rank 0 sends a `u64` to rank 1 and waits for it to come
/// back from rank `p - 1`; every other rank receives it from its left
/// neighbour, adds one and passes it on. Each rank receives one packet,
/// and one payload box is in flight at a time.
fn ring(p: usize) -> (u64, usize) {
    let machine = Machine::new(p, ClockParams::new(10.0, 1.0));
    let (run, allocs) = allocations(|| {
        machine.run_des(|ctx| {
            Box::pin(async move {
                let (rank, p) = (ctx.rank(), ctx.size());
                if rank == 0 {
                    ctx.send(1, 0u64, 1);
                    ctx.recv_async::<u64>(p - 1).await
                } else {
                    let token = ctx.recv_async::<u64>(rank - 1).await + 1;
                    ctx.send((rank + 1) % p, token, 1);
                    token
                }
            })
        })
    });
    (run.results[0], allocs)
}

#[test]
fn a_token_ring_allocates_once_per_rank_and_a_constant() {
    let fixed = [100usize, 1_000].map(|p| {
        let (token, allocs) = ring(p);
        assert_eq!(token, p as u64 - 1, "p={p}");
        assert!(
            allocs <= p + MAX_FIXED,
            "p={p}: {allocs} allocations, more than p + {MAX_FIXED}"
        );
        allocs - p
    });
    assert_eq!(
        fixed[0], fixed[1],
        "the allocations beside the bodies grow with p"
    );
}
