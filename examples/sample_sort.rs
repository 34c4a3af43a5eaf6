//! Distributed sample sort — a classic all-collective algorithm
//! (Deng & Gu's "good programming style on multiprocessors", the paper's
//! reference [5], is exactly about expressing such algorithms with
//! collective operations only).
//!
//! Steps, each a collective from this library — no raw send/recv:
//!
//! 1. local sort of each rank's block;
//! 2. **gather** a regular sample of `p−1` candidates per rank to rank 0;
//! 3. rank 0 picks `p−1` splitters, **bcast**s them;
//! 4. partition the local block by splitter, **alltoall** the pieces;
//! 5. local merge; **allreduce(+)** of the counts verifies no element
//!    was lost.
//!
//! Run with `cargo run --example sample_sort`.

use collopt::collectives::{alltoall_async, bcast_binomial_async, gather_binomial_async, Combine};
use collopt::prelude::{drive, ClockParams, Machine};

fn main() {
    let p = 8usize;
    let n_per_rank = 64usize;

    let machine = Machine::new(p, ClockParams::parsytec_like());
    let run = machine.run(move |ctx| {
        let rank = ctx.rank();
        let p = ctx.size();
        // Deterministic pseudo-random block.
        let mut block: Vec<i64> = (0..n_per_rank)
            .map(|j| (((rank * 7919 + j * 104729) % 10_007) as i64) - 5000)
            .collect();
        // 1. local sort
        block.sort_unstable();

        // 2. regular sample: p-1 evenly spaced candidates per rank.
        let sample: Vec<i64> = (1..p).map(|k| block[k * n_per_rank / p]).collect();
        let gathered = drive(gather_binomial_async(ctx, sample, (p - 1) as u64));

        // 3. rank 0 sorts all candidates and picks global splitters.
        let splitters: Vec<i64> = {
            let chosen = gathered.map(|samples| {
                let mut all: Vec<i64> = samples.into_iter().flatten().collect();
                all.sort_unstable();
                // Every p-1-th candidate: p-1 splitters.
                (1..p).map(|k| all[k * (p - 1) - 1]).collect::<Vec<i64>>()
            });
            drive(bcast_binomial_async(ctx, 0, chosen, (p - 1) as u64))
        };

        // 4. partition the local block into p pieces by splitter …
        let mut pieces: Vec<Vec<i64>> = vec![Vec::new(); p];
        for &x in &block {
            let dest = splitters.partition_point(|&s| s < x);
            pieces[dest].push(x);
        }
        // … and exchange: piece d goes to rank d.
        let received = drive(alltoall_async(ctx, pieces, n_per_rank as u64));

        // 5. local merge (concatenate + sort; pieces are sorted already).
        let mut mine: Vec<i64> = received.into_iter().flatten().collect();
        mine.sort_unstable();

        // Global count check: nothing lost, nothing duplicated.
        let add = |a: &i64, b: &i64| a + b;
        let total = drive(collopt::collectives::allreduce_async(
            ctx,
            mine.len() as i64,
            1,
            &Combine::new(&add),
        ));
        assert_eq!(total as usize, p * n_per_rank);
        mine
    });

    // Verify: concatenation of per-rank outputs equals the sorted input.
    let mut expected: Vec<i64> = (0..p)
        .flat_map(|r| {
            (0..n_per_rank).map(move |j| (((r * 7919 + j * 104729) % 10_007) as i64) - 5000)
        })
        .collect();
    expected.sort_unstable();
    let got: Vec<i64> = run.results.iter().flatten().copied().collect();
    assert_eq!(
        got, expected,
        "sample sort must produce the globally sorted sequence"
    );

    // Each rank's block is sorted and blocks are ordered across ranks.
    for w in run.results.windows(2) {
        if let (Some(last), Some(first)) = (w[0].last(), w[1].first()) {
            assert!(last <= first, "rank boundaries must be ordered");
        }
    }
    let sizes: Vec<usize> = run.results.iter().map(Vec::len).collect();
    println!("sample sort on {p} ranks x {n_per_rank} elements: OK");
    println!("per-rank output sizes: {sizes:?} (imbalance is inherent to sampling)");
    println!("simulated time: {:.0} units", run.makespan);
}
