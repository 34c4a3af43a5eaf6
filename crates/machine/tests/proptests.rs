//! Property-based tests for the machine substrate: topology invariants,
//! clock determinism, and message-delivery guarantees under random
//! communication patterns. Randomness comes from the crate's own seeded
//! [`Rng`], so every run checks the identical sample set.

use collopt_machine::topology::{
    binomial_bcast_rank_plan, binomial_bcast_schedule, butterfly_partner, butterfly_rounds,
    ceil_log2, BalancedNode, BalancedTree,
};
use collopt_machine::{ClockParams, Machine, Rng};

#[test]
fn ceil_log2_is_the_least_sufficient_exponent() {
    let mut rng = Rng::new(0xCE11);
    let samples: Vec<usize> = (1..=66)
        .chain((0..200).map(|_| rng.range_usize(1, 1_000_000)))
        .collect();
    for n in samples {
        let k = ceil_log2(n);
        assert!(1usize << k >= n);
        if k > 0 {
            assert!(1usize << (k - 1) < n, "n={n} k={k}");
        }
    }
}

#[test]
fn butterfly_rounds_cover_every_pair_exactly_once_in_some_round() {
    // Every rank meets every other rank's block through the rounds:
    // after all rounds, the transitive exchange closure is complete
    // for power-of-two sizes.
    for size in [2usize, 4, 8, 16, 32, 64] {
        let mut reach: Vec<u64> = (0..size).map(|r| 1u64 << r).collect();
        for round in 0..butterfly_rounds(size) {
            let prev = reach.clone();
            for (r, item) in reach.iter_mut().enumerate() {
                if let Some(p) = butterfly_partner(r, round, size) {
                    *item |= prev[p];
                }
            }
        }
        let all = if size == 64 {
            u64::MAX
        } else {
            (1u64 << size) - 1
        };
        for (r, m) in reach.iter().enumerate() {
            assert_eq!(*m, all, "size {} rank {} reach incomplete", size, r);
        }
    }
}

#[test]
fn binomial_schedule_has_logarithmic_depth() {
    let mut rng = Rng::new(0xB10);
    for _ in 0..120 {
        let size = rng.range_usize(1, 200);
        let root = rng.range_usize(0, 200) % size;
        let steps = binomial_bcast_schedule(size, root);
        for s in &steps {
            assert!(s.round < ceil_log2(size));
        }
        assert_eq!(steps.len(), size - 1);
    }
}

#[test]
fn rank_plans_tile_the_schedule() {
    let mut rng = Rng::new(0x71A);
    for _ in 0..80 {
        let size = rng.range_usize(1, 80);
        let root = rng.range_usize(0, 80) % size;
        let steps = binomial_bcast_schedule(size, root);
        let mut from_plans = 0usize;
        for rank in 0..size {
            let plan = binomial_bcast_rank_plan(size, root, rank);
            from_plans += plan.sends.len();
            if rank != root {
                assert!(plan.recv.is_some());
            }
        }
        assert_eq!(from_plans, steps.len());
    }
}

#[test]
fn balanced_tree_unique_shape_properties() {
    let mut rng = Rng::new(0xBA1);
    let samples: Vec<usize> = (1..=40)
        .chain((0..60).map(|_| rng.range_usize(1, 300)))
        .collect();
    for n in samples {
        let t = BalancedTree::new(n);
        // Exactly n-1 binary nodes; unary nodes only when n is not a
        // power of two.
        fn count(node: &BalancedNode) -> (usize, usize) {
            match node {
                BalancedNode::Leaf(_) => (0, 0),
                BalancedNode::Unary(c) => {
                    let (b, u) = count(c);
                    (b, u + 1)
                }
                BalancedNode::Binary(l, r) => {
                    let (bl, ul) = count(l);
                    let (br, ur) = count(r);
                    (bl + br + 1, ul + ur)
                }
            }
        }
        let (binary, unary) = count(t.root());
        assert_eq!(binary, n - 1);
        if n.is_power_of_two() {
            assert_eq!(unary, 0);
        }
        // The schedule has exactly depth levels and n-1 combines.
        let sched = t.schedule();
        assert_eq!(sched.len() as u32, t.depth());
    }
}

#[test]
fn simulated_makespan_is_schedule_independent() {
    // A pseudo-random but deterministic exchange pattern: the same
    // program must give identical makespans on repeated runs, no
    // matter how the OS schedules the threads.
    let mut rng = Rng::new(0x5EED);
    for _ in 0..12 {
        let p = rng.range_usize(2, 10);
        let rounds = rng.range_usize(1, 6);
        let seed = rng.below(1000);
        let pattern: Vec<Vec<usize>> = (0..rounds)
            .map(|r| {
                (0..p)
                    .map(move |i| {
                        // pair i with i^1 rotated by a seed-derived shift
                        let shift = ((seed as usize) + r) % p;
                        let j = (i + shift) % p;
                        (j ^ 1) % p
                    })
                    .collect()
            })
            .collect();
        let machine = Machine::new(p, ClockParams::new(13.0, 0.5));
        let pattern = std::sync::Arc::new(pattern);
        let run_once = || {
            machine.run_des(|ctx| {
                let pattern = std::sync::Arc::clone(&pattern);
                Box::pin(async move {
                    let mut acc = ctx.rank() as u64;
                    for round in pattern.iter() {
                        let partner = round[ctx.rank()];
                        if round[partner] == ctx.rank() && partner != ctx.rank() {
                            // Symmetric pair: exchange.
                            acc += ctx.exchange_async(partner, acc, 3).await;
                        } else {
                            ctx.charge(5.0, "solo");
                        }
                    }
                    acc
                })
            })
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.results, b.results);
        assert_eq!(a.finish_times, b.finish_times);
    }
}

#[test]
fn fifo_order_holds_under_bursts() {
    for count in [1usize, 2, 7, 23, 49] {
        let machine = Machine::new(2, ClockParams::free());
        let run = machine.run_des(move |ctx| {
            Box::pin(async move {
                if ctx.rank() == 0 {
                    for i in 0..count {
                        ctx.send(1, i as u64, 1);
                    }
                    0
                } else {
                    let mut last = None;
                    for _ in 0..count {
                        let v: u64 = ctx.recv_async(0).await;
                        if let Some(prev) = last {
                            assert!(v > prev, "FIFO violated: {v} after {prev}");
                        }
                        last = Some(v);
                    }
                    last.unwrap()
                }
            })
        });
        assert_eq!(run.results[1], count as u64 - 1);
    }
}

#[test]
fn clock_monotonicity_per_rank() {
    for p in 2usize..8 {
        let machine = Machine::new(p, ClockParams::new(7.0, 1.0)).with_tracing();
        let run = machine.run_des(|ctx| {
            Box::pin(async move {
                let partner = ctx.rank() ^ 1;
                if partner < ctx.size() {
                    ctx.exchange_async(partner, ctx.rank(), 2).await;
                }
                ctx.charge(3.0, "tail");
                ctx.barrier_async().await;
            })
        });
        // Events of each rank are non-decreasing in time.
        for rank in 0..p {
            let times: Vec<f64> = run
                .trace
                .events()
                .iter()
                .filter(|e| e.rank == rank)
                .map(|e| e.time)
                .collect();
            for w in times.windows(2) {
                assert!(w[1] >= w[0], "rank {} time went backward", rank);
            }
        }
    }
}
