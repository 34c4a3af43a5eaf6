//! Property-style agreement tests for the reduction family.
//!
//! Random processor counts (powers of two and not), random block
//! lengths (including blocks shorter than `p`, whose tail segments are
//! empty) and random segment-wise operators, all drawn from a seeded
//! [`Rng`] so every run replays identical cases. The invariant under
//! test: `allreduce_rabenseifner`, `allreduce_butterfly` (where
//! defined), `allreduce_ring` and `allreduce_auto` all equal the
//! sequential left fold of the blocks in rank order — the defining
//! semantics of `allreduce` (eq. 6 of the paper).

use collopt_collectives::op::Combine;
use collopt_collectives::{
    allreduce_auto_async, allreduce_butterfly_async, allreduce_rabenseifner_async,
    allreduce_ring_async,
};
use collopt_machine::{drive, ClockParams, Machine, Rng};
use std::sync::Arc;

type Block = Vec<i64>;

/// A small family of commutative, associative elementwise operators.
#[derive(Debug, Clone, Copy)]
enum OpKind {
    Add,
    Min,
    Max,
    Xor,
}

const OP_KINDS: [OpKind; 4] = [OpKind::Add, OpKind::Min, OpKind::Max, OpKind::Xor];

fn apply(kind: OpKind, a: &Block, b: &Block) -> Block {
    a.iter()
        .zip(b)
        .map(|(x, y)| match kind {
            OpKind::Add => x + y,
            OpKind::Min => *x.min(y),
            OpKind::Max => *x.max(y),
            OpKind::Xor => x ^ y,
        })
        .collect()
}

/// Sequential left fold in rank order — the reference semantics.
fn fold_blocks(op: impl Fn(&Block, &Block) -> Block, inputs: &[Block]) -> Block {
    let mut acc = inputs[0].clone();
    for b in &inputs[1..] {
        acc = op(&acc, b);
    }
    acc
}

fn random_inputs(rng: &mut Rng, p: usize, n: usize) -> Vec<Block> {
    (0..p)
        .map(|_| (0..n).map(|_| rng.range_i64(-100, 100)).collect())
        .collect()
}

#[test]
fn reduction_family_agrees_with_the_sequential_fold() {
    let mut rng = Rng::new(0x7A51);
    for case in 0..40 {
        let p = rng.range_usize(1, 18);
        let n = rng.range_usize(1, 33);
        let kind = OP_KINDS[rng.range_usize(0, OP_KINDS.len())];
        let inputs = random_inputs(&mut rng, p, n);
        let expected = fold_blocks(|a, b| apply(kind, a, b), &inputs);
        let machine = Machine::new(p, ClockParams::free());
        let shared = Arc::new(inputs);

        let raben = {
            let shared = Arc::clone(&shared);
            machine.run(move |ctx| {
                let f = move |a: &Block, b: &Block| apply(kind, a, b);
                let op = Combine::new(&f).assume_commutative();
                drive(allreduce_rabenseifner_async(
                    ctx,
                    shared[ctx.rank()].clone(),
                    1,
                    &op,
                ))
            })
        };
        assert!(
            raben.results.iter().all(|r| r == &expected),
            "case {case}: rabenseifner p={p} n={n} {kind:?}"
        );

        let ring = {
            let shared = Arc::clone(&shared);
            machine.run(move |ctx| {
                let f = move |a: &Block, b: &Block| apply(kind, a, b);
                let op = Combine::new(&f).assume_commutative();
                drive(allreduce_ring_async(
                    ctx,
                    shared[ctx.rank()].clone(),
                    1,
                    &op,
                ))
            })
        };
        assert!(
            ring.results.iter().all(|r| r == &expected),
            "case {case}: ring p={p} n={n} {kind:?}"
        );

        let auto = {
            let shared = Arc::clone(&shared);
            machine.run(move |ctx| {
                let f = move |a: &Block, b: &Block| apply(kind, a, b);
                let op = Combine::new(&f).assume_commutative();
                drive(allreduce_auto_async(
                    ctx,
                    shared[ctx.rank()].clone(),
                    1,
                    &op,
                ))
            })
        };
        assert!(
            auto.results.iter().all(|r| r == &expected),
            "case {case}: auto p={p} n={n} {kind:?}"
        );

        if p.is_power_of_two() {
            let butterfly = {
                let shared = Arc::clone(&shared);
                machine.run(move |ctx| {
                    let f = move |a: &Block, b: &Block| apply(kind, a, b);
                    let op = Combine::new(&f);
                    drive(allreduce_butterfly_async(
                        ctx,
                        shared[ctx.rank()].clone(),
                        n as u64,
                        &op,
                    ))
                })
            };
            assert_eq!(
                butterfly.results, raben.results,
                "case {case}: butterfly vs rabenseifner p={p} n={n} {kind:?}"
            );
        }
    }
}

#[test]
fn rabenseifner_matches_butterfly_for_nonabelian_ops_on_powers_of_two() {
    // Elementwise string concatenation: associative, NOT commutative.
    // The halving/doubling pair must still agree with the butterfly (and
    // with the rank-order fold) because both join complete aligned rank
    // groups in order.
    let mut rng = Rng::new(0x7A52);
    for case in 0..24 {
        let p = 1usize << rng.range_usize(0, 5);
        let n = rng.range_usize(1, 20);
        let inputs: Vec<Vec<String>> = (0..p)
            .map(|r| {
                (0..n)
                    .map(|_| format!("{}{}", char::from(b'a' + r as u8), rng.range_i64(0, 10)))
                    .collect()
            })
            .collect();
        let cat = |a: &Vec<String>, b: &Vec<String>| -> Vec<String> {
            a.iter().zip(b).map(|(x, y)| format!("{x}{y}")).collect()
        };
        let expected = {
            let mut acc = inputs[0].clone();
            for b in &inputs[1..] {
                acc = cat(&acc, b);
            }
            acc
        };
        let machine = Machine::new(p, ClockParams::free());
        let shared = Arc::new(inputs);

        let raben = {
            let shared = Arc::clone(&shared);
            machine.run(move |ctx| {
                let cat = |a: &Vec<String>, b: &Vec<String>| -> Vec<String> {
                    a.iter().zip(b).map(|(x, y)| format!("{x}{y}")).collect()
                };
                drive(allreduce_rabenseifner_async(
                    ctx,
                    shared[ctx.rank()].clone(),
                    1,
                    &Combine::new(&cat),
                ))
            })
        };
        let butterfly = {
            let shared = Arc::clone(&shared);
            machine.run(move |ctx| {
                let cat = |a: &Vec<String>, b: &Vec<String>| -> Vec<String> {
                    a.iter().zip(b).map(|(x, y)| format!("{x}{y}")).collect()
                };
                drive(allreduce_butterfly_async(
                    ctx,
                    shared[ctx.rank()].clone(),
                    n as u64,
                    &Combine::new(&cat),
                ))
            })
        };
        assert!(
            raben.results.iter().all(|r| r == &expected),
            "case {case}: p={p} n={n}"
        );
        assert_eq!(raben.results, butterfly.results, "case {case}: p={p} n={n}");
    }
}
