//! Edge cases for the cost-model-driven allreduce selector: machines
//! that are not a power of two, blocks smaller than the machine, and
//! empty blocks. For each case the test pins *which* algorithm the
//! selector must pick (so a cost-model regression is caught by name, not
//! by a silent performance cliff) and checks the executed result against
//! the sequential reference fold.

use collopt_collectives::{
    allreduce_auto_async, choose_allreduce, reference::ref_allreduce, AllreduceChoice, Combine,
};
use collopt_machine::{ClockParams, Machine};
use std::sync::Arc;

fn blocks(p: usize, m: usize) -> Vec<Vec<i64>> {
    (0..p)
        .map(|r| (0..m).map(|j| (r * 7 + j) as i64 % 11 - 5).collect())
        .collect()
}

// `Combine::new` wants exactly `Fn(&T, &T) -> T` with `T = Vec<i64>`.
#[allow(clippy::ptr_arg)]
fn vadd(a: &Vec<i64>, b: &Vec<i64>) -> Vec<i64> {
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// "Keep the left operand" — associative, *not* commutative, and
/// elementwise (so it is safe for segmenting algorithms). The rank-order
/// fold returns rank 0's block; any algorithm that reorders operands
/// returns something else.
#[allow(clippy::ptr_arg)]
fn vfirst(a: &Vec<i64>, _b: &Vec<i64>) -> Vec<i64> {
    a.clone()
}

/// Run `allreduce_auto` on real machine threads and compare every rank's
/// result against the sequential rank-order fold.
fn check_allreduce_auto(p: usize, m: usize, commutative: bool, clock: ClockParams) {
    let input = blocks(p, m);
    let expected = if commutative {
        ref_allreduce(vadd, &input)
    } else {
        ref_allreduce(vfirst, &input)
    };
    let shared = Arc::new(input);
    let run = Machine::new(p, clock).run_des(move |ctx| {
        let shared = Arc::clone(&shared);
        Box::pin(async move {
            let combine = if commutative {
                Combine::new(&vadd).assume_commutative()
            } else {
                Combine::new(&vfirst)
            };
            allreduce_auto_async(ctx, shared[ctx.rank()].clone(), 1, &combine).await
        })
    });
    assert_eq!(
        run.results, expected,
        "allreduce_auto p={p} m={m} commutative={commutative}"
    );
}

#[test]
fn non_power_of_two_machines_never_get_butterfly_or_halving() {
    for p in [3usize, 5, 6, 7, 9, 12] {
        for words in [0u64, 1, 4, 1_000, 100_000] {
            for commutative in [false, true] {
                let choice = choose_allreduce(
                    p,
                    words.max(1),
                    1.0,
                    commutative,
                    &ClockParams::parsytec_like(),
                );
                assert!(
                    !matches!(
                        choice,
                        AllreduceChoice::Butterfly | AllreduceChoice::Rabenseifner
                    ),
                    "p={p} words={words}: {choice:?} needs a power of two"
                );
                if !commutative {
                    // The ring folds in cyclic order; without
                    // commutativity only reduce+bcast remains.
                    assert_eq!(choice, AllreduceChoice::ReduceBcast, "p={p} words={words}");
                }
            }
        }
    }
}

#[test]
fn selector_pins_at_the_extremes() {
    let clock = ClockParams::parsytec_like();
    // Tiny blocks on a power of two: the single-phase butterfly's one
    // start-up per round wins.
    assert_eq!(
        choose_allreduce(8, 1, 1.0, true, &clock),
        AllreduceChoice::Butterfly
    );
    // Huge blocks on a power of two: the bandwidth-optimal reduce-scatter
    // route wins despite the doubled start-ups.
    assert_eq!(
        choose_allreduce(8, 1_000_000, 1.0, true, &clock),
        AllreduceChoice::Rabenseifner
    );
    // Huge blocks on a non-power-of-two, commutative: the ring's
    // 2m(1−1/p) words on the wire beat reduce+bcast's 2m·log p.
    assert_eq!(
        choose_allreduce(7, 1_000_000, 1.0, true, &clock),
        AllreduceChoice::Ring
    );
    // Latency-bound non-power-of-two: reduce+bcast's 2⌈log p⌉ start-ups
    // beat the ring's 2(p−1).
    assert_eq!(
        choose_allreduce(7, 1, 1.0, true, &clock),
        AllreduceChoice::ReduceBcast
    );
}

#[test]
fn auto_allreduce_is_correct_at_awkward_shapes() {
    let clock = ClockParams::parsytec_like();
    for p in [2usize, 3, 5, 7, 8, 9] {
        // m = 0 (empty blocks), m < p, m = p, m unaligned, m large.
        for m in [0usize, 1, p.saturating_sub(1), p, 2 * p + 1, 64] {
            for commutative in [false, true] {
                check_allreduce_auto(p, m, commutative, clock);
            }
        }
    }
}

#[test]
fn auto_allreduce_is_correct_where_each_algorithm_is_chosen() {
    // Force each selector outcome via the design point, then verify the
    // executed result still matches the reference fold: the chosen
    // algorithm name is pinned so this keeps covering all four arms.
    let clock = ClockParams::parsytec_like();
    let cases: &[(usize, usize, bool, AllreduceChoice)] = &[
        (8, 1, true, AllreduceChoice::Butterfly),
        (8, 100_000, false, AllreduceChoice::Rabenseifner),
        (7, 100_000, true, AllreduceChoice::Ring),
        (7, 1, true, AllreduceChoice::ReduceBcast),
    ];
    for &(p, m, commutative, expect) in cases {
        let got = choose_allreduce(p, m.max(1) as u64, 1.0, commutative, &clock);
        assert_eq!(got, expect, "p={p} m={m}");
        check_allreduce_auto(p, m, commutative, clock);
    }
}
