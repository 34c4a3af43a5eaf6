//! Large-`p` validation of the cost calculus on the discrete-event
//! engine.
//!
//! The closed forms in `collopt_cost::collectives` are verified against
//! the simulated machine at small sizes by the collectives crate. A rank
//! of the event engine costs memory, not an OS thread, so here the same
//! formulas are checked at machine sizes the paper's asymptotic claims
//! actually speak to — `p` up to
//! 10⁵ — across the reduction family: the butterfly, Rabenseifner's
//! reduce-scatter + allgather, the ring, and the binomial
//! reduce + broadcast fallback, plus the predicted butterfly/Rabenseifner
//! crossover at `allreduce_crossover_m`.

use collopt_collectives::{
    allreduce_async, allreduce_butterfly_async, allreduce_rabenseifner_async, allreduce_ring_async,
    Combine,
};
use collopt_cost::collectives::{
    allreduce_butterfly_cost, allreduce_rabenseifner_cost, allreduce_reduce_bcast_cost,
    allreduce_ring_cost,
};
use collopt_cost::params::MachineParams;
use collopt_cost::sweep::allreduce_crossover_m;
use collopt_machine::{ClockParams, Machine};

const TS: f64 = 100.0;
const TW: f64 = 2.0;

fn assert_close(tag: &str, measured: f64, predicted: f64, rel_tol: f64) {
    let err = (measured - predicted).abs() / predicted.abs().max(1.0);
    assert!(
        err <= rel_tol,
        "{tag}: measured {measured} vs predicted {predicted} (rel err {err:.2e} > {rel_tol:.0e})"
    );
}

/// Butterfly allreduce on a 2¹⁶-rank machine: every phase costs exactly
/// `ts + m(tw + c)`, so the measured makespan must reproduce eq. 16's
/// closed form to the last bit even at 65 536 ranks.
#[test]
fn butterfly_matches_closed_form_at_p_65536() {
    let p = 1usize << 16;
    let m_words = 4u64;
    let machine = Machine::new(p, ClockParams::new(TS, TW));
    let run = machine.run_des(move |ctx| {
        Box::pin(async move {
            let add = |a: &f64, b: &f64| a + b;
            let op = Combine::new(&add);
            allreduce_butterfly_async(ctx, ctx.rank() as f64, m_words, &op).await
        })
    });
    let expected: f64 = (0..p).map(|r| r as f64).sum();
    assert!(run.results.iter().all(|&v| v == expected), "wrong sum");
    let params = MachineParams::new(p, TS, TW);
    let predicted = allreduce_butterfly_cost(&params, m_words as f64, 1.0);
    assert_close("butterfly p=2^16", run.makespan, predicted, 1e-12);
}

/// Rabenseifner's allreduce at `p = 1024`, `m = 4096` (`p | m`, where
/// the halving/doubling volumes are exact): measured makespan equals
/// `2 log p·ts + m(1−1/p)(2tw + c)`.
#[test]
fn rabenseifner_matches_closed_form_at_p_1024() {
    let p = 1usize << 10;
    let m = 4096usize;
    let machine = Machine::new(p, ClockParams::new(TS, TW));
    let run = machine.run_des(move |ctx| {
        Box::pin(async move {
            let add = |a: &Vec<f64>, b: &Vec<f64>| -> Vec<f64> {
                a.iter().zip(b).map(|(x, y)| x + y).collect()
            };
            let op = Combine::new(&add);
            let block = vec![1.0f64; m];
            allreduce_rabenseifner_async(ctx, block, 1, &op).await[0]
        })
    });
    assert!(run.results.iter().all(|&v| v == p as f64), "wrong sum");
    let params = MachineParams::new(p, TS, TW);
    let predicted = allreduce_rabenseifner_cost(&params, m as f64, 1.0);
    assert_close("rabenseifner p=1024", run.makespan, predicted, 1e-9);
}

/// Ring allreduce at `p = 512` with `p | m`: the `2(p−1)` half-duplex
/// steps of `m/p`-word segments match the closed form exactly.
#[test]
fn ring_matches_closed_form_at_p_512() {
    let p = 512usize;
    let m = 4 * p; // p | m: every segment is exactly m/p units
    let machine = Machine::new(p, ClockParams::new(TS, TW));
    let run = machine.run_des(move |ctx| {
        Box::pin(async move {
            let add = |a: &Vec<f64>, b: &Vec<f64>| -> Vec<f64> {
                a.iter().zip(b).map(|(x, y)| x + y).collect()
            };
            let op = Combine::new(&add).assume_commutative();
            let block = vec![1.0f64; m];
            allreduce_ring_async(ctx, block, 1, &op).await[0]
        })
    });
    assert!(run.results.iter().all(|&v| v == p as f64), "wrong sum");
    let params = MachineParams::new(p, TS, TW);
    let predicted = allreduce_ring_cost(&params, m as f64, 1.0);
    assert_close("ring p=512", run.makespan, predicted, 1e-9);
}

/// The order-safe fallback (binomial reduce, then binomial broadcast) at
/// `p = 100 000` — far more ranks than a host has threads. The
/// binomial tree on a non-power-of-two `p` has a slightly shorter
/// critical path than the `⌈log₂ p⌉`-phase upper bound the calculus
/// charges, so the tolerance is a few percent rather than bits.
#[test]
fn reduce_bcast_fallback_matches_at_p_100_000() {
    let p = 100_000usize;
    let m_words = 8u64;
    let machine = Machine::new(p, ClockParams::new(TS, TW));
    let run = machine.run_des(move |ctx| {
        Box::pin(async move {
            let add = |a: &u64, b: &u64| a + b;
            let op = Combine::new(&add);
            allreduce_async(ctx, 1u64, m_words, &op).await
        })
    });
    assert!(run.results.iter().all(|&v| v == p as u64), "wrong sum");
    let params = MachineParams::new(p, TS, TW);
    let predicted = allreduce_reduce_bcast_cost(&params, m_words as f64, 1.0);
    assert!(
        run.makespan <= predicted,
        "calculus must upper-bound the machine: {} > {predicted}",
        run.makespan
    );
    assert_close("reduce+bcast p=1e5", run.makespan, predicted, 0.05);
}

/// The butterfly/Rabenseifner crossover predicted by
/// [`allreduce_crossover_m`] is real on the machine: at `p = 256` the
/// measured winner flips exactly as the model says when the block grows
/// across `m*`.
#[test]
fn crossover_prediction_holds_on_the_machine_at_p_256() {
    let p = 256usize;
    let params = MachineParams::new(p, TS, TW);
    let m_star = allreduce_crossover_m(&params, 1.0).expect("crossover exists at p=256");
    // Well below and well above the predicted crossover (the large side
    // chosen as a multiple of p so the segmenting volumes are exact).
    let m_small = (m_star / 4.0).max(1.0).round() as usize;
    let m_large = (4.0 * m_star / p as f64).ceil() as usize * p;

    let measure = |m: usize, use_rabenseifner: bool| -> f64 {
        let machine = Machine::new(p, ClockParams::new(TS, TW));
        machine
            .run_des(move |ctx| {
                Box::pin(async move {
                    let add = |a: &Vec<f64>, b: &Vec<f64>| -> Vec<f64> {
                        a.iter().zip(b).map(|(x, y)| x + y).collect()
                    };
                    let op = Combine::new(&add);
                    let block = vec![1.0f64; m];
                    if use_rabenseifner {
                        allreduce_rabenseifner_async(ctx, block, 1, &op).await[0]
                    } else {
                        allreduce_butterfly_async(ctx, block, m as u64, &op).await[0]
                    }
                })
            })
            .makespan
    };

    // Small block: start-up bound, the butterfly must win.
    assert!(
        measure(m_small, false) < measure(m_small, true),
        "butterfly should win below m* = {m_star} (m = {m_small})"
    );
    // Large block: bandwidth bound, Rabenseifner must win.
    assert!(
        measure(m_large, true) < measure(m_large, false),
        "rabenseifner should win above m* = {m_star} (m = {m_large})"
    );
}
