//! Machine validation of the exact-cost formulas in
//! [`collopt::cost::exact`] — the same analytic-vs-measured discipline as
//! Table 1, extended to the non-phase-shaped collectives.

use collopt::collectives::{
    allgather_binomial_async, allgather_ring_async, allreduce_commutative_async, alltoall_async,
    bcast_scatter_allgather_async, gather_binomial_async, scatter_binomial_async, Combine,
};
use collopt::cost::exact;
use collopt::cost::MachineParams;
use collopt::machine::drive;
use collopt::prelude::{ClockParams, Machine};

fn setup(p: usize) -> (Machine, MachineParams, ClockParams) {
    let (ts, tw) = (100.0, 2.0);
    (
        Machine::new(p, ClockParams::new(ts, tw)),
        MachineParams::new(p, ts, tw),
        ClockParams::new(ts, tw),
    )
}

#[test]
fn gather_cost_is_exact_for_powers_of_two() {
    for p in [2usize, 4, 8, 16] {
        for mw in [1usize, 16, 256] {
            let (machine, params, _) = setup(p);
            let run = machine.run(move |ctx| {
                drive(gather_binomial_async(ctx, vec![1u8; mw], mw as u64)).map(|v| v.len())
            });
            let predicted = exact::gather_cost(&params, mw as f64);
            assert_eq!(run.makespan, predicted, "gather p={p} m={mw}");
        }
    }
}

#[test]
fn scatter_cost_is_exact_for_powers_of_two() {
    for p in [2usize, 4, 8, 16] {
        for mw in [1usize, 16, 256] {
            let (machine, params, _) = setup(p);
            let run = machine.run(move |ctx| {
                let blocks = (ctx.rank() == 0).then(|| vec![vec![1u8; mw]; ctx.size()]);
                drive(scatter_binomial_async(ctx, blocks, mw as u64)).len()
            });
            let predicted = exact::scatter_cost(&params, mw as f64);
            assert_eq!(run.makespan, predicted, "scatter p={p} m={mw}");
        }
    }
}

#[test]
fn allgather_cost_is_exact_for_powers_of_two() {
    for p in [2usize, 4, 8] {
        let mw = 8usize;
        let (machine, params, _) = setup(p);
        let run = machine
            .run(move |ctx| drive(allgather_binomial_async(ctx, vec![1u8; mw], mw as u64)).len());
        let predicted = exact::allgather_cost(&params, mw as f64);
        assert_eq!(run.makespan, predicted, "allgather p={p}");
    }
}

#[test]
fn ring_allgather_cost_is_exact() {
    for p in [3usize, 5, 8, 13] {
        let mw = 12usize;
        let (machine, params, _) = setup(p);
        let run = machine
            .run(move |ctx| drive(allgather_ring_async(ctx, vec![1u8; mw], mw as u64)).len());
        let predicted = exact::allgather_ring_cost(&params, mw as f64);
        assert_eq!(run.makespan, predicted, "ring p={p}");
    }
}

#[test]
fn alltoall_cost_is_exact() {
    for p in [2usize, 3, 6, 9] {
        let mw = 5usize;
        let (machine, params, _) = setup(p);
        let run = machine.run(move |ctx| {
            let blocks: Vec<Vec<u8>> = vec![vec![1u8; mw]; ctx.size()];
            drive(alltoall_async(ctx, blocks, mw as u64)).len()
        });
        let predicted = exact::alltoall_cost(&params, mw as f64);
        assert_eq!(run.makespan, predicted, "alltoall p={p}");
    }
}

#[test]
fn vdg_bcast_cost_is_near_exact() {
    // Segment rounding makes piece sizes uneven for p ∤ m; allow 2%.
    for (p, mw) in [(8usize, 4000usize), (16, 32_000), (4, 1024)] {
        let (machine, params, _) = setup(p);
        let run = machine.run(move |ctx| {
            let v = (ctx.rank() == 0).then(|| vec![1u8; mw]);
            drive(bcast_scatter_allgather_async(ctx, v, 1)).len()
        });
        let predicted = exact::bcast_scatter_allgather_cost(&params, mw as f64);
        let err = (run.makespan - predicted).abs() / predicted;
        assert!(
            err < 0.02,
            "vdg p={p} m={mw}: measured {} vs {predicted}",
            run.makespan
        );
    }
}

#[test]
fn commutative_allreduce_cost_is_exact() {
    for p in [4usize, 5, 8, 13] {
        let mw = 10usize;
        let (machine, params, _) = setup(p);
        let run = machine.run(move |ctx| {
            let add = |a: &Vec<u64>, b: &Vec<u64>| {
                a.iter().zip(b).map(|(x, y)| x + y).collect::<Vec<u64>>()
            };
            drive(allreduce_commutative_async(
                ctx,
                vec![1u64; mw],
                mw as u64,
                &Combine::new(&add),
            ))
        });
        let predicted = exact::allreduce_commutative_cost(&params, mw as f64, 1.0);
        assert_eq!(run.makespan, predicted, "allreduce_comm p={p}");
    }
}
