//! Model-driven algorithm selection: the cost calculus choosing a
//! broadcast implementation per machine and message size.
//!
//! The paper's Section 4 uses the `ts`/`tw` calculus to decide whether an
//! *algebraic* rewrite pays off; the same calculus arbitrates between
//! *implementations* of a single collective (its reference [17],
//! van de Geijn, is the classic source for the large-message algorithms):
//!
//! * binomial tree — `log p` start-ups, `log p · m·tw` volume;
//! * chain pipeline — `~2S + p` start-ups, `~m·tw` volume per hop;
//! * scatter + ring allgather (van de Geijn) — `~p` start-ups, `~2m·tw`
//!   volume.
//!
//! `bcast_auto` evaluates all three analytically and runs the winner.
//!
//! Run with `cargo run --release --example adaptive_bcast`.

use collopt::collectives::{
    bcast_auto_async, bcast_binomial_async, bcast_pipelined_async, bcast_scatter_allgather_async,
    choose_bcast, optimal_segments,
};
use collopt::prelude::{drive, ClockParams, Machine};

fn measure(p: usize, mw: usize, clock: ClockParams) -> (f64, f64, f64, f64, &'static str) {
    let machine = Machine::new(p, clock);
    let tree = machine.run(move |ctx| {
        let v = (ctx.rank() == 0).then(|| vec![1u8; mw]);
        drive(bcast_binomial_async(ctx, 0, v, mw as u64)).len()
    });
    let segments = optimal_segments(p, mw as u64, clock.ts, clock.tw);
    let chain = machine.run(move |ctx| {
        let v = (ctx.rank() == 0).then(|| vec![1u8; mw]);
        drive(bcast_pipelined_async(ctx, 0, v, 1, segments)).len()
    });
    let vdg = machine.run(move |ctx| {
        let v = (ctx.rank() == 0).then(|| vec![1u8; mw]);
        drive(bcast_scatter_allgather_async(ctx, v, 1)).len()
    });
    let auto = machine.run(move |ctx| {
        let v = (ctx.rank() == 0).then(|| vec![1u8; mw]);
        drive(bcast_auto_async(ctx, v, 1)).len()
    });
    // Everyone must have received the full block.
    for r in [&tree, &chain, &vdg, &auto] {
        assert!(r.results.iter().all(|&len| len == mw));
    }
    let choice = match choose_bcast(p, mw as u64, &clock) {
        collopt::collectives::BcastChoice::Binomial => "binomial",
        collopt::collectives::BcastChoice::ChainPipeline => "chain",
        collopt::collectives::BcastChoice::ScatterAllgather => "vdGeijn",
    };
    (
        tree.makespan,
        chain.makespan,
        vdg.makespan,
        auto.makespan,
        choice,
    )
}

fn main() {
    let clock = ClockParams::parsytec_like();
    let p = 16;
    println!(
        "broadcast on p = {p}, ts = {}, tw = {} (simulated units)",
        clock.ts, clock.tw
    );
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12}  model picks",
        "block m", "binomial", "chain", "vdGeijn", "auto"
    );
    for mw in [4usize, 64, 1000, 8000, 32_000, 128_000] {
        let (tree, chain, vdg, auto, choice) = measure(p, mw, clock);
        println!(
            "{:<10} {:>12.0} {:>12.0} {:>12.0} {:>12.0}  {}",
            mw, tree, chain, vdg, auto, choice
        );
        // The auto version must be within the length-preamble of the best
        // fixed strategy.
        let best = tree.min(chain).min(vdg);
        let preamble = collopt_machine::topology::ceil_log2(p) as f64 * (clock.ts + clock.tw) + 1.0;
        assert!(
            auto <= best + preamble,
            "m={mw}: auto {auto} must track the best fixed strategy {best}"
        );
    }
    println!("\nat small m the tree's log p start-ups win; at large m the");
    println!("bandwidth-optimal algorithms take over — the same ts-vs-m·tw");
    println!("trade the paper's Table 1 formalizes for the fusion rules.");
}
