//! Discrete-event engine scale ladder: one allreduce over the whole
//! machine at `p = 10³, 10⁴, 10⁵, 10⁶` (up to `argv[1]`, default 100000;
//! 10⁶ takes ~4 s and ~2 GB), with wall time and messages/second. The
//! thread engine refuses these sizes with `CapacityExceeded`.
//!
//! This is the last timing bin outside `benchmark/`, kept only because
//! `BENCHMARK.json` has no `p ≥ 10⁴` cell yet (ROADMAP 5b′): `sim_scale`
//! stops at `p = 10³`. It commits nothing and gates nothing; when the
//! benchmark gains that cell, this file goes.
//!
//! Run with `cargo run --release -p collopt-bench --bin gen_des_scale [MAX_P]`.

use std::time::Instant;

use collopt_bench::varied_input;
use collopt_core::exec::execute;
use collopt_core::op::lib as ops;
use collopt_core::term::Program;
use collopt_machine::ClockParams;

fn main() {
    let max_p: usize = match std::env::args().nth(1).map(|a| a.parse()) {
        None => 100_000,
        Some(Ok(p)) => p,
        Some(Err(e)) => {
            eprintln!("usage: gen_des_scale [MAX_P] ({e})");
            std::process::exit(2);
        }
    };
    println!("# scale ladder (des engine, single allreduce)");
    let prog = Program::new().allreduce(ops::add());
    for p in [1_000usize, 10_000, 100_000, 1_000_000] {
        if p > max_p {
            break;
        }
        let inputs = varied_input(p, 4, 7);
        let start = Instant::now();
        let out = execute(&prog, &inputs, ClockParams::new(100.0, 2.0));
        let wall_s = start.elapsed().as_secs_f64();
        println!(
            "  p={p:>8}: {wall_s:>8.3}s wall, makespan {:>12.0}, {:>9} msgs ({:>9.0} msgs/s)",
            out.makespan,
            out.total_messages,
            out.total_messages as f64 / wall_s
        );
    }
}
