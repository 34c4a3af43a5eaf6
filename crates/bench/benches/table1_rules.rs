//! Wall-clock benchmark of every Table-1 rule: the original composition
//! versus the fused right-hand side, executed on the threaded simulated
//! machine (p = 8, m = 64, latency-dominated preset).
//!
//! The *simulated* times are validated exactly elsewhere
//! (`tests/cost_crossvalidation.rs`, `collopt repro table1`); this bench
//! shows the same win/lose structure in real thread-and-channel
//! wall-clock, where the saved message start-ups correspond to saved
//! channel round-trips.

use collopt_bench::harness::{BenchmarkId, Criterion};
use collopt_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use collopt_bench::{block_input, rule_lhs, rule_rhs};
use collopt_core::execute;
use collopt_cost::Rule;
use collopt_machine::ClockParams;

fn bench_rules(c: &mut Criterion) {
    let p = 8usize;
    let m = 64usize;
    let clock = ClockParams::parsytec_like();
    let input = block_input(p, m);

    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    for rule in Rule::ALL {
        let lhs = rule_lhs(rule);
        let rhs = rule_rhs(rule);
        group.bench_with_input(BenchmarkId::new("before", rule.name()), &lhs, |b, prog| {
            b.iter(|| black_box(execute(prog, &input, clock).makespan))
        });
        group.bench_with_input(BenchmarkId::new("after", rule.name()), &rhs, |b, prog| {
            b.iter(|| black_box(execute(prog, &input, clock).makespan))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rules);
criterion_main!(benches);
