//! Figure 7 as a wall-clock benchmark: the three implementations of
//! `bcast ; scan(+)` versus processor count at a fixed block size.
//!
//! The simulated-time series (the paper's axes) comes from
//! `collopt repro fig7`; this Criterion bench
//! measures the same three algorithms moving real blocks through real
//! threads, so the per-phase structure (2 phases of work per processor
//! doubling) shows up in wall-clock as well.

use collopt_bench::harness::{BenchmarkId, Criterion};
use collopt_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use collopt_bench::{run_comcast, ComcastImpl};
use collopt_machine::ClockParams;

fn bench_fig7(c: &mut Criterion) {
    let m = 4000usize;
    let mut group = c.benchmark_group("fig7_vs_processors");
    group.sample_size(10);
    for p in [2usize, 8, 32] {
        for which in ComcastImpl::ALL {
            group.bench_with_input(
                BenchmarkId::new(which.label(), p),
                &(which, p),
                |b, &(which, p)| {
                    b.iter(|| black_box(run_comcast(which, p, m, ClockParams::parsytec_like())))
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig7);
criterion_main!(benches);
