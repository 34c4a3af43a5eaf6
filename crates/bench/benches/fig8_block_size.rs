//! Figure 8 as a wall-clock benchmark: the three implementations of
//! `bcast ; scan(+)` versus block size at a fixed processor count.
//!
//! The simulated-time series comes from `collopt repro fig8`; here real
//! blocks of `m` words move through the channels, so the linear-in-`m`
//! growth and the `bcast;repeat` advantage are visible in wall-clock.

use collopt_bench::harness::{BenchmarkId, Criterion, Throughput};
use collopt_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use collopt_bench::{run_comcast, ComcastImpl};
use collopt_machine::ClockParams;

fn bench_fig8(c: &mut Criterion) {
    let p = 16usize;
    let mut group = c.benchmark_group("fig8_vs_block_size");
    group.sample_size(10);
    for m in [16usize, 256, 4096] {
        group.throughput(Throughput::Elements(m as u64));
        for which in ComcastImpl::ALL {
            group.bench_with_input(
                BenchmarkId::new(which.label(), m),
                &(which, m),
                |b, &(which, m)| {
                    b.iter(|| black_box(run_comcast(which, p, m, ClockParams::parsytec_like())))
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig8);
criterion_main!(benches);
