//! Distributed k-means — the canonical allreduce workload of the SMP/
//! cluster programming literature the paper cites (SIMPLE et al.).
//!
//! Each rank owns a shard of 2-D points. One Lloyd iteration is a single
//! collective: locally accumulate per-cluster coordinate sums and counts,
//! then `allreduce(+)` the accumulator block so every rank can recompute
//! identical centroids. Convergence is a second collective: an
//! `allreduce(max)` of the local centroid movement.
//!
//! The result is validated against a sequential k-means on the same data
//! with the same initialization (they must agree bit for bit — the
//! distributed sum order is fixed by the collective's rank order).
//!
//! Run with `cargo run --release --example kmeans`.

use collopt::collectives::{allreduce_async, Combine};
use collopt::prelude::{ClockParams, Machine};

const K: usize = 3;
const DIM: usize = 2;

fn synth_points(rank: usize, n: usize) -> Vec<[f64; DIM]> {
    // Three well-separated blobs, deterministic.
    (0..n)
        .map(|j| {
            let h = (rank * 92821 + j * 68917) % 3;
            let jitter = |s: usize| ((rank * 31 + j * 17 + s) % 100) as f64 / 250.0;
            match h {
                0 => [0.0 + jitter(0), 0.0 + jitter(1)],
                1 => [4.0 + jitter(2), 0.5 + jitter(3)],
                _ => [2.0 + jitter(4), 3.0 + jitter(5)],
            }
        })
        .collect()
}

fn nearest(c: &[[f64; DIM]; K], p: &[f64; DIM]) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (k, ck) in c.iter().enumerate() {
        let d = (ck[0] - p[0]).powi(2) + (ck[1] - p[1]).powi(2);
        if d < best_d {
            best_d = d;
            best = k;
        }
    }
    best
}

fn step(points: &[[f64; DIM]], centroids: &[[f64; DIM]; K]) -> ([f64; K * DIM], [f64; K]) {
    let mut sums = [0.0; K * DIM];
    let mut counts = [0.0; K];
    for p in points {
        let k = nearest(centroids, p);
        sums[k * DIM] += p[0];
        sums[k * DIM + 1] += p[1];
        counts[k] += 1.0;
    }
    (sums, counts)
}

fn recompute(centroids: &mut [[f64; DIM]; K], sums: &[f64], counts: &[f64]) -> f64 {
    let mut moved = 0.0f64;
    for k in 0..K {
        if counts[k] > 0.0 {
            let nx = sums[k * DIM] / counts[k];
            let ny = sums[k * DIM + 1] / counts[k];
            moved = moved.max((centroids[k][0] - nx).abs() + (centroids[k][1] - ny).abs());
            centroids[k] = [nx, ny];
        }
    }
    moved
}

fn main() {
    let p = 12usize;
    let per_rank = 200usize;
    let init: [[f64; DIM]; K] = [[0.5, 0.5], [3.0, 1.0], [1.5, 2.0]];

    // ---- distributed ----
    let machine = Machine::new(p, ClockParams::parsytec_like());
    let run = machine.run_des(move |ctx| {
        Box::pin(async move {
            let points = synth_points(ctx.rank(), per_rank);
            let mut centroids = init;
            let addv = |a: &Vec<f64>, b: &Vec<f64>| -> Vec<f64> {
                a.iter().zip(b).map(|(x, y)| x + y).collect()
            };
            let fmax = |a: &f64, b: &f64| a.max(*b);
            let mut iterations = 0;
            loop {
                let (sums, counts) = step(&points, &centroids);
                // One accumulator block: K*DIM sums then K counts.
                let mut acc: Vec<f64> = sums.to_vec();
                acc.extend_from_slice(&counts);
                let total =
                    allreduce_async(ctx, acc, (K * DIM + K) as u64, &Combine::new(&addv)).await;
                let moved = recompute(&mut centroids, &total[..K * DIM], &total[K * DIM..]);
                let global_moved = allreduce_async(ctx, moved, 1, &Combine::new(&fmax)).await;
                iterations += 1;
                if global_moved < 1e-12 || iterations > 50 {
                    break;
                }
            }
            (centroids, iterations)
        })
    });

    // ---- sequential reference on the concatenated data ----
    let all_points: Vec<[f64; DIM]> = (0..p).flat_map(|r| synth_points(r, per_rank)).collect();
    let mut centroids = init;
    let mut ref_iters = 0;
    loop {
        let (sums, counts) = step(&all_points, &centroids);
        let moved = recompute(&mut centroids, &sums, &counts);
        ref_iters += 1;
        if moved < 1e-12 || ref_iters > 50 {
            break;
        }
    }

    let (dist_centroids, dist_iters) = &run.results[0];
    println!("k-means on {p} ranks x {per_rank} points, k = {K}");
    println!("converged in {dist_iters} iterations (sequential: {ref_iters})");
    for (k, c) in dist_centroids.iter().enumerate() {
        println!("  centroid {k}: ({:.4}, {:.4})", c[0], c[1]);
    }
    println!("simulated time: {:.0} units", run.makespan);

    // Every rank converged to identical centroids.
    for (c, _) in &run.results {
        assert_eq!(c, dist_centroids);
    }
    // Distributed == sequential up to float summation order. The
    // rank-order tree sum differs from the flat left fold in the last
    // ulps, so compare with a tolerance rather than bitwise.
    for k in 0..K {
        for d in 0..DIM {
            let err = (dist_centroids[k][d] - centroids[k][d]).abs();
            assert!(err < 1e-9, "centroid {k}[{d}] differs by {err}");
        }
    }
    println!("distributed centroids match the sequential reference ✓");
}
