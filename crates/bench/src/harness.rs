//! A minimal, dependency-free stand-in for the Criterion benchmark
//! harness.
//!
//! The workspace must build and run offline, so the benches cannot pull
//! the real `criterion` crate. This module implements the small API
//! subset the suite uses — [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::bench_function`] / [`bench_with_input`],
//! [`BenchmarkId`], [`Throughput`], and the `criterion_group!` /
//! `criterion_main!` macros — with a simple timing loop: a short
//! warm-up, then `sample_size` timed samples of an adaptively chosen
//! iteration count, reporting the median time per iteration (and derived
//! throughput when declared).
//!
//! [`bench_with_input`]: BenchmarkGroup::bench_with_input

use std::time::{Duration, Instant};

/// Identifier of one benchmark within a group: a function name and an
/// optional parameter string, formatted `function/parameter` like
/// Criterion's.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    function: String,
    parameter: Option<String>,
}

impl BenchmarkId {
    /// Id with both a function name and a parameter.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId {
            function: function.into(),
            parameter: Some(parameter.to_string()),
        }
    }

    /// Id carrying only a parameter value.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId {
            function: String::new(),
            parameter: Some(parameter.to_string()),
        }
    }

    fn render(&self) -> String {
        match (&self.function[..], &self.parameter) {
            ("", Some(p)) => p.clone(),
            (f, Some(p)) => format!("{f}/{p}"),
            (f, None) => f.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(function: &str) -> BenchmarkId {
        BenchmarkId {
            function: function.to_string(),
            parameter: None,
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(function: String) -> BenchmarkId {
        BenchmarkId {
            function,
            parameter: None,
        }
    }
}

/// Declared per-iteration workload, used to report derived throughput.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// Top-level harness handle; owns global configuration.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n{name}");
        let sample_size = self.sample_size;
        BenchmarkGroup {
            _criterion: self,
            name,
            sample_size,
            throughput: None,
        }
    }
}

/// A named group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Declare the per-iteration workload for throughput reporting.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Run one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut bencher = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut bencher);
        self.report(&id, &bencher.samples);
        self
    }

    /// Run one benchmark parameterized by an input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut bencher, input);
        self.report(&id, &bencher.samples);
        self
    }

    /// Close the group (cosmetic; matches Criterion's API).
    pub fn finish(&mut self) {}

    fn report(&self, id: &BenchmarkId, samples: &[f64]) {
        let label = format!("{}/{}", self.name, id.render());
        if samples.is_empty() {
            println!("  {label:<48} (no samples)");
            return;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let median = sorted[sorted.len() / 2];
        let (lo, hi) = (sorted[0], sorted[sorted.len() - 1]);
        let extra = match self.throughput {
            Some(Throughput::Bytes(bytes)) => {
                format!("  {:>10}/s", format_bytes(bytes as f64 / (median * 1e-9)))
            }
            Some(Throughput::Elements(n)) => {
                format!("  {:>10.3e} elem/s", n as f64 / (median * 1e-9))
            }
            None => String::new(),
        };
        println!(
            "  {label:<48} median {:>12}  [{} .. {}]{extra}",
            format_ns(median),
            format_ns(lo),
            format_ns(hi),
        );
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

fn format_bytes(bytes_per_s: f64) -> String {
    if bytes_per_s < 1e3 {
        format!("{bytes_per_s:.0} B")
    } else if bytes_per_s < 1e6 {
        format!("{:.1} KiB", bytes_per_s / 1024.0)
    } else if bytes_per_s < 1e9 {
        format!("{:.1} MiB", bytes_per_s / (1024.0 * 1024.0))
    } else {
        format!("{:.2} GiB", bytes_per_s / (1024.0 * 1024.0 * 1024.0))
    }
}

/// Passed to each benchmark closure; [`Bencher::iter`] runs the timing
/// loop.
pub struct Bencher {
    /// Nanoseconds per iteration, one entry per sample.
    samples: Vec<f64>,
    sample_size: usize,
}

impl Bencher {
    /// Time `routine`, collecting `sample_size` samples. The per-sample
    /// iteration count adapts so one sample takes at least ~1 ms,
    /// amortizing timer overhead for fast routines.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up and calibration: how many iterations fill ~1 ms?
        let start = Instant::now();
        let mut calib_iters = 0u64;
        while start.elapsed() < Duration::from_millis(1) && calib_iters < 1_000_000 {
            std::hint::black_box(routine());
            calib_iters += 1;
        }
        let per_sample = calib_iters.max(1);
        self.samples.clear();
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..per_sample {
                std::hint::black_box(routine());
            }
            let dt = t0.elapsed();
            self.samples
                .push(dt.as_secs_f64() * 1e9 / per_sample as f64);
        }
    }
}

/// Re-export of [`std::hint::black_box`] under Criterion's name.
pub use std::hint::black_box;

/// Bundle benchmark functions into a runner, mirroring Criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::harness::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Entry point running every group, mirroring Criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_render_like_criterion() {
        assert_eq!(BenchmarkId::new("f", 8).render(), "f/8");
        assert_eq!(BenchmarkId::from_parameter(32).render(), "32");
        assert_eq!(BenchmarkId::from("plain").render(), "plain");
    }

    #[test]
    fn bencher_collects_samples() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("harness_selftest");
        group.sample_size(3);
        let mut ran = false;
        group.bench_function("noop", |b| {
            b.iter(|| 1 + 1);
            ran = true;
        });
        group.finish();
        assert!(ran);
    }
}
