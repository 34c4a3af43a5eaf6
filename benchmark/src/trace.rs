//! Spans recorded from outside: the traced run wraps each call into a
//! layer's public function in a span and keeps all of them in memory
//! until the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::alloc;
use crate::stats::median;

/// One call into a layer. Spans of one op share `op`; `parent` is the
/// index of the span that was open when this one began.
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Allocations counted between start and end.
    pub allocs: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Tracer {
    /// A tracer with room for `capacity` spans. The room is reserved up
    /// front because growing the buffer inside a span would be counted as
    /// that span's allocation.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            op: 0,
        }
    }

    /// Later spans belong to the next op.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Ops begun so far.
    pub fn ops(&self) -> u64 {
        u64::from(self.op)
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        assert!(
            self.spans.len() < self.spans.capacity() && self.open.len() < self.open.capacity(),
            "span buffer full"
        );
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            op: self.op,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            allocs: 0,
        });
        self.open.push(index);
        let allocs_before = alloc::counts().0;
        let start = self.origin.elapsed();
        let out = f(self);
        let end = self.origin.elapsed();
        let span = &mut self.spans[index as usize];
        span.allocs = alloc::counts().0 - allocs_before;
        span.start_ns = start.as_nanos() as u64;
        span.end_ns = end.as_nanos() as u64;
        self.open.pop();
        out
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Median duration in µs of the spans called `name`; 0 if the workload
    /// never entered that layer.
    pub fn median_us(&self, name: &str) -> f64 {
        let us: Vec<f64> = self.named(name).map(|s| s.ns() as f64 / 1e3).collect();
        if us.is_empty() {
            0.0
        } else {
            median(&us)
        }
    }

    /// Sum of the durations of the spans called `name`, in µs.
    pub fn total_us(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.ns() as f64 / 1e3).sum()
    }

    /// Mean allocations of the spans called `name`. A mean, not a median:
    /// counts are exact, and means of parts add up to the mean of the whole.
    pub fn mean_allocs(&self, name: &str) -> f64 {
        let (sum, n) = self
            .named(name)
            .fold((0, 0_u64), |(sum, n), s| (sum + s.allocs, n + 1));
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// Median self time in µs — duration minus the direct children's — of
    /// the spans called `name` that have children (`with_children`) or none.
    pub fn median_self_us(&self, name: &str, with_children: bool) -> f64 {
        let mut child_ns = vec![0_u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.ns();
            }
        }
        let us: Vec<f64> = self
            .spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, &c)| s.name == name && (c > 0) == with_children)
            .map(|(s, &c)| (s.ns() - c) as f64 / 1e3)
            .collect();
        if us.is_empty() {
            0.0
        } else {
            median(&us)
        }
    }

    /// Write every span to `path` as one JSON document.
    pub fn write_json(&self, workload: &str, path: &Path) -> std::io::Result<()> {
        let mut out = format!("{{\"workload\":\"{workload}\",\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"allocs\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns, s.allocs
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
