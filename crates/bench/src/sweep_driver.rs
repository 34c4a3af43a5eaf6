//! Run-level parallel sweep driver.
//!
//! Chaos sweeps, fuzz campaigns, server batches and the heavy property
//! suites all share one shape: a list of *independent* simulation points (seeds,
//! rules, parameter combinations), each of which runs a handful of
//! simulated-machine executions and yields a result that does not depend
//! on any other point. [`par_map`] fans such a list out across host
//! cores while keeping the output **deterministic**: the work list is
//! partitioned by index (point `i`'s result lands in slot `i` no matter
//! which worker ran it), every simulation is internally deterministic
//! (the simulated clock travels with the data), and the collected vector
//! is returned in input order. A parallel sweep therefore produces the
//! byte-identical result of the serial loop it replaces.
//!
//! Worker count comes from [`default_workers`]: the `SWEEP_WORKERS`
//! environment variable when set, else the host's available parallelism.
//! `SWEEP_WORKERS=1` forces the plain serial loop (no threads spawned),
//! which is also used automatically for trivial work lists.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count for sweeps: `SWEEP_WORKERS` env override (minimum 1),
/// else the host's available parallelism.
pub fn default_workers() -> usize {
    if let Ok(v) = std::env::var("SWEEP_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Apply `f` to every item, fanning out across up to
/// [`default_workers`] host threads; results come back in input order.
pub fn par_map<T, R>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R>
where
    T: Send,
    R: Send,
{
    par_map_with(items, default_workers(), f)
}

/// [`par_map`] with an explicit worker count. `workers = 1` (or a work
/// list of at most one item) degenerates to the serial loop.
pub fn par_map_with<T, R>(items: Vec<T>, workers: usize, f: impl Fn(T) -> R + Sync) -> Vec<R>
where
    T: Send,
    R: Send,
{
    let n = items.len();
    let workers = workers.max(1).min(n.max(1));
    if workers == 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Index-addressed cells: worker-agnostic slot assignment keeps the
    // output order (and therefore every downstream artifact) identical
    // to the serial loop's.
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let f = &f;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let item = work[i]
                    .lock()
                    .expect("work cell poisoned")
                    .take()
                    .expect("work item taken twice");
                let r = f(item);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            }));
        }
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("worker finished without a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map_with(items, 4, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial() {
        let work = |i: u64| i.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(17);
        let items: Vec<u64> = (0..57).collect();
        let serial = par_map_with(items.clone(), 1, work);
        let parallel = par_map_with(items, 5, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single_item_lists_work() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_with(empty, 8, |x| x).is_empty());
        assert_eq!(par_map_with(vec![9], 8, |x| x + 1), vec![10]);
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            par_map_with((0..16).collect::<Vec<_>>(), 4, |i| {
                if i == 7 {
                    panic!("bad point");
                }
                i
            })
        });
        assert!(caught.is_err());
    }
}
