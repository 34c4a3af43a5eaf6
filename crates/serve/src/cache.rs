//! The optimization cache: a bounded LRU from canonical request keys to
//! pre-rendered response bodies.
//!
//! Saturation-based extraction is a pure function of `(canonicalized
//! pipeline, MachineParams, options)`, so the cache stores the fully
//! rendered `result` JSON object behind an [`Arc`] — a hit costs one
//! hash lookup and an `Arc` clone, never a re-render, and the bytes a
//! hit returns are the very bytes the cold path produced. Eviction is
//! least-recently-used over a fixed capacity; hit/miss/eviction counts
//! are exposed for the `stats` op and the load-generator gates.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotone counters describing cache behaviour since construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// The LRU bound.
    pub capacity: usize,
}

impl CacheStats {
    /// Hits over total lookups, `0.0` when nothing was looked up yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Inner {
    map: HashMap<String, (Arc<String>, u64)>,
    /// Monotone recency clock; the entry with the smallest stamp is the
    /// LRU victim. Wraps after 2^64 touches — never in practice.
    tick: u64,
}

/// A thread-safe bounded LRU cache of rendered response bodies.
pub struct Cache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Cache {
    /// An empty cache bounded to `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> Cache {
        Cache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look up `key`, computing the value with `f` on a miss.
    ///
    /// The compute runs *outside* the lock so distinct misses on
    /// different connections run in parallel instead of serializing on
    /// the cache.
    /// Two threads racing on the same key both compute; the loser's value
    /// is discarded (the function is pure, so the bytes are identical
    /// either way and callers cannot observe the race).
    pub fn get_or_insert_with(&self, key: &str, f: impl FnOnce() -> String) -> Arc<String> {
        {
            let mut inner = self.inner.lock().unwrap();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some((value, stamp)) = inner.map.get_mut(key) {
                *stamp = tick;
                let value = Arc::clone(value);
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return value;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = Arc::new(f());
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some((existing, stamp)) = inner.map.get_mut(key) {
            // Lost a race on the same key: keep the resident entry.
            *stamp = tick;
            return Arc::clone(existing);
        }
        if inner.map.len() >= self.capacity {
            // O(capacity) victim scan — misses cost milliseconds of
            // saturation, so a linear pass over ≤ capacity entries is
            // noise; no intrusive list needed.
            if let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner
            .map
            .insert(key.to_string(), (Arc::clone(&value), tick));
        value
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: inner.map.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_the_same_allocation() {
        let cache = Cache::new(4);
        let a = cache.get_or_insert_with("k", || "v".to_string());
        let b = cache.get_or_insert_with("k", || unreachable!("must hit"));
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.hit_rate(), 0.5);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = Cache::new(2);
        cache.get_or_insert_with("a", || "1".into());
        cache.get_or_insert_with("b", || "2".into());
        cache.get_or_insert_with("a", || unreachable!()); // touch a: b is now LRU
        cache.get_or_insert_with("c", || "3".into()); // evicts b
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
        cache.get_or_insert_with("a", || unreachable!("a stayed resident"));
        let mut recomputed = false;
        cache.get_or_insert_with("b", || {
            recomputed = true;
            "2".into()
        });
        assert!(recomputed, "b was evicted and recomputes");
    }

    #[test]
    fn capacity_is_at_least_one() {
        let cache = Cache::new(0);
        cache.get_or_insert_with("a", || "1".into());
        cache.get_or_insert_with("a", || unreachable!("even capacity 0 holds one entry"));
    }
}
