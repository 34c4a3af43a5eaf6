//! The host's clock speed, read between ops.
//!
//! Each vCPU of the shared sandbox runs the same instructions at one of a
//! few speeds — here 0.82 × the usual time for 0.1 s to seconds at a
//! stretch — and every kind of code changes by the same factor (README,
//! "Why this estimator"). A fixed register-only loop measures that factor
//! and nothing else: it touches no memory, so neither the program under
//! test nor a neighbour's cache traffic moves it, and it calls nothing in
//! the repository. A measured duration multiplied by [`Clock::scale`] is
//! the duration *at reference clock speed*.

use std::hint::black_box;
use std::time::Instant;

/// The spin on this sandbox at its usual speed. It fixes the unit of every
/// reported time; changing it rescales them all.
const REFERENCE_SPIN_S: f64 = 7.31e-6;
const SPIN_STEPS: u32 = 4000;
/// A reading is this fresh at most when an op is scaled by it.
const READ_EVERY_S: f64 = 0.002;

pub struct Clock {
    read_at: Instant,
    state: u64,
    /// The last three readings. An interrupt can only lengthen a spin, so
    /// the shortest of them is the speed.
    recent: [f64; 3],
}

impl Clock {
    pub fn new() -> Clock {
        let mut clock = Clock {
            read_at: Instant::now(),
            state: 88_172_645_463_325_252,
            recent: [f64::INFINITY; 3],
        };
        for _ in 0..clock.recent.len() {
            clock.read();
        }
        clock
    }

    fn read(&mut self) {
        let started = Instant::now();
        let mut x = self.state;
        for _ in 0..SPIN_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        self.state = black_box(x);
        self.read_at = Instant::now();
        self.recent.rotate_left(1);
        self.recent[2] = (self.read_at - started).as_secs_f64();
    }

    /// Call between ops: reads the speed again once the last reading is
    /// `READ_EVERY_S` old (≈ 0.4 % of the time).
    pub fn tick(&mut self) {
        if self.read_at.elapsed().as_secs_f64() >= READ_EVERY_S {
            self.read();
        }
    }

    /// What a duration measured just now is multiplied by to give the
    /// duration at reference clock speed.
    pub fn scale(&self) -> f64 {
        REFERENCE_SPIN_S / self.recent.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stale_reading_is_taken_again() {
        let mut clock = Clock::new();
        assert!(clock.scale().is_finite() && clock.scale() > 0.0);
        let read_at = clock.read_at;
        std::thread::sleep(std::time::Duration::from_secs_f64(READ_EVERY_S));
        clock.tick();
        assert!(clock.read_at > read_at);
    }
}
