//! The clock-aware barrier, split into a pure synchronization algebra and
//! a thin thread-blocking adapter.
//!
//! [`BarrierAlgebra`] is the whole barrier protocol — arrival counting,
//! generation tracking, the monotonic running maximum of entry times, and
//! first-error-wins aborts — as plain non-blocking state transitions. It
//! never parks a thread, never spins, and never touches a lock, which is
//! what lets the discrete-event engine ([`crate::des`]) drive thousands of
//! virtual ranks through barriers on a single thread: the scheduler calls
//! [`arrive`](BarrierAlgebra::arrive)/[`check`](BarrierAlgebra::check)
//! directly and turns `Parked` into an event-queue suspension.
//!
//! [`ClockBarrier`] wraps the algebra in a `Mutex` + `Condvar` for the
//! thread-per-rank engine. Its observable behaviour (release times, abort
//! errors, generation handling) is byte-identical to the pre-split
//! implementation: `wait` is exactly `arrive` + condvar-loop-on-`check`.

use std::sync::{Condvar, Mutex};

use crate::error::MachineError;

/// What [`BarrierAlgebra::arrive`] decided for the arriving rank.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Arrival {
    /// This rank was the last to arrive: the barrier released at the
    /// contained global-maximum entry time. The caller must wake the
    /// parked ranks (they observe the release through
    /// [`check`](BarrierAlgebra::check)).
    Released(f64),
    /// Not everyone is here yet. The rank must suspend and poll
    /// [`check`](BarrierAlgebra::check) with this generation token after
    /// each wake-up.
    Parked {
        /// The generation the rank arrived in; the barrier has released
        /// when the algebra's generation moves past it.
        generation: u64,
    },
}

/// The barrier protocol as pure state: no threads, no locks, no parking.
/// All ranks leave with the maximum entry time ever seen. The running
/// maximum is monotonic (clocks never move backward), so it never needs
/// resetting between rounds; the release time is snapshotted per
/// generation so a fast rank's *next* barrier entry is never observed
/// early. When a rank dies the barrier is *aborted*: every current and
/// future arrival observes the first abort error instead of blocking on
/// an arrival that will never come.
pub(crate) struct BarrierAlgebra {
    p: usize,
    arrived: usize,
    generation: u64,
    /// Running max over all entry times ever seen (monotonic).
    max_time: f64,
    /// The max_time snapshot at the last release.
    release_time: f64,
    aborted: Option<MachineError>,
}

impl BarrierAlgebra {
    pub(crate) fn new(p: usize) -> Self {
        BarrierAlgebra {
            p,
            arrived: 0,
            generation: 0,
            max_time: 0.0,
            release_time: 0.0,
            aborted: None,
        }
    }

    /// A rank enters the barrier at local time `t`.
    pub(crate) fn arrive(&mut self, t: f64) -> Result<Arrival, MachineError> {
        if let Some(e) = &self.aborted {
            return Err(e.clone());
        }
        if t > self.max_time {
            self.max_time = t;
        }
        self.arrived += 1;
        if self.arrived == self.p {
            self.arrived = 0;
            self.generation += 1;
            self.release_time = self.max_time;
            Ok(Arrival::Released(self.release_time))
        } else {
            Ok(Arrival::Parked {
                generation: self.generation,
            })
        }
    }

    /// Has the generation a rank parked in released (or aborted)?
    /// `None` means still waiting. The next generation cannot complete
    /// (and overwrite `release_time`) until every parked rank re-enters,
    /// so a `Some(Ok(t))` snapshot is always the parked rank's own.
    pub(crate) fn check(&self, generation: u64) -> Option<Result<f64, MachineError>> {
        if let Some(e) = &self.aborted {
            return Some(Err(e.clone()));
        }
        if self.generation != generation {
            return Some(Ok(self.release_time));
        }
        None
    }

    /// Abort the barrier: the first error wins; every subsequent `arrive`
    /// or `check` observes it.
    pub(crate) fn abort(&mut self, err: MachineError) {
        if self.aborted.is_none() {
            self.aborted = Some(err);
        }
    }
}

/// Clock-aware barrier for the thread-per-rank engine: the algebra under
/// a mutex, with a condvar to park not-yet-released ranks.
pub(crate) struct ClockBarrier {
    state: Mutex<BarrierAlgebra>,
    cv: Condvar,
}

impl ClockBarrier {
    pub(crate) fn new(p: usize) -> Self {
        ClockBarrier {
            state: Mutex::new(BarrierAlgebra::new(p)),
            cv: Condvar::new(),
        }
    }

    /// Enter the barrier at local time `t`; returns the global maximum
    /// entry time, or the abort error if any rank died.
    pub(crate) fn wait(&self, t: f64) -> Result<f64, MachineError> {
        let mut s = self.state.lock().expect("barrier lock poisoned");
        match s.arrive(t)? {
            Arrival::Released(out) => {
                drop(s);
                self.cv.notify_all();
                Ok(out)
            }
            Arrival::Parked { generation } => loop {
                s = self.cv.wait(s).expect("barrier lock poisoned");
                if let Some(result) = s.check(generation) {
                    return result;
                }
            },
        }
    }

    /// Abort the barrier: the first error wins; every waiter wakes with it.
    pub(crate) fn abort(&self, err: MachineError) {
        let mut s = self.state.lock().expect("barrier lock poisoned");
        s.abort(err);
        drop(s);
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The satellite guarantee: a full barrier round can be driven to
    /// completion by a single thread making non-blocking calls — no
    /// parking, no condvar, no spinning. This is the contract the DES
    /// scheduler builds on.
    #[test]
    fn algebra_completes_a_round_without_any_thread_parking() {
        let mut b = BarrierAlgebra::new(3);
        let a0 = b.arrive(5.0).unwrap();
        let a1 = b.arrive(11.0).unwrap();
        let (g0, g1) = match (a0, a1) {
            (Arrival::Parked { generation: g0 }, Arrival::Parked { generation: g1 }) => (g0, g1),
            other => panic!("early arrivals must park: {other:?}"),
        };
        // Parked ranks see nothing until the last arrival.
        assert_eq!(b.check(g0), None);
        assert_eq!(b.check(g1), None);
        let a2 = b.arrive(7.0).unwrap();
        assert_eq!(a2, Arrival::Released(11.0));
        // Both parked ranks now observe the release time.
        assert_eq!(b.check(g0), Some(Ok(11.0)));
        assert_eq!(b.check(g1), Some(Ok(11.0)));
    }

    #[test]
    fn release_time_is_monotonic_across_generations() {
        let mut b = BarrierAlgebra::new(2);
        assert_eq!(b.arrive(3.0).unwrap(), Arrival::Parked { generation: 0 });
        assert_eq!(b.arrive(9.0).unwrap(), Arrival::Released(9.0));
        // Second round with *lower* entry times still releases at the
        // running maximum — clocks never move backward.
        assert_eq!(b.arrive(1.0).unwrap(), Arrival::Parked { generation: 1 });
        assert_eq!(b.arrive(2.0).unwrap(), Arrival::Released(9.0));
    }

    #[test]
    fn abort_is_first_error_wins_and_observed_by_parked_and_future_ranks() {
        let mut b = BarrierAlgebra::new(3);
        let Arrival::Parked { generation } = b.arrive(1.0).unwrap() else {
            panic!("must park");
        };
        b.abort(MachineError::RankFailed { rank: 2 });
        b.abort(MachineError::RankFailed { rank: 0 });
        assert_eq!(
            b.check(generation),
            Some(Err(MachineError::RankFailed { rank: 2 }))
        );
        assert_eq!(b.arrive(4.0), Err(MachineError::RankFailed { rank: 2 }));
    }

    #[test]
    fn single_rank_barrier_releases_immediately() {
        let mut b = BarrierAlgebra::new(1);
        assert_eq!(b.arrive(0.0).unwrap(), Arrival::Released(0.0));
        assert_eq!(b.arrive(4.5).unwrap(), Arrival::Released(4.5));
    }

    #[test]
    fn blocking_wrapper_matches_algebra_release_times() {
        let barrier = std::sync::Arc::new(ClockBarrier::new(4));
        let times = [3.0f64, 42.0, 17.0, 8.0];
        let mut handles = Vec::new();
        for &t in &times[1..] {
            let b = barrier.clone();
            handles.push(std::thread::spawn(move || b.wait(t).unwrap()));
        }
        let own = barrier.wait(times[0]).unwrap();
        assert_eq!(own, 42.0);
        for h in handles {
            assert_eq!(h.join().unwrap(), 42.0);
        }
    }
}
