//! The paper's cost model as a deterministic per-rank clock.
//!
//! Section 4.1 of the paper: a virtual, fully connected machine where two
//! processors can exchange blocks of `m` words simultaneously in
//! `T_sendrecv = ts + m·tw` (bidirectional links), and one computation
//! operation costs one time unit.
//!
//! Every rank of the simulated machine carries a [`SimClock`]; every message
//! carries the sender's clock at the moment of sending. A receive completes
//! at `max(receiver_clock, sender_clock) + ts + m·tw` — a rendezvous under
//! the bidirectional-link assumption — and both sides of a blocking
//! exchange end up at that same instant. The resulting *makespan*
//! (maximum final clock over all ranks) is deterministic: it depends only
//! on the communication structure and the declared computation amounts,
//! never on OS scheduling. This is what lets `collopt repro` reproduce the
//! paper's Table 1 and Figures 7–8 exactly.

/// Deterministic straggler injection: every message completion is
/// stretched by a pseudo-random factor in `[1, 1 + amplitude]`, derived
/// by hashing `(seed, rank, message index)` — so a run's makespan is
/// still a pure function of its communication structure (reruns agree),
/// but the machine behaves like one with OS jitter and link-speed
/// variation. Used by the robustness tests to show the optimization
/// rules' wins survive noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterParams {
    /// Seed mixed into every stretch factor.
    pub seed: u64,
    /// Maximum relative slowdown (0.5 = up to 50% longer transfers).
    pub amplitude: f64,
}

impl JitterParams {
    /// The stretch factor for this rank's `nth` message.
    #[inline]
    pub fn stretch(&self, rank: usize, nth: u64) -> f64 {
        // SplitMix64 over the combined identity.
        let mut z = self
            .seed
            .wrapping_add(0x9e3779b97f4a7c15u64.wrapping_mul(rank as u64 + 1))
            .wrapping_add(nth.wrapping_mul(0xbf58476d1ce4e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
        1.0 + self.amplitude * unit
    }
}

/// Machine cost parameters: start-up time `ts` and per-word transfer time
/// `tw`, in units of one computation operation (the paper's convention).
/// Optionally deterministic [`JitterParams`] straggler injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockParams {
    /// Message start-up time (latency), in compute-op units.
    pub ts: f64,
    /// Per-word transfer time (inverse bandwidth), in compute-op units.
    pub tw: f64,
    /// Optional deterministic message-time jitter.
    pub jitter: Option<JitterParams>,
}

impl ClockParams {
    /// New parameter set. Both parameters must be non-negative.
    pub fn new(ts: f64, tw: f64) -> Self {
        assert!(ts >= 0.0 && tw >= 0.0, "ts and tw must be non-negative");
        ClockParams {
            ts,
            tw,
            jitter: None,
        }
    }

    /// A zero-cost clock: makespans become pure computation counts.
    pub fn free() -> Self {
        ClockParams {
            ts: 0.0,
            tw: 0.0,
            jitter: None,
        }
    }

    /// A "Parsytec-like" preset: a network with a high start-up cost
    /// relative to bandwidth, as in the paper's experiments (Section 5.2).
    /// The message start-up of mid-90s MPP networks was two orders of
    /// magnitude above the per-word cost, which is the regime where every
    /// fusion rule of Table 1 pays off for small blocks.
    pub fn parsytec_like() -> Self {
        ClockParams {
            ts: 200.0,
            tw: 2.0,
            jitter: None,
        }
    }

    /// A low-latency preset resembling shared-memory transport, where the
    /// `always`-rules still win but the conditional rules (SS2-Scan etc.)
    /// stop paying off beyond small blocks.
    pub fn low_latency() -> Self {
        ClockParams {
            ts: 4.0,
            tw: 0.5,
            jitter: None,
        }
    }

    /// Enable deterministic straggler injection (see [`JitterParams`]).
    pub fn with_jitter(mut self, seed: u64, amplitude: f64) -> Self {
        assert!(amplitude >= 0.0);
        self.jitter = Some(JitterParams { seed, amplitude });
        self
    }

    /// Transfer time for a message of `words` words: `ts + words·tw`.
    #[inline]
    pub fn transfer(&self, words: u64) -> f64 {
        self.ts + words as f64 * self.tw
    }
}

impl Default for ClockParams {
    fn default() -> Self {
        ClockParams::parsytec_like()
    }
}

/// A per-rank simulated clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimClock {
    now: f64,
    params: ClockParams,
    compute_ops: f64,
    messages: u64,
    words_sent: u64,
    retries: u64,
    retry_time: f64,
    rank: usize,
}

impl SimClock {
    /// A clock at time zero.
    pub fn new(params: ClockParams) -> Self {
        Self::new_for_rank(params, 0)
    }

    /// A clock at time zero, owned by `rank` (keys the jitter stream).
    pub fn new_for_rank(params: ClockParams, rank: usize) -> Self {
        SimClock {
            now: 0.0,
            params,
            compute_ops: 0.0,
            messages: 0,
            words_sent: 0,
            retries: 0,
            retry_time: 0.0,
            rank,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The cost parameters this clock charges with.
    #[inline]
    pub fn params(&self) -> ClockParams {
        self.params
    }

    /// Charge `ops` computation operations (1 unit each).
    #[inline]
    pub fn charge_compute(&mut self, ops: f64) {
        debug_assert!(ops >= 0.0);
        self.now += ops;
        self.compute_ops += ops;
    }

    /// Charge `ops` computation operations on a rank slowed by `scale`:
    /// the clock advances by `ops * scale` but the *logical* operation
    /// count stays `ops` (a straggler does the same work, slower). With
    /// `scale == 1.0` this is bit-identical to
    /// [`charge_compute`](Self::charge_compute).
    #[inline]
    pub fn charge_compute_scaled(&mut self, ops: f64, scale: f64) {
        debug_assert!(ops >= 0.0 && scale >= 0.0);
        self.now += ops * scale;
        self.compute_ops += ops;
    }

    /// Charge one failed transmission attempt: `wasted` time (the dropped
    /// transfer plus the ack timeout) passes on this clock, and the retry
    /// counters record it. Returns the new time. Retry time is accounted
    /// separately from [`messages`](Self::messages) /
    /// [`words`](Self::words) so `retry_time` is *exactly* the fault
    /// overhead a lossy-but-recovered run pays.
    #[inline]
    pub fn charge_retry(&mut self, wasted: f64) -> f64 {
        debug_assert!(wasted >= 0.0);
        self.now += wasted;
        self.retries += 1;
        self.retry_time += wasted;
        self.now
    }

    /// Record the completion of a message exchange of `words` words whose
    /// peer clock read `peer_time` when it entered the exchange: both sides
    /// rendezvous and pay `ts + words·tw`.
    ///
    /// Returns the completion time the clock advanced to.
    #[inline]
    pub fn complete_exchange(&mut self, peer_time: f64, words: u64) -> f64 {
        let cost = self.params.transfer(words);
        self.complete_exchange_costing(peer_time, words, cost)
    }

    /// [`complete_exchange`](Self::complete_exchange) with an explicit
    /// transfer cost (used by the machine for fault-inflated links).
    /// Applies the configured jitter stretch, keyed by this rank's
    /// message counter so reruns reproduce the same noise.
    #[inline]
    pub fn complete_exchange_costing(&mut self, peer_time: f64, words: u64, cost: f64) -> f64 {
        self.complete_exchange_spanning(peer_time, words, cost).1
    }

    /// [`complete_exchange_costing`](Self::complete_exchange_costing), but
    /// also returning the *rendezvous start* `max(own clock, peer_time)` —
    /// the span a trace records so the critical-path pass can tell transfer
    /// time apart from the waiting that preceded it.
    #[inline]
    pub fn complete_exchange_spanning(
        &mut self,
        peer_time: f64,
        words: u64,
        cost: f64,
    ) -> (f64, f64) {
        let cost = match &self.params.jitter {
            Some(j) => cost * j.stretch(self.rank, self.messages),
            None => cost,
        };
        let start = self.now.max(peer_time);
        self.now = start + cost;
        self.messages += 1;
        self.words_sent += words;
        (start, self.now)
    }

    /// Synchronize with an absolute time (used by barriers): the clock
    /// jumps forward to `t` if it is behind, never backward.
    #[inline]
    pub fn sync_to(&mut self, t: f64) {
        if t > self.now {
            self.now = t;
        }
    }

    /// Total computation operations charged so far.
    pub fn compute_ops(&self) -> f64 {
        self.compute_ops
    }

    /// Number of message exchanges this rank participated in.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Total words this rank moved through exchanges.
    pub fn words(&self) -> u64 {
        self.words_sent
    }

    /// Number of failed transmission attempts this rank retried.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Total simulated time lost to failed attempts (wasted transfers
    /// plus ack timeouts).
    pub fn retry_time(&self) -> f64 {
        self.retry_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_is_affine_in_words() {
        let p = ClockParams::new(100.0, 2.0);
        assert_eq!(p.transfer(0), 100.0);
        assert_eq!(p.transfer(1), 102.0);
        assert_eq!(p.transfer(32), 164.0);
    }

    #[test]
    fn compute_accumulates() {
        let mut c = SimClock::new(ClockParams::free());
        c.charge_compute(5.0);
        c.charge_compute(2.5);
        assert_eq!(c.now(), 7.5);
        assert_eq!(c.compute_ops(), 7.5);
    }

    #[test]
    fn exchange_rendezvous_takes_max_of_clocks() {
        let params = ClockParams::new(10.0, 1.0);
        let mut a = SimClock::new(params);
        let mut b = SimClock::new(params);
        a.charge_compute(100.0); // a is ahead
                                 // b exchanges with a: completes at max(0, 100) + 10 + 5*1 = 115.
        let t_b = b.complete_exchange(a.now(), 5);
        assert_eq!(t_b, 115.0);
        // a exchanges with b's pre-exchange time 0: max(100,0)+15 = 115.
        let t_a = a.complete_exchange(0.0, 5);
        assert_eq!(t_a, 115.0);
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn spanning_exchange_reports_rendezvous_start() {
        let mut c = SimClock::new(ClockParams::new(10.0, 1.0));
        c.charge_compute(20.0);
        // Peer ahead: the span starts at the peer's clock.
        let (s, e) = c.complete_exchange_spanning(100.0, 5, 15.0);
        assert_eq!((s, e), (100.0, 115.0));
        // Peer behind: the span starts at our own clock.
        let (s, e) = c.complete_exchange_spanning(0.0, 5, 15.0);
        assert_eq!((s, e), (115.0, 130.0));
    }

    #[test]
    fn sync_never_moves_backward() {
        let mut c = SimClock::new(ClockParams::free());
        c.charge_compute(50.0);
        c.sync_to(20.0);
        assert_eq!(c.now(), 50.0);
        c.sync_to(80.0);
        assert_eq!(c.now(), 80.0);
    }

    #[test]
    fn scaled_compute_at_unit_factor_is_bit_identical() {
        let mut plain = SimClock::new(ClockParams::free());
        let mut scaled = SimClock::new(ClockParams::free());
        for ops in [0.1, 3.7, 1e-9, 1234.5] {
            plain.charge_compute(ops);
            scaled.charge_compute_scaled(ops, 1.0);
        }
        assert_eq!(plain.now().to_bits(), scaled.now().to_bits());
        assert_eq!(plain.compute_ops(), scaled.compute_ops());
    }

    #[test]
    fn scaled_compute_slows_the_clock_not_the_op_count() {
        let mut c = SimClock::new(ClockParams::free());
        c.charge_compute_scaled(10.0, 3.0);
        assert_eq!(c.now(), 30.0);
        assert_eq!(c.compute_ops(), 10.0);
    }

    #[test]
    fn retry_charges_accumulate_separately() {
        let mut c = SimClock::new(ClockParams::new(10.0, 1.0));
        assert_eq!(c.retries(), 0);
        assert_eq!(c.retry_time(), 0.0);
        c.charge_retry(25.0);
        c.charge_retry(25.0);
        assert_eq!(c.now(), 50.0);
        assert_eq!(c.retries(), 2);
        assert_eq!(c.retry_time(), 50.0);
        // Retries are not message exchanges.
        assert_eq!(c.messages(), 0);
        assert_eq!(c.words(), 0);
    }

    #[test]
    fn stats_are_tracked() {
        let mut c = SimClock::new(ClockParams::new(1.0, 1.0));
        c.complete_exchange(0.0, 10);
        c.complete_exchange(0.0, 20);
        assert_eq!(c.messages(), 2);
        assert_eq!(c.words(), 30);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_ts_rejected() {
        let _ = ClockParams::new(-1.0, 0.0);
    }

    #[test]
    fn presets_are_sane() {
        let p = ClockParams::parsytec_like();
        assert!(
            p.ts > 10.0 * p.tw,
            "parsytec preset must be latency-dominated"
        );
        let l = ClockParams::low_latency();
        assert!(l.ts < p.ts);
        let f = ClockParams::free();
        assert_eq!(f.transfer(1_000_000), 0.0);
    }
}
