//! Deterministic fault injection for the simulated machine.
//!
//! The paper's cost claims assume a fault-free, uniform machine. Real
//! platforms have stragglers, slow links, dropped packets and node
//! failures — and the interesting question is whether the optimization
//! rules' wins *survive* that adversity. This module makes the question
//! testable: a [`FaultPlan`] is a seeded, fully declarative description of
//! every fault a run will experience, and a [`FaultInjector`] (one per
//! rank, owned by the machine's `Ctx`) replays it deterministically.
//!
//! Three fault families:
//!
//! * **Delay faults** (non-lossy): per-rank compute slowdown factors
//!   ([`RankSlowdown`]) and per-link latency inflation ([`LinkSlowdown`]).
//!   These change only *when* things happen, never *what* happens — a run
//!   under a delay-only plan produces bit-identical results with a
//!   boundedly larger makespan.
//! * **Message drops** (lossy but recovered): individual transmissions are
//!   dropped, either pseudo-randomly ([`DropParams`], hash-keyed on
//!   `(seed, from, to, nth message)`) or surgically ([`DropExact`]). The
//!   sender recovers with an ack/retry protocol: each failed attempt costs
//!   the full transfer plus [`RetryParams::timeout`] before the
//!   retransmission, bounded by [`RetryParams::max_attempts`]. Because the
//!   retry is simulated entirely on the sender's clock before the packet
//!   enters the network, delivery order and payloads are untouched —
//!   results stay bit-identical, and the overhead is *exactly* the summed
//!   retry time the clock accounts.
//! * **Crashes** (unrecoverable): [`CrashSpec`] kills one rank just before
//!   its `after_ops`-th context operation. The crashed rank aborts, its
//!   channels disconnect, and every peer that depends on it surfaces
//!   [`MachineError::RankFailed`](crate::MachineError::RankFailed) —
//!   cleanly, with no hang and no panic escaping
//!   [`Machine::try_run_des`](crate::Machine::try_run_des).
//!
//! Determinism is the load-bearing property: the same `(seed, plan)` pair
//! replays the same faults, attempt-for-attempt, so any chaos-test failure
//! is reproducible from the one-line spec string of
//! [`FaultPlan::describe`] / [`FaultPlan::parse`].
//!
//! A plan also carries the event scheduler's step order
//! ([`FaultPlan::order`]). It injects no fault: it permutes the order in
//! which runnable ranks step, which no observable may depend on — the
//! property the permuted-order tests check.

use std::fmt::Write as _;

/// One rank computing slower than the rest (a straggler).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankSlowdown {
    /// The straggling rank.
    pub rank: usize,
    /// Multiplier on every compute charge (`>= 1.0` slows, `1.0` is inert).
    pub factor: f64,
}

/// One link slower than the rest. Links are *undirected*: a slowdown on
/// `{a, b}` applies to messages in both directions, which keeps the
/// rendezvous cost of a bidirectional `exchange` symmetric (both partners
/// must agree on the transfer cost for their clocks to meet).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSlowdown {
    /// One endpoint.
    pub a: usize,
    /// The other endpoint.
    pub b: usize,
    /// Multiplier on the transfer cost (`1.0` is inert).
    pub factor: f64,
    /// Additive latency on top (time units; `0.0` is inert).
    pub add: f64,
}

impl LinkSlowdown {
    /// Does this entry cover the (unordered) link between `x` and `y`?
    #[inline]
    pub fn covers(&self, x: usize, y: usize) -> bool {
        (self.a == x && self.b == y) || (self.a == y && self.b == x)
    }
}

/// Pseudo-random message drops: each transmission attempt is dropped with
/// probability `prob`, decided by hashing `(seed, from, to, nth, attempt)`
/// — deterministic per plan, independent of wall-clock scheduling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DropParams {
    /// Per-attempt drop probability in `[0, 1)`.
    pub prob: f64,
    /// Cap on consecutive drops of one message, so random plans can be
    /// kept recoverable by construction (`max_consecutive <
    /// max_attempts` guarantees the retry protocol eventually wins).
    pub max_consecutive: u32,
}

/// Surgical drop: the `nth` message from `from` to `to` is dropped
/// `count` times before getting through. `count >= max_attempts` forces a
/// [`Timeout`](crate::MachineError::Timeout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropExact {
    /// Sending rank.
    pub from: usize,
    /// Destination rank.
    pub to: usize,
    /// Zero-based index of the message on the directed `from -> to` lane.
    pub nth: u64,
    /// How many consecutive attempts are dropped.
    pub count: u32,
}

/// Crash one rank just before its `after_ops`-th context operation
/// (charges, sends, receives, exchanges and barriers all count as one
/// operation; `after_ops = 0` crashes before the rank does anything).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    /// The rank that dies.
    pub rank: usize,
    /// Event ordinal at which it dies.
    pub after_ops: u64,
}

/// The sender-side ack/retry protocol parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryParams {
    /// Total transmission attempts before the sender gives up with a
    /// [`Timeout`](crate::MachineError::Timeout). Must be `>= 1`.
    pub max_attempts: u32,
    /// Extra time the sender waits for the missing ack before each
    /// retransmission (on top of the wasted transfer itself).
    pub timeout: f64,
}

impl Default for RetryParams {
    fn default() -> Self {
        RetryParams {
            max_attempts: 4,
            timeout: 100.0,
        }
    }
}

/// A complete, seeded description of every fault a run will experience.
///
/// Construct with [`FaultPlan::new`] and the `with_*` builders, or parse a
/// one-line spec string with [`FaultPlan::parse`] (the inverse of
/// [`FaultPlan::describe`] — chaos-test failures print these so any case
/// reproduces from its log line).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for every pseudo-random decision the plan makes.
    pub seed: u64,
    /// Straggler ranks.
    pub compute: Vec<RankSlowdown>,
    /// Slow links (undirected pairs).
    pub links: Vec<LinkSlowdown>,
    /// Pseudo-random message drops (applies to every directed lane).
    pub drop: Option<DropParams>,
    /// Surgical message drops.
    pub drop_exact: Vec<DropExact>,
    /// At most one crash per plan.
    pub crash: Option<CrashSpec>,
    /// Retry protocol parameters.
    pub retry: RetryParams,
    /// Step order of the event scheduler: ranks enter its run queue — all
    /// of them at the start, then the ranks each step wakes — in order of
    /// `rank ^ order`, so `0` (the default) is rank order and the low
    /// `⌈log₂ p⌉` bits pick the permutation.
    pub order: u64,
}

impl FaultPlan {
    /// An empty (identity) plan with the given seed: injects nothing and
    /// is observationally inert — runs under it are byte-identical to
    /// plain runs.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Slow rank `rank`'s computation by `factor`.
    pub fn with_straggler(mut self, rank: usize, factor: f64) -> Self {
        assert!(factor >= 0.0, "slowdown factor must be non-negative");
        self.compute.push(RankSlowdown { rank, factor });
        self
    }

    /// Slow the undirected link `{a, b}` by `factor` with `add` extra
    /// latency.
    pub fn with_slow_link(mut self, a: usize, b: usize, factor: f64, add: f64) -> Self {
        assert!(factor >= 0.0 && add >= 0.0);
        self.links.push(LinkSlowdown { a, b, factor, add });
        self
    }

    /// Drop every transmission attempt with probability `prob`, at most
    /// `max_consecutive` times in a row per message.
    pub fn with_drops(mut self, prob: f64, max_consecutive: u32) -> Self {
        assert!((0.0..1.0).contains(&prob), "drop probability in [0,1)");
        self.drop = Some(DropParams {
            prob,
            max_consecutive,
        });
        self
    }

    /// Drop the `nth` message from `from` to `to` exactly `count` times.
    pub fn with_drop_exact(mut self, from: usize, to: usize, nth: u64, count: u32) -> Self {
        self.drop_exact.push(DropExact {
            from,
            to,
            nth,
            count,
        });
        self
    }

    /// Crash `rank` just before its `after_ops`-th context operation.
    pub fn with_crash(mut self, rank: usize, after_ops: u64) -> Self {
        self.crash = Some(CrashSpec { rank, after_ops });
        self
    }

    /// Queue runnable ranks in order of `rank ^ order` instead of rank
    /// order.
    pub fn with_order(mut self, order: u64) -> Self {
        self.order = order;
        self
    }

    /// Override the retry protocol parameters.
    pub fn with_retry(mut self, max_attempts: u32, timeout: f64) -> Self {
        assert!(max_attempts >= 1, "at least one attempt");
        assert!(timeout >= 0.0);
        self.retry = RetryParams {
            max_attempts,
            timeout,
        };
        self
    }

    /// Does this plan change nothing at all — no fault and the canonical
    /// step order?
    pub fn is_empty(&self) -> bool {
        self.order == 0
            && self.compute.is_empty()
            && self.links.is_empty()
            && self.drop.is_none()
            && self.drop_exact.is_empty()
            && self.crash.is_none()
    }

    /// Can this plan lose messages (drops configured)?
    pub fn is_lossy(&self) -> bool {
        self.drop.is_some() || !self.drop_exact.is_empty()
    }

    /// Is every injected fault survivable by the retry protocol — i.e.
    /// is a run under this plan guaranteed to complete (bit-identically
    /// to a clean run)? True when no rank crashes and every drop source
    /// is bounded strictly below the retry budget, so each message is
    /// eventually delivered. Differential harnesses use this to decide
    /// whether to compare completed outcomes or surfaced errors.
    pub fn is_recoverable(&self) -> bool {
        self.crash.is_none()
            && self
                .drop
                .as_ref()
                .is_none_or(|d| d.max_consecutive < self.retry.max_attempts)
            && self
                .drop_exact
                .iter()
                .all(|d| d.count < self.retry.max_attempts)
    }

    /// The largest compute slowdown factor anywhere in the plan (`>= 1`).
    /// Together with [`max_link_factor`](Self::max_link_factor) and
    /// [`max_link_add`](Self::max_link_add) this bounds a delay-only run:
    /// every critical-path segment is stretched at most `max(F_compute,
    /// F_link)`-fold plus `add` per message, so
    /// `makespan <= F_max * clean + A_max * total_messages`.
    pub fn max_compute_factor(&self) -> f64 {
        self.compute.iter().fold(1.0, |m, s| m.max(s.factor))
    }

    /// The largest link slowdown factor (`>= 1`).
    pub fn max_link_factor(&self) -> f64 {
        self.links.iter().fold(1.0, |m, l| m.max(l.factor))
    }

    /// The largest additive link latency (`>= 0`).
    pub fn max_link_add(&self) -> f64 {
        self.links.iter().fold(0.0, |m, l| m.max(l.add))
    }

    /// Render as a one-line spec string, parseable by
    /// [`parse`](Self::parse). This is the reproduction handle chaos-test
    /// failures print.
    pub fn describe(&self) -> String {
        let mut out = format!("seed={}", self.seed);
        for s in &self.compute {
            let _ = write!(out, ",straggler={}x{}", s.rank, s.factor);
        }
        for l in &self.links {
            let _ = write!(out, ",link={}-{}x{}", l.a, l.b, l.factor);
            if l.add != 0.0 {
                let _ = write!(out, "+{}", l.add);
            }
        }
        if let Some(d) = &self.drop {
            let _ = write!(out, ",drop={}/{}", d.prob, d.max_consecutive);
        }
        for d in &self.drop_exact {
            let _ = write!(out, ",dropat={}>{}@{}x{}", d.from, d.to, d.nth, d.count);
        }
        if let Some(c) = &self.crash {
            let _ = write!(out, ",crash={}@{}", c.rank, c.after_ops);
        }
        if self.retry != RetryParams::default() {
            let _ = write!(
                out,
                ",attempts={},timeout={}",
                self.retry.max_attempts, self.retry.timeout
            );
        }
        if self.order != 0 {
            let _ = write!(out, ",order={}", self.order);
        }
        out
    }

    /// Parse a spec string produced by [`describe`](Self::describe) (also
    /// the `--faults` CLI syntax). Comma-separated `key=value` entries:
    ///
    /// ```text
    /// seed=42,straggler=3x2.5,link=0-1x2+50,drop=0.05/3,
    /// dropat=0>1@3x2,crash=2@7,attempts=5,timeout=300,order=5
    /// ```
    ///
    /// `straggler`, `link` and `dropat` may repeat. Unknown keys or
    /// malformed values are an `Err` naming the offending entry.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(',').filter(|s| !s.trim().is_empty()) {
            let entry = entry.trim();
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault spec entry {entry:?} is not key=value"))?;
            let bad = |what: &str| format!("fault spec entry {entry:?}: bad {what}");
            match key {
                "seed" => plan.seed = value.parse().map_err(|_| bad("seed"))?,
                "straggler" => {
                    let (rank, factor) = value.split_once('x').ok_or_else(|| bad("straggler"))?;
                    plan.compute.push(RankSlowdown {
                        rank: rank.parse().map_err(|_| bad("rank"))?,
                        factor: factor.parse().map_err(|_| bad("factor"))?,
                    });
                }
                "link" => {
                    let (pair, rest) = value.split_once('x').ok_or_else(|| bad("link"))?;
                    let (a, b) = pair.split_once('-').ok_or_else(|| bad("link pair"))?;
                    let (factor, add) = match rest.split_once('+') {
                        Some((f, a)) => (
                            f.parse().map_err(|_| bad("factor"))?,
                            a.parse().map_err(|_| bad("add"))?,
                        ),
                        None => (rest.parse().map_err(|_| bad("factor"))?, 0.0),
                    };
                    plan.links.push(LinkSlowdown {
                        a: a.parse().map_err(|_| bad("rank"))?,
                        b: b.parse().map_err(|_| bad("rank"))?,
                        factor,
                        add,
                    });
                }
                "drop" => {
                    let (prob, cap) = value.split_once('/').ok_or_else(|| bad("drop"))?;
                    plan.drop = Some(DropParams {
                        prob: prob.parse().map_err(|_| bad("probability"))?,
                        max_consecutive: cap.parse().map_err(|_| bad("cap"))?,
                    });
                }
                "dropat" => {
                    let (from, rest) = value.split_once('>').ok_or_else(|| bad("dropat"))?;
                    let (to, rest) = rest.split_once('@').ok_or_else(|| bad("dropat"))?;
                    let (nth, count) = match rest.split_once('x') {
                        Some((n, c)) => (
                            n.parse().map_err(|_| bad("nth"))?,
                            c.parse().map_err(|_| bad("count"))?,
                        ),
                        None => (rest.parse().map_err(|_| bad("nth"))?, 1),
                    };
                    plan.drop_exact.push(DropExact {
                        from: from.parse().map_err(|_| bad("rank"))?,
                        to: to.parse().map_err(|_| bad("rank"))?,
                        nth,
                        count,
                    });
                }
                "crash" => {
                    let (rank, ops) = value.split_once('@').ok_or_else(|| bad("crash"))?;
                    plan.crash = Some(CrashSpec {
                        rank: rank.parse().map_err(|_| bad("rank"))?,
                        after_ops: ops.parse().map_err(|_| bad("ordinal"))?,
                    });
                }
                "attempts" => {
                    plan.retry.max_attempts = value.parse().map_err(|_| bad("attempts"))?
                }
                "timeout" => plan.retry.timeout = value.parse().map_err(|_| bad("timeout"))?,
                "order" => plan.order = value.parse().map_err(|_| bad("order"))?,
                other => return Err(format!("unknown fault spec key {other:?}")),
            }
        }
        Ok(plan)
    }
}

/// SplitMix64 over the combined drop identity — the same generator family
/// the jitter stream uses, keyed so that every `(from, to, nth, attempt)`
/// tuple gets an independent uniform draw.
#[inline]
fn drop_unit(seed: u64, from: usize, to: usize, nth: u64, attempt: u32) -> f64 {
    let mut z = seed
        .wrapping_add(0x9e3779b97f4a7c15u64.wrapping_mul(from as u64 + 1))
        .wrapping_add(0xd1b54a32d192ed03u64.wrapping_mul(to as u64 + 1))
        .wrapping_add(nth.wrapping_mul(0xbf58476d1ce4e5b9))
        .wrapping_add((attempt as u64).wrapping_mul(0x94d049bb133111eb));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Per-rank replay state for one [`FaultPlan`]: the machine creates one
/// per rank and consults it on every context operation. All state is a
/// pure function of the plan and this rank's own operation sequence, so
/// replay is deterministic regardless of the scheduler's step order.
#[derive(Debug)]
pub struct FaultInjector {
    plan: std::sync::Arc<FaultPlan>,
    rank: usize,
    /// Operations performed so far (the crash ordinal counter).
    ops_done: u64,
    /// Per-destination directed send counters (the `nth` in drop keys).
    sends: Vec<u64>,
}

impl FaultInjector {
    /// An injector replaying `plan` on `rank` of a `p`-rank machine.
    pub fn new(plan: std::sync::Arc<FaultPlan>, rank: usize, p: usize) -> Self {
        FaultInjector {
            plan,
            rank,
            ops_done: 0,
            sends: vec![0; p],
        }
    }

    /// The plan being replayed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Advance the operation counter; returns `true` when the plan's
    /// crash fires at this very operation.
    #[inline]
    pub fn tick(&mut self) -> bool {
        let due = match &self.plan.crash {
            Some(c) => c.rank == self.rank && self.ops_done >= c.after_ops,
            None => false,
        };
        self.ops_done += 1;
        due
    }

    /// This rank's compute slowdown factor (`1.0` when unaffected). When
    /// several [`RankSlowdown`] entries name the same rank their factors
    /// compound.
    #[inline]
    pub fn compute_factor(&self) -> f64 {
        let mut f = 1.0;
        for s in &self.plan.compute {
            if s.rank == self.rank {
                f *= s.factor;
            }
        }
        f
    }

    /// Inflate a transfer cost for the (undirected) link `{a, b}`.
    /// Returns `cost` *unchanged* — bit-for-bit — when no entry covers the
    /// link, so an empty plan is observationally inert.
    #[inline]
    pub fn inflate_link(&self, a: usize, b: usize, cost: f64) -> f64 {
        let mut out = cost;
        let mut touched = false;
        for l in &self.plan.links {
            if l.covers(a, b) {
                out = out * l.factor + l.add;
                touched = true;
            }
        }
        if touched {
            out
        } else {
            cost
        }
    }

    /// How many consecutive drops the next message on the directed lane
    /// `self.rank -> to` suffers before getting through. Consumes one lane
    /// ordinal. The result is capped at `retry.max_attempts` (more drops
    /// than attempts are indistinguishable: the sender has given up).
    pub fn outgoing_drops(&mut self, to: usize) -> u32 {
        let nth = self.sends[to];
        self.sends[to] += 1;
        let max_attempts = self.plan.retry.max_attempts;
        let mut drops: u32 = 0;
        for d in &self.plan.drop_exact {
            if d.from == self.rank && d.to == to && d.nth == nth {
                drops = drops.saturating_add(d.count).min(max_attempts);
            }
        }
        if let Some(dp) = &self.plan.drop {
            while drops < dp.max_consecutive.min(max_attempts)
                && drop_unit(self.plan.seed, self.rank, to, nth, drops) < dp.prob
            {
                drops += 1;
            }
        }
        drops
    }

    /// The retry protocol parameters.
    #[inline]
    pub fn retry(&self) -> RetryParams {
        self.plan.retry
    }

    /// Can this plan drop messages at all? (Fast path: when `false`, the
    /// send path skips drop bookkeeping entirely.)
    #[inline]
    pub fn is_lossy(&self) -> bool {
        self.plan.is_lossy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn empty_plan_is_empty_and_inert() {
        let plan = FaultPlan::new(7);
        assert!(plan.is_empty());
        assert!(!plan.is_lossy());
        assert_eq!(plan.max_compute_factor(), 1.0);
        assert_eq!(plan.max_link_factor(), 1.0);
        assert_eq!(plan.max_link_add(), 0.0);
        let mut inj = FaultInjector::new(Arc::new(plan), 0, 4);
        assert_eq!(inj.compute_factor(), 1.0);
        // Bitwise identity, not just numeric closeness.
        let cost = 123.456789;
        assert_eq!(inj.inflate_link(0, 1, cost).to_bits(), cost.to_bits());
        for _ in 0..100 {
            assert!(!inj.tick());
        }
        assert_eq!(inj.outgoing_drops(1), 0);
    }

    #[test]
    fn recoverability_classification() {
        // Empty and delay-only plans always recover.
        assert!(FaultPlan::new(1).is_recoverable());
        assert!(FaultPlan::new(1)
            .with_straggler(0, 2.0)
            .with_slow_link(0, 1, 2.0, 10.0)
            .is_recoverable());
        // Drops recover iff the worst burst stays below the retry budget.
        assert!(FaultPlan::new(1).with_drops(0.2, 2).is_recoverable());
        assert!(!FaultPlan::new(1).with_drops(0.2, 4).is_recoverable());
        assert!(FaultPlan::new(1)
            .with_drop_exact(0, 1, 3, 2)
            .is_recoverable());
        assert!(!FaultPlan::new(1)
            .with_drop_exact(0, 1, 3, 4)
            .is_recoverable());
        // Raising the retry budget can make a lossy plan recoverable.
        assert!(FaultPlan::new(1)
            .with_drops(0.2, 4)
            .with_retry(6, 500.0)
            .is_recoverable());
        // Crashes never recover.
        assert!(!FaultPlan::new(1).with_crash(2, 7).is_recoverable());
    }

    #[test]
    fn builders_populate_the_plan() {
        let plan = FaultPlan::new(1)
            .with_straggler(2, 3.0)
            .with_slow_link(0, 1, 2.0, 50.0)
            .with_drops(0.25, 2)
            .with_drop_exact(0, 1, 3, 2)
            .with_crash(1, 9)
            .with_retry(5, 300.0);
        assert!(!plan.is_empty());
        assert!(plan.is_lossy());
        assert_eq!(plan.max_compute_factor(), 3.0);
        assert_eq!(plan.max_link_factor(), 2.0);
        assert_eq!(plan.max_link_add(), 50.0);
        assert_eq!(
            plan.crash,
            Some(CrashSpec {
                rank: 1,
                after_ops: 9
            })
        );
        assert_eq!(plan.retry.max_attempts, 5);
    }

    #[test]
    fn spec_round_trips_through_describe_and_parse() {
        let plans = vec![
            FaultPlan::new(0),
            FaultPlan::new(42).with_straggler(3, 2.5),
            FaultPlan::new(7).with_slow_link(0, 1, 2.0, 50.0),
            FaultPlan::new(7).with_slow_link(2, 5, 1.5, 0.0),
            FaultPlan::new(9).with_drops(0.05, 3),
            FaultPlan::new(1).with_drop_exact(0, 1, 3, 2),
            FaultPlan::new(2).with_crash(2, 7),
            FaultPlan::new(3)
                .with_straggler(1, 4.0)
                .with_straggler(2, 2.0)
                .with_slow_link(0, 3, 3.0, 10.0)
                .with_drops(0.1, 2)
                .with_drop_exact(4, 5, 0, 6)
                .with_crash(0, 100)
                .with_retry(6, 250.0)
                .with_order(0b101),
            FaultPlan::new(4).with_order(u64::MAX),
        ];
        for plan in plans {
            let spec = plan.describe();
            let parsed = FaultPlan::parse(&spec)
                .unwrap_or_else(|e| panic!("spec {spec:?} failed to parse: {e}"));
            assert_eq!(parsed, plan, "round-trip through {spec:?}");
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "nonsense",
            "wat=1",
            "seed=abc",
            "straggler=3",
            "link=0x2",
            "drop=0.5",
            "crash=1",
            "dropat=0@1",
            "order=-1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn crash_fires_exactly_at_its_ordinal() {
        let plan = Arc::new(FaultPlan::new(0).with_crash(1, 3));
        let mut right_rank = FaultInjector::new(plan.clone(), 1, 2);
        assert!(!right_rank.tick()); // op 0
        assert!(!right_rank.tick()); // op 1
        assert!(!right_rank.tick()); // op 2
        assert!(right_rank.tick()); // op 3: boom
        let mut wrong_rank = FaultInjector::new(plan, 0, 2);
        for _ in 0..10 {
            assert!(!wrong_rank.tick());
        }
    }

    #[test]
    fn link_inflation_is_undirected_and_compounds() {
        let plan = Arc::new(FaultPlan::new(0).with_slow_link(0, 1, 2.0, 10.0));
        let inj0 = FaultInjector::new(plan.clone(), 0, 3);
        let inj1 = FaultInjector::new(plan, 1, 3);
        assert_eq!(inj0.inflate_link(0, 1, 100.0), 210.0);
        assert_eq!(inj1.inflate_link(1, 0, 100.0), 210.0);
        // Uncovered link untouched.
        assert_eq!(inj0.inflate_link(0, 2, 100.0), 100.0);
    }

    #[test]
    fn straggler_factors_compound() {
        let plan = Arc::new(
            FaultPlan::new(0)
                .with_straggler(1, 2.0)
                .with_straggler(1, 3.0),
        );
        assert_eq!(FaultInjector::new(plan.clone(), 1, 2).compute_factor(), 6.0);
        assert_eq!(FaultInjector::new(plan, 0, 2).compute_factor(), 1.0);
    }

    #[test]
    fn exact_drops_hit_only_their_message() {
        let plan = Arc::new(FaultPlan::new(0).with_drop_exact(0, 1, 2, 3));
        let mut inj = FaultInjector::new(plan, 0, 2);
        assert_eq!(inj.outgoing_drops(1), 0); // nth = 0
        assert_eq!(inj.outgoing_drops(1), 0); // nth = 1
        assert_eq!(inj.outgoing_drops(1), 3); // nth = 2
        assert_eq!(inj.outgoing_drops(1), 0); // nth = 3
    }

    #[test]
    fn random_drops_are_deterministic_and_capped() {
        let plan = Arc::new(FaultPlan::new(99).with_drops(0.5, 2));
        let mut a = FaultInjector::new(plan.clone(), 0, 4);
        let mut b = FaultInjector::new(plan, 0, 4);
        let mut dropped_any = false;
        for _ in 0..200 {
            let da = a.outgoing_drops(1);
            let db = b.outgoing_drops(1);
            assert_eq!(da, db, "same plan, same lane, same ordinal");
            assert!(da <= 2);
            dropped_any |= da > 0;
        }
        assert!(dropped_any, "p=0.5 over 200 messages must drop something");
    }

    #[test]
    fn drop_streams_differ_across_lanes() {
        let plan = Arc::new(FaultPlan::new(5).with_drops(0.5, 1));
        let mut inj = FaultInjector::new(plan, 0, 3);
        let lane1: Vec<u32> = (0..64).map(|_| inj.outgoing_drops(1)).collect();
        let mut inj2 = FaultInjector::new(Arc::new(FaultPlan::new(5).with_drops(0.5, 1)), 0, 3);
        let lane2: Vec<u32> = (0..64).map(|_| inj2.outgoing_drops(2)).collect();
        assert_ne!(lane1, lane2, "different destinations, different streams");
    }

    #[test]
    fn exact_drop_count_is_capped_at_max_attempts() {
        let plan = Arc::new(
            FaultPlan::new(0)
                .with_drop_exact(0, 1, 0, 1000)
                .with_retry(3, 0.0),
        );
        let mut inj = FaultInjector::new(plan, 0, 2);
        assert_eq!(inj.outgoing_drops(1), 3);
    }
}
