//! What every workload has in common: the op-list interface, the failure
//! tally, the per-op timing estimate, and one *slice* — set-up, warm-up,
//! timed rounds, counted round, verification — run in a child process of
//! its own.

use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc;
use crate::clock::Clock;
use crate::expected::Expected;
use crate::stats::{median, quantile};

/// Rounds replayed before the first timed one: the first records the
/// reference outputs, the second lets lazily built state settle.
pub const WARMUP_ROUNDS: usize = 2;
/// Timed rounds a slice runs at least, however short `--seconds` is, so
/// that every segment has this many replays to take the fastest of.
pub const MIN_TIMED_ROUNDS: usize = 5;

/// A checkable statement about one op's output, compared with the
/// committed `expected/<workload>.txt`.
pub struct Fact {
    /// What the fact is about, in the workload's own numbering (a request,
    /// a simulated case, a point of the sweep); see [`Workload::reject`].
    pub subject: usize,
    pub key: String,
    pub value: String,
}

/// What the untimed verification phase found.
#[derive(Default)]
pub struct Verdict {
    pub facts: Vec<Fact>,
    /// Failed conditions on the run as a whole (cache hit rate, …).
    pub errors: Vec<String>,
}

/// Per-op failure accounting. An op fails in a round when its output
/// differs from the reference output recorded in the first round, and in
/// every round when the reference itself fails an oracle.
pub struct Tally {
    rounds: u64,
    mismatches: Vec<u64>,
    rejected: Vec<Option<String>>,
}

impl Tally {
    pub fn new(ops: usize) -> Tally {
        Tally {
            rounds: 0,
            mismatches: vec![0; ops],
            rejected: vec![None; ops],
        }
    }

    /// True for the first round, whose outputs become the reference.
    pub fn begin_round(&mut self) -> bool {
        self.rounds += 1;
        self.rounds == 1
    }

    pub fn mismatch(&mut self, op: usize) {
        self.mismatches[op] += 1;
    }

    /// The reference output of `op` failed an oracle or an expectation.
    pub fn reject(&mut self, op: usize, why: String) {
        self.rejected[op].get_or_insert(why);
    }

    pub fn attempted(&self) -> u64 {
        self.rounds * self.mismatches.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.mismatches
            .iter()
            .zip(&self.rejected)
            .map(|(&m, r)| if r.is_some() { self.rounds } else { m })
            .sum()
    }

    pub fn complaints(&self) -> impl Iterator<Item = String> + '_ {
        let rejected = self
            .rejected
            .iter()
            .enumerate()
            .filter_map(|(op, why)| why.as_ref().map(|w| format!("op {op}: {w}")));
        let mismatched = self
            .mismatches
            .iter()
            .enumerate()
            .filter(|(_, &m)| m > 0)
            .map(|(op, m)| format!("op {op}: output differed from the first round {m} time(s)"));
        rejected.chain(mismatched)
    }
}

/// One quiet round, stitched from segments.
///
/// A neighbour's bursts on the shared host last 10–60 ms and only ever add
/// time, so a whole round (0.1–0.5 s) hardly ever runs between bursts, but
/// a segment of it that takes a few milliseconds often does. The op list
/// is cut into segments of `segment_ops` consecutive ops; of every segment
/// the fastest complete replay is kept, with the latency of each of its
/// ops. Together the kept segments are one round as a quiet host runs it.
/// All times are at reference clock speed.
pub struct Quietest {
    ops: usize,
    segment_ops: usize,
    /// Per segment: the latencies of the fastest replay and their sum.
    kept: Vec<(f64, Vec<f64>)>,
    /// The replay under way: its segment and the latencies so far. A
    /// failed op records nothing, which leaves its replay incomplete.
    open: (usize, Vec<f64>),
}

impl Quietest {
    pub fn new(ops: usize, segment_ops: usize) -> Quietest {
        // All room is reserved here: recording must not allocate, or the
        // counted round would count the benchmark itself.
        let room = || Vec::with_capacity(segment_ops);
        Quietest {
            ops,
            segment_ops,
            kept: (0..ops.div_ceil(segment_ops))
                .map(|_| (f64::INFINITY, room()))
                .collect(),
            open: (0, room()),
        }
    }

    /// The op at `position` of the list was answered correctly after
    /// `seconds`. Positions of one segment arrive in order.
    pub fn record(&mut self, position: usize, seconds: f64) {
        let segment = position / self.segment_ops;
        if segment != self.open.0 {
            self.end_replay();
            self.open.0 = segment;
        }
        self.open.1.push(seconds);
    }

    /// The replay under way is over; call at the end of a round.
    pub fn end_replay(&mut self) {
        let (segment, latencies) = &mut self.open;
        let complete = self.segment_ops.min(self.ops - *segment * self.segment_ops);
        let sum: f64 = latencies.iter().sum();
        let (kept_sum, kept) = &mut self.kept[*segment];
        if latencies.len() == complete && sum < *kept_sum {
            *kept_sum = sum;
            std::mem::swap(kept, latencies);
        }
        latencies.clear();
    }

    /// The latencies of the stitched round, in list order; empty for a
    /// segment that never had a complete replay.
    pub fn latencies(&self) -> Vec<f64> {
        self.kept
            .iter()
            .flat_map(|(_, l)| l.iter().copied())
            .collect()
    }
}

/// A fixed, seeded op list and the program state it runs against.
pub trait Workload {
    /// Ops in one round.
    fn ops(&self) -> usize;
    /// Consecutive ops that make a segment of ≈ 5 ms for [`Quietest`].
    fn segment_ops(&self) -> usize;
    /// Replay the op list once: check every output against the reference
    /// and record the latency of every correct op by its position in the
    /// list.
    fn round(&mut self, quietest: &mut Quietest);
    /// Untimed: hold the reference outputs against the independent
    /// oracles (rejecting ops in the tally) and state the facts that the
    /// committed expectations pin.
    fn verify(&mut self) -> Verdict;
    /// Whether the facts change with `--seed`; if so they are compared
    /// with the committed file for the default seed only.
    fn facts_depend_on_seed(&self) -> bool;
    /// Fail every op that depends on `subject`.
    fn reject(&mut self, subject: usize, why: String);
    fn tally(&self) -> &Tally;
}

/// Run one slice of `workload` and render its report, one record a line,
/// for the parent process to pool with the other slices.
pub fn run_slice(
    build: impl FnOnce() -> Box<dyn Workload>,
    seconds: f64,
    expected: &Expected,
) -> String {
    // Set-up is scaled by the clock speed before, during and after it.
    let mut clock = Clock::new();
    let mut scales = vec![clock.scale()];
    let started = Instant::now();
    let mut workload = build();
    let quiet_round = |w: &dyn Workload| Quietest::new(w.ops(), w.segment_ops());
    let mut quietest = quiet_round(workload.as_ref());
    for _ in 0..WARMUP_ROUNDS {
        clock.tick();
        scales.push(clock.scale());
        workload.round(&mut quietest);
    }
    let setup = started.elapsed().as_secs_f64();
    clock.tick();
    scales.push(clock.scale());
    // `{:?}` prints every digit of an f64.
    let mut out = String::new();
    let _ = writeln!(out, "setup {:?}", setup * median(&scales));

    quietest = quiet_round(workload.as_ref());
    let timed = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_TIMED_ROUNDS || timed.elapsed().as_secs_f64() < seconds {
        workload.round(&mut quietest);
        rounds += 1;
    }
    let latencies = quietest.latencies();
    if !latencies.is_empty() {
        // One client in a closed loop without think time: the ops of the
        // quiet round follow each other, and throughput is ops over their
        // total time.
        let total: f64 = latencies.iter().sum();
        let _ = writeln!(
            out,
            "timing {rounds} {:?} {:?} {:?}",
            latencies.len() as f64 / total,
            quantile(&latencies, 0.5),
            quantile(&latencies, 0.9)
        );
    }

    let ((), allocs, bytes) = alloc::counted(|| workload.round(&mut quietest));
    let rss_kb = crate::proc_status("VmHWM:").map_or(0, |kb| {
        kb.trim_end_matches("kB").trim().parse::<u64>().unwrap_or(0)
    });

    let mut verdict = workload.verify();
    let check_facts = !workload.facts_depend_on_seed() || expected.is_for_this_seed();
    if expected.recording() {
        verdict.errors.extend(expected.record(&verdict.facts).err());
    } else if check_facts {
        for fact in &verdict.facts {
            if let Err(why) = expected.check(fact) {
                workload.reject(fact.subject, why);
            }
        }
        verdict
            .errors
            .extend(expected.unchecked(verdict.facts.len()));
    }

    let tally = workload.tally();
    let _ = writeln!(out, "counted {allocs} {bytes}");
    let _ = writeln!(out, "rss_kb {rss_kb}");
    let _ = writeln!(
        out,
        "ops {} {} {}",
        workload.ops(),
        tally.attempted(),
        tally.failed()
    );
    for complaint in tally.complaints().take(20) {
        let _ = writeln!(out, "error {complaint}");
    }
    for error in &verdict.errors {
        let _ = writeln!(out, "error {error}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rejected_op_fails_in_every_round_and_a_mismatch_once() {
        let mut tally = Tally::new(3);
        assert!(tally.begin_round());
        assert!(!tally.begin_round());
        tally.mismatch(0);
        tally.reject(1, "wrong".into());
        tally.mismatch(1);
        assert_eq!(tally.attempted(), 6);
        assert_eq!(tally.failed(), 1 + 2);
        assert_eq!(tally.complaints().count(), 3);
    }

    #[test]
    fn the_fastest_complete_replay_of_each_segment_is_kept() {
        // Five ops in segments of two: [0, 1], [2, 3], [4].
        let mut quietest = Quietest::new(5, 2);
        for (position, seconds) in [3.0, 3.0, 1.0, 1.0, 2.0].into_iter().enumerate() {
            quietest.record(position, seconds);
        }
        quietest.end_replay();
        // A faster first segment, a second one whose op 3 failed, a slower last.
        for (position, seconds) in [(0, 1.0), (1, 2.0), (2, 0.1), (4, 9.0)] {
            quietest.record(position, seconds);
        }
        quietest.end_replay();
        assert_eq!(quietest.latencies(), [1.0, 2.0, 1.0, 1.0, 2.0]);
    }
}
