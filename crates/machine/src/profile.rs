//! Trace analysis: critical paths and per-rank / per-stage profiles.
//!
//! The simulated clock makes every run's makespan a pure function of its
//! communication structure — but the makespan alone says nothing about
//! *which* chain of messages and computation steps determined it. This
//! module turns a recorded [`Trace`] into that attribution:
//!
//! * [`critical_path`] walks backwards from the makespan-defining rank
//!   along the causal links recorded in the trace (each receive knows its
//!   sender's clock at send start, each barrier knows its last arrival)
//!   and returns the gapless chain of events covering `[0, makespan]`.
//!   Because the chain is reconstructed purely from recorded timestamps,
//!   its length equals the simulated makespan **exactly** — the trace
//!   layer is a second, independent implementation of the cost semantics,
//!   and the property suite holds the two to bitwise agreement.
//! * [`ProfileReport`] aggregates the same trace into per-rank
//!   compute / communication / idle time plus message and word counts,
//!   and — when the executor injected [`EventKind::Stage`] boundaries —
//!   a per-stage breakdown of where a program's time went.
//!
//! This is the validation discipline of Träff's *Optimal, Non-pipelined
//! Reduce-scatter and Allreduce Algorithms* (2024) applied to the paper's
//! calculus: analytic predictions on one side, measured and *attributed*
//! critical paths on the other.

use crate::trace::{Event, EventKind, Trace};

/// Why a trace could not be analysed.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileError {
    /// An event's start is not covered by any predecessor — the trace is
    /// incomplete (e.g. recorded with tracing toggled mid-run).
    BrokenChain {
        /// Rank on which the chain broke.
        rank: usize,
        /// The uncovered start time.
        at: f64,
        /// What the walk was looking for.
        detail: &'static str,
    },
    /// The walk failed to terminate within the event budget — the trace
    /// is not causally consistent.
    CausalLoop,
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::BrokenChain { rank, at, detail } => {
                write!(
                    f,
                    "critical-path chain broke on rank {rank} at t={at}: {detail}"
                )
            }
            ProfileError::CausalLoop => write!(f, "trace is not causally consistent"),
        }
    }
}

impl std::error::Error for ProfileError {}

/// The causal chain of events that determined a run's makespan, in
/// chronological order. Consecutive steps are contiguous: each step
/// starts exactly where the previous one ended, the first starts at 0,
/// and the last ends at the makespan.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// The chain, earliest first. Barrier steps appear as the *last
    /// arrival's* zero-width barrier record (the waiting of other ranks
    /// is attributed to the arrival chain, not to the wait itself).
    pub steps: Vec<Event>,
}

impl CriticalPath {
    /// Total length of the chain — equal to the simulated makespan.
    /// Computed as `last.time - first.start` (with `first.start == 0`),
    /// not as a float sum, so the equality is exact.
    pub fn length(&self) -> f64 {
        match (self.steps.first(), self.steps.last()) {
            (Some(first), Some(last)) => last.time - first.start,
            _ => 0.0,
        }
    }

    /// Time the chain spent in message transfer.
    pub fn comm_time(&self) -> f64 {
        self.steps
            .iter()
            .filter(|e| e.kind.is_comm())
            .map(Event::duration)
            .sum()
    }

    /// Time the chain spent in local computation.
    pub fn compute_time(&self) -> f64 {
        self.steps
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Compute { .. }))
            .map(Event::duration)
            .sum()
    }

    /// Number of message events (sends, receives, exchanges) on the chain
    /// — the message-chain depth of the run.
    pub fn messages(&self) -> usize {
        self.steps.iter().filter(|e| e.kind.is_comm()).count()
    }

    /// Number of distinct ranks the chain passes through.
    pub fn ranks_touched(&self) -> usize {
        let mut ranks: Vec<usize> = self.steps.iter().map(|e| e.rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        ranks.len()
    }
}

/// Per-rank, per-event-index view of a merged trace, with annotation
/// events (marks, stage boundaries) filtered out.
struct RankIndex<'a> {
    by_rank: Vec<Vec<&'a Event>>,
    /// Positions (into `by_rank[r]`) of the barrier events of rank `r`,
    /// in order — the k-th entry is barrier *instance* k, aligned across
    /// ranks because every rank participates in every barrier.
    barriers: Vec<Vec<usize>>,
}

impl<'a> RankIndex<'a> {
    fn build(trace: &'a Trace) -> Self {
        let ranks = trace.events().iter().map(|e| e.rank + 1).max().unwrap_or(0);
        let mut by_rank: Vec<Vec<&Event>> = vec![Vec::new(); ranks];
        for e in trace.events() {
            if !e.kind.is_annotation() {
                by_rank[e.rank].push(e);
            }
        }
        let barriers = by_rank
            .iter()
            .map(|evs| {
                evs.iter()
                    .enumerate()
                    .filter(|(_, e)| matches!(e.kind, EventKind::Barrier))
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect();
        RankIndex { by_rank, barriers }
    }

    /// Latest event on `rank` completing exactly at `t`.
    fn ending_at(&self, rank: usize, t: f64) -> Option<usize> {
        self.by_rank.get(rank)?.iter().rposition(|e| e.time == t)
    }
}

/// Walk backwards from the makespan-defining rank and return the causal
/// chain of events that determined the run time. See [`CriticalPath`].
///
/// The walk follows three kinds of links:
/// * within a rank, an event's predecessor is the previous event on that
///   rank's clock;
/// * a receive or exchange whose rendezvous was determined by the peer
///   (`sent_at` exceeds the rank's own previous completion) jumps to the
///   peer's event completing exactly at `sent_at`;
/// * a barrier left later than it was entered redirects to the *last
///   arrival* of the same barrier instance on another rank.
///
/// Returns an empty path for an empty trace (a run that did nothing).
pub fn critical_path(trace: &Trace) -> Result<CriticalPath, ProfileError> {
    let index = RankIndex::build(trace);
    let mut chain: Vec<Event> = Vec::new();

    // Start at the rank whose final event completes last.
    let mut cursor: Option<(usize, usize)> = index
        .by_rank
        .iter()
        .enumerate()
        .filter_map(|(r, evs)| evs.last().map(|e| (r, evs.len() - 1, e.time)))
        .max_by(|a, b| a.2.total_cmp(&b.2).then(b.0.cmp(&a.0)))
        .map(|(r, i, _)| (r, i));

    let budget = trace.events().len() * 2 + 2;
    let mut steps = 0usize;
    while let Some((rank, i)) = cursor {
        steps += 1;
        if steps > budget {
            return Err(ProfileError::CausalLoop);
        }
        let e = index.by_rank[rank][i];

        // A barrier that made this rank wait: the exit time was set by the
        // last arrival. Redirect to that rank's record of the *same*
        // barrier instance (instances align by per-rank barrier ordinal)
        // without emitting the wait itself.
        if matches!(e.kind, EventKind::Barrier) && e.start < e.time {
            let ordinal = index.barriers[rank]
                .iter()
                .position(|&b| b == i)
                .expect("barrier event is indexed");
            let target = index.barriers.iter().enumerate().find_map(|(r, bs)| {
                let &bi = bs.get(ordinal)?;
                let be = index.by_rank[r][bi];
                (r != rank && be.start == be.time && be.time == e.time).then_some((r, bi))
            });
            match target {
                Some(t) => {
                    cursor = Some(t);
                    continue;
                }
                None => {
                    return Err(ProfileError::BrokenChain {
                        rank,
                        at: e.time,
                        detail: "no last arrival found for barrier instance",
                    })
                }
            }
        }

        chain.push(e.clone());
        if e.start == 0.0 {
            break; // reached the beginning of simulated time
        }

        let own_prev_end = i.checked_sub(1).map(|j| index.by_rank[rank][j].time);
        let causal = match e.kind {
            EventKind::Recv { from, sent_at, .. } => Some((from, sent_at)),
            EventKind::Exchange {
                partner, sent_at, ..
            } => Some((partner, sent_at)),
            _ => None,
        };

        // Prefer staying on the own rank when both links meet the start.
        cursor = match (own_prev_end, causal) {
            (Some(prev_end), _) if prev_end == e.start => Some((rank, i - 1)),
            (_, Some((peer, sent_at))) if sent_at == e.start => {
                match index.ending_at(peer, sent_at) {
                    Some(j) => Some((peer, j)),
                    None => {
                        return Err(ProfileError::BrokenChain {
                            rank,
                            at: e.start,
                            detail: "no peer event completes at the recorded send time",
                        })
                    }
                }
            }
            _ => {
                return Err(ProfileError::BrokenChain {
                    rank,
                    at: e.start,
                    detail: "no predecessor covers this event's start",
                })
            }
        };
    }

    chain.reverse();
    // Gaplessness is guaranteed by construction; make it checkable.
    debug_assert!(chain.windows(2).all(|w| w[0].time == w[1].start));
    Ok(CriticalPath { steps: chain })
}

/// Where one rank's time went.
#[derive(Debug, Clone, PartialEq)]
pub struct RankProfile {
    /// The rank.
    pub rank: usize,
    /// Time spent in local computation.
    pub compute: f64,
    /// Time spent in message transfer (sends, receives, exchanges).
    pub comm: f64,
    /// Everything else: waiting for senders, barrier waits, and the tail
    /// between the rank's last action and the makespan. Defined as
    /// `makespan - compute - comm`, so `compute + comm + idle` sums to
    /// the makespan *exactly* for every rank.
    pub idle: f64,
    /// The rank's final completion time.
    pub finish: f64,
    /// Message events the rank took part in.
    pub messages: u64,
    /// Words the rank moved through those events.
    pub words: u64,
}

/// Where one program stage's time went, aggregated over ranks.
#[derive(Debug, Clone, PartialEq)]
pub struct StageProfile {
    /// Stage position in the program.
    pub index: usize,
    /// The stage's display label.
    pub label: String,
    /// Earliest time any rank entered the stage.
    pub begin: f64,
    /// Time the slowest rank finished the stage — differences between
    /// consecutive finishes give per-stage makespans.
    pub finish: f64,
    /// Computation time summed over ranks.
    pub compute: f64,
    /// Transfer time summed over ranks.
    pub comm: f64,
    /// Waiting time summed over ranks (each rank's stage span minus its
    /// busy time in the stage).
    pub idle: f64,
    /// Message events summed over ranks.
    pub messages: u64,
    /// Words moved, summed over ranks.
    pub words: u64,
}

/// A full per-rank (and, with stage markers, per-stage) profile of one
/// traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// The run's makespan (maximum completion time over ranks).
    pub makespan: f64,
    /// One row per rank.
    pub ranks: Vec<RankProfile>,
    /// One row per program stage; empty when the trace carries no
    /// [`EventKind::Stage`] boundaries.
    pub stages: Vec<StageProfile>,
}

fn event_words(kind: &EventKind) -> u64 {
    match kind {
        EventKind::Send { words, .. }
        | EventKind::Recv { words, .. }
        | EventKind::Exchange { words, .. }
        | EventKind::Retry { words, .. } => *words,
        _ => 0,
    }
}

impl ProfileReport {
    /// Build the profile of a run over `p` ranks with the given makespan.
    pub fn from_trace(trace: &Trace, p: usize, makespan: f64) -> Self {
        let mut ranks: Vec<RankProfile> = (0..p)
            .map(|rank| RankProfile {
                rank,
                compute: 0.0,
                comm: 0.0,
                idle: 0.0,
                finish: 0.0,
                messages: 0,
                words: 0,
            })
            .collect();
        // Per-rank stage accumulation state: (previous boundary time,
        // busy-compute, busy-comm, messages, words) since that boundary.
        let mut open: Vec<(f64, f64, f64, u64, u64)> = vec![(0.0, 0.0, 0.0, 0, 0); p];
        let mut stages: Vec<StageProfile> = Vec::new();

        for e in trace.events() {
            let Some(r) = ranks.get_mut(e.rank) else {
                continue;
            };
            match &e.kind {
                EventKind::Compute { .. } => {
                    r.compute += e.duration();
                    open[e.rank].1 += e.duration();
                }
                EventKind::Send { .. }
                | EventKind::Recv { .. }
                | EventKind::Exchange { .. }
                | EventKind::Retry { .. } => {
                    r.comm += e.duration();
                    r.messages += 1;
                    r.words += event_words(&e.kind);
                    open[e.rank].2 += e.duration();
                    open[e.rank].3 += 1;
                    open[e.rank].4 += event_words(&e.kind);
                }
                EventKind::Barrier | EventKind::Mark { .. } => {}
                EventKind::Stage { index, label } => {
                    let (since, compute, comm, messages, words) =
                        std::mem::replace(&mut open[e.rank], (e.time, 0.0, 0.0, 0, 0));
                    while stages.len() <= *index {
                        stages.push(StageProfile {
                            index: stages.len(),
                            label: label.clone(),
                            begin: f64::INFINITY,
                            finish: 0.0,
                            compute: 0.0,
                            comm: 0.0,
                            idle: 0.0,
                            messages: 0,
                            words: 0,
                        });
                    }
                    let s = &mut stages[*index];
                    s.label = label.clone();
                    s.begin = s.begin.min(since);
                    s.finish = s.finish.max(e.time);
                    s.compute += compute;
                    s.comm += comm;
                    s.idle += (e.time - since) - compute - comm;
                    s.messages += messages;
                    s.words += words;
                }
            }
            if !e.kind.is_annotation() {
                r.finish = r.finish.max(e.time);
            }
        }
        for r in &mut ranks {
            r.idle = makespan - r.compute - r.comm;
        }
        ProfileReport {
            makespan,
            ranks,
            stages,
        }
    }

    /// Total computation time across ranks.
    pub fn total_compute(&self) -> f64 {
        self.ranks.iter().map(|r| r.compute).sum()
    }

    /// Total transfer time across ranks.
    pub fn total_comm(&self) -> f64 {
        self.ranks.iter().map(|r| r.comm).sum()
    }

    /// Machine utilisation: busy time over `p * makespan`.
    pub fn utilisation(&self) -> f64 {
        if self.makespan <= 0.0 || self.ranks.is_empty() {
            return 0.0;
        }
        (self.total_compute() + self.total_comm()) / (self.ranks.len() as f64 * self.makespan)
    }

    /// Render the report as aligned text tables (per stage, then per
    /// rank) — what `collopt --profile` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "makespan {:.1}  utilisation {:.1}%\n",
            self.makespan,
            100.0 * self.utilisation()
        ));
        if !self.stages.is_empty() {
            out.push_str(
                "stage  finish      span     compute     comm       idle       msgs  words  label\n",
            );
            let mut prev = 0.0;
            for s in &self.stages {
                out.push_str(&format!(
                    "{:<5}  {:<10.1} {:<8.1} {:<11.1} {:<10.1} {:<10.1} {:<5} {:<6} {}\n",
                    s.index,
                    s.finish,
                    s.finish - prev,
                    s.compute,
                    s.comm,
                    s.idle,
                    s.messages,
                    s.words,
                    s.label
                ));
                prev = s.finish;
            }
        }
        out.push_str("rank   compute    comm       idle       msgs  words\n");
        for r in &self.ranks {
            out.push_str(&format!(
                "P{:<5} {:<10.1} {:<10.1} {:<10.1} {:<5} {}\n",
                r.rank, r.compute, r.comm, r.idle, r.messages, r.words
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockParams;
    use crate::machine::{drive, Machine};

    #[test]
    fn empty_trace_has_empty_path() {
        let t = Trace::enabled();
        let cp = critical_path(&t).unwrap();
        assert!(cp.steps.is_empty());
        assert_eq!(cp.length(), 0.0);
    }

    #[test]
    fn straight_line_chain_is_the_whole_rank() {
        let m = Machine::new(1, ClockParams::free()).with_tracing();
        let run = m.run(|ctx| {
            ctx.charge(3.0, "a");
            ctx.charge(4.0, "b");
        });
        let cp = critical_path(&run.trace).unwrap();
        assert_eq!(cp.steps.len(), 2);
        assert_eq!(cp.length(), run.makespan);
        assert_eq!(cp.compute_time(), 7.0);
        assert_eq!(cp.comm_time(), 0.0);
    }

    #[test]
    fn path_follows_the_message_chain_across_ranks() {
        // Rank 1 computes, then sends to rank 0, which was idle: the
        // critical path must be [compute@1, recv@0].
        let m = Machine::new(2, ClockParams::new(10.0, 1.0)).with_tracing();
        let run = m.run(|ctx| {
            if ctx.rank() == 1 {
                ctx.charge(100.0, "work");
                ctx.send(0, (), 5);
            } else {
                drive(ctx.recv_async::<()>(1));
            }
        });
        assert_eq!(run.makespan, 115.0);
        let cp = critical_path(&run.trace).unwrap();
        assert_eq!(cp.length(), run.makespan);
        assert_eq!(cp.steps.len(), 2);
        assert!(matches!(cp.steps[0].kind, EventKind::Compute { .. }));
        assert_eq!(cp.steps[0].rank, 1);
        assert!(matches!(cp.steps[1].kind, EventKind::Recv { .. }));
        assert_eq!(cp.steps[1].rank, 0);
        assert_eq!(cp.ranks_touched(), 2);
        assert_eq!(cp.messages(), 1);
    }

    #[test]
    fn path_attributes_barrier_waits_to_the_last_arrival() {
        let m = Machine::new(3, ClockParams::free()).with_tracing();
        let run = m.run(|ctx| {
            ctx.charge((ctx.rank() * 10) as f64, "skew");
            drive(ctx.barrier_async());
            ctx.charge(5.0, "after");
        });
        assert_eq!(run.makespan, 25.0);
        let cp = critical_path(&run.trace).unwrap();
        assert_eq!(cp.length(), 25.0);
        // The pre-barrier segment must run through rank 2 (the last
        // arrival), whatever rank the walk started from.
        let pre: Vec<usize> = cp
            .steps
            .iter()
            .filter(|e| e.time <= 20.0 && e.duration() > 0.0)
            .map(|e| e.rank)
            .collect();
        assert_eq!(pre, vec![2]);
    }

    #[test]
    fn path_survives_repeated_barriers_with_no_work_between() {
        let m = Machine::new(2, ClockParams::free()).with_tracing();
        let run = m.run(|ctx| {
            ctx.charge((1 + ctx.rank()) as f64, "skew");
            drive(ctx.barrier_async());
            drive(ctx.barrier_async());
            drive(ctx.barrier_async());
        });
        let cp = critical_path(&run.trace).unwrap();
        assert_eq!(cp.length(), run.makespan);
    }

    #[test]
    fn path_length_matches_makespan_under_jitter() {
        let m = Machine::new(4, ClockParams::new(50.0, 2.0).with_jitter(7, 0.5)).with_tracing();
        let run = m.run(|ctx| {
            let mut v = ctx.rank() as u64;
            for round in 0..2 {
                let partner = ctx.rank() ^ (1 << round);
                v += drive(ctx.exchange_async(partner, v, 8));
                ctx.charge(8.0, "combine");
            }
            v
        });
        let cp = critical_path(&run.trace).unwrap();
        assert_eq!(cp.length(), run.makespan);
    }

    #[test]
    fn profile_rank_rows_sum_to_makespan() {
        let m = Machine::new(2, ClockParams::new(10.0, 1.0)).with_tracing();
        let run = m.run(|ctx| {
            if ctx.rank() == 1 {
                ctx.charge(100.0, "work");
            }
            drive(ctx.exchange_async(1 - ctx.rank(), (), 5));
        });
        let report = ProfileReport::from_trace(&run.trace, 2, run.makespan);
        for r in &report.ranks {
            assert_eq!(
                r.compute + r.comm + r.idle,
                report.makespan,
                "rank {}",
                r.rank
            );
        }
        assert_eq!(report.ranks[0].compute, 0.0);
        assert_eq!(report.ranks[1].compute, 100.0);
        assert_eq!(report.ranks[0].comm, 15.0);
        // Rank 0 waited 100 units for the rendezvous.
        assert_eq!(report.ranks[0].idle, 100.0);
        assert_eq!(report.ranks[1].idle, 0.0);
        assert_eq!(report.ranks[0].messages, 1);
        assert_eq!(report.ranks[0].words, 5);
        assert!(report.utilisation() > 0.0 && report.utilisation() <= 1.0);
    }

    #[test]
    fn stage_markers_partition_the_run() {
        let m = Machine::new(2, ClockParams::new(10.0, 1.0)).with_tracing();
        let run = m.run(|ctx| {
            ctx.charge(4.0, "s0");
            ctx.end_stage(0, "compute");
            drive(ctx.exchange_async(1 - ctx.rank(), (), 2));
            ctx.end_stage(1, "exchange");
        });
        let report = ProfileReport::from_trace(&run.trace, 2, run.makespan);
        assert_eq!(report.stages.len(), 2);
        assert_eq!(report.stages[0].label, "compute");
        assert_eq!(report.stages[0].finish, 4.0);
        assert_eq!(report.stages[0].compute, 8.0); // both ranks
        assert_eq!(report.stages[1].label, "exchange");
        assert_eq!(report.stages[1].finish, run.makespan);
        assert_eq!(report.stages[1].comm, 24.0);
        assert_eq!(report.stages[1].messages, 2);
        let rendered = report.render();
        assert!(rendered.contains("exchange"));
        assert!(rendered.contains("makespan"));
    }
}
