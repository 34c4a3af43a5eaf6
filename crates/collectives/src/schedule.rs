//! Symbolic communication-schedule extraction.
//!
//! Every collective in this crate is an ordinary Rust function whose
//! communication pattern is a pure function of `(p, m)` — the payloads
//! decide *values*, never *who talks to whom*. This module exploits that:
//! for each lowering it re-derives the exact per-rank sequence of
//! [`SchedOp`]s (sends, receives, pairwise exchanges, barriers) **without
//! executing any payload code**, by walking the same topology helpers and
//! control flow as the runtime implementation.
//!
//! The extracted [`Schedule`] is the input to the static verifier in
//! `collopt-analysis`, which proves deadlock-freedom, message-match
//! completeness and round optimality before a single simulated clock
//! tick. The [`shipped_variants`] registry enumerates every lowering with
//! its applicability predicate and closed-form expected round count; the
//! [`planted_variants`] registry enumerates deliberately broken lowerings
//! (also runnable, see [`planted`]) that serve as ground truth for the
//! verifier's reject path.
//!
//! Fidelity is pinned by tests that run each lowering on the traced
//! machine and compare the extracted schedule, op by op, against the
//! recorded trace events.

use collopt_machine::topology::{
    binomial_bcast_rank_plan, butterfly_partner, butterfly_rounds, ceil_log2, floor_log2,
    BalancedTree, RankAction,
};
use collopt_machine::Ctx;

/// One abstract communication action of a single rank, in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedOp {
    /// Post a message of `words` words to rank `to` (non-blocking).
    Send {
        /// Destination rank.
        to: usize,
        /// Message size in words.
        words: u64,
    },
    /// Block until a message from rank `from` arrives.
    Recv {
        /// Source rank.
        from: usize,
    },
    /// Pairwise exchange with `peer`: on the machine this desugars to a
    /// send of `words` words followed by a receive on the same channel
    /// pair, completing in a single rendezvous round.
    Exchange {
        /// Partner rank.
        peer: usize,
        /// Outgoing message size in words.
        words: u64,
    },
    /// Full-machine clock barrier ([`Ctx::barrier`]): every rank must
    /// reach it.
    Barrier,
}

/// The complete communication schedule of one collective at one `(p, m)`:
/// `ranks[r]` is rank `r`'s action sequence in program order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Number of ranks.
    pub p: usize,
    /// Per-rank op sequences.
    pub ranks: Vec<Vec<SchedOp>>,
}

impl Schedule {
    /// An empty schedule over `p` ranks.
    pub fn new(p: usize) -> Self {
        Schedule {
            p,
            ranks: vec![Vec::new(); p],
        }
    }

    /// Total number of point-to-point messages (each exchange counts as
    /// one message per direction, matching the machine's channel model).
    pub fn message_count(&self) -> u64 {
        self.ranks
            .iter()
            .flatten()
            .map(|op| match op {
                SchedOp::Send { .. } | SchedOp::Exchange { .. } => 1,
                _ => 0,
            })
            .sum()
    }

    /// Total words put on the wire (exchanges count their outgoing side;
    /// the incoming side is the partner's own exchange).
    pub fn total_words(&self) -> u64 {
        self.ranks
            .iter()
            .flatten()
            .map(|op| match op {
                SchedOp::Send { words, .. } | SchedOp::Exchange { words, .. } => *words,
                _ => 0,
            })
            .sum()
    }
}

/// The collective family a schedule implements — the key into the round
/// lower-bound table of `collopt-cost`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// One root's block to all ranks.
    Bcast,
    /// All ranks' blocks combined to one root.
    Reduce,
    /// All ranks' blocks combined, result everywhere.
    AllReduce,
    /// Inclusive prefix combination.
    Scan,
    /// Exclusive prefix combination.
    ExScan,
    /// All blocks concatenated at the root.
    Gather,
    /// The root's blocks distributed, one per rank.
    Scatter,
    /// All blocks concatenated everywhere.
    AllGather,
    /// Combined blocks, segment `i` at rank `i`.
    ReduceScatter,
    /// Personalized block from every rank to every rank.
    AllToAll,
    /// Pure synchronization.
    Barrier,
    /// The paper's compute-after-broadcast pattern.
    Comcast,
}

/// A lowering in the verification registry: how to symbolically extract
/// its schedule and what round count its cost closed form promises.
#[derive(Clone, Copy)]
pub struct Variant {
    /// Stable lowercase name (matches the implementing function).
    pub name: &'static str,
    /// Collective family, for the lower-bound oracle.
    pub kind: CollectiveKind,
    /// Whether the lowering supports this `(p, m)` point (e.g. the
    /// butterfly needs a power of two).
    pub applicable: fn(p: usize, m: u64) -> bool,
    /// Symbolic schedule extractor.
    pub extract: fn(p: usize, m: u64) -> Schedule,
    /// Closed-form critical-path round count the cost model promises;
    /// the verifier errors if the measured count exceeds it.
    pub expected_rounds: fn(p: usize, m: u64) -> u64,
}

impl std::fmt::Debug for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Variant")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .finish_non_exhaustive()
    }
}

/// A deliberately broken lowering used as ground truth for the
/// verifier's reject path: `expected_code` is the lint code the static
/// checker must raise, and the runnable twin in [`planted`] demonstrates
/// the same defect dynamically (DES deadlock).
#[derive(Debug, Clone, Copy)]
pub struct PlantedVariant {
    /// The broken lowering's extractor and metadata.
    pub variant: Variant,
    /// The lint code the verifier must emit (`"COL008"` / `"COL009"`).
    pub expected_code: &'static str,
}

/// `m` units split into `n` nearly equal parts, matching
/// [`crate::op::Splittable::split_into`]: part `i` gets one extra unit
/// when `i < m mod n`.
pub fn split_lens(m: u64, n: usize) -> Vec<u64> {
    let n64 = n as u64;
    (0..n64).map(|i| m / n64 + u64::from(i < m % n64)).collect()
}

// ---------------------------------------------------------------------------
// Per-lowering extractors. Each mirrors the control flow of the runtime
// implementation exactly; comments reference the implementing function.
// ---------------------------------------------------------------------------

/// [`crate::bcast::bcast_binomial`] rooted at `root`.
fn bcast_binomial_into(s: &mut Schedule, root: usize, words: u64) {
    for rank in 0..s.p {
        let plan = binomial_bcast_rank_plan(s.p, root, rank);
        if let Some((_, src)) = plan.recv {
            s.ranks[rank].push(SchedOp::Recv { from: src });
        }
        for (_, dst) in plan.sends {
            s.ranks[rank].push(SchedOp::Send { to: dst, words });
        }
    }
}

fn x_bcast_binomial(p: usize, m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    bcast_binomial_into(&mut s, 0, m);
    s
}

/// [`crate::bcast::bcast_linear`]: the root sends to every rank in turn.
fn x_bcast_linear(p: usize, m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    for dst in 1..p {
        s.ranks[0].push(SchedOp::Send { to: dst, words: m });
        s.ranks[dst].push(SchedOp::Recv { from: 0 });
    }
    s
}

/// [`crate::pipelined::bcast_pipelined`] with `segments` chunks of the
/// `m`-word block, rooted at 0.
fn bcast_pipelined_into(s: &mut Schedule, m: u64, segments: u64) {
    let p = s.p;
    if p <= 1 {
        return;
    }
    let chunks = split_lens(m, segments.max(1) as usize);
    for (v, ops) in s.ranks.iter_mut().enumerate() {
        let next = (v + 1) % p;
        let prev = (v + p - 1) % p;
        if v == 0 {
            for &c in &chunks {
                ops.push(SchedOp::Send { to: next, words: c });
            }
        } else {
            let forward = v + 1 < p;
            for &c in &chunks {
                ops.push(SchedOp::Recv { from: prev });
                if forward {
                    ops.push(SchedOp::Send { to: next, words: c });
                }
            }
        }
    }
}

/// Segment count the registry pins for the pipelined broadcast: the
/// model-optimal `S*` at the default lint machine (`ts = 100`, `tw = 2`).
pub fn pipelined_segments(p: usize, m: u64) -> u64 {
    crate::pipelined::optimal_segments(p, m, 100.0, 2.0)
}

fn x_bcast_pipelined(p: usize, m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    bcast_pipelined_into(&mut s, m, pipelined_segments(p, m));
    s
}

/// [`crate::gather::gather_binomial`]: message sizes double up the tree.
/// `words` is the size of one block; returns each rank's final
/// accumulated block count (rank 0 ends with `p`).
fn gather_binomial_into(s: &mut Schedule, words: u64) -> Vec<u64> {
    let p = s.p;
    let mut len = vec![1u64; p];
    let mut done = vec![false; p];
    for round in 0..ceil_log2(p) {
        let bit = 1usize << round;
        // Senders post first (the runtime send is non-blocking), then
        // receivers absorb the sender's pre-send length.
        let snapshot = len.clone();
        for rank in 0..p {
            if done[rank] {
                continue;
            }
            if rank & bit != 0 {
                s.ranks[rank].push(SchedOp::Send {
                    to: rank - bit,
                    words: words * snapshot[rank],
                });
                done[rank] = true;
            } else if rank + bit < p {
                s.ranks[rank].push(SchedOp::Recv { from: rank + bit });
                len[rank] += snapshot[rank + bit];
            }
        }
    }
    len
}

fn x_gather_binomial(p: usize, m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    gather_binomial_into(&mut s, m);
    s
}

/// [`crate::gather::scatter_binomial`] with a caller-supplied per-block
/// length table (`block_lens[i]` blocks... in the uniform case every
/// entry is 1 and `words` is the per-block size). Messages carry
/// `words × (number of blocks forwarded)`.
fn scatter_binomial_into(s: &mut Schedule, words: u64) {
    let p = s.p;
    let rounds = ceil_log2(p);
    for rank in 0..p {
        // Blocks held on arrival: rank 0 starts with all p; rank r ≠ 0
        // receives the segment [r, min(r + 2^tz(r), p)).
        let (mut held, first_round) = if rank == 0 {
            (p, 0)
        } else {
            let j = rank.trailing_zeros();
            s.ranks[rank].push(SchedOp::Recv {
                from: rank - (1usize << j),
            });
            ((rank + (1usize << j)).min(p) - rank, rounds - j)
        };
        for round in first_round..rounds {
            let bit = 1usize << (rounds - 1 - round);
            if bit < held {
                let upper = held - bit;
                s.ranks[rank].push(SchedOp::Send {
                    to: rank + bit,
                    words: words * upper as u64,
                });
                held = bit;
            }
        }
    }
}

fn x_scatter_binomial(p: usize, m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    scatter_binomial_into(&mut s, m);
    s
}

/// [`crate::gather::allgather`]: binomial gather + binomial broadcast of
/// the assembled `p`-block vector.
fn x_allgather_binomial(p: usize, m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    gather_binomial_into(&mut s, m);
    bcast_binomial_into(&mut s, 0, m * p as u64);
    s
}

/// [`crate::variants::allgather_ring`] where rank `r` always forwards
/// with its own declared block size `per_rank[r]`.
fn allgather_ring_into(s: &mut Schedule, per_rank: &[u64]) {
    let p = s.p;
    if p <= 1 {
        return;
    }
    for (rank, ops) in s.ranks.iter_mut().enumerate() {
        let next = (rank + 1) % p;
        let prev = (rank + p - 1) % p;
        for _step in 0..p - 1 {
            if p == 2 {
                ops.push(SchedOp::Exchange {
                    peer: next,
                    words: per_rank[rank],
                });
            } else {
                ops.push(SchedOp::Send {
                    to: next,
                    words: per_rank[rank],
                });
                ops.push(SchedOp::Recv { from: prev });
            }
        }
    }
}

fn x_allgather_ring(p: usize, m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    allgather_ring_into(&mut s, &vec![m; p]);
    s
}

/// [`crate::variants::bcast_scatter_allgather`]: binomial scatter of the
/// `p` pieces (each piece charged `words_per_elem = 1` on the wire, as
/// the runtime does) followed by a ring allgather of the pieces, where
/// rank `r` forwards with its own piece size `max(len_r, 1)`.
fn x_bcast_scatter_allgather(p: usize, m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    if p <= 1 {
        return s;
    }
    scatter_binomial_into(&mut s, 1);
    let lens = split_lens(m, p);
    let per_rank: Vec<u64> = lens.iter().map(|&l| l.max(1)).collect();
    allgather_ring_into(&mut s, &per_rank);
    s
}

/// [`crate::gather::barrier`]: the dissemination barrier of empty
/// messages (distinct from the clock barrier [`SchedOp::Barrier`]).
fn x_barrier_dissemination(p: usize, _m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    for rank in 0..p {
        for round in 0..ceil_log2(p) {
            let dist = 1usize << round;
            let to = (rank + dist) % p;
            let from = (rank + p - dist) % p;
            if to == from {
                if to != rank {
                    s.ranks[rank].push(SchedOp::Exchange { peer: to, words: 0 });
                }
                continue;
            }
            s.ranks[rank].push(SchedOp::Send { to, words: 0 });
            s.ranks[rank].push(SchedOp::Recv { from });
        }
    }
    s
}

/// [`crate::reduce::reduce_binomial`] rooted at `root`.
fn reduce_binomial_into(s: &mut Schedule, root: usize, words: u64) {
    let p = s.p;
    for rank in 0..p {
        let v = (rank + p - root) % p;
        for round in 0..ceil_log2(p) {
            let bit = 1usize << round;
            if v & bit != 0 {
                s.ranks[rank].push(SchedOp::Send {
                    to: ((v - bit) + root) % p,
                    words,
                });
                break;
            }
            if v + bit < p {
                s.ranks[rank].push(SchedOp::Recv {
                    from: ((v + bit) + root) % p,
                });
            }
        }
    }
}

fn x_reduce_binomial(p: usize, m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    reduce_binomial_into(&mut s, 0, m);
    s
}

/// [`crate::reduce::allreduce_butterfly`] (power-of-two `p`): `words`
/// per exchange, every round.
fn butterfly_into(s: &mut Schedule, words: u64) {
    let p = s.p;
    for rank in 0..p {
        for round in 0..butterfly_rounds(p) {
            let partner = rank ^ (1usize << round);
            s.ranks[rank].push(SchedOp::Exchange {
                peer: partner,
                words,
            });
        }
    }
}

fn x_allreduce_butterfly(p: usize, m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    butterfly_into(&mut s, m);
    s
}

/// [`crate::reduce::allreduce`]: butterfly for powers of two, otherwise
/// binomial reduce to 0 + binomial broadcast.
fn x_allreduce_generic(p: usize, m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    if p.is_power_of_two() {
        butterfly_into(&mut s, m);
    } else {
        reduce_binomial_into(&mut s, 0, m);
        bcast_binomial_into(&mut s, 0, m);
    }
    s
}

/// [`crate::reduce::allreduce_commutative`]: fold the excess ranks into
/// the leading power-of-two block, butterfly there, ship results back.
fn x_allreduce_commutative(p: usize, m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    if p.is_power_of_two() {
        butterfly_into(&mut s, m);
        return s;
    }
    let k = 1usize << floor_log2(p);
    for rank in 0..p {
        if rank >= k {
            s.ranks[rank].push(SchedOp::Send {
                to: rank - k,
                words: m,
            });
            s.ranks[rank].push(SchedOp::Recv { from: rank - k });
            continue;
        }
        if rank + k < p {
            s.ranks[rank].push(SchedOp::Recv { from: rank + k });
        }
        for round in 0..butterfly_rounds(k) {
            s.ranks[rank].push(SchedOp::Exchange {
                peer: rank ^ (1usize << round),
                words: m,
            });
        }
        if rank + k < p {
            s.ranks[rank].push(SchedOp::Send {
                to: rank + k,
                words: m,
            });
        }
    }
    s
}

/// Recursive-halving core of [`crate::reduce_scatter`]: per round each
/// rank ships the segments whose indices disagree with its own rank on
/// the round bit. Returns each rank's surviving segment length.
fn halving_core_into(s: &mut Schedule, m: u64, wire: u64) -> Vec<u64> {
    let p = s.p;
    let lens = split_lens(m, p);
    for rank in 0..p {
        let mut live: Vec<usize> = (0..p).collect();
        for round in 0..butterfly_rounds(p) {
            let bit = 1usize << round;
            let partner = rank ^ bit;
            let out: u64 = live
                .iter()
                .filter(|&&seg| (seg ^ rank) & bit != 0)
                .map(|&seg| lens[seg] * wire)
                .sum();
            s.ranks[rank].push(SchedOp::Exchange {
                peer: partner,
                words: out,
            });
            live.retain(|&seg| (seg ^ rank) & bit == 0);
        }
        debug_assert_eq!(live, vec![rank]);
    }
    lens
}

/// Recursive-doubling core of [`crate::reduce_scatter`]: accumulated
/// block sizes double per round; each rank sends its own current size.
fn doubling_core_into(s: &mut Schedule, start: &[u64], wire: u64) {
    let p = s.p;
    let mut len = start.to_vec();
    for round in 0..butterfly_rounds(p) {
        let snapshot = len.clone();
        for rank in 0..p {
            let partner = rank ^ (1usize << round);
            s.ranks[rank].push(SchedOp::Exchange {
                peer: partner,
                words: snapshot[rank] * wire,
            });
            len[rank] = snapshot[rank] + snapshot[partner];
        }
    }
}

fn x_reduce_scatter_halving(p: usize, m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    halving_core_into(&mut s, m, 1);
    s
}

/// Ring reduce-scatter of [`crate::reduce_scatter`]: `p − 1` steps, step
/// `k` shipping segment `(rank − 1 − k) mod p`.
fn ring_reduce_scatter_into(s: &mut Schedule, m: u64, wire: u64) -> Vec<u64> {
    let p = s.p;
    let lens = split_lens(m, p);
    if p <= 1 {
        return lens;
    }
    for rank in 0..p {
        let next = (rank + 1) % p;
        let prev = (rank + p - 1) % p;
        for step in 0..p - 1 {
            let send_idx = (rank + p - 1 - step) % p;
            let words = lens[send_idx] * wire;
            if p == 2 {
                s.ranks[rank].push(SchedOp::Exchange { peer: next, words });
            } else {
                s.ranks[rank].push(SchedOp::Send { to: next, words });
                s.ranks[rank].push(SchedOp::Recv { from: prev });
            }
        }
    }
    lens
}

fn x_reduce_scatter_ring(p: usize, m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    ring_reduce_scatter_into(&mut s, m, 1);
    s
}

/// [`crate::reduce_scatter::allreduce_ring`]: ring reduce-scatter, then
/// ring allgather of the reduced segments.
fn x_allreduce_ring(p: usize, m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    if p <= 1 {
        return s;
    }
    let lens = ring_reduce_scatter_into(&mut s, m, 1);
    allgather_ring_into(&mut s, &lens);
    s
}

/// [`crate::reduce_scatter::allreduce_rabenseifner`]: halving+doubling
/// for powers of two; the commutative ring otherwise (`p = 1` is a
/// no-op; the registry models the commutative-operator instantiation).
fn x_allreduce_rabenseifner(p: usize, m: u64) -> Schedule {
    if p.is_power_of_two() {
        let mut s = Schedule::new(p);
        let lens = halving_core_into(&mut s, m, 1);
        doubling_core_into(&mut s, &lens, 1);
        s
    } else {
        x_allreduce_ring(p, m)
    }
}

/// [`crate::reduce_scatter::allreduce_balanced_halving`]: the fused
/// SR-Reduction operator on the halving/doubling pair — `op_sr` puts
/// `words_factor = 2` words on the wire per block word.
fn x_allreduce_balanced_halving(p: usize, m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    let lens = halving_core_into(&mut s, m, 2);
    doubling_core_into(&mut s, &lens, 2);
    s
}

/// [`crate::scan::scan_butterfly`]: exchange with the butterfly partner
/// where one exists (any `p`).
fn scan_butterfly_into(s: &mut Schedule, words: u64) {
    let p = s.p;
    for rank in 0..p {
        for round in 0..butterfly_rounds(p) {
            if let Some(partner) = butterfly_partner(rank, round, p) {
                s.ranks[rank].push(SchedOp::Exchange {
                    peer: partner,
                    words,
                });
            }
        }
    }
}

fn x_scan_butterfly(p: usize, m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    scan_butterfly_into(&mut s, m);
    s
}

/// [`crate::scan::exscan`]: inclusive scan + one shift round.
fn x_exscan(p: usize, m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    scan_butterfly_into(&mut s, m);
    for rank in 0..p {
        if rank + 1 < p {
            s.ranks[rank].push(SchedOp::Send {
                to: rank + 1,
                words: m,
            });
        }
        if rank > 0 {
            s.ranks[rank].push(SchedOp::Recv { from: rank - 1 });
        }
    }
    s
}

/// [`crate::variants::scan_sklansky`]: fan-based scan; the block leader
/// serializes up to `2^j` sends in round `j` (one-ported model).
fn x_scan_sklansky(p: usize, m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    for rank in 0..p {
        for round in 0..butterfly_rounds(p) {
            let bit = 1usize << round;
            if rank & bit != 0 {
                let src = (rank & !(bit * 2 - 1)) | (bit - 1);
                s.ranks[rank].push(SchedOp::Recv { from: src });
            } else if (rank | (bit - 1)) == rank {
                for dst in (rank + 1)..=(rank + bit).min(p.saturating_sub(1)) {
                    s.ranks[rank].push(SchedOp::Send { to: dst, words: m });
                }
            }
        }
    }
    s
}

/// [`crate::balanced::scan_balanced`] with `op_ss` (`words_factor = 3`).
fn x_scan_balanced(p: usize, m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    scan_butterfly_into(&mut s, m * 3);
    s
}

/// [`crate::balanced::reduce_balanced`] with `op_sr`
/// (`words_factor = 2`): the paper's balanced tree (Figure 4).
fn reduce_balanced_into(s: &mut Schedule, words: u64) {
    let tree = BalancedTree::new(s.p);
    for rank in 0..s.p {
        for (_, action) in tree.rank_schedule(rank) {
            match action {
                RankAction::RecvCombine { from } => {
                    s.ranks[rank].push(SchedOp::Recv { from });
                }
                RankAction::SendTo { to } => {
                    s.ranks[rank].push(SchedOp::Send {
                        to,
                        words: words * 2,
                    });
                    break;
                }
                RankAction::ApplyUnary => {}
            }
        }
    }
}

fn x_reduce_balanced(p: usize, m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    reduce_balanced_into(&mut s, m);
    s
}

/// [`crate::balanced::allreduce_balanced`] with `op_sr`: butterfly of
/// doubled words for powers of two, balanced reduce + broadcast
/// otherwise.
fn x_allreduce_balanced(p: usize, m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    if p.is_power_of_two() {
        butterfly_into(&mut s, m * 2);
    } else {
        reduce_balanced_into(&mut s, m);
        bcast_binomial_into(&mut s, 0, m * 2);
    }
    s
}

/// [`crate::comcast::comcast_bcast_repeat`] rooted at 0: all
/// communication is the broadcast; `repeat` is local.
fn x_comcast_bcast_repeat(p: usize, m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    bcast_binomial_into(&mut s, 0, m);
    s
}

/// [`crate::comcast::comcast_cost_optimal`] rooted at 0 with the pair
/// tuple (`words_factor = 2`): successive doubling of the informed set.
fn x_comcast_cost_optimal(p: usize, m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    for v in 0..p {
        let mut informed = v == 0;
        for j in 0..ceil_log2(p) {
            let bit = 1usize << j;
            if informed {
                if v + bit < p {
                    s.ranks[v].push(SchedOp::Send {
                        to: v + bit,
                        words: m * 2,
                    });
                }
            } else if v >= bit && v < 2 * bit {
                s.ranks[v].push(SchedOp::Recv { from: v - bit });
                informed = true;
            }
        }
    }
    s
}

/// [`crate::alltoall::alltoall`]: the linear-shift schedule, `p − 1`
/// rounds of simultaneous pairwise traffic.
fn x_alltoall(p: usize, m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    for rank in 0..p {
        for round in 1..p {
            let dst = (rank + round) % p;
            let src = (rank + p - round) % p;
            if dst == src {
                s.ranks[rank].push(SchedOp::Exchange {
                    peer: dst,
                    words: m,
                });
            } else {
                s.ranks[rank].push(SchedOp::Send { to: dst, words: m });
                s.ranks[rank].push(SchedOp::Recv { from: src });
            }
        }
    }
    s
}

/// [`crate::alltoall::reduce_scatter`]: binomial reduction of the whole
/// `p·m`-word block vector to rank 0, then a binomial scatter.
fn x_reduce_scatter_binomial(p: usize, m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    reduce_binomial_into(&mut s, 0, m * p as u64);
    scatter_binomial_into(&mut s, m);
    s
}

// ---------------------------------------------------------------------------
// Expected-round closed forms (critical-path communication rounds on the
// half-duplex store-and-forward machine; see DESIGN.md §14).
// ---------------------------------------------------------------------------

fn any_p(_p: usize, _m: u64) -> bool {
    true
}

fn pow2_only(p: usize, _m: u64) -> bool {
    p.is_power_of_two()
}

fn r_log(p: usize, _m: u64) -> u64 {
    ceil_log2(p) as u64
}

fn r_2log(p: usize, _m: u64) -> u64 {
    2 * ceil_log2(p) as u64
}

fn r_linear(p: usize, _m: u64) -> u64 {
    p.saturating_sub(1) as u64
}

fn r_ring(p: usize, _m: u64) -> u64 {
    // p − 1 steps; for p > 2 each step is a send and a store-and-forward
    // receive (two rounds), for p = 2 a single exchange.
    match p {
        0 | 1 => 0,
        2 => 1,
        _ => 2 * (p as u64 - 1),
    }
}

fn r_double_ring(p: usize, m: u64) -> u64 {
    2 * r_ring(p, m)
}

fn r_allreduce_generic(p: usize, m: u64) -> u64 {
    if p.is_power_of_two() {
        r_log(p, m)
    } else {
        r_2log(p, m)
    }
}

fn r_allreduce_commutative(p: usize, m: u64) -> u64 {
    if p.is_power_of_two() {
        r_log(p, m)
    } else {
        floor_log2(p) as u64 + 2
    }
}

fn r_rabenseifner(p: usize, m: u64) -> u64 {
    if p.is_power_of_two() {
        r_2log(p, m)
    } else {
        r_double_ring(p, m)
    }
}

fn r_exscan(p: usize, m: u64) -> u64 {
    match p {
        0 | 1 => 0,
        2 => 2,
        _ => r_log(p, m) + 2,
    }
}

fn r_barrier_dissemination(p: usize, m: u64) -> u64 {
    // Each send+recv round costs two store-and-forward rounds; the final
    // round of a power of two collapses to a single exchange.
    match p {
        0 | 1 => 0,
        _ if p.is_power_of_two() => 2 * r_log(p, m) - 1,
        _ => 2 * r_log(p, m),
    }
}

fn r_alltoall(p: usize, _m: u64) -> u64 {
    // p − 1 shift rounds; the self-paired middle round of an even p is a
    // single exchange instead of a send + receive.
    match p {
        0 | 1 => 0,
        _ if p.is_multiple_of(2) => 2 * p as u64 - 3,
        _ => 2 * (p as u64 - 1),
    }
}

fn r_vdg(p: usize, m: u64) -> u64 {
    // Scatter start-ups, then the ring's 2(p − 1) forwarding rounds.
    match p {
        0 | 1 => 0,
        2 => 2,
        _ => r_log(p, m) + 2 * (p as u64 - 1),
    }
}

fn r_pipelined(p: usize, m: u64) -> u64 {
    let s = pipelined_segments(p, m);
    match p {
        0 | 1 => 0,
        2 => s,
        _ => (p as u64 - 1) + 2 * (s - 1),
    }
}

/// Every shipped lowering with its extractor, applicability predicate
/// and promised round count.
pub fn shipped_variants() -> Vec<Variant> {
    use CollectiveKind as K;
    vec![
        Variant {
            name: "bcast_binomial",
            kind: K::Bcast,
            applicable: any_p,
            extract: x_bcast_binomial,
            expected_rounds: r_log,
        },
        Variant {
            name: "bcast_linear",
            kind: K::Bcast,
            applicable: any_p,
            extract: x_bcast_linear,
            expected_rounds: r_linear,
        },
        Variant {
            name: "bcast_pipelined",
            kind: K::Bcast,
            applicable: any_p,
            extract: x_bcast_pipelined,
            expected_rounds: r_pipelined,
        },
        Variant {
            name: "bcast_scatter_allgather",
            kind: K::Bcast,
            applicable: any_p,
            extract: x_bcast_scatter_allgather,
            expected_rounds: r_vdg,
        },
        Variant {
            name: "gather_binomial",
            kind: K::Gather,
            applicable: any_p,
            extract: x_gather_binomial,
            expected_rounds: r_log,
        },
        Variant {
            name: "scatter_binomial",
            kind: K::Scatter,
            applicable: any_p,
            extract: x_scatter_binomial,
            expected_rounds: r_log,
        },
        Variant {
            name: "allgather_binomial",
            kind: K::AllGather,
            applicable: any_p,
            extract: x_allgather_binomial,
            expected_rounds: r_2log,
        },
        Variant {
            name: "allgather_ring",
            kind: K::AllGather,
            applicable: any_p,
            extract: x_allgather_ring,
            expected_rounds: r_ring,
        },
        Variant {
            name: "barrier_dissemination",
            kind: K::Barrier,
            applicable: any_p,
            extract: x_barrier_dissemination,
            expected_rounds: r_barrier_dissemination,
        },
        Variant {
            name: "reduce_binomial",
            kind: K::Reduce,
            applicable: any_p,
            extract: x_reduce_binomial,
            expected_rounds: r_log,
        },
        Variant {
            name: "reduce_balanced",
            kind: K::Reduce,
            applicable: any_p,
            extract: x_reduce_balanced,
            expected_rounds: r_log,
        },
        Variant {
            name: "allreduce_butterfly",
            kind: K::AllReduce,
            applicable: pow2_only,
            extract: x_allreduce_butterfly,
            expected_rounds: r_log,
        },
        Variant {
            name: "allreduce",
            kind: K::AllReduce,
            applicable: any_p,
            extract: x_allreduce_generic,
            expected_rounds: r_allreduce_generic,
        },
        Variant {
            name: "allreduce_commutative",
            kind: K::AllReduce,
            applicable: any_p,
            extract: x_allreduce_commutative,
            expected_rounds: r_allreduce_commutative,
        },
        Variant {
            name: "allreduce_rabenseifner",
            kind: K::AllReduce,
            applicable: any_p,
            extract: x_allreduce_rabenseifner,
            expected_rounds: r_rabenseifner,
        },
        Variant {
            name: "allreduce_ring",
            kind: K::AllReduce,
            applicable: any_p,
            extract: x_allreduce_ring,
            expected_rounds: r_double_ring,
        },
        Variant {
            name: "allreduce_balanced",
            kind: K::AllReduce,
            applicable: any_p,
            extract: x_allreduce_balanced,
            expected_rounds: r_allreduce_generic,
        },
        Variant {
            name: "allreduce_balanced_halving",
            kind: K::AllReduce,
            applicable: pow2_only,
            extract: x_allreduce_balanced_halving,
            expected_rounds: r_2log,
        },
        Variant {
            name: "reduce_scatter_halving",
            kind: K::ReduceScatter,
            applicable: pow2_only,
            extract: x_reduce_scatter_halving,
            expected_rounds: r_log,
        },
        Variant {
            name: "reduce_scatter_ring",
            kind: K::ReduceScatter,
            applicable: any_p,
            extract: x_reduce_scatter_ring,
            expected_rounds: r_ring,
        },
        Variant {
            name: "reduce_scatter_binomial",
            kind: K::ReduceScatter,
            applicable: any_p,
            extract: x_reduce_scatter_binomial,
            expected_rounds: r_2log,
        },
        Variant {
            name: "scan_butterfly",
            kind: K::Scan,
            applicable: any_p,
            extract: x_scan_butterfly,
            expected_rounds: r_log,
        },
        Variant {
            name: "scan_balanced",
            kind: K::Scan,
            applicable: any_p,
            extract: x_scan_balanced,
            expected_rounds: r_log,
        },
        Variant {
            name: "scan_sklansky",
            kind: K::Scan,
            applicable: any_p,
            extract: x_scan_sklansky,
            expected_rounds: r_linear,
        },
        Variant {
            name: "exscan",
            kind: K::ExScan,
            applicable: any_p,
            extract: x_exscan,
            expected_rounds: r_exscan,
        },
        Variant {
            name: "comcast_bcast_repeat",
            kind: K::Comcast,
            applicable: any_p,
            extract: x_comcast_bcast_repeat,
            expected_rounds: r_log,
        },
        Variant {
            name: "comcast_cost_optimal",
            kind: K::Comcast,
            applicable: any_p,
            extract: x_comcast_cost_optimal,
            expected_rounds: r_log,
        },
        Variant {
            name: "alltoall",
            kind: K::AllToAll,
            applicable: any_p,
            extract: x_alltoall,
            expected_rounds: r_alltoall,
        },
    ]
}

// ---------------------------------------------------------------------------
// Planted-bug lowerings: extractors + runnable twins.
// ---------------------------------------------------------------------------

/// Planted bug 1: the ring reduce-scatter with send and receive swapped
/// — every rank posts its receive first, so the ring never moves.
fn x_planted_swapped_ring(p: usize, m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    let lens = split_lens(m, p);
    for rank in 0..p {
        let next = (rank + 1) % p;
        let prev = (rank + p - 1) % p;
        for step in 0..p - 1 {
            let send_idx = (rank + p - 1 - step) % p;
            s.ranks[rank].push(SchedOp::Recv { from: prev });
            s.ranks[rank].push(SchedOp::Send {
                to: next,
                words: lens[send_idx],
            });
        }
    }
    s
}

/// Planted bug 2: every rank except 0 enters the clock barrier.
fn x_planted_dropped_barrier(p: usize, _m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    for rank in 1..p {
        s.ranks[rank].push(SchedOp::Barrier);
    }
    s
}

/// Planted bug 3: a binomial broadcast whose sends all land one rank too
/// high (where a higher rank exists).
fn x_planted_off_by_one_bcast(p: usize, m: u64) -> Schedule {
    let mut s = Schedule::new(p);
    for rank in 0..p {
        let plan = binomial_bcast_rank_plan(p, 0, rank);
        if let Some((_, src)) = plan.recv {
            s.ranks[rank].push(SchedOp::Recv { from: src });
        }
        for (_, dst) in plan.sends {
            let dst = if dst + 1 < p { dst + 1 } else { dst };
            s.ranks[rank].push(SchedOp::Send { to: dst, words: m });
        }
    }
    s
}

/// The planted-bug registry: each entry is statically rejectable with
/// `expected_code` and dynamically deadlocks (see [`planted`]).
pub fn planted_variants() -> Vec<PlantedVariant> {
    vec![
        PlantedVariant {
            variant: Variant {
                name: "planted_swapped_ring_reduce_scatter",
                kind: CollectiveKind::ReduceScatter,
                applicable: |p, _| p >= 3,
                extract: x_planted_swapped_ring,
                expected_rounds: r_ring,
            },
            expected_code: "COL008",
        },
        PlantedVariant {
            variant: Variant {
                name: "planted_dropped_barrier",
                kind: CollectiveKind::Barrier,
                applicable: |p, _| p >= 2,
                extract: x_planted_dropped_barrier,
                expected_rounds: |_, _| 0,
            },
            expected_code: "COL008",
        },
        PlantedVariant {
            variant: Variant {
                name: "planted_off_by_one_bcast",
                kind: CollectiveKind::Bcast,
                applicable: |p, _| p >= 3,
                extract: x_planted_off_by_one_bcast,
                expected_rounds: r_log,
            },
            expected_code: "COL009",
        },
    ]
}

/// Runnable twins of the planted-bug schedules — real lowerings with the
/// same defects, used to demonstrate that what the static verifier
/// rejects also fails dynamically (the DES engine detects the deadlock
/// and panics; the thread engine would hang).
pub mod planted {
    use super::*;
    use crate::op::Splittable;

    /// The ring reduce-scatter of
    /// [`crate::reduce_scatter::reduce_scatter_ring`] with the receive
    /// posted *before* the send: for `p ≥ 3` every rank blocks on its
    /// predecessor before anything is on the wire — a classic wait-for
    /// cycle.
    pub async fn swapped_ring_reduce_scatter_async(ctx: &mut Ctx, block: Vec<i64>) -> Vec<i64> {
        let p = ctx.size();
        assert!(p >= 3, "the planted ring needs at least three ranks");
        let rank = ctx.rank();
        let next = (rank + 1) % p;
        let prev = (rank + p - 1) % p;
        let mut segs: Vec<Vec<i64>> = block.split_into(p);
        for step in 0..p - 1 {
            let send_idx = (rank + p - 1 - step) % p;
            let recv_idx = (rank + p - 2 - step) % p;
            let words = segs[send_idx].len() as u64;
            // BUG (planted): receive before send — the ring never moves.
            let got: Vec<i64> = ctx.recv_async(prev).await;
            ctx.send(next, segs[send_idx].clone(), words);
            segs[recv_idx] = got
                .iter()
                .zip(&segs[recv_idx])
                .map(|(a, b)| a + b)
                .collect();
        }
        segs[rank].clone()
    }

    /// A computation phase that skips the clock barrier on rank 0 only:
    /// every other rank waits forever at a barrier rank 0 never reaches.
    pub async fn dropped_barrier_async(ctx: &mut Ctx) -> usize {
        if ctx.rank() != 0 {
            // BUG (planted): rank 0 took an early-out path around this.
            ctx.barrier_async().await;
        }
        ctx.rank()
    }

    /// The binomial broadcast of [`crate::bcast::bcast_binomial`] with
    /// every send landing one rank too high: the skipped ranks block on
    /// a message that goes elsewhere.
    pub async fn off_by_one_bcast_async(
        ctx: &mut Ctx,
        value: Option<Vec<i64>>,
        words: u64,
    ) -> Vec<i64> {
        let p = ctx.size();
        assert!(p >= 3, "the planted broadcast needs at least three ranks");
        let plan = binomial_bcast_rank_plan(p, 0, ctx.rank());
        let v: Vec<i64> = match (plan.recv, value) {
            (None, Some(v)) => v,
            (Some((_, src)), None) => ctx.recv_async(src).await,
            _ => panic!("exactly the root supplies the broadcast value"),
        };
        for (_, dst) in plan.sends {
            // BUG (planted): off-by-one destination.
            let dst = if dst + 1 < p { dst + 1 } else { dst };
            ctx.send(dst, v.clone(), words);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collopt_machine::{ClockParams, EventKind, Machine};

    /// Extraction is a pure function of `(p, m)`.
    #[test]
    fn extraction_is_deterministic() {
        for v in shipped_variants() {
            for (p, m) in [(5usize, 17u64), (8, 32), (13, 7)] {
                if (v.applicable)(p, m) {
                    assert_eq!((v.extract)(p, m), (v.extract)(p, m), "{}", v.name);
                }
            }
        }
    }

    /// A communication event reduced to what the schedule predicts:
    /// kind, peer, and (where the schedule pins one) word count.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum CommEv {
        Send(usize, u64),
        /// Receive from a rank; the payload size is the sender's
        /// business, so it is not compared here.
        Recv(usize),
        /// Exchange with a peer carrying `max(out, in)` words, which is
        /// what the trace records.
        Exchange(usize, u64),
        Barrier,
    }

    /// Replay a traced run and compare the per-rank event sequence
    /// against the extracted schedule: same op kinds, same peers, same
    /// word counts. Compute/mark/stage events are cost bookkeeping, not
    /// communication, and are skipped.
    fn assert_schedule_matches_trace<T: Send>(
        sched: &Schedule,
        run: impl Fn(&mut Ctx) -> T + Sync,
        name: &str,
    ) {
        let p = sched.p;
        let machine = Machine::new(p, ClockParams::free()).with_tracing();
        let result = machine.run(run);
        let mut per_rank: Vec<Vec<CommEv>> = vec![Vec::new(); p];
        for ev in result.trace.events() {
            let simplified = match &ev.kind {
                EventKind::Send { to, words } => CommEv::Send(*to, *words),
                EventKind::Recv { from, .. } => CommEv::Recv(*from),
                EventKind::Exchange { partner, words, .. } => CommEv::Exchange(*partner, *words),
                EventKind::Barrier => CommEv::Barrier,
                _ => continue,
            };
            per_rank[ev.rank].push(simplified);
        }
        for (rank, traced) in per_rank.iter().enumerate() {
            // Ranks can exchange with the same peer repeatedly (halving
            // then doubling), so the n-th exchange with a peer pairs with
            // that peer's n-th exchange back.
            let mut seen: std::collections::HashMap<usize, usize> =
                std::collections::HashMap::new();
            let expected: Vec<CommEv> = sched.ranks[rank]
                .iter()
                .map(|op| match *op {
                    SchedOp::Send { to, words } => CommEv::Send(to, words),
                    SchedOp::Recv { from } => CommEv::Recv(from),
                    SchedOp::Exchange { peer, words } => {
                        let nth = seen.entry(peer).or_insert(0);
                        // The trace records max(out_words, in_words).
                        let theirs = sched.ranks[peer]
                            .iter()
                            .filter_map(|o| match *o {
                                SchedOp::Exchange { peer: q, words: w } if q == rank => Some(w),
                                _ => None,
                            })
                            .nth(*nth)
                            .unwrap_or(0);
                        *nth += 1;
                        CommEv::Exchange(peer, words.max(theirs))
                    }
                    SchedOp::Barrier => CommEv::Barrier,
                })
                .collect();
            assert_eq!(
                *traced, expected,
                "{name} rank {rank}: traced events (left) diverge from the extracted schedule (right)"
            );
        }
    }

    #[test]
    fn bcast_binomial_schedule_matches_trace() {
        for p in [2usize, 3, 6, 8] {
            let m = 5u64;
            assert_schedule_matches_trace(
                &x_bcast_binomial(p, m),
                move |ctx| {
                    let v = (ctx.rank() == 0).then(|| vec![1i64; m as usize]);
                    crate::bcast::bcast_binomial(ctx, 0, v, m)
                },
                "bcast_binomial",
            );
        }
    }

    #[test]
    fn gather_and_scatter_schedules_match_trace() {
        for p in [2usize, 5, 8, 11] {
            let m = 3u64;
            assert_schedule_matches_trace(
                &x_gather_binomial(p, m),
                move |ctx| crate::gather::gather_binomial(ctx, ctx.rank(), m),
                "gather_binomial",
            );
            assert_schedule_matches_trace(
                &x_scatter_binomial(p, m),
                move |ctx| {
                    let blocks = (ctx.rank() == 0).then(|| (0..ctx.size()).collect::<Vec<_>>());
                    crate::gather::scatter_binomial(ctx, blocks, m)
                },
                "scatter_binomial",
            );
        }
    }

    #[test]
    fn reduce_and_allreduce_schedules_match_trace() {
        for p in [2usize, 4, 6, 8, 13] {
            let m = 2u64;
            assert_schedule_matches_trace(
                &x_reduce_binomial(p, m),
                move |ctx| {
                    let add = |a: &i64, b: &i64| a + b;
                    crate::reduce::reduce_binomial(
                        ctx,
                        0,
                        ctx.rank() as i64,
                        m,
                        &crate::op::Combine::new(&add),
                    )
                },
                "reduce_binomial",
            );
            assert_schedule_matches_trace(
                &x_allreduce_generic(p, m),
                move |ctx| {
                    let add = |a: &i64, b: &i64| a + b;
                    crate::reduce::allreduce(
                        ctx,
                        ctx.rank() as i64,
                        m,
                        &crate::op::Combine::new(&add),
                    )
                },
                "allreduce",
            );
            assert_schedule_matches_trace(
                &x_allreduce_commutative(p, m),
                move |ctx| {
                    let add = |a: &i64, b: &i64| a + b;
                    crate::reduce::allreduce_commutative(
                        ctx,
                        ctx.rank() as i64,
                        m,
                        &crate::op::Combine::new(&add),
                    )
                },
                "allreduce_commutative",
            );
        }
    }

    #[allow(clippy::ptr_arg)]
    fn add_blocks(a: &Vec<i64>, b: &Vec<i64>) -> Vec<i64> {
        a.iter().zip(b).map(|(x, y)| x + y).collect()
    }

    #[test]
    fn segmenting_allreduce_schedules_match_trace() {
        // Divisible and non-divisible block lengths, including m < p.
        for (p, m) in [(4usize, 8u64), (8, 21), (4, 3), (6, 14), (5, 2)] {
            if p.is_power_of_two() {
                assert_schedule_matches_trace(
                    &x_reduce_scatter_halving(p, m),
                    move |ctx| {
                        let block: Vec<i64> = (0..m as i64).collect();
                        let op = crate::op::Combine::new(&add_blocks);
                        crate::reduce_scatter::reduce_scatter_halving(ctx, block, 1, &op)
                    },
                    "reduce_scatter_halving",
                );
            }
            assert_schedule_matches_trace(
                &x_allreduce_rabenseifner(p, m),
                move |ctx| {
                    let block: Vec<i64> = (0..m as i64).collect();
                    let op = crate::op::Combine::new(&add_blocks).assume_commutative();
                    crate::reduce_scatter::allreduce_rabenseifner(ctx, block, 1, &op)
                },
                "allreduce_rabenseifner",
            );
            if p >= 2 {
                assert_schedule_matches_trace(
                    &x_reduce_scatter_ring(p, m),
                    move |ctx| {
                        let block: Vec<i64> = (0..m as i64).collect();
                        let op = crate::op::Combine::new(&add_blocks).assume_commutative();
                        crate::reduce_scatter::reduce_scatter_ring(ctx, block, 1, &op)
                    },
                    "reduce_scatter_ring",
                );
            }
        }
    }

    #[test]
    fn scan_family_schedules_match_trace() {
        for p in [2usize, 4, 6, 8, 11] {
            let m = 1u64;
            assert_schedule_matches_trace(
                &x_scan_butterfly(p, m),
                move |ctx| {
                    let add = |a: &i64, b: &i64| a + b;
                    crate::scan::scan_butterfly(
                        ctx,
                        ctx.rank() as i64,
                        m,
                        &crate::op::Combine::new(&add),
                    )
                },
                "scan_butterfly",
            );
            assert_schedule_matches_trace(
                &x_exscan(p, m),
                move |ctx| {
                    let add = |a: &i64, b: &i64| a + b;
                    crate::scan::exscan(ctx, ctx.rank() as i64, m, &crate::op::Combine::new(&add))
                },
                "exscan",
            );
            assert_schedule_matches_trace(
                &x_scan_sklansky(p, m),
                move |ctx| {
                    let add = |a: &i64, b: &i64| a + b;
                    crate::variants::scan_sklansky(
                        ctx,
                        ctx.rank() as i64,
                        m,
                        &crate::op::Combine::new(&add),
                    )
                },
                "scan_sklansky",
            );
        }
    }

    #[test]
    fn ring_and_vdg_schedules_match_trace() {
        for (p, m) in [(2usize, 4u64), (3, 7), (6, 25), (8, 8)] {
            assert_schedule_matches_trace(
                &x_allgather_ring(p, m),
                move |ctx| crate::variants::allgather_ring(ctx, ctx.rank(), m),
                "allgather_ring",
            );
            assert_schedule_matches_trace(
                &x_bcast_scatter_allgather(p, m),
                move |ctx| {
                    let v = (ctx.rank() == 0).then(|| (0..m as i64).collect::<Vec<i64>>());
                    crate::variants::bcast_scatter_allgather(ctx, v, 1)
                },
                "bcast_scatter_allgather",
            );
        }
    }

    #[test]
    fn balanced_and_comcast_schedules_match_trace() {
        for p in [2usize, 4, 6, 9] {
            let m = 1u64;
            assert_schedule_matches_trace(
                &x_reduce_balanced(p, m),
                move |ctx| {
                    let op = crate::balanced::BalancedOp {
                        combine: &|a: &(i64, i64), b: &(i64, i64)| {
                            let uu = a.1 + b.1;
                            (a.0 + b.0 + a.1, uu + uu)
                        },
                        solo: &|x: &(i64, i64)| (x.0, x.1 + x.1),
                        ops_combine: 4.0,
                        ops_solo: 1.0,
                        words_factor: 2,
                    };
                    let x = ctx.rank() as i64;
                    crate::balanced::reduce_balanced(ctx, (x, x), m, &op)
                },
                "reduce_balanced",
            );
            assert_schedule_matches_trace(
                &x_comcast_cost_optimal(p, m),
                move |ctx| {
                    let op = crate::comcast::RepeatOp {
                        e: &|s: &(i64, i64)| (s.0, s.1 + s.1),
                        o: &|s: &(i64, i64)| (s.0 + s.1, s.1 + s.1),
                        ops_e: 1.0,
                        ops_o: 2.0,
                    };
                    let v = (ctx.rank() == 0).then_some(2i64);
                    crate::comcast::comcast_cost_optimal(
                        ctx,
                        0,
                        v,
                        m,
                        &|b: &i64| (*b, *b),
                        &|s: &(i64, i64)| s.0,
                        &op,
                        2,
                    )
                },
                "comcast_cost_optimal",
            );
        }
    }

    #[test]
    fn alltoall_and_barrier_schedules_match_trace() {
        for p in [2usize, 4, 5, 8] {
            let m = 2u64;
            assert_schedule_matches_trace(
                &x_alltoall(p, m),
                move |ctx| {
                    let blocks: Vec<usize> = (0..ctx.size()).collect();
                    crate::alltoall::alltoall(ctx, blocks, m)
                },
                "alltoall",
            );
            assert_schedule_matches_trace(
                &x_barrier_dissemination(p, m),
                crate::gather::barrier,
                "barrier_dissemination",
            );
        }
    }

    #[test]
    fn pipelined_schedule_matches_trace() {
        for (p, m) in [(2usize, 10u64), (4, 10), (6, 37)] {
            assert_schedule_matches_trace(
                &x_bcast_pipelined(p, m),
                move |ctx| {
                    let v = (ctx.rank() == 0).then(|| (0..m as i64).collect::<Vec<i64>>());
                    crate::pipelined::bcast_pipelined(ctx, 0, v, 1, pipelined_segments(p, m))
                },
                "bcast_pipelined",
            );
        }
    }

    #[test]
    fn planted_registry_entries_are_extractable() {
        for pv in planted_variants() {
            assert!((pv.variant.applicable)(4, 8), "{}", pv.variant.name);
            let s = (pv.variant.extract)(4, 8);
            assert_eq!(s.p, 4);
            assert!(
                pv.expected_code == "COL008" || pv.expected_code == "COL009",
                "{}",
                pv.variant.name
            );
        }
    }
}
