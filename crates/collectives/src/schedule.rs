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
//! A [`Schedule`] is one flat buffer: every rank's program, in rank order,
//! in a single exactly sized `Vec<SchedOp>`, plus `p + 1` offsets into it.
//! Each extractor is a *builder* that emits ops through one
//! `push(rank, op)` call, in any interleaving of ranks. [`Schedule`] runs a
//! builder twice: a counting pass that only sizes every rank's program,
//! then a fill pass that writes each op into its rank's slot of the one
//! buffer. Running a builder twice is legal because builders are pure —
//! their pushes depend on `(p, m)` alone — so both passes push the same
//! ops, and the fill pass checks that they pushed the same number.
//! Extraction therefore allocates a constant number of times, whatever
//! `p` is.
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
//! Fidelity is pinned by one table-driven test over [`shipped_variants`]:
//! it runs each entry's `*_async` body on the traced event engine and
//! compares the extracted schedule, op by op, against the recorded trace
//! events; an entry with no body to run fails it.

use collopt_machine::topology::{
    balanced_rank_plan, binomial_bcast_rank_plan, butterfly_partner, butterfly_rounds, ceil_log2,
    floor_log2, RankAction,
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
    /// Full-machine clock barrier ([`Ctx::barrier_async`]): every rank must
    /// reach it.
    Barrier,
}

/// The complete communication schedule of one collective at one `(p, m)`.
///
/// All rank programs live in one exactly sized buffer, in rank order:
/// [`Schedule::rank`]`(r)` is the slice `ops[offsets[r]..offsets[r + 1]]`,
/// rank `r`'s action sequence in program order. An extracted schedule has
/// [`rank_count`](Schedule::rank_count)` == p`; a hand-built one
/// ([`Schedule::from_rank_programs`]) may not, which the verifier reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Number of ranks.
    pub p: usize,
    /// Every rank's ops, rank 0's first.
    ops: Vec<SchedOp>,
    /// `rank_count() + 1` ascending offsets into `ops`, from 0 to `ops.len()`.
    offsets: Vec<usize>,
}

impl Schedule {
    /// A schedule over `p` ranks from hand-written rank programs,
    /// `programs[r]` being rank `r`'s. The number of programs need not be
    /// `p`, so a malformed schedule can be built too.
    pub fn from_rank_programs(p: usize, programs: &[Vec<SchedOp>]) -> Schedule {
        let mut offsets = vec![0];
        offsets.extend(programs.iter().scan(0, |end, program| {
            *end += program.len();
            Some(*end)
        }));
        Schedule {
            p,
            ops: programs.concat(),
            offsets,
        }
    }

    /// Run the pure `build` twice, as the module docs describe: a counting
    /// pass sizes each rank's program, a fill pass writes it into the one
    /// buffer.
    fn build(p: usize, mut build: impl FnMut(&mut Builder)) -> Schedule {
        let mut b = Builder {
            p,
            filling: false,
            ops: Vec::new(),
            at: vec![0; p + 1],
        };
        build(&mut b);
        // Each count becomes its rank's first slot, kept one place up, so
        // that the fill pass leaves `at[r + 1]` at the end of rank `r`.
        let mut total = 0;
        for slot in &mut b.at[1..] {
            let count = *slot;
            *slot = total;
            total += count;
        }
        b.ops = vec![SchedOp::Barrier; total];
        b.filling = true;
        build(&mut b);
        assert_eq!(
            b.at[p], total,
            "a schedule builder pushed different ops in its two passes"
        );
        Schedule {
            p,
            ops: b.ops,
            offsets: b.at,
        }
    }

    /// Number of rank programs (`p` for every extracted schedule).
    pub fn rank_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Rank `r`'s ops, in program order.
    ///
    /// # Panics
    /// Panics if `r >= self.rank_count()`.
    pub fn rank(&self, r: usize) -> &[SchedOp] {
        &self.ops[self.offsets[r]..self.offsets[r + 1]]
    }

    /// Total number of point-to-point messages (each exchange counts as
    /// one message per direction, matching the machine's channel model).
    pub fn message_count(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                SchedOp::Send { .. } | SchedOp::Exchange { .. } => 1,
                _ => 0,
            })
            .sum()
    }

    /// Total words put on the wire (exchanges count their outgoing side;
    /// the incoming side is the partner's own exchange).
    pub fn total_words(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                SchedOp::Send { words, .. } | SchedOp::Exchange { words, .. } => *words,
                _ => 0,
            })
            .sum()
    }
}

/// What an extractor writes through: in the counting pass a push only
/// counts, in the fill pass it stores the op in its rank's next slot.
struct Builder {
    /// Number of ranks.
    p: usize,
    /// Whether this is the fill pass.
    filling: bool,
    /// The exactly sized buffer (empty while counting).
    ops: Vec<SchedOp>,
    /// `at[r + 1]` is rank `r`'s op count while counting, its next slot
    /// while filling; `at[0]` stays 0.
    at: Vec<usize>,
}

impl Builder {
    /// Append `op` to rank `rank`'s program.
    fn push(&mut self, rank: usize, op: SchedOp) {
        let slot = &mut self.at[rank + 1];
        if self.filling {
            self.ops[*slot] = op;
        }
        *slot += 1;
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
    /// Stable lowercase name; the implementing function is `{name}_async`.
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

/// Part `i` of `m` units split into `n` nearly equal parts, matching
/// [`crate::op::Splittable::split_into`]: it gets one extra unit when
/// `i < m mod n`.
fn split_len(m: u64, n: usize, i: usize) -> u64 {
    let n = n as u64;
    m / n + u64::from((i as u64) < m % n)
}

/// The summed [`split_len`]s of the `count` parts `first`, `first +
/// stride`, `first + 2·stride`, … of `m` units split into `n` parts.
fn split_sum(m: u64, n: usize, first: usize, stride: usize, count: usize) -> u64 {
    // Parts below `m mod n` are the long ones.
    let long_below = (m % n as u64) as usize;
    let long = if first < long_below {
        ((long_below - first - 1) / stride + 1).min(count)
    } else {
        0
    };
    count as u64 * (m / n as u64) + long as u64
}

// ---------------------------------------------------------------------------
// Per-lowering extractors. Each mirrors the control flow of the runtime
// implementation exactly; comments reference the implementing function.
// ---------------------------------------------------------------------------

/// [`crate::bcast::bcast_binomial_async`] rooted at `root`.
fn bcast_binomial_into(b: &mut Builder, root: usize, words: u64) {
    for rank in 0..b.p {
        let plan = binomial_bcast_rank_plan(b.p, root, rank);
        if let Some((_, src)) = plan.recv {
            b.push(rank, SchedOp::Recv { from: src });
        }
        for (_, dst) in plan.sends {
            b.push(rank, SchedOp::Send { to: dst, words });
        }
    }
}

fn x_bcast_binomial(p: usize, m: u64) -> Schedule {
    Schedule::build(p, |b| bcast_binomial_into(b, 0, m))
}

/// [`crate::bcast::bcast_linear_async`]: the root sends to every rank in turn.
fn x_bcast_linear(p: usize, m: u64) -> Schedule {
    Schedule::build(p, |b| {
        for dst in 1..p {
            b.push(0, SchedOp::Send { to: dst, words: m });
            b.push(dst, SchedOp::Recv { from: 0 });
        }
    })
}

/// [`crate::pipelined::bcast_pipelined_async`] with `segments` chunks of the
/// `m`-word block, rooted at 0.
fn bcast_pipelined_into(b: &mut Builder, m: u64, segments: u64) {
    let p = b.p;
    if p <= 1 {
        return;
    }
    let chunks = segments.max(1) as usize;
    for v in 0..p {
        let next = (v + 1) % p;
        let prev = (v + p - 1) % p;
        for c in 0..chunks {
            let words = split_len(m, chunks, c);
            if v == 0 {
                b.push(v, SchedOp::Send { to: next, words });
                continue;
            }
            b.push(v, SchedOp::Recv { from: prev });
            if v + 1 < p {
                b.push(v, SchedOp::Send { to: next, words });
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
    Schedule::build(p, |b| bcast_pipelined_into(b, m, pipelined_segments(p, m)))
}

/// [`crate::gather::gather_binomial_async`]: message sizes double up the
/// tree. `words` is the size of one block; a rank sends, in the round of
/// its lowest set bit, the blocks of its subtree `[rank, rank + bit) ∩
/// [0, p)`, which it has received by then.
fn gather_binomial_into(b: &mut Builder, words: u64) {
    let p = b.p;
    for rank in 0..p {
        for round in 0..ceil_log2(p) {
            let bit = 1usize << round;
            if rank & bit != 0 {
                let blocks = bit.min(p - rank) as u64;
                b.push(
                    rank,
                    SchedOp::Send {
                        to: rank - bit,
                        words: words * blocks,
                    },
                );
                break;
            }
            if rank + bit < p {
                b.push(rank, SchedOp::Recv { from: rank + bit });
            }
        }
    }
}

fn x_gather_binomial(p: usize, m: u64) -> Schedule {
    Schedule::build(p, |b| gather_binomial_into(b, m))
}

/// [`crate::gather::scatter_binomial_async`] with `words` per block.
/// Messages carry `words × (number of blocks forwarded)`.
fn scatter_binomial_into(b: &mut Builder, words: u64) {
    let p = b.p;
    let rounds = ceil_log2(p);
    for rank in 0..p {
        // Blocks held on arrival: rank 0 starts with all p; rank r ≠ 0
        // receives the segment [r, min(r + 2^tz(r), p)).
        let (mut held, first_round) = if rank == 0 {
            (p, 0)
        } else {
            let j = rank.trailing_zeros();
            b.push(
                rank,
                SchedOp::Recv {
                    from: rank - (1usize << j),
                },
            );
            ((rank + (1usize << j)).min(p) - rank, rounds - j)
        };
        for round in first_round..rounds {
            let bit = 1usize << (rounds - 1 - round);
            if bit < held {
                let upper = held - bit;
                b.push(
                    rank,
                    SchedOp::Send {
                        to: rank + bit,
                        words: words * upper as u64,
                    },
                );
                held = bit;
            }
        }
    }
}

fn x_scatter_binomial(p: usize, m: u64) -> Schedule {
    Schedule::build(p, |b| scatter_binomial_into(b, m))
}

/// [`crate::gather::allgather_binomial_async`]: binomial gather + binomial broadcast of
/// the assembled `p`-block vector.
fn x_allgather_binomial(p: usize, m: u64) -> Schedule {
    Schedule::build(p, |b| {
        gather_binomial_into(b, m);
        bcast_binomial_into(b, 0, m * p as u64);
    })
}

/// [`crate::variants::allgather_ring_async`] where rank `r` always forwards
/// with its own declared block size `words(r)`.
fn allgather_ring_into(b: &mut Builder, words: impl Fn(usize) -> u64) {
    let p = b.p;
    if p <= 1 {
        return;
    }
    for rank in 0..p {
        let next = (rank + 1) % p;
        let prev = (rank + p - 1) % p;
        let words = words(rank);
        for _step in 0..p - 1 {
            if p == 2 {
                b.push(rank, SchedOp::Exchange { peer: next, words });
            } else {
                b.push(rank, SchedOp::Send { to: next, words });
                b.push(rank, SchedOp::Recv { from: prev });
            }
        }
    }
}

fn x_allgather_ring(p: usize, m: u64) -> Schedule {
    Schedule::build(p, |b| allgather_ring_into(b, |_| m))
}

/// [`crate::variants::bcast_scatter_allgather_async`]: binomial scatter of the
/// `p` pieces (each piece charged `words_per_elem = 1` on the wire, as
/// the runtime does) followed by a ring allgather of the pieces, where
/// rank `r` forwards with its own piece size `max(len_r, 1)`.
fn x_bcast_scatter_allgather(p: usize, m: u64) -> Schedule {
    Schedule::build(p, |b| {
        if p <= 1 {
            return;
        }
        scatter_binomial_into(b, 1);
        allgather_ring_into(b, |rank| split_len(m, p, rank).max(1));
    })
}

/// [`crate::gather::barrier_dissemination_async`]: the dissemination barrier of empty
/// messages (distinct from the clock barrier [`SchedOp::Barrier`]).
fn x_barrier_dissemination(p: usize, _m: u64) -> Schedule {
    Schedule::build(p, |b| {
        for rank in 0..p {
            for round in 0..ceil_log2(p) {
                let dist = 1usize << round;
                let to = (rank + dist) % p;
                let from = (rank + p - dist) % p;
                if to == from {
                    if to != rank {
                        b.push(rank, SchedOp::Exchange { peer: to, words: 0 });
                    }
                    continue;
                }
                b.push(rank, SchedOp::Send { to, words: 0 });
                b.push(rank, SchedOp::Recv { from });
            }
        }
    })
}

/// [`crate::reduce::reduce_binomial_async`] rooted at `root`.
fn reduce_binomial_into(b: &mut Builder, root: usize, words: u64) {
    let p = b.p;
    for rank in 0..p {
        let v = (rank + p - root) % p;
        for round in 0..ceil_log2(p) {
            let bit = 1usize << round;
            if v & bit != 0 {
                b.push(
                    rank,
                    SchedOp::Send {
                        to: ((v - bit) + root) % p,
                        words,
                    },
                );
                break;
            }
            if v + bit < p {
                b.push(
                    rank,
                    SchedOp::Recv {
                        from: ((v + bit) + root) % p,
                    },
                );
            }
        }
    }
}

fn x_reduce_binomial(p: usize, m: u64) -> Schedule {
    Schedule::build(p, |b| reduce_binomial_into(b, 0, m))
}

/// [`crate::reduce::allreduce_butterfly_async`] (power-of-two `p`): `words`
/// per exchange, every round.
fn butterfly_into(b: &mut Builder, words: u64) {
    let p = b.p;
    for rank in 0..p {
        for round in 0..butterfly_rounds(p) {
            let peer = rank ^ (1usize << round);
            b.push(rank, SchedOp::Exchange { peer, words });
        }
    }
}

fn x_allreduce_butterfly(p: usize, m: u64) -> Schedule {
    Schedule::build(p, |b| butterfly_into(b, m))
}

/// [`crate::reduce::allreduce_async`]: butterfly for powers of two, otherwise
/// binomial reduce to 0 + binomial broadcast.
fn x_allreduce_generic(p: usize, m: u64) -> Schedule {
    Schedule::build(p, |b| {
        if p.is_power_of_two() {
            butterfly_into(b, m);
        } else {
            reduce_binomial_into(b, 0, m);
            bcast_binomial_into(b, 0, m);
        }
    })
}

/// [`crate::reduce::allreduce_commutative_async`]: fold the excess ranks into
/// the leading power-of-two block, butterfly there, ship results back.
fn x_allreduce_commutative(p: usize, m: u64) -> Schedule {
    if p.is_power_of_two() {
        return x_allreduce_butterfly(p, m);
    }
    let k = 1usize << floor_log2(p);
    Schedule::build(p, |b| {
        for rank in 0..p {
            if rank >= k {
                b.push(
                    rank,
                    SchedOp::Send {
                        to: rank - k,
                        words: m,
                    },
                );
                b.push(rank, SchedOp::Recv { from: rank - k });
                continue;
            }
            if rank + k < p {
                b.push(rank, SchedOp::Recv { from: rank + k });
            }
            for round in 0..butterfly_rounds(k) {
                let peer = rank ^ (1usize << round);
                b.push(rank, SchedOp::Exchange { peer, words: m });
            }
            if rank + k < p {
                b.push(
                    rank,
                    SchedOp::Send {
                        to: rank + k,
                        words: m,
                    },
                );
            }
        }
    })
}

/// Recursive-halving core of [`crate::reduce_scatter`] (power-of-two `p`):
/// per round each rank ships the segments that agree with its own rank on
/// the bits below the round bit (the ones it still holds) and disagree on
/// the round bit.
fn halving_core_into(b: &mut Builder, m: u64, wire: u64) {
    let p = b.p;
    debug_assert!(p.is_power_of_two());
    for rank in 0..p {
        for round in 0..butterfly_rounds(p) {
            let bit = 1usize << round;
            let partner = rank ^ bit;
            let shipped = partner & (2 * bit - 1);
            let words = split_sum(m, p, shipped, 2 * bit, p / (2 * bit)) * wire;
            b.push(
                rank,
                SchedOp::Exchange {
                    peer: partner,
                    words,
                },
            );
        }
    }
}

/// Recursive-doubling core of [`crate::reduce_scatter`] after
/// [`halving_core_into`]: accumulated block sizes double per round; each
/// rank sends its own current size, the segments of the aligned `bit`-rank
/// block it belongs to.
fn doubling_core_into(b: &mut Builder, m: u64, wire: u64) {
    let p = b.p;
    debug_assert!(p.is_power_of_two());
    for rank in 0..p {
        for round in 0..butterfly_rounds(p) {
            let bit = 1usize << round;
            let words = split_sum(m, p, rank & !(bit - 1), 1, bit) * wire;
            b.push(
                rank,
                SchedOp::Exchange {
                    peer: rank ^ bit,
                    words,
                },
            );
        }
    }
}

fn x_reduce_scatter_halving(p: usize, m: u64) -> Schedule {
    Schedule::build(p, |b| halving_core_into(b, m, 1))
}

/// Ring reduce-scatter of [`crate::reduce_scatter`]: `p − 1` steps, step
/// `k` shipping segment `(rank − 1 − k) mod p`.
fn ring_reduce_scatter_into(b: &mut Builder, m: u64, wire: u64) {
    let p = b.p;
    if p <= 1 {
        return;
    }
    for rank in 0..p {
        let next = (rank + 1) % p;
        let prev = (rank + p - 1) % p;
        for step in 0..p - 1 {
            let send_idx = (rank + p - 1 - step) % p;
            let words = split_len(m, p, send_idx) * wire;
            if p == 2 {
                b.push(rank, SchedOp::Exchange { peer: next, words });
            } else {
                b.push(rank, SchedOp::Send { to: next, words });
                b.push(rank, SchedOp::Recv { from: prev });
            }
        }
    }
}

fn x_reduce_scatter_ring(p: usize, m: u64) -> Schedule {
    Schedule::build(p, |b| ring_reduce_scatter_into(b, m, 1))
}

/// [`crate::reduce_scatter::allreduce_ring_async`]: ring reduce-scatter, then
/// ring allgather of the reduced segments.
fn x_allreduce_ring(p: usize, m: u64) -> Schedule {
    Schedule::build(p, |b| {
        ring_reduce_scatter_into(b, m, 1);
        allgather_ring_into(b, |rank| split_len(m, p, rank));
    })
}

/// [`crate::reduce_scatter::allreduce_rabenseifner_async`]: halving+doubling
/// for powers of two; the commutative ring otherwise (`p = 1` is a
/// no-op; the registry models the commutative-operator instantiation).
fn x_allreduce_rabenseifner(p: usize, m: u64) -> Schedule {
    if !p.is_power_of_two() {
        return x_allreduce_ring(p, m);
    }
    Schedule::build(p, |b| {
        halving_core_into(b, m, 1);
        doubling_core_into(b, m, 1);
    })
}

/// [`crate::reduce_scatter::allreduce_balanced_halving_async`]: the fused
/// SR-Reduction operator on the halving/doubling pair — `op_sr` puts
/// `words_factor = 2` words on the wire per block word.
fn x_allreduce_balanced_halving(p: usize, m: u64) -> Schedule {
    Schedule::build(p, |b| {
        halving_core_into(b, m, 2);
        doubling_core_into(b, m, 2);
    })
}

/// [`crate::scan::scan_butterfly_async`]: exchange with the butterfly partner
/// where one exists (any `p`).
fn scan_butterfly_into(b: &mut Builder, words: u64) {
    let p = b.p;
    for rank in 0..p {
        for round in 0..butterfly_rounds(p) {
            if let Some(peer) = butterfly_partner(rank, round, p) {
                b.push(rank, SchedOp::Exchange { peer, words });
            }
        }
    }
}

fn x_scan_butterfly(p: usize, m: u64) -> Schedule {
    Schedule::build(p, |b| scan_butterfly_into(b, m))
}

/// [`crate::scan::exscan_async`]: inclusive scan + one shift round.
fn x_exscan(p: usize, m: u64) -> Schedule {
    Schedule::build(p, |b| {
        scan_butterfly_into(b, m);
        for rank in 0..p {
            if rank + 1 < p {
                b.push(
                    rank,
                    SchedOp::Send {
                        to: rank + 1,
                        words: m,
                    },
                );
            }
            if rank > 0 {
                b.push(rank, SchedOp::Recv { from: rank - 1 });
            }
        }
    })
}

/// [`crate::variants::scan_sklansky_async`]: fan-based scan; the block leader
/// serializes up to `2^j` sends in round `j` (one-ported model).
fn x_scan_sklansky(p: usize, m: u64) -> Schedule {
    Schedule::build(p, |b| {
        for rank in 0..p {
            for round in 0..butterfly_rounds(p) {
                let bit = 1usize << round;
                if rank & bit != 0 {
                    let src = (rank & !(bit * 2 - 1)) | (bit - 1);
                    b.push(rank, SchedOp::Recv { from: src });
                } else if (rank | (bit - 1)) == rank {
                    for dst in (rank + 1)..=(rank + bit).min(p.saturating_sub(1)) {
                        b.push(rank, SchedOp::Send { to: dst, words: m });
                    }
                }
            }
        }
    })
}

/// [`crate::balanced::scan_balanced_async`] with `op_ss` (`words_factor = 3`).
fn x_scan_balanced(p: usize, m: u64) -> Schedule {
    Schedule::build(p, |b| scan_butterfly_into(b, m * 3))
}

/// [`crate::balanced::reduce_balanced_async`] with `op_sr`
/// (`words_factor = 2`): the paper's balanced tree (Figure 4), each rank's
/// part of it read from the same [`balanced_rank_plan`] the lowering walks.
fn reduce_balanced_into(b: &mut Builder, words: u64) {
    for rank in 0..b.p {
        for (_, action) in balanced_rank_plan(b.p, rank) {
            match action {
                RankAction::RecvCombine { from } => b.push(rank, SchedOp::Recv { from }),
                RankAction::SendTo { to } => {
                    b.push(
                        rank,
                        SchedOp::Send {
                            to,
                            words: words * 2,
                        },
                    );
                    break;
                }
                RankAction::ApplyUnary => {}
            }
        }
    }
}

fn x_reduce_balanced(p: usize, m: u64) -> Schedule {
    Schedule::build(p, |b| reduce_balanced_into(b, m))
}

/// [`crate::balanced::allreduce_balanced_async`] with `op_sr`: butterfly of
/// doubled words for powers of two, balanced reduce + broadcast
/// otherwise.
fn x_allreduce_balanced(p: usize, m: u64) -> Schedule {
    Schedule::build(p, |b| {
        if p.is_power_of_two() {
            butterfly_into(b, m * 2);
        } else {
            reduce_balanced_into(b, m);
            bcast_binomial_into(b, 0, m * 2);
        }
    })
}

/// [`crate::comcast::comcast_bcast_repeat_async`] rooted at 0: all
/// communication is the broadcast; `repeat` is local.
fn x_comcast_bcast_repeat(p: usize, m: u64) -> Schedule {
    x_bcast_binomial(p, m)
}

/// [`crate::comcast::comcast_cost_optimal_async`] rooted at 0 with the pair
/// tuple (`words_factor = 2`): successive doubling of the informed set.
fn x_comcast_cost_optimal(p: usize, m: u64) -> Schedule {
    Schedule::build(p, |b| {
        for v in 0..p {
            let mut informed = v == 0;
            for j in 0..ceil_log2(p) {
                let bit = 1usize << j;
                if informed {
                    if v + bit < p {
                        b.push(
                            v,
                            SchedOp::Send {
                                to: v + bit,
                                words: m * 2,
                            },
                        );
                    }
                } else if v >= bit && v < 2 * bit {
                    b.push(v, SchedOp::Recv { from: v - bit });
                    informed = true;
                }
            }
        }
    })
}

/// [`crate::alltoall::alltoall_async`]: the linear-shift schedule, `p − 1`
/// rounds of simultaneous pairwise traffic.
fn x_alltoall(p: usize, m: u64) -> Schedule {
    Schedule::build(p, |b| {
        for rank in 0..p {
            for round in 1..p {
                let dst = (rank + round) % p;
                let src = (rank + p - round) % p;
                if dst == src {
                    b.push(
                        rank,
                        SchedOp::Exchange {
                            peer: dst,
                            words: m,
                        },
                    );
                } else {
                    b.push(rank, SchedOp::Send { to: dst, words: m });
                    b.push(rank, SchedOp::Recv { from: src });
                }
            }
        }
    })
}

/// [`crate::alltoall::reduce_scatter_binomial_async`]: binomial reduction of the whole
/// `p·m`-word block vector to rank 0, then a binomial scatter.
fn x_reduce_scatter_binomial(p: usize, m: u64) -> Schedule {
    Schedule::build(p, |b| {
        reduce_binomial_into(b, 0, m * p as u64);
        scatter_binomial_into(b, m);
    })
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
    Schedule::build(p, |b| {
        for rank in 0..p {
            let next = (rank + 1) % p;
            let prev = (rank + p - 1) % p;
            for step in 0..p - 1 {
                let send_idx = (rank + p - 1 - step) % p;
                b.push(rank, SchedOp::Recv { from: prev });
                b.push(
                    rank,
                    SchedOp::Send {
                        to: next,
                        words: split_len(m, p, send_idx),
                    },
                );
            }
        }
    })
}

/// Planted bug 2: every rank except 0 enters the clock barrier.
fn x_planted_dropped_barrier(p: usize, _m: u64) -> Schedule {
    Schedule::build(p, |b| {
        for rank in 1..p {
            b.push(rank, SchedOp::Barrier);
        }
    })
}

/// Planted bug 3: a binomial broadcast whose sends all land one rank too
/// high (where a higher rank exists).
fn x_planted_off_by_one_bcast(p: usize, m: u64) -> Schedule {
    Schedule::build(p, |b| {
        for rank in 0..p {
            let plan = binomial_bcast_rank_plan(p, 0, rank);
            if let Some((_, src)) = plan.recv {
                b.push(rank, SchedOp::Recv { from: src });
            }
            for (_, dst) in plan.sends {
                let dst = if dst + 1 < p { dst + 1 } else { dst };
                b.push(rank, SchedOp::Send { to: dst, words: m });
            }
        }
    })
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
/// rejects also fails dynamically (the event engine detects the deadlock
/// and panics).
pub mod planted {
    use super::*;
    use crate::op::Splittable;

    /// The ring reduce-scatter of
    /// [`crate::reduce_scatter::reduce_scatter_ring_async`] with the receive
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

    /// The binomial broadcast of [`crate::bcast::bcast_binomial_async`] with
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
    use crate::*;
    use collopt_machine::{ClockParams, EventKind, FaultPlan, Machine, Rng, RunResult, Trace};
    use std::future::Future;
    use std::pin::Pin;

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

    /// Compare a traced run's per-rank communication events against the
    /// extracted schedule: same op kinds, same peers, same word counts.
    /// Compute/mark/stage events are cost bookkeeping, not communication,
    /// and are skipped.
    fn assert_schedule_matches_trace(sched: &Schedule, trace: &Trace, what: &str) {
        let p = sched.p;
        let mut per_rank: Vec<Vec<CommEv>> = vec![Vec::new(); p];
        for ev in trace.events() {
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
            let expected: Vec<CommEv> = sched
                .rank(rank)
                .iter()
                .map(|op| match *op {
                    SchedOp::Send { to, words } => CommEv::Send(to, words),
                    SchedOp::Recv { from } => CommEv::Recv(from),
                    SchedOp::Exchange { peer, words } => {
                        let nth = seen.entry(peer).or_insert(0);
                        // The trace records max(out_words, in_words).
                        let theirs = sched
                            .rank(peer)
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
                "{what} rank {rank}: traced events (left) diverge from the extracted schedule (right)"
            );
        }
    }

    /// One rank of a registry entry's lowering at block size `m`, its
    /// result rendered by [`shown`] so that every lowering has one type.
    type Runner = for<'a> fn(&'a mut Ctx, u64) -> Pin<Box<dyn Future<Output = String> + 'a>>;

    fn add(a: &i64, b: &i64) -> i64 {
        a + b
    }

    #[allow(clippy::ptr_arg)]
    fn add_blocks(a: &Vec<i64>, b: &Vec<i64>) -> Vec<i64> {
        a.iter().zip(b).map(|(x, y)| x + y).collect()
    }

    fn add_pair(a: &(i64, i64), b: &(i64, i64)) -> (i64, i64) {
        (a.0 + b.0, a.1 + b.1)
    }

    #[allow(clippy::ptr_arg)]
    fn add_pair_blocks(a: &Vec<(i64, i64)>, b: &Vec<(i64, i64)>) -> Vec<(i64, i64)> {
        a.iter().zip(b).map(|(x, y)| add_pair(x, y)).collect()
    }

    fn keep<T: Clone>(x: &T) -> T {
        x.clone()
    }

    fn shown<T: std::fmt::Debug>(x: T) -> String {
        format!("{x:?}")
    }

    /// The `*_async` body behind each registry entry, instantiated the way
    /// its extractor models it: root 0, `m` words per block (or an
    /// `m`-unit block at one word per unit for the segmenting lowerings),
    /// the fused operators' word factors (2 for `op_sr`, 3 for `op_ss`) and
    /// a commutative operator where the ring needs one. No lowering's
    /// communication depends on payload values, but each rank contributes
    /// its own (`rank + 1`), so a message taken from the wrong source
    /// changes the result.
    fn runner(name: &str) -> Option<Runner> {
        let run: Runner = match name {
            "bcast_binomial" => |ctx, m| {
                Box::pin(async move {
                    let v = (ctx.rank() == 0).then_some(1i64);
                    shown(bcast_binomial_async(ctx, 0, v, m).await)
                })
            },
            "bcast_linear" => |ctx, m| {
                Box::pin(async move {
                    let v = (ctx.rank() == 0).then_some(1i64);
                    shown(bcast_linear_async(ctx, 0, v, m).await)
                })
            },
            "bcast_pipelined" => |ctx, m| {
                Box::pin(async move {
                    let segments = pipelined_segments(ctx.size(), m);
                    let v = (ctx.rank() == 0).then(|| vec![1i64; m as usize]);
                    shown(bcast_pipelined_async(ctx, 0, v, 1, segments).await)
                })
            },
            "bcast_scatter_allgather" => |ctx, m| {
                Box::pin(async move {
                    let v = (ctx.rank() == 0).then(|| vec![1i64; m as usize]);
                    shown(bcast_scatter_allgather_async(ctx, v, 1).await)
                })
            },
            "gather_binomial" => |ctx, m| {
                Box::pin(async move {
                    let x = ctx.rank() as i64 + 1;
                    shown(gather_binomial_async(ctx, x, m).await)
                })
            },
            "scatter_binomial" => |ctx, m| {
                Box::pin(async move {
                    let blocks = (ctx.rank() == 0).then(|| vec![1i64; ctx.size()]);
                    shown(scatter_binomial_async(ctx, blocks, m).await)
                })
            },
            "allgather_binomial" => |ctx, m| {
                Box::pin(async move {
                    let x = ctx.rank() as i64 + 1;
                    shown(allgather_binomial_async(ctx, x, m).await)
                })
            },
            "allgather_ring" => |ctx, m| {
                Box::pin(async move {
                    let x = ctx.rank() as i64 + 1;
                    shown(allgather_ring_async(ctx, x, m).await)
                })
            },
            "barrier_dissemination" => |ctx, _| {
                Box::pin(async move {
                    barrier_dissemination_async(ctx).await;
                    String::new()
                })
            },
            "reduce_binomial" => |ctx, m| {
                Box::pin(async move {
                    let x = ctx.rank() as i64 + 1;
                    shown(reduce_binomial_async(ctx, 0, x, m, &Combine::new(&add)).await)
                })
            },
            "reduce_balanced" => |ctx, m| {
                Box::pin(async move {
                    let x = ctx.rank() as i64 + 1;
                    shown(reduce_balanced_async(ctx, (x, x), m, &sr_op()).await)
                })
            },
            "allreduce_butterfly" => |ctx, m| {
                Box::pin(async move {
                    let x = ctx.rank() as i64 + 1;
                    shown(allreduce_butterfly_async(ctx, x, m, &Combine::new(&add)).await)
                })
            },
            "allreduce" => |ctx, m| {
                Box::pin(async move {
                    let x = ctx.rank() as i64 + 1;
                    shown(allreduce_async(ctx, x, m, &Combine::new(&add)).await)
                })
            },
            "allreduce_commutative" => |ctx, m| {
                Box::pin(async move {
                    let x = ctx.rank() as i64 + 1;
                    let op = Combine::new(&add).assume_commutative();
                    shown(allreduce_commutative_async(ctx, x, m, &op).await)
                })
            },
            "allreduce_rabenseifner" => |ctx, m| {
                Box::pin(async move {
                    let x = ctx.rank() as i64 + 1;
                    let op = Combine::new(&add_blocks).assume_commutative();
                    shown(allreduce_rabenseifner_async(ctx, vec![x; m as usize], 1, &op).await)
                })
            },
            "allreduce_ring" => |ctx, m| {
                Box::pin(async move {
                    let x = ctx.rank() as i64 + 1;
                    let op = Combine::new(&add_blocks).assume_commutative();
                    shown(allreduce_ring_async(ctx, vec![x; m as usize], 1, &op).await)
                })
            },
            "allreduce_balanced" => |ctx, m| {
                Box::pin(async move {
                    let x = ctx.rank() as i64 + 1;
                    shown(allreduce_balanced_async(ctx, (x, x), m, &sr_op()).await)
                })
            },
            "allreduce_balanced_halving" => |ctx, m| {
                Box::pin(async move {
                    let x = ctx.rank() as i64 + 1;
                    let op = BalancedOp {
                        combine: &add_pair_blocks,
                        solo: &keep,
                        ops_combine: 4.0,
                        ops_solo: 1.0,
                        words_factor: 2,
                    };
                    let block = vec![(x, x); m as usize];
                    shown(allreduce_balanced_halving_async(ctx, block, 1, &op).await)
                })
            },
            "reduce_scatter_halving" => |ctx, m| {
                Box::pin(async move {
                    let x = ctx.rank() as i64 + 1;
                    let op = Combine::new(&add_blocks);
                    shown(reduce_scatter_halving_async(ctx, vec![x; m as usize], 1, &op).await)
                })
            },
            "reduce_scatter_ring" => |ctx, m| {
                Box::pin(async move {
                    let x = ctx.rank() as i64 + 1;
                    let op = Combine::new(&add_blocks).assume_commutative();
                    shown(reduce_scatter_ring_async(ctx, vec![x; m as usize], 1, &op).await)
                })
            },
            "reduce_scatter_binomial" => |ctx, m| {
                Box::pin(async move {
                    let x = ctx.rank() as i64 + 1;
                    let blocks = vec![x; ctx.size()];
                    shown(reduce_scatter_binomial_async(ctx, blocks, m, &Combine::new(&add)).await)
                })
            },
            "scan_butterfly" => |ctx, m| {
                Box::pin(async move {
                    let x = ctx.rank() as i64 + 1;
                    shown(scan_butterfly_async(ctx, x, m, &Combine::new(&add)).await)
                })
            },
            "scan_balanced" => |ctx, m| {
                Box::pin(async move {
                    let x = ctx.rank() as i64 + 1;
                    let op = PairedOp {
                        combine: &|a: &(i64, i64), b: &(i64, i64)| (*a, add_pair(a, b)),
                        solo: &keep,
                        ops_lower: 5.0,
                        ops_upper: 8.0,
                        ops_solo: 1.0,
                        words_factor: 3,
                    };
                    shown(scan_balanced_async(ctx, (x, x), m, &op).await)
                })
            },
            "scan_sklansky" => |ctx, m| {
                Box::pin(async move {
                    let x = ctx.rank() as i64 + 1;
                    shown(scan_sklansky_async(ctx, x, m, &Combine::new(&add)).await)
                })
            },
            "exscan" => |ctx, m| {
                Box::pin(async move {
                    let x = ctx.rank() as i64 + 1;
                    shown(exscan_async(ctx, x, m, &Combine::new(&add)).await)
                })
            },
            "comcast_bcast_repeat" => |ctx, m| {
                Box::pin(async move {
                    let v = (ctx.rank() == 0).then_some(1i64);
                    let pair = |b: &i64| (*b, *b);
                    shown(comcast_bcast_repeat_async(ctx, 0, v, m, &pair, &|s| s.0, &bs_op()).await)
                })
            },
            "comcast_cost_optimal" => |ctx, m| {
                Box::pin(async move {
                    let v = (ctx.rank() == 0).then_some(1i64);
                    let pair = |b: &i64| (*b, *b);
                    shown(
                        comcast_cost_optimal_async(ctx, 0, v, m, &pair, &|s| s.0, &bs_op(), 2)
                            .await,
                    )
                })
            },
            "alltoall" => |ctx, m| {
                Box::pin(async move {
                    let x = ctx.rank() as i64 + 1;
                    shown(alltoall_async(ctx, vec![x; ctx.size()], m).await)
                })
            },
            _ => return None,
        };
        Some(run)
    }

    /// The paper's `op_sr` shape: pairs on the wire (`words_factor = 2`).
    fn sr_op() -> BalancedOp<'static, (i64, i64)> {
        BalancedOp {
            combine: &add_pair,
            solo: &keep,
            ops_combine: 4.0,
            ops_solo: 1.0,
            words_factor: 2,
        }
    }

    /// BS-Comcast's repeat operator over `(t, u)` pairs.
    fn bs_op() -> RepeatOp<'static, (i64, i64)> {
        RepeatOp {
            e: &|s| (s.0, s.1 + s.1),
            o: &|s| (s.0 + s.1, s.1 + s.1),
            ops_e: 1.0,
            ops_o: 2.0,
        }
    }

    /// A registry entry's extracted schedule equals, op for op, the trace
    /// of its `*_async` body on the event engine at every applicable point
    /// of p = 1..=17 × m ∈ {1, 2, 5, 8, 13, 32} — divisible and ragged
    /// blocks, m < p and m > p. The body also runs under the two permuted
    /// step orders of the event engine that `engine_identity` uses (the
    /// full reversal and a seeded mask with bit 0 set): each trace matches
    /// the schedule too, and the run equals the canonical one bit for bit
    /// — results, clocks, counters and trace. An entry without a runner
    /// fails.
    fn assert_entry_matches_lowering(v: &Variant) {
        let run =
            runner(v.name).unwrap_or_else(|| panic!("registry entry {} has no runner", v.name));
        let clock = ClockParams::new(100.0, 2.0);
        for p in 1..=17usize {
            for m in [1u64, 2, 5, 8, 13, 32] {
                if !(v.applicable)(p, m) {
                    continue;
                }
                let sched = (v.extract)(p, m);
                let machine = Machine::new(p, clock).with_tracing();
                let canonical = machine.run_des(|ctx| run(ctx, m));
                let what = format!("{} p={p} m={m}", v.name);
                assert_schedule_matches_trace(&sched, &canonical.trace, &what);
                let seeded = Rng::new(p as u64 * 64 + m).next_u64() | 1;
                for order in [u64::MAX, seeded] {
                    let plan = FaultPlan::default().with_order(order);
                    let permuted = machine.clone().with_faults(plan).run_des(|ctx| run(ctx, m));
                    let what = format!("{what} order={order:#x}");
                    assert_schedule_matches_trace(&sched, &permuted.trace, &what);
                    assert_runs_identical(&canonical, &permuted, &what);
                }
            }
        }
    }

    fn assert_runs_identical(a: &RunResult<String>, b: &RunResult<String>, what: &str) {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.results, b.results, "{what}: results");
        assert_eq!(
            a.makespan.to_bits(),
            b.makespan.to_bits(),
            "{what}: makespan"
        );
        assert_eq!(
            bits(&a.finish_times),
            bits(&b.finish_times),
            "{what}: finish times"
        );
        assert_eq!(
            bits(&a.compute_ops),
            bits(&b.compute_ops),
            "{what}: compute"
        );
        assert_eq!(a.messages, b.messages, "{what}: message counts");
        assert_eq!(a.trace, b.trace, "{what}: trace");
    }

    /// [`assert_entry_matches_lowering`] for the named registry entries;
    /// a name the registry does not ship fails.
    fn assert_entries_match_lowering(names: &[&str]) {
        let registry = shipped_variants();
        for name in names {
            let v = registry
                .iter()
                .find(|v| v.name == *name)
                .unwrap_or_else(|| panic!("{name} is not a registry entry"));
            assert_entry_matches_lowering(v);
        }
    }

    /// Fidelity of the whole registry: all entries, through the same
    /// runner table as the per-family tests below.
    #[test]
    fn every_registry_entry_schedule_matches_its_lowering() {
        for v in shipped_variants() {
            assert_entry_matches_lowering(&v);
        }
    }

    #[test]
    fn bcast_binomial_schedule_matches_trace() {
        assert_entries_match_lowering(&["bcast_binomial"]);
    }

    #[test]
    fn gather_and_scatter_schedules_match_trace() {
        assert_entries_match_lowering(&["gather_binomial", "scatter_binomial"]);
    }

    #[test]
    fn reduce_and_allreduce_schedules_match_trace() {
        assert_entries_match_lowering(&["reduce_binomial", "allreduce", "allreduce_commutative"]);
    }

    #[test]
    fn segmenting_allreduce_schedules_match_trace() {
        assert_entries_match_lowering(&[
            "reduce_scatter_halving",
            "allreduce_rabenseifner",
            "reduce_scatter_ring",
        ]);
    }

    #[test]
    fn scan_family_schedules_match_trace() {
        assert_entries_match_lowering(&["scan_butterfly", "exscan", "scan_sklansky"]);
    }

    #[test]
    fn ring_and_vdg_schedules_match_trace() {
        assert_entries_match_lowering(&["allgather_ring", "bcast_scatter_allgather"]);
    }

    #[test]
    fn balanced_and_comcast_schedules_match_trace() {
        assert_entries_match_lowering(&["reduce_balanced", "comcast_cost_optimal"]);
    }

    #[test]
    fn alltoall_and_barrier_schedules_match_trace() {
        assert_entries_match_lowering(&["alltoall", "barrier_dissemination"]);
    }

    #[test]
    fn pipelined_schedule_matches_trace() {
        assert_entries_match_lowering(&["bcast_pipelined"]);
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
