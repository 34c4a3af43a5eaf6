//! The discrete-event execution engine ([`ExecEngine::Des`]).
//!
//! The thread engine gives every rank an OS thread and lets the kernel
//! interleave them; blocking operations park real threads. That caps `p`
//! at the host's thread budget (~4k) and pays a context switch per
//! message. This engine instead runs *all* ranks on one thread: each rank
//! is a resumable future over its [`Ctx`], and a binary-heap event queue
//! decides which rank steps next, ordered by the simulated timestamp at
//! which it became runnable. `p` is bounded by memory — a rank costs two
//! boxed futures (the caller's body and this module's wrapper around it),
//! one inbox buffer and three words of waiter links — so 10^5..10^6-rank
//! machines fit where the thread engine stops at thousands.
//!
//! ## Event model
//!
//! A rank runs until it *blocks* (directed receive with nothing queued
//! from that source, `recv_any` with an empty inbox, or a barrier that has
//! not released).
//! Blocking registers a [`Waiting`] entry recording the operation and the
//! rank's clock at suspension, then returns `Poll::Pending` to the
//! scheduler. Unblocking events — a packet push, a barrier release, a
//! peer's death — convert the entry into a `(timestamp, rank)` heap key:
//! `max(waiter clock, packet send time)` for a delivery, the release time
//! for a barrier, the waiter's own clock for death/abort wake-ups. Keys
//! are `f64::to_bits` of the timestamp (monotonic for the non-negative
//! times the clock produces) with the rank as tie-break, so the step
//! order is a pure function of the simulated communication structure.
//!
//! ## Identity guarantees
//!
//! The scheduler reuses the `Ctx` cost/fault/trace pipeline *verbatim* —
//! only the blocking primitive underneath (`Mailboxes`/`ClockBarrier`
//! vs. this module's queues and [`BarrierAlgebra`]) differs, and those
//! mirror the channel semantics operation for operation (drain before
//! disconnect, rotating `recv_any` scan, first-error-wins barrier abort,
//! abort-then-death unwind order). Every observable — outputs, makespan
//! bits, retry counters, Chrome traces — is therefore bit-identical to
//! the thread engine, which `bench/tests/engine_identity.rs` enforces
//! over a 528-point differential grid.
//!
//! [`ExecEngine::Des`]: crate::machine::ExecEngine::Des

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::panic::AssertUnwindSafe;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use crate::barrier::{Arrival, BarrierAlgebra};
use crate::channel::Packet;
use crate::clock::{ClockParams, SimClock};
use crate::error::MachineError;
use crate::fault::FaultPlan;
use crate::machine::{Ctx, FaultAbort, RankOutcome};
use crate::trace::Trace;

/// Why a suspended rank is not runnable, plus its clock at suspension
/// (the earliest simulated time it could resume at).
#[derive(Clone, Copy)]
enum Waiting {
    /// Runnable (or running) — no wake-up needed.
    None,
    /// Blocked in a directed receive from `from`.
    Recv { from: usize, at: f64 },
    /// Blocked in `recv_any` with an empty inbox.
    RecvAny { at: f64 },
    /// Parked in a barrier generation that has not released.
    Barrier { at: f64 },
}

/// One rank's incoming packets in arrival order, each tagged with its
/// source — an MPI library's unexpected-message queue. Per-pair FIFO is
/// arrival order restricted to the pair, so one queue answers both kinds of
/// receive and a message costs a slot in it, not a table entry and a buffer
/// per `(from, to)` pair (nearly every pair of a butterfly or a binomial
/// tree talks once). The footprint stays proportional to what is actually
/// parked — O(p log p) over the machine, not the thread mesh's dense O(p²).
#[derive(Default)]
struct DesInbox {
    queue: VecDeque<(usize, Packet)>,
    /// Rotating fair-scan cursor for `recv_any`, mirroring the channel's.
    next_scan: usize,
}

impl DesInbox {
    fn push(&mut self, src: usize, packet: Packet) {
        self.queue.push_back((src, packet));
    }

    /// Remove the oldest packet from `src`. Costs O(entries skipped): the
    /// shipped lowerings receive close to arrival order (over the whole
    /// test suite a directed pop skips at most ⌈log₂ p⌉ + 1 entries, 15 at
    /// p = 65 536), but a rank body that parks thousands of packets from
    /// distinct sources and takes them out of arrival order pays for each
    /// one it steps over.
    fn pop_from(&mut self, src: usize) -> Option<Packet> {
        let i = self.queue.iter().position(|&(s, _)| s == src)?;
        self.queue.remove(i).map(|(_, packet)| packet)
    }

    /// The thread mesh's rotating scan over per-source FIFOs: the oldest
    /// packet of the first source at or after the cursor (mod `p`), then
    /// the cursor moves past that source. O(queue length).
    fn pop_any(&mut self, p: usize) -> Option<(usize, Packet)> {
        let start = self.next_scan;
        let (i, _) = self
            .queue
            .iter()
            .enumerate()
            .min_by_key(|&(i, &(src, _))| ((src + p - start) % p, i))?;
        let (src, packet) = self.queue.remove(i)?;
        self.next_scan = (src + 1) % p;
        Some((src, packet))
    }
}

/// "No rank" in the intrusive waiter lists.
const NIL: usize = usize::MAX;

struct DesState {
    inboxes: Vec<DesInbox>,
    waiting: Vec<Waiting>,
    /// Wake-ups produced while a rank was stepping, drained into the
    /// scheduler heap after every poll.
    wakes: Vec<(f64, usize)>,
    barrier: BarrierAlgebra,
    /// A rank is dead once it finished, faulted or panicked — the DES
    /// equivalent of the thread mesh's mailbox-drop disconnect cascade.
    dead: Vec<bool>,
    /// Ranks not yet dead, for O(1) all-peers-dead checks in `recv_any`.
    live: usize,
    /// Directed receivers, as one intrusive doubly-linked list per source:
    /// `wait_head[src]` is the latest rank to block on `src`, `wait_next` /
    /// `wait_prev` are indexed by the blocked rank (it waits on at most one
    /// source). A rank is linked under `src` exactly while `waiting[rank]`
    /// is `Recv { from: src, .. }` — only [`DesState::set_waiting`] moves a
    /// rank into or out of that state — so a delivery unlinks in O(1) and a
    /// death wakes the affected ranks only, not all `p` (which would make
    /// teardown O(p²)).
    wait_head: Vec<usize>,
    wait_next: Vec<usize>,
    wait_prev: Vec<usize>,
    /// `recv_any` and barrier waiters are appended on suspension and
    /// checked against `waiting` when consumed, so entries left behind by
    /// wake-ups already delivered are harmless.
    any_waiters: Vec<usize>,
    barrier_waiters: Vec<usize>,
}

impl DesState {
    /// Record why `rank` is (no longer) suspended, moving it between the
    /// directed-receive lists as needed. Re-registering is idempotent: a
    /// receive polled twice while pending ends up linked once.
    fn set_waiting(&mut self, rank: usize, to: Waiting) {
        if let Waiting::Recv { from, .. } = self.waiting[rank] {
            let (prev, next) = (self.wait_prev[rank], self.wait_next[rank]);
            match prev {
                NIL => self.wait_head[from] = next,
                _ => self.wait_next[prev] = next,
            }
            if next != NIL {
                self.wait_prev[next] = prev;
            }
        }
        if let Waiting::Recv { from, .. } = to {
            let head = std::mem::replace(&mut self.wait_head[from], rank);
            (self.wait_prev[rank], self.wait_next[rank]) = (NIL, head);
            if head != NIL {
                self.wait_prev[head] = rank;
            }
        }
        self.waiting[rank] = to;
    }
}

/// The single-threaded shared state every DES [`Ctx`] points into.
pub(crate) struct DesShared {
    p: usize,
    state: RefCell<DesState>,
}

impl DesShared {
    pub(crate) fn new(p: usize) -> Self {
        DesShared {
            p,
            state: RefCell::new(DesState {
                inboxes: (0..p).map(|_| DesInbox::default()).collect(),
                waiting: vec![Waiting::None; p],
                wakes: Vec::new(),
                barrier: BarrierAlgebra::new(p),
                dead: vec![false; p],
                live: p,
                wait_head: vec![NIL; p],
                wait_next: vec![NIL; p],
                wait_prev: vec![NIL; p],
                any_waiters: Vec::new(),
                barrier_waiters: Vec::new(),
            }),
        }
    }

    /// Deliver a packet from `from` to `to`. Like the thread channel,
    /// delivery to a dead rank succeeds silently — death only surfaces
    /// on the *receive* side (drain first, then disconnect).
    pub(crate) fn push(&self, from: usize, to: usize, packet: Packet) -> Result<(), MachineError> {
        if to >= self.p {
            return Err(MachineError::InvalidRank {
                rank: to,
                size: self.p,
            });
        }
        let mut guard = self.state.borrow_mut();
        let s = &mut *guard;
        let wake = match s.waiting[to] {
            Waiting::Recv { from: want, at } if want == from => Some(at.max(packet.send_time)),
            Waiting::RecvAny { at } => Some(at.max(packet.send_time)),
            _ => None,
        };
        s.inboxes[to].push(from, packet);
        if let Some(t) = wake {
            s.set_waiting(to, Waiting::None);
            s.wakes.push((t, to));
        }
        Ok(())
    }

    /// A rank left the machine (completed, faulted or panicked): wake
    /// everyone blocked on it so they can observe the disconnect — the
    /// counterpart of the thread mesh's `Drop for Mailboxes` cascade.
    pub(crate) fn mark_dead(&self, rank: usize) {
        let mut guard = self.state.borrow_mut();
        let s = &mut *guard;
        if s.dead[rank] {
            return;
        }
        s.dead[rank] = true;
        s.live -= 1;
        // Directed receivers blocked on this rank; each wake unlinks the head.
        while s.wait_head[rank] != NIL {
            let r = s.wait_head[rank];
            let Waiting::Recv { at, .. } = s.waiting[r] else {
                unreachable!("a linked rank is blocked in a directed receive");
            };
            s.set_waiting(r, Waiting::None);
            s.wakes.push((at, r));
        }
        // Every `recv_any` waiter re-examines its inbox and the dead set.
        for r in std::mem::take(&mut s.any_waiters) {
            if let Waiting::RecvAny { at } = s.waiting[r] {
                s.waiting[r] = Waiting::None;
                s.wakes.push((at, r));
            }
        }
    }

    /// Abort the barrier (first error wins) and wake every parked rank so
    /// it observes the error instead of waiting forever.
    pub(crate) fn abort_barrier(&self, err: MachineError) {
        let mut guard = self.state.borrow_mut();
        let s = &mut *guard;
        s.barrier.abort(err);
        for r in std::mem::take(&mut s.barrier_waiters) {
            if let Waiting::Barrier { at } = s.waiting[r] {
                s.waiting[r] = Waiting::None;
                s.wakes.push((at, r));
            }
        }
    }

    /// Move the wake-ups accumulated during the last step into the heap.
    fn drain_wakes_into(&self, heap: &mut BinaryHeap<Reverse<(u64, usize)>>) {
        let mut s = self.state.borrow_mut();
        for (t, r) in s.wakes.drain(..) {
            heap.push(Reverse((t.to_bits(), r)));
        }
    }
}

/// Future form of `Mailboxes::pop`: resolve from the queue, report a dead
/// source, or suspend until either happens.
pub(crate) struct DesPop {
    shared: Rc<DesShared>,
    me: usize,
    from: usize,
    at: f64,
}

impl DesPop {
    pub(crate) fn new(shared: Rc<DesShared>, me: usize, from: usize, at: f64) -> Self {
        DesPop {
            shared,
            me,
            from,
            at,
        }
    }
}

impl Future for DesPop {
    type Output = Result<Packet, MachineError>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        if this.from >= this.shared.p {
            return Poll::Ready(Err(MachineError::InvalidRank {
                rank: this.from,
                size: this.shared.p,
            }));
        }
        let mut guard = this.shared.state.borrow_mut();
        let s = &mut *guard;
        // Queued packets drain before a disconnect is reported.
        if let Some(packet) = s.inboxes[this.me].pop_from(this.from) {
            return Poll::Ready(Ok(packet));
        }
        if s.dead[this.from] {
            return Poll::Ready(Err(MachineError::Disconnected { rank: this.from }));
        }
        let (from, at) = (this.from, this.at);
        s.set_waiting(this.me, Waiting::Recv { from, at });
        Poll::Pending
    }
}

/// Future form of `Mailboxes::pop_any`: rotating fair scan over all
/// sources, disconnect only when every peer is dead and nothing is queued.
pub(crate) struct DesPopAny {
    shared: Rc<DesShared>,
    me: usize,
    at: f64,
}

impl DesPopAny {
    pub(crate) fn new(shared: Rc<DesShared>, me: usize, at: f64) -> Self {
        DesPopAny { shared, me, at }
    }
}

impl Future for DesPopAny {
    type Output = Result<(usize, Packet), MachineError>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let p = this.shared.p;
        let mut guard = this.shared.state.borrow_mut();
        let s = &mut *guard;
        if let Some(hit) = s.inboxes[this.me].pop_any(p) {
            return Poll::Ready(Ok(hit));
        }
        // Nothing queued: disconnect once every peer is dead (same pick
        // as the thread mesh's scan — the lowest dead peer).
        if s.live <= usize::from(!s.dead[this.me]) {
            let rank = if p == 1 {
                0
            } else if this.me == 0 {
                1
            } else {
                0
            };
            return Poll::Ready(Err(MachineError::Disconnected { rank }));
        }
        s.set_waiting(this.me, Waiting::RecvAny { at: this.at });
        s.any_waiters.push(this.me);
        Poll::Pending
    }
}

/// Future form of `ClockBarrier::wait`, driving the shared
/// [`BarrierAlgebra`] directly: arrive once, then park on the generation
/// token until the last rank releases it (or a death aborts it).
pub(crate) struct DesBarrier {
    shared: Rc<DesShared>,
    me: usize,
    entry: f64,
    parked: Option<u64>,
}

impl DesBarrier {
    pub(crate) fn new(shared: Rc<DesShared>, me: usize, entry: f64) -> Self {
        DesBarrier {
            shared,
            me,
            entry,
            parked: None,
        }
    }
}

impl Future for DesBarrier {
    type Output = Result<f64, MachineError>;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut guard = this.shared.state.borrow_mut();
        let s = &mut *guard;
        if let Some(generation) = this.parked {
            return match s.barrier.check(generation) {
                Some(result) => Poll::Ready(result),
                None => {
                    s.set_waiting(this.me, Waiting::Barrier { at: this.entry });
                    s.barrier_waiters.push(this.me);
                    Poll::Pending
                }
            };
        }
        match s.barrier.arrive(this.entry) {
            Err(e) => Poll::Ready(Err(e)),
            Ok(Arrival::Released(t)) => {
                // Last arrival: release every parked rank at the barrier's
                // release time (≥ each waiter's own entry).
                for r in std::mem::take(&mut s.barrier_waiters) {
                    if let Waiting::Barrier { .. } = s.waiting[r] {
                        s.waiting[r] = Waiting::None;
                        s.wakes.push((t, r));
                    }
                }
                Poll::Ready(Ok(t))
            }
            Ok(Arrival::Parked { generation }) => {
                this.parked = Some(generation);
                s.set_waiting(this.me, Waiting::Barrier { at: this.entry });
                s.barrier_waiters.push(this.me);
                Poll::Pending
            }
        }
    }
}

type RankFut<'a, T> = Pin<Box<dyn Future<Output = (T, SimClock, Trace)> + 'a>>;

/// Drive all `p` rank futures to completion on the calling thread and
/// return their outcomes, mirroring the thread engine's `rank_body`
/// semantics exactly: `catch_unwind` per step, barrier abort before the
/// death cascade on an unwind, completed ranks going dead without an
/// abort (their `Mailboxes` drop would do the same).
pub(crate) fn run_ranks_des<T, F>(
    p: usize,
    params: ClockParams,
    tracing: bool,
    plan: Option<&Arc<FaultPlan>>,
    f: &F,
) -> Vec<RankOutcome<T>>
where
    T: Send,
    F: for<'a> Fn(&'a mut Ctx) -> Pin<Box<dyn Future<Output = T> + 'a>>,
{
    let shared = Rc::new(DesShared::new(p));
    let mut futures: Vec<Option<RankFut<'_, T>>> = Vec::with_capacity(p);
    for rank in 0..p {
        let mut ctx = Ctx::new_des(rank, p, Rc::clone(&shared), params, tracing, plan);
        let fut: RankFut<'_, T> = Box::pin(async move {
            let out = f(&mut ctx).await;
            let (clock, trace) = ctx.into_parts();
            (out, clock, trace)
        });
        futures.push(Some(fut));
    }

    // Every rank starts runnable at t = 0; the rank index tie-breaks equal
    // timestamps, so the step order is fully deterministic.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..p).map(|r| Reverse((0u64, r))).collect();
    let mut outcomes: Vec<Option<RankOutcome<T>>> = (0..p).map(|_| None).collect();
    let mut remaining = p;
    let mut cx = Context::from_waker(Waker::noop());

    while remaining > 0 {
        let Some(Reverse((_, rank))) = heap.pop() else {
            let blocked: Vec<usize> = (0..p).filter(|&r| outcomes[r].is_none()).collect();
            panic!(
                "DES deadlock: ranks {blocked:?} are blocked with no pending events \
                 (the thread engine would hang here)"
            );
        };
        if outcomes[rank].is_some() {
            continue; // stale wake-up for a finished rank
        }
        let Some(fut) = futures[rank].as_mut() else {
            continue;
        };
        let polled = std::panic::catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx)));
        match polled {
            Ok(Poll::Pending) => {}
            Ok(Poll::Ready((out, clock, trace))) => {
                futures[rank] = None;
                outcomes[rank] = Some(RankOutcome::Done(out, clock, trace));
                remaining -= 1;
                shared.mark_dead(rank);
            }
            Err(payload) => {
                futures[rank] = None;
                // Unblock peers in the thread engine's order: barrier
                // abort first, then the disconnect cascade.
                let outcome = match payload.downcast::<FaultAbort>() {
                    Ok(fa) => {
                        shared.abort_barrier(fa.error.clone());
                        RankOutcome::Faulted(fa.error, fa.origin)
                    }
                    Err(other) => {
                        shared.abort_barrier(MachineError::Disconnected { rank });
                        RankOutcome::Panicked(other)
                    }
                };
                shared.mark_dead(rank);
                outcomes[rank] = Some(outcome);
                remaining -= 1;
            }
        }
        shared.drain_wakes_into(&mut heap);
    }

    outcomes
        .into_iter()
        .map(|o| o.expect("every rank produced an outcome"))
        .collect()
}

#[cfg(test)]
mod tests {
    use std::future::Future;
    use std::pin::Pin;
    use std::rc::Rc;
    use std::task::{Context, Poll, Waker};

    use super::{DesInbox, DesPop, DesShared, Waiting, NIL};
    use crate::channel::Packet;
    use crate::clock::ClockParams;
    use crate::error::MachineError;
    use crate::fault::FaultPlan;
    use crate::machine::{drive, Ctx, ExecEngine, Machine};

    fn packet(v: u64) -> Packet {
        Packet {
            payload: Box::new(v),
            words: 1,
            send_time: 0.0,
        }
    }

    fn value(packet: Packet) -> u64 {
        *packet.payload.downcast::<u64>().expect("u64 payload")
    }

    /// One scheduler step of a directed receive, outside the scheduler.
    fn poll_pop(pop: &mut DesPop) -> Poll<Result<Packet, MachineError>> {
        Pin::new(pop).poll(&mut Context::from_waker(Waker::noop()))
    }

    #[test]
    fn pop_from_is_fifo_per_pair_whichever_source_is_taken_first() {
        for first in [3usize, 5] {
            let second = 8 - first;
            let mut inbox = DesInbox::default();
            for v in 0..3u64 {
                inbox.push(3, packet(30 + v));
                inbox.push(5, packet(50 + v));
            }
            for src in [first, second] {
                for v in 0..3u64 {
                    let got = inbox.pop_from(src).map(value);
                    assert_eq!(got, Some(src as u64 * 10 + v));
                }
                assert!(inbox.pop_from(src).is_none());
            }
            assert!(inbox.queue.is_empty());
        }
    }

    #[test]
    fn a_rank_blocked_on_one_source_sleeps_through_anothers_push() {
        let shared = Rc::new(DesShared::new(3));
        let mut from_1 = DesPop::new(Rc::clone(&shared), 0, 1, 4.0);
        assert!(poll_pop(&mut from_1).is_pending());
        shared.push(2, 0, packet(22)).unwrap();
        assert!(shared.state.borrow().wakes.is_empty());
        shared.push(1, 0, packet(11)).unwrap();
        assert_eq!(shared.state.borrow().wakes, [(4.0, 0)]);
        // Rank 1's packet arrived second and is received first.
        let Poll::Ready(Ok(got)) = poll_pop(&mut from_1) else {
            panic!("rank 1's packet is queued");
        };
        assert_eq!(value(got), 11);
        let Poll::Ready(Ok(got)) = poll_pop(&mut DesPop::new(shared, 0, 2, 4.0)) else {
            panic!("rank 2's packet is still queued");
        };
        assert_eq!(value(got), 22);
    }

    /// Every directed pop but the last steps over all that is still
    /// queued (`VecDeque::remove` away from the front) — held for
    /// correctness, not speed.
    #[test]
    fn a_star_received_in_descending_source_order_loses_nothing() {
        let p = 2001;
        let run = Machine::new(p, ClockParams::free()).run_des(|ctx| {
            Box::pin(async move {
                if ctx.rank() > 0 {
                    ctx.send(0, ctx.rank() as u64, 1);
                    return Vec::new();
                }
                let mut got = Vec::new();
                for src in (1..ctx.size()).rev() {
                    got.push(ctx.recv_async::<u64>(src).await);
                }
                got
            })
        });
        let descending: Vec<u64> = (1..p as u64).rev().collect();
        assert_eq!(run.results[0], descending);
    }

    #[test]
    fn a_pending_receive_polled_twice_is_linked_and_delivered_to_once() {
        let shared = Rc::new(DesShared::new(2));
        let mut pop = DesPop::new(Rc::clone(&shared), 1, 0, 2.5);
        assert!(poll_pop(&mut pop).is_pending());
        assert!(poll_pop(&mut pop).is_pending());
        {
            let s = shared.state.borrow();
            assert_eq!(s.wait_head[0], 1);
            assert_eq!((s.wait_prev[1], s.wait_next[1]), (NIL, NIL));
        }
        shared.push(0, 1, packet(7)).unwrap();
        shared.push(0, 1, packet(8)).unwrap();
        shared.mark_dead(0);
        let s = shared.state.borrow();
        assert_eq!(s.wakes, [(2.5, 1)]);
        assert_eq!(s.wait_head[0], NIL);
    }

    #[test]
    fn a_source_that_finishes_wakes_only_the_ranks_still_blocked_on_it() {
        let shared = Rc::new(DesShared::new(4));
        // Ranks 2 and 3 block on rank 0; rank 0 delivers to rank 2 only.
        let mut pop_2 = DesPop::new(Rc::clone(&shared), 2, 0, 1.0);
        let mut pop_3 = DesPop::new(Rc::clone(&shared), 3, 0, 3.0);
        assert!(poll_pop(&mut pop_2).is_pending());
        assert!(poll_pop(&mut pop_3).is_pending());
        shared.push(0, 2, packet(5)).unwrap();
        assert!(poll_pop(&mut pop_2).is_ready());
        // Rank 2 moves on to block on rank 1, then rank 0 finishes.
        let mut pop_2 = DesPop::new(Rc::clone(&shared), 2, 1, 6.0);
        assert!(poll_pop(&mut pop_2).is_pending());
        shared.state.borrow_mut().wakes.clear();
        shared.mark_dead(0);
        let s = shared.state.borrow();
        assert_eq!(s.wakes, [(3.0, 3)], "rank 3 alone, at its own clock");
        assert!(matches!(s.waiting[2], Waiting::Recv { from: 1, .. }));
        assert_eq!((s.wait_head[0], s.wait_head[1]), (NIL, 2));
    }

    #[test]
    fn fifty_ranks_blocked_on_a_crashed_victim_are_all_woken() {
        let victim = 17;
        let m = Machine::new(51, ClockParams::free())
            .with_faults(FaultPlan::new(0).with_crash(victim, 0));
        let err = m
            .try_run_des(|ctx| {
                Box::pin(async move {
                    if ctx.rank() == victim {
                        ctx.send(0, 1u64, 1);
                    } else {
                        let _: u64 = ctx.recv_async(victim).await;
                    }
                })
            })
            .expect_err("the victim never sends");
        // A waiter left asleep would be the deadlock panic instead.
        assert_eq!(err, MachineError::RankFailed { rank: victim });
    }

    /// A ring pass exercising directed send/recv and the event queue.
    #[test]
    fn ring_pass_accumulates_on_des() {
        let m = Machine::new(4, ClockParams::free());
        let run = m.run_des(|ctx| {
            Box::pin(async move {
                if ctx.rank() == 0 {
                    ctx.send(1, 0usize, 1);
                    ctx.recv_async::<usize>(3).await
                } else {
                    let v = ctx.recv_async::<usize>(ctx.rank() - 1).await;
                    let next = (ctx.rank() + 1) % ctx.size();
                    ctx.send(next, v + ctx.rank(), 1);
                    0
                }
            })
        });
        assert_eq!(run.results[0], 1 + 2 + 3);
    }

    #[test]
    fn exchange_and_barrier_match_the_thread_engine_bit_for_bit() {
        let m = Machine::new(8, ClockParams::new(50.0, 2.0)).with_tracing();
        let threaded = m.run(|ctx| {
            let mut v = ctx.rank() as u64;
            for round in 0..3 {
                let partner = ctx.rank() ^ (1 << round);
                let got = ctx.exchange(partner, v, 8);
                v += got;
                ctx.charge(8.0, "combine");
            }
            ctx.barrier();
            (v, ctx.time())
        });
        let des = m.run_des(|ctx| {
            Box::pin(async move {
                let mut v = ctx.rank() as u64;
                for round in 0..3 {
                    let partner = ctx.rank() ^ (1 << round);
                    let got = ctx.exchange_async(partner, v, 8).await;
                    v += got;
                    ctx.charge(8.0, "combine");
                }
                ctx.barrier_async().await;
                (v, ctx.time())
            })
        });
        assert_eq!(threaded.results, des.results);
        assert_eq!(threaded.makespan.to_bits(), des.makespan.to_bits());
        assert_eq!(threaded.finish_times, des.finish_times);
        assert_eq!(threaded.messages, des.messages);
        assert_eq!(threaded.trace.events(), des.trace.events());
    }

    /// `send ; barrier ; root receives ; barrier`, three times over: the
    /// first barrier puts the round's sends in the root's inbox before it
    /// scans, the second keeps the next round's out, so the scan sees the
    /// same packets on threads as on the event engine.
    async fn staggered_gather(ctx: &mut Ctx) -> (Vec<(usize, u64)>, f64) {
        let mut got = Vec::new();
        for round in 0..3u64 {
            if ctx.rank() > 0 {
                ctx.charge((ctx.rank() * 13 % 5) as f64, "skew");
                for k in 0..2 {
                    ctx.send(0, 100 * round + 10 * ctx.rank() as u64 + k, 1 + k);
                }
            }
            ctx.barrier_async().await;
            if ctx.rank() == 0 {
                // Five of twelve: the cursor stops mid-ring and the next
                // round starts there, over leftovers and new arrivals.
                let take = if round < 2 { 5 } else { 36 - 10 };
                for _ in 0..take {
                    got.push(ctx.recv_any_async::<u64>().await);
                }
            }
            ctx.barrier_async().await;
        }
        (got, ctx.time())
    }

    #[test]
    fn recv_any_scan_matches_the_thread_engine_bit_for_bit() {
        let m = Machine::new(7, ClockParams::new(50.0, 2.0)).with_tracing();
        let threaded = m.run(|ctx| drive(staggered_gather(ctx)));
        let des = m.run_des(|ctx| Box::pin(staggered_gather(ctx)));
        let (got, _) = &threaded.results[0];
        let sources: Vec<usize> = got.iter().map(|&(src, _)| src).collect();
        // Round 1 stops after source 5; round 2 resumes at 6 and wraps.
        assert_eq!(sources[..10], [1, 2, 3, 4, 5, 6, 1, 2, 3, 4]);
        assert_eq!(got.len(), 36);
        assert_eq!(threaded.results, des.results);
        assert_eq!(threaded.makespan.to_bits(), des.makespan.to_bits());
        assert_eq!(threaded.finish_times, des.finish_times);
        assert_eq!(threaded.messages, des.messages);
        assert_eq!(threaded.trace.events(), des.trace.events());
    }

    #[test]
    fn recv_any_drains_all_sources_deterministically() {
        let m = Machine::new(5, ClockParams::free());
        let a = run_gather(&m);
        let b = run_gather(&m);
        assert_eq!(a, 7 * (1 + 2 + 3 + 4));
        assert_eq!(a, b);
    }

    fn run_gather(m: &Machine) -> u64 {
        let run = m.run_des(|ctx| {
            Box::pin(async move {
                if ctx.rank() == 0 {
                    let mut sum = 0u64;
                    for _ in 1..ctx.size() {
                        let (src, v): (usize, u64) = ctx.recv_any_async().await;
                        assert_eq!(v, src as u64 * 7);
                        sum += v;
                    }
                    sum
                } else {
                    ctx.charge((ctx.rank() * 13 % 5) as f64, "skew");
                    ctx.send(0, ctx.rank() as u64 * 7, 1);
                    0
                }
            })
        });
        run.results[0]
    }

    #[test]
    fn injected_crash_surfaces_like_the_thread_engines() {
        let m =
            Machine::new(3, ClockParams::free()).with_faults(FaultPlan::new(0).with_crash(1, 0));
        let err = m
            .try_run_des(|ctx| {
                Box::pin(async move {
                    ctx.barrier_async().await;
                    ctx.rank()
                })
            })
            .expect_err("barrier can never complete");
        assert_eq!(err, MachineError::RankFailed { rank: 1 });
    }

    #[test]
    fn crash_with_recv_any_peers_does_not_hang_on_des() {
        let m =
            Machine::new(3, ClockParams::free()).with_faults(FaultPlan::new(0).with_crash(2, 0));
        let err = m
            .try_run_des(|ctx| {
                Box::pin(async move {
                    if ctx.rank() == 0 {
                        for _ in 1..ctx.size() {
                            let _: (usize, u64) = ctx.recv_any_async().await;
                        }
                    } else {
                        ctx.send(0, ctx.rank() as u64, 1);
                    }
                })
            })
            .expect_err("rank 0 waits on a message that never comes");
        assert_eq!(err, MachineError::RankFailed { rank: 2 });
    }

    #[test]
    #[should_panic(expected = "DES deadlock")]
    fn genuine_deadlock_panics_instead_of_hanging() {
        let m = Machine::new(2, ClockParams::free());
        let _ = m.run_des(|ctx| {
            Box::pin(async move {
                // Both ranks wait on a message neither ever sends.
                let _: u64 = ctx.recv_async(1 - ctx.rank()).await;
            })
        });
    }

    #[test]
    #[should_panic(expected = "cannot run on the DES engine")]
    fn sync_entry_points_refuse_to_suspend() {
        let m = Machine::new(2, ClockParams::free());
        let _ = m.run_des(|ctx| {
            Box::pin(async move {
                if ctx.rank() == 0 {
                    // Sync recv on a DES context must fail loudly, not hang.
                    let _: u64 = ctx.recv(1);
                }
                ctx.barrier_async().await;
            })
        });
    }

    #[test]
    fn thread_engine_refuses_what_des_accepts() {
        let p = ExecEngine::THREAD_MAX_P + 1;
        let m = Machine::new(p, ClockParams::free());
        // A clean error before any thread is spawned, not a spawn failure.
        let refused = m
            .try_run(|ctx| ctx.rank())
            .expect_err("over-capacity run must be refused");
        assert_eq!(
            refused,
            MachineError::CapacityExceeded {
                requested: p,
                limit: ExecEngine::THREAD_MAX_P,
                engine: "threads",
            }
        );
        let run = m
            .try_run_des(|ctx| Box::pin(async move { ctx.rank() }))
            .expect("the event engine has no rank ceiling");
        assert_eq!(run.results.len(), p);
    }

    #[test]
    fn des_scales_past_the_thread_engine_capacity() {
        let p = 10_000;
        assert!(p > ExecEngine::THREAD_MAX_P);
        let m = Machine::new(p, ClockParams::free());
        // Binomial-tree broadcast of one word: O(p) events, log-depth.
        let run = m.run_des(|ctx| {
            Box::pin(async move {
                let rank = ctx.rank();
                let p = ctx.size();
                let mut v = if rank == 0 { Some(42u64) } else { None };
                let mut gap = p.next_power_of_two();
                while gap > 1 {
                    gap /= 2;
                    if rank % (2 * gap) == 0 {
                        if let Some(x) = v {
                            if rank + gap < p {
                                ctx.send(rank + gap, x, 1);
                            }
                        }
                    } else if rank % gap == 0 && v.is_none() {
                        v = Some(ctx.recv_async::<u64>(rank - gap).await);
                    }
                }
                v.unwrap()
            })
        });
        assert!(run.results.iter().all(|&v| v == 42));
    }
}
