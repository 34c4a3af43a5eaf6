//! The discrete-event execution engine.
//!
//! Every rank of a [`Machine`](crate::Machine) runs on one thread: each
//! rank is a resumable future over its [`Ctx`], and a binary-heap event
//! queue decides which rank steps next, ordered by the simulated
//! timestamp at which it became runnable. `p` is bounded by memory — a
//! rank costs two boxed futures (the caller's body and this module's
//! wrapper around it), one inbox buffer and three words of waiter links —
//! so 10^5..10^6-rank machines fit, and a message costs a queue slot, not
//! a context switch.
//!
//! ## Event model
//!
//! A rank runs until it *blocks* (a receive with nothing queued from that
//! source, or a barrier that has not released).
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
//! The step order is an implementation detail, not part of the model: the
//! clock travels with the data, every receive names its source and per-pair
//! FIFO is arrival order restricted to the pair, and a rank's death
//! surfaces only after what it sent has drained. So which of several
//! ranks due at the same simulated time steps first must not change any
//! observable — outputs, makespan bits, compute and retry counters,
//! Chrome traces, or the error an unrecoverable plan surfaces. A
//! [`FaultPlan`]'s [`order`](FaultPlan::order) permutes exactly that
//! choice: the heap key's rank becomes `rank ^ order`. `order = 0` (the
//! default) is the canonical order, and
//! `bench/tests/engine_identity.rs` and fuzz oracle 2 hold every other
//! order to it.

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
    /// Parked in a barrier generation that has not released.
    Barrier { at: f64 },
}

/// One rank's incoming packets in arrival order, each tagged with its
/// source — an MPI library's unexpected-message queue. Per-pair FIFO is
/// arrival order restricted to the pair, so one queue serves every source
/// and a message costs a slot in it, not a table entry and a buffer
/// per `(from, to)` pair (nearly every pair of a butterfly or a binomial
/// tree talks once). The footprint stays proportional to what is actually
/// parked — O(p log p) over the machine, not a dense per-pair O(p²).
#[derive(Default)]
struct DesInbox {
    queue: VecDeque<(usize, Packet)>,
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
    /// A rank is dead once it finished, faulted or panicked; receivers
    /// waiting on it then observe a disconnect.
    dead: Vec<bool>,
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
    /// Barrier waiters are appended on suspension and checked against
    /// `waiting` when consumed, so entries left behind by wake-ups already
    /// delivered are harmless.
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
                wait_head: vec![NIL; p],
                wait_next: vec![NIL; p],
                wait_prev: vec![NIL; p],
                barrier_waiters: Vec::new(),
            }),
        }
    }

    /// Deliver a packet from `from` to `to`. Delivery to a dead rank
    /// succeeds silently — death only surfaces on the *receive* side
    /// (drain first, then disconnect).
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
    /// everyone blocked on it so they can observe the disconnect.
    pub(crate) fn mark_dead(&self, rank: usize) {
        let mut guard = self.state.borrow_mut();
        let s = &mut *guard;
        if s.dead[rank] {
            return;
        }
        s.dead[rank] = true;
        // Directed receivers blocked on this rank; each wake unlinks the head.
        while s.wait_head[rank] != NIL {
            let r = s.wait_head[rank];
            let Waiting::Recv { at, .. } = s.waiting[r] else {
                unreachable!("a linked rank is blocked in a directed receive");
            };
            s.set_waiting(r, Waiting::None);
            s.wakes.push((at, r));
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

    /// Move the wake-ups accumulated during the last step into the heap,
    /// keyed by `(time bits, rank ^ order)`.
    fn drain_wakes_into(&self, heap: &mut BinaryHeap<Reverse<(u64, usize)>>, order: usize) {
        let mut s = self.state.borrow_mut();
        for (t, r) in s.wakes.drain(..) {
            heap.push(Reverse((t.to_bits(), r ^ order)));
        }
    }
}

/// A directed receive: resolve from the queue, report a dead source, or
/// suspend until either happens.
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

/// A barrier wait, driving the shared [`BarrierAlgebra`] directly: arrive
/// once, then park on the generation token until the last rank releases
/// it (or a death aborts it).
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
/// return their outcomes: `catch_unwind` per step, barrier abort before
/// the death cascade on an unwind, completed ranks going dead without an
/// abort. Same-time events run in order of `rank ^ plan.order`.
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
    let order = plan.map_or(0, |plan| plan.order as usize);
    let shared = Rc::new(DesShared::new(p));
    let mut futures: Vec<Option<RankFut<'_, T>>> = Vec::with_capacity(p);
    for rank in 0..p {
        let mut ctx = Ctx::new(rank, p, Rc::clone(&shared), params, tracing, plan);
        let fut: RankFut<'_, T> = Box::pin(async move {
            let out = f(&mut ctx).await;
            let (clock, trace) = ctx.into_parts();
            (out, clock, trace)
        });
        futures.push(Some(fut));
    }

    // Every rank starts runnable at t = 0; `rank ^ order` tie-breaks equal
    // timestamps, so the step order is fully deterministic.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..p).map(|r| Reverse((0u64, r ^ order))).collect();
    let mut outcomes: Vec<Option<RankOutcome<T>>> = (0..p).map(|_| None).collect();
    let mut remaining = p;
    let mut cx = Context::from_waker(Waker::noop());

    while remaining > 0 {
        let Some(Reverse((_, key))) = heap.pop() else {
            let blocked: Vec<usize> = (0..p).filter(|&r| outcomes[r].is_none()).collect();
            panic!("DES deadlock: ranks {blocked:?} are blocked with no pending events");
        };
        let rank = key ^ order;
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
                // Unblock peers: barrier abort first, then the
                // disconnect cascade.
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
        shared.drain_wakes_into(&mut heap, order);
    }

    outcomes
        .into_iter()
        .map(|o| o.expect("every rank produced an outcome"))
        .collect()
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::future::Future;
    use std::pin::Pin;
    use std::rc::Rc;
    use std::task::{Context, Poll, Waker};

    use super::{DesInbox, DesPop, DesShared, Waiting, NIL};
    use crate::channel::Packet;
    use crate::clock::ClockParams;
    use crate::error::MachineError;
    use crate::fault::FaultPlan;
    use crate::machine::Machine;

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
        // Reversed tie-break: rank 3 steps first and parks on rank 2.
        let m = Machine::new(4, ClockParams::free())
            .with_faults(FaultPlan::new(0).with_order(u64::MAX));
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
    fn order_permutes_which_same_time_rank_steps_first() {
        for (order, first_steps) in [
            (0, [0, 1, 2, 3]),
            (0b11, [3, 2, 1, 0]),
            (0b01, [1, 0, 3, 2]),
        ] {
            let log = Rc::new(RefCell::new(Vec::new()));
            let m = Machine::new(4, ClockParams::free())
                .with_faults(FaultPlan::new(0).with_order(order));
            let stepped = Rc::clone(&log);
            m.run_des(move |ctx| {
                let log = Rc::clone(&stepped);
                Box::pin(async move { log.borrow_mut().push(ctx.rank()) })
            });
            assert_eq!(*log.borrow(), first_steps, "order={order:#b}");
        }
    }

    #[test]
    fn exchange_and_barrier_are_bit_identical_in_every_event_order() {
        let run = |order: u64| {
            Machine::new(8, ClockParams::new(50.0, 2.0))
                .with_tracing()
                .with_faults(FaultPlan::new(0).with_order(order))
                .run_des(|ctx| {
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
                })
        };
        let canonical = run(0);
        for order in [1, 0b110, u64::MAX] {
            let permuted = run(order);
            assert_eq!(canonical.results, permuted.results);
            assert_eq!(canonical.makespan.to_bits(), permuted.makespan.to_bits());
            assert_eq!(canonical.finish_times, permuted.finish_times);
            assert_eq!(canonical.messages, permuted.messages);
            assert_eq!(canonical.trace.events(), permuted.trace.events());
        }
    }

    #[test]
    fn simultaneous_timeouts_report_the_lowest_rank_in_every_order() {
        // Both directions of one exchange exhaust their retries at t = 0:
        // two originating faults due at the same time.
        for order in [0, 1] {
            let plan = FaultPlan::new(0)
                .with_drop_exact(0, 1, 0, 2)
                .with_drop_exact(1, 0, 0, 2)
                .with_retry(2, 1.0)
                .with_order(order);
            let err = Machine::new(2, ClockParams::free())
                .with_faults(plan)
                .try_run_des(|ctx| {
                    Box::pin(async move {
                        let partner = 1 - ctx.rank();
                        ctx.exchange_async(partner, (), 1).await
                    })
                })
                .expect_err("no attempt gets through");
            assert_eq!(
                err,
                MachineError::Timeout {
                    from: 0,
                    to: 1,
                    attempts: 2
                },
                "order={order}"
            );
        }
    }

    #[test]
    fn injected_crash_surfaces_like_the_thread_engines() {
        // The barrier abort and the death cascade, with the victim stepped
        // last among the ranks due at t = 0.
        let plan = FaultPlan::new(0).with_crash(1, 0).with_order(0b10);
        let m = Machine::new(3, ClockParams::free()).with_faults(plan);
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
    fn des_scales_past_the_thread_engine_capacity() {
        let p = 10_000;
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
