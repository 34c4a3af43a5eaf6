//! The discrete-event execution engine.
//!
//! Every rank of a [`Machine`](crate::Machine) runs on one thread: each
//! rank is a resumable future over its [`Ctx`], and a FIFO run queue of
//! runnable ranks decides which steps next. `p` is bounded by memory — a
//! rank costs one boxed future (the caller's body, polled directly), its
//! [`Ctx`] in one shared `Vec`, a queue slot, two inbox links and three
//! words of waiter links — so 10^5..10^6-rank machines fit, and a message
//! costs a slot in one packet slab shared by the whole run, not a context
//! switch or a buffer per receiver. Payload boxes are reused within a run:
//! a receive hands its emptied box back to [`DesShared`], and the next
//! send of that payload type refills it instead of allocating.
//!
//! ## Event model
//!
//! A rank runs until it *blocks* (a receive with nothing queued from that
//! source, or a barrier that has not released). Blocking records why in a
//! [`Waiting`] entry and returns `Poll::Pending` to the scheduler.
//! Unblocking events — a packet from the awaited source, a barrier release
//! or abort, the awaited source's death — clear the entry and append the
//! rank to the run queue, at most once (it is woken only out of a
//! `Waiting` state). The queue starts with every rank, and the ranks one
//! step woke join its back in rank order. No timestamp orders the queue:
//! nothing a rank computes depends on when it was stepped (next section).
//!
//! ## Identity guarantees
//!
//! The step order is an implementation detail, not part of the model: the
//! clock travels with the data (a receive completes at `max(own clock,
//! sender's clock) + ts + m·tw` whoever steps first), every receive names
//! its source, per-pair FIFO is arrival order restricted to the pair, and
//! a rank's death surfaces only after what it sent has drained. So which
//! runnable rank steps first must not change any observable — outputs,
//! makespan bits, compute and retry counters, Chrome traces, or the error
//! an unrecoverable plan surfaces. A [`FaultPlan`]'s
//! [`order`](FaultPlan::order) permutes exactly that choice: ranks enter
//! the run queue, at the start and within each step's wake-ups, in order
//! of `rank ^ order`. `order = 0` (the default) is the canonical order,
//! and fuzz oracle 2 (`collopt_fuzz::check_faulted_run`) holds every other
//! order to it.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::panic::AssertUnwindSafe;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use crate::barrier::{Arrival, BarrierAlgebra};
use crate::channel::Packet;
use crate::clock::ClockParams;
use crate::error::MachineError;
use crate::fault::FaultPlan;
use crate::machine::{Ctx, FaultAbort, RankOutcome};

/// Why a suspended rank is not runnable.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Waiting {
    /// Runnable (or running) — no wake-up needed.
    None,
    /// Blocked in a directed receive from `from`.
    Recv { from: usize },
    /// Parked in a barrier generation that has not released.
    Barrier,
}

/// "No rank" in the intrusive waiter lists, "no slot" in the slab's.
const NIL: usize = usize::MAX;

/// A parked packet, its source, and the next slot of its receiver's queue
/// (or of the free list, when the slot is empty).
struct Slot {
    src: usize,
    next: usize,
    packet: Option<Packet>,
}

/// Every packet parked in a run, in one buffer of slots. Each rank's
/// incoming packets form a singly linked queue in arrival order, each
/// tagged with its source — an MPI library's unexpected-message queue —
/// and emptied slots go on a free list for the next push. Per-pair FIFO is
/// arrival order restricted to the pair, so one queue serves every source:
/// a message costs a slot, not a table entry and a buffer per `(from, to)`
/// pair (nearly every pair of a butterfly or a binomial tree talks once),
/// and a rank costs two links, not an inbox allocation of its own. The
/// buffer grows to the most packets parked at once — O(p log p) over the
/// machine, not a dense per-pair O(p²).
struct PacketSlab {
    slots: Vec<Slot>,
    /// `(head, tail)` slot of each rank's queue, [`NIL`] when it is empty.
    queues: Vec<(usize, usize)>,
    free: usize,
}

impl PacketSlab {
    fn new(p: usize) -> Self {
        PacketSlab {
            slots: Vec::new(),
            queues: vec![(NIL, NIL); p],
            free: NIL,
        }
    }

    /// Park `packet` from `src` at the back of `to`'s queue.
    fn push(&mut self, to: usize, src: usize, packet: Packet) {
        let slot = Slot {
            src,
            next: NIL,
            packet: Some(packet),
        };
        let i = match self.free {
            NIL => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
            i => {
                self.free = std::mem::replace(&mut self.slots[i], slot).next;
                i
            }
        };
        let (head, tail) = &mut self.queues[to];
        match *tail {
            NIL => *head = i,
            last => self.slots[last].next = i,
        }
        *tail = i;
    }

    /// Remove the oldest packet `me` holds from `src`. Costs O(entries
    /// skipped): the shipped lowerings receive close to arrival order (over
    /// the whole test suite a directed pop skips at most 15 entries, at
    /// p = 65 536, and more than ⌈log₂ p⌉ + 1 only on a few machines of
    /// p ≤ 16, up to 10), but a rank body that parks thousands of packets
    /// from distinct sources and takes them out of arrival order pays for
    /// each one it steps over.
    fn pop_from(&mut self, me: usize, src: usize) -> Option<Packet> {
        let (head, tail) = self.queues[me];
        let (mut prev, mut i) = (NIL, head);
        while i != NIL && self.slots[i].src != src {
            (prev, i) = (i, self.slots[i].next);
        }
        if i == NIL {
            return None;
        }
        let next = std::mem::replace(&mut self.slots[i].next, self.free);
        self.free = i;
        match prev {
            NIL => self.queues[me].0 = next,
            _ => self.slots[prev].next = next,
        }
        if tail == i {
            self.queues[me].1 = prev;
        }
        self.slots[i].packet.take()
    }
}

struct DesState {
    slab: PacketSlab,
    waiting: Vec<Waiting>,
    /// Ranks woken while a rank was stepping, appended to the run queue
    /// (in order of `rank ^ order`) after every poll.
    wakes: Vec<usize>,
    barrier: BarrierAlgebra,
    /// A rank is dead once it finished, faulted or panicked; receivers
    /// waiting on it then observe a disconnect.
    dead: Vec<bool>,
    /// Directed receivers, as one intrusive doubly-linked list per source:
    /// `wait_head[src]` is the latest rank to block on `src`, `wait_next` /
    /// `wait_prev` are indexed by the blocked rank (it waits on at most one
    /// source). A rank is linked under `src` exactly while `waiting[rank]`
    /// is `Recv { from: src }` — only [`DesState::set_waiting`] moves a
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
    /// Emptied payload boxes, one list per payload type: each holds an
    /// `Option<T>` set to `None` for the `T` it is keyed by. A run uses a
    /// handful of types, so a linear scan finds the list.
    spares: Vec<(TypeId, Vec<Box<dyn Any + Send>>)>,
}

impl DesState {
    /// Record why `rank` is (no longer) suspended, moving it between the
    /// directed-receive lists as needed. Re-registering is idempotent: a
    /// receive polled twice while pending ends up linked once.
    fn set_waiting(&mut self, rank: usize, to: Waiting) {
        if let Waiting::Recv { from } = self.waiting[rank] {
            let (prev, next) = (self.wait_prev[rank], self.wait_next[rank]);
            match prev {
                NIL => self.wait_head[from] = next,
                _ => self.wait_next[prev] = next,
            }
            if next != NIL {
                self.wait_prev[next] = prev;
            }
        }
        if let Waiting::Recv { from } = to {
            let head = std::mem::replace(&mut self.wait_head[from], rank);
            (self.wait_prev[rank], self.wait_next[rank]) = (NIL, head);
            if head != NIL {
                self.wait_prev[head] = rank;
            }
        }
        self.waiting[rank] = to;
    }

    /// Make the suspended `rank` runnable.
    fn wake(&mut self, rank: usize) {
        self.set_waiting(rank, Waiting::None);
        self.wakes.push(rank);
    }

    /// Wake every rank still parked in the barrier (released or aborted).
    fn wake_barrier_waiters(&mut self) {
        for r in self.barrier_waiters.drain(..) {
            if self.waiting[r] == Waiting::Barrier {
                self.waiting[r] = Waiting::None;
                self.wakes.push(r);
            }
        }
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
                slab: PacketSlab::new(p),
                waiting: vec![Waiting::None; p],
                wakes: Vec::new(),
                barrier: BarrierAlgebra::new(p),
                dead: vec![false; p],
                wait_head: vec![NIL; p],
                wait_next: vec![NIL; p],
                wait_prev: vec![NIL; p],
                barrier_waiters: Vec::new(),
                spares: Vec::new(),
            }),
        }
    }

    /// Box `value` as a packet payload (an `Option<T>`), refilling a
    /// spare box of that type when a receive has handed one back.
    pub(crate) fn box_payload<T: Send + 'static>(&self, value: T) -> Box<dyn Any + Send> {
        let key = TypeId::of::<T>();
        let spare = self
            .state
            .borrow_mut()
            .spares
            .iter_mut()
            .find(|(ty, _)| *ty == key)
            .and_then(|(_, boxes)| boxes.pop());
        match spare {
            Some(mut payload) => {
                *payload
                    .downcast_mut::<Option<T>>()
                    .expect("spare boxes are keyed by payload type") = Some(value);
                payload
            }
            None => Box::new(Some(value)),
        }
    }

    /// Take the value out of a payload boxed by [`box_payload`](Self::box_payload)
    /// and keep the emptied box for the next send of its type; `None` if the
    /// payload is not a `T` (the box is dropped).
    pub(crate) fn unbox_payload<T: 'static>(&self, mut payload: Box<dyn Any + Send>) -> Option<T> {
        let value = payload.downcast_mut::<Option<T>>()?.take();
        let key = TypeId::of::<T>();
        let mut s = self.state.borrow_mut();
        match s.spares.iter_mut().find(|(ty, _)| *ty == key) {
            Some((_, boxes)) => boxes.push(payload),
            None => s.spares.push((key, vec![payload])),
        }
        value
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
        let mut s = self.state.borrow_mut();
        s.slab.push(to, from, packet);
        if s.waiting[to] == (Waiting::Recv { from }) {
            s.wake(to);
        }
        Ok(())
    }

    /// A rank left the machine (completed, faulted or panicked): wake
    /// everyone blocked on it so they can observe the disconnect.
    pub(crate) fn mark_dead(&self, rank: usize) {
        let mut s = self.state.borrow_mut();
        if s.dead[rank] {
            return;
        }
        s.dead[rank] = true;
        // Directed receivers blocked on this rank; each wake unlinks the head.
        while s.wait_head[rank] != NIL {
            let r = s.wait_head[rank];
            assert!(s.waiting[r] == Waiting::Recv { from: rank });
            s.wake(r);
        }
    }

    /// Abort the barrier (first error wins) and wake every parked rank so
    /// it observes the error instead of waiting forever.
    pub(crate) fn abort_barrier(&self, err: MachineError) {
        let mut s = self.state.borrow_mut();
        s.barrier.abort(err);
        s.wake_barrier_waiters();
    }
}

/// A directed receive: resolve from the queue, report a dead source, or
/// suspend until either happens.
pub(crate) struct DesPop {
    shared: Rc<DesShared>,
    me: usize,
    from: usize,
}

impl DesPop {
    pub(crate) fn new(shared: Rc<DesShared>, me: usize, from: usize) -> Self {
        DesPop { shared, me, from }
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
        let mut s = this.shared.state.borrow_mut();
        // Queued packets drain before a disconnect is reported.
        if let Some(packet) = s.slab.pop_from(this.me, this.from) {
            return Poll::Ready(Ok(packet));
        }
        if s.dead[this.from] {
            return Poll::Ready(Err(MachineError::Disconnected { rank: this.from }));
        }
        s.set_waiting(this.me, Waiting::Recv { from: this.from });
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
                    s.set_waiting(this.me, Waiting::Barrier);
                    s.barrier_waiters.push(this.me);
                    Poll::Pending
                }
            };
        }
        match s.barrier.arrive(this.entry) {
            Err(e) => Poll::Ready(Err(e)),
            Ok(Arrival::Released(t)) => {
                // Last arrival: every parked rank leaves at the release
                // time (≥ each waiter's own entry).
                s.wake_barrier_waiters();
                Poll::Ready(Ok(t))
            }
            Ok(Arrival::Parked { generation }) => {
                this.parked = Some(generation);
                s.set_waiting(this.me, Waiting::Barrier);
                s.barrier_waiters.push(this.me);
                Poll::Pending
            }
        }
    }
}

type RankFut<'a, T> = Pin<Box<dyn Future<Output = T> + 'a>>;

/// Drive all `p` rank bodies to completion on the calling thread and
/// return their outcomes with the ranks' contexts (whose clocks and
/// traces the caller reads): `catch_unwind` per step, barrier abort before
/// the death cascade on an unwind, completed ranks going dead without an
/// abort. Ranks enter the run queue in order of `rank ^ plan.order`.
pub(crate) fn run_ranks_des<T, F>(
    p: usize,
    params: ClockParams,
    tracing: bool,
    plan: Option<&Arc<FaultPlan>>,
    f: &F,
) -> (Vec<RankOutcome<T>>, Vec<Ctx>)
where
    T: Send,
    F: for<'a> Fn(&'a mut Ctx) -> Pin<Box<dyn Future<Output = T> + 'a>>,
{
    let order = plan.map_or(0, |plan| plan.order as usize);
    let shared = Rc::new(DesShared::new(p));
    let mut ctxs: Vec<Ctx> = (0..p)
        .map(|rank| Ctx::new(rank, p, Rc::clone(&shared), params, tracing, plan))
        .collect();
    // A rank's body is built by its first step, inside that step's
    // `catch_unwind` (so a fault or panic in `f` is caught like one in the
    // body), and then polled directly.
    let mut idle: Vec<Option<&mut Ctx>> = ctxs.iter_mut().map(Some).collect();
    let mut futures: Vec<Option<RankFut<'_, T>>> = (0..p).map(|_| None).collect();

    // Every rank starts runnable. A rank is queued at most once, so the
    // queue never outgrows its first allocation.
    let mut queue: VecDeque<usize> = (0..p).collect();
    if order != 0 {
        queue.make_contiguous().sort_unstable_by_key(|&r| r ^ order);
    }
    let mut outcomes: Vec<Option<RankOutcome<T>>> = (0..p).map(|_| None).collect();
    let mut remaining = p;
    let mut cx = Context::from_waker(Waker::noop());

    while remaining > 0 {
        let Some(rank) = queue.pop_front() else {
            let blocked: Vec<usize> = (0..p).filter(|&r| outcomes[r].is_none()).collect();
            panic!("DES deadlock: ranks {blocked:?} are blocked with no pending events");
        };
        if outcomes[rank].is_some() {
            continue; // woken within the step it finished in
        }
        let polled = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let fut = futures[rank]
                .get_or_insert_with(|| f(idle[rank].take().expect("a rank's body is built once")));
            fut.as_mut().poll(&mut cx)
        }));
        match polled {
            Ok(Poll::Pending) => {}
            Ok(Poll::Ready(out)) => {
                futures[rank] = None;
                outcomes[rank] = Some(RankOutcome::Done(out));
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
        // The ranks this step woke join the back of the queue.
        let mut s = shared.state.borrow_mut();
        s.wakes.sort_unstable_by_key(|&r| r ^ order);
        queue.extend(s.wakes.drain(..));
    }

    // Every body is gone; this ends their borrows of `ctxs`.
    drop(futures);
    let outcomes = outcomes
        .into_iter()
        .map(|o| o.expect("every rank produced an outcome"))
        .collect();
    (outcomes, ctxs)
}

#[cfg(test)]
mod tests {
    use std::any::TypeId;
    use std::cell::RefCell;
    use std::future::Future;
    use std::pin::Pin;
    use std::rc::Rc;
    use std::task::{Context, Poll, Waker};

    use super::{run_ranks_des, DesPop, DesShared, PacketSlab, Waiting, NIL};
    use crate::channel::Packet;
    use crate::clock::ClockParams;
    use crate::error::MachineError;
    use crate::fault::FaultPlan;
    use crate::machine::{Ctx, Machine, RankOutcome};

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
            let mut slab = PacketSlab::new(2);
            for v in 0..3u64 {
                slab.push(1, 3, packet(30 + v));
                slab.push(1, 5, packet(50 + v));
            }
            for src in [first, second] {
                for v in 0..3u64 {
                    let got = slab.pop_from(1, src).map(value);
                    assert_eq!(got, Some(src as u64 * 10 + v));
                }
                assert!(slab.pop_from(1, src).is_none());
            }
            assert_eq!(slab.queues, [(NIL, NIL); 2]);
            // Every slot is free again, and the next pushes reuse them.
            for v in 0..6u64 {
                slab.push(0, 3, packet(v));
            }
            assert_eq!(slab.slots.len(), 6);
            assert_eq!(slab.pop_from(0, 3).map(value), Some(0));
        }
    }

    #[test]
    fn a_rank_blocked_on_one_source_sleeps_through_anothers_push() {
        let shared = Rc::new(DesShared::new(3));
        let mut from_1 = DesPop::new(Rc::clone(&shared), 0, 1);
        assert!(poll_pop(&mut from_1).is_pending());
        shared.push(2, 0, packet(22)).unwrap();
        assert!(shared.state.borrow().wakes.is_empty());
        shared.push(1, 0, packet(11)).unwrap();
        assert_eq!(shared.state.borrow().wakes, [0]);
        // Rank 1's packet arrived second and is received first.
        let Poll::Ready(Ok(got)) = poll_pop(&mut from_1) else {
            panic!("rank 1's packet is queued");
        };
        assert_eq!(value(got), 11);
        let Poll::Ready(Ok(got)) = poll_pop(&mut DesPop::new(shared, 0, 2)) else {
            panic!("rank 2's packet is still queued");
        };
        assert_eq!(value(got), 22);
    }

    /// A receive hands its emptied box back and the next send of that type
    /// refills it, and its emptied slot likewise: a thousand `u64`s
    /// ping-ponged in one run all travel in one box and one slab slot.
    #[test]
    fn a_ping_pong_run_reuses_one_payload_box() {
        async fn ping_pong(ctx: &mut Ctx) -> u64 {
            let peer = 1 - ctx.rank();
            let mut last = 0;
            for i in 0..500u64 {
                if ctx.rank() == 0 {
                    ctx.send(peer, 2 * i, 1);
                    last = ctx.recv_async(peer).await;
                } else {
                    last = ctx.recv_async::<u64>(peer).await + 1;
                    ctx.send(peer, last, 1);
                }
            }
            last
        }
        fn body(ctx: &mut Ctx) -> Pin<Box<dyn Future<Output = u64> + '_>> {
            Box::pin(ping_pong(ctx))
        }
        let (outcomes, ctxs) = run_ranks_des(2, ClockParams::free(), false, None, &body);
        assert!(outcomes.iter().all(|o| matches!(o, RankOutcome::Done(999))));
        let s = ctxs[0].shared.state.borrow();
        let spares: Vec<_> = s
            .spares
            .iter()
            .map(|(ty, boxes)| (*ty, boxes.len()))
            .collect();
        assert_eq!(spares, [(TypeId::of::<u64>(), 1)]);
        assert_eq!(s.slab.slots.len(), 1);
        assert_eq!(s.slab.free, 0);
    }

    /// Every directed pop but the last steps over all that is still
    /// queued (an unlink away from the head) — held for correctness, not
    /// speed.
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
        let mut pop = DesPop::new(Rc::clone(&shared), 1, 0);
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
        assert_eq!(s.wakes, [1], "woken once");
        assert_eq!(s.wait_head[0], NIL);
    }

    #[test]
    fn a_source_that_finishes_wakes_only_the_ranks_still_blocked_on_it() {
        let shared = Rc::new(DesShared::new(4));
        // Ranks 2 and 3 block on rank 0; rank 0 delivers to rank 2 only.
        let mut pop_2 = DesPop::new(Rc::clone(&shared), 2, 0);
        let mut pop_3 = DesPop::new(Rc::clone(&shared), 3, 0);
        assert!(poll_pop(&mut pop_2).is_pending());
        assert!(poll_pop(&mut pop_3).is_pending());
        shared.push(0, 2, packet(5)).unwrap();
        assert!(poll_pop(&mut pop_2).is_ready());
        // Rank 2 moves on to block on rank 1, then rank 0 finishes.
        let mut pop_2 = DesPop::new(Rc::clone(&shared), 2, 1);
        assert!(poll_pop(&mut pop_2).is_pending());
        shared.state.borrow_mut().wakes.clear();
        shared.mark_dead(0);
        let s = shared.state.borrow();
        assert_eq!(s.wakes, [3], "rank 3 alone");
        assert_eq!(s.waiting[2], Waiting::Recv { from: 1 });
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
        // Reversed order: rank 3 steps first and parks on rank 2.
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

    /// Rank 0 wakes ranks 4, 3, 2, 1 in one step (it sends to them in that
    /// order); they join the run queue, and receive, in order of
    /// `rank ^ order`.
    #[test]
    fn one_steps_wake_ups_join_the_queue_in_rank_xor_order() {
        for (order, received) in [
            (0, [1, 2, 3, 4]),
            (0b11, [3, 2, 1, 4]),
            (0b01, [1, 3, 2, 4]),
        ] {
            let log = Rc::new(RefCell::new(Vec::new()));
            let m = Machine::new(6, ClockParams::free())
                .with_faults(FaultPlan::new(0).with_order(order));
            let received_by = Rc::clone(&log);
            m.run_des(move |ctx| {
                let log = Rc::clone(&received_by);
                Box::pin(async move {
                    match ctx.rank() {
                        // Ranks 1..=4 are blocked on rank 0 by the time rank
                        // 5's message lets it go on.
                        0 => {
                            ctx.recv_async::<u64>(5).await;
                            for to in (1..5).rev() {
                                ctx.send(to, 0u64, 1);
                            }
                        }
                        5 => ctx.send(0, 0u64, 1),
                        r => {
                            ctx.recv_async::<u64>(0).await;
                            log.borrow_mut().push(r);
                        }
                    }
                })
            });
            assert_eq!(*log.borrow(), received, "order={order:#b}");
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

    /// A rank's body is built inside its first step, so a fault raised while
    /// building it surfaces as the run's error, like one inside the body.
    #[test]
    fn a_crash_while_building_a_body_surfaces_as_the_runs_error() {
        let m =
            Machine::new(3, ClockParams::free()).with_faults(FaultPlan::new(0).with_crash(1, 0));
        let err = m
            .try_run_des(|ctx| {
                ctx.charge(1.0, "set-up");
                Box::pin(async move { ctx.barrier_async().await })
            })
            .expect_err("rank 1 crashes before its body exists");
        assert_eq!(err, MachineError::RankFailed { rank: 1 });
    }

    #[test]
    fn injected_crash_surfaces_like_the_thread_engines() {
        // The barrier abort and the death cascade, with the victim stepped
        // last among the ranks first queued.
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
