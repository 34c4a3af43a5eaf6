//! The SPMD runtime: every virtual processor is a resumable future over
//! its [`Ctx`], stepped by a deterministic discrete-event scheduler, with
//! a simulated clock per rank.
//!
//! A [`Machine`] is configured with a processor count `p` and
//! [`ClockParams`]. [`Machine::run_des`] executes one SPMD program: the
//! given closure builds one async body per rank, each receiving a [`Ctx`]
//! with the rank's identity, its simulated clock and its trace.
//!
//! ## Cost semantics
//!
//! * [`Ctx::charge`] — local computation, 1 unit per operation (paper §4.1).
//! * [`Ctx::send`] / [`Ctx::recv_async`] — a one-way message of `m` words. The
//!   sender is *eager*: it pays `ts + m·tw` from its own clock and moves
//!   on. The receiver completes at `max(own clock, sender's clock at send
//!   start) + ts + m·tw`.
//! * [`Ctx::exchange_async`] — the paper's simultaneous bidirectional exchange:
//!   both partners rendezvous and pay a *single* `ts + m·tw`
//!   (`T_sendrecv`, §4.1), ending at the same instant.
//! * [`Ctx::barrier_async`] — synchronizes control *and* clocks (all ranks leave
//!   at the global maximum time).
//!
//! Because message timestamps travel with the data, the simulated makespan
//! of a run is a pure function of the communication structure — identical
//! across reruns and across every order in which the scheduler breaks
//! ties between same-time events ([`FaultPlan::order`]).
//!
//! ## Fault injection
//!
//! [`Machine::with_faults`] attaches a [`FaultPlan`]; every `Ctx`
//! operation then consults a per-rank [`FaultInjector`]:
//!
//! * compute charges are stretched by the rank's straggler factor;
//! * transfer costs are inflated for slow links (undirected, so exchanges
//!   stay symmetric);
//! * sends (and each direction of an exchange) replay the plan's message
//!   drops through a sender-side ack/retry protocol — every failed
//!   attempt costs the wasted transfer plus the ack timeout, recorded as
//!   an [`EventKind::Retry`] span, before the retransmission; exhausting
//!   [`RetryParams::max_attempts`](crate::fault::RetryParams) raises
//!   [`MachineError::Timeout`];
//! * a [`CrashSpec`](crate::fault::CrashSpec) kills its rank just before
//!   the chosen operation ordinal; peers that depend on the dead rank
//!   observe the disconnect and abort with
//!   [`MachineError::RankFailed`].
//!
//! Faulted runs go through [`Machine::try_run_des`], which returns
//! `Err(MachineError)` on any injected failure instead of hanging or
//! panicking. A plan that injects nothing is observationally inert: the
//! run is bit-identical to a plain one.

use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;

use crate::channel::Packet;
use crate::clock::{ClockParams, SimClock};
use crate::des::{DesBarrier, DesPop, DesShared};
use crate::error::MachineError;
use crate::fault::{FaultInjector, FaultPlan};
use crate::trace::{EventKind, Trace};

/// The panic payload a rank throws to unwind out of its body when a fault
/// fires. Crate-private: the DES scheduler catches it at the rank
/// boundary and [`Machine::try_run_des`] turns it into an `Err`, so it is
/// never visible to callers (and the panic hook stays silent about it).
pub(crate) struct FaultAbort {
    pub(crate) error: MachineError,
    /// True on the rank where the fault originated (crash victim, timed-out
    /// sender); false on ranks aborting in sympathy (disconnect cascades,
    /// barrier aborts).
    pub(crate) origin: bool,
}

/// Silence the default panic-hook output for [`FaultAbort`] unwinds —
/// injected faults are expected control flow, not bugs — while delegating
/// every other panic to the previously installed hook. Installed at most
/// once per process, the first time a faulted run starts.
pub(crate) fn install_quiet_fault_hook() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<FaultAbort>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Per-rank execution context handed to the SPMD closure.
pub struct Ctx {
    rank: usize,
    size: usize,
    shared: Rc<DesShared>,
    clock: SimClock,
    trace: Trace,
    injector: Option<FaultInjector>,
}

impl Ctx {
    /// Build the context of one rank; all communication goes through
    /// `shared`.
    pub(crate) fn new(
        rank: usize,
        p: usize,
        shared: Rc<DesShared>,
        params: ClockParams,
        tracing: bool,
        plan: Option<&Arc<FaultPlan>>,
    ) -> Ctx {
        Ctx {
            rank,
            size: p,
            shared,
            clock: SimClock::new_for_rank(params, rank),
            trace: if tracing {
                Trace::enabled()
            } else {
                Trace::disabled()
            },
            injector: plan.map(|pl| FaultInjector::new(pl.clone(), rank, p)),
        }
    }

    /// This rank's id, `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of processors in the machine.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Dequeue the next packet from rank `from`, suspending the rank until
    /// one is queued or `from` is gone.
    async fn pop_packet(&self, from: usize) -> Result<Packet, MachineError> {
        DesPop::new(Rc::clone(&self.shared), self.rank, from, self.clock.now()).await
    }

    /// Current simulated time on this rank.
    #[inline]
    pub fn time(&self) -> f64 {
        self.clock.now()
    }

    /// The machine's cost parameters.
    #[inline]
    pub fn params(&self) -> ClockParams {
        self.clock.params()
    }

    /// Immutable view of this rank's simulated clock (statistics).
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Advance the fault-plan operation counter; unwind if the plan
    /// crashes this rank at this ordinal.
    #[inline]
    fn fault_tick(&mut self) {
        let crashed = match &mut self.injector {
            Some(inj) => inj.tick(),
            None => false,
        };
        if crashed {
            let rank = self.rank();
            std::panic::panic_any(FaultAbort {
                error: MachineError::RankFailed { rank },
                origin: true,
            });
        }
    }

    /// Transfer cost between `a` and `b`, inflated by any slow-link
    /// entries of the fault plan (bit-identical to the plain cost when
    /// none apply).
    #[inline]
    fn link_cost(&self, a: usize, b: usize, words: u64) -> f64 {
        let base = self.clock.params().transfer(words);
        match &self.injector {
            Some(inj) => inj.inflate_link(a, b, base),
            None => base,
        }
    }

    /// Replay the plan's drops for the next message on the directed lane
    /// `self -> to`: each dropped attempt advances this clock by the
    /// wasted transfer plus the ack timeout (recorded as a `Retry` span);
    /// exhausting the attempt budget aborts with `Timeout`.
    fn simulate_drops(&mut self, to: usize, words: u64, cost: f64) {
        let Some(inj) = &mut self.injector else {
            return;
        };
        if !inj.is_lossy() {
            return;
        }
        let drops = inj.outgoing_drops(to);
        if drops == 0 {
            return;
        }
        let retry = inj.retry();
        let from = self.rank();
        if drops >= retry.max_attempts {
            std::panic::panic_any(FaultAbort {
                error: MachineError::Timeout {
                    from,
                    to,
                    attempts: retry.max_attempts,
                },
                origin: true,
            });
        }
        for attempt in 1..=drops {
            let start = self.clock.now();
            let t = self.clock.charge_retry(cost + retry.timeout);
            if self.trace.is_enabled() {
                self.trace
                    .record(from, start, t, EventKind::Retry { to, words, attempt });
            }
        }
    }

    /// Unwind out of a failed channel operation: under a fault plan this
    /// becomes a recoverable error (`Disconnected` peers are reported as
    /// `RankFailed`); without one it is a programming error and panics
    /// with the legacy message.
    fn channel_failure(&self, what: &str, e: MachineError) -> ! {
        if self.injector.is_some() {
            let error = match e {
                MachineError::Disconnected { rank } => MachineError::RankFailed { rank },
                other => other,
            };
            std::panic::panic_any(FaultAbort {
                error,
                origin: false,
            });
        }
        panic!("{what} on rank {}: {e}", self.rank());
    }

    /// Charge `ops` units of local computation, labelled for the trace.
    /// Under a fault plan a straggler rank's clock is stretched by its
    /// slowdown factor (the logical op count is unchanged).
    pub fn charge(&mut self, ops: f64, label: &str) {
        self.fault_tick();
        let start = self.clock.now();
        match &self.injector {
            Some(inj) => {
                let factor = inj.compute_factor();
                self.clock.charge_compute_scaled(ops, factor);
            }
            None => self.clock.charge_compute(ops),
        }
        if self.trace.is_enabled() {
            self.trace.record(
                self.rank(),
                start,
                self.clock.now(),
                EventKind::Compute {
                    ops,
                    label: label.to_string(),
                },
            );
        }
    }

    /// Record a free-form marker in the trace (used by tests to capture
    /// intermediate values, e.g. the tuples of the paper's Figures 4–6).
    pub fn mark(&mut self, note: impl Into<String>) {
        if self.trace.is_enabled() {
            let rank = self.rank();
            let now = self.clock.now();
            self.trace
                .record_instant(rank, now, EventKind::Mark { note: note.into() });
        }
    }

    /// Record an end-of-stage boundary: everything this rank did since the
    /// previous boundary belongs to program stage `index`. Executors inject
    /// these so [`crate::profile::ProfileReport`] can attribute time per
    /// stage.
    pub fn end_stage(&mut self, index: usize, label: impl Into<String>) {
        if self.trace.is_enabled() {
            let rank = self.rank();
            let now = self.clock.now();
            self.trace.record_instant(
                rank,
                now,
                EventKind::Stage {
                    index,
                    label: label.into(),
                },
            );
        }
    }

    /// Send `value` (declared size `words`) to rank `to`. Eager: this
    /// rank's clock advances by `ts + words·tw` (plus any injected retry
    /// overhead — dropped attempts delay the packet's entry into the
    /// network but never its payload or ordering, so recovered sends are
    /// observationally identical to clean ones).
    pub fn send<T: Send + 'static>(&mut self, to: usize, value: T, words: u64) {
        self.fault_tick();
        let cost = self.link_cost(self.rank(), to, words);
        self.simulate_drops(to, words, cost);
        let send_time = self.clock.now();
        if let Err(e) = self.shared.push(
            self.rank,
            to,
            Packet {
                payload: Box::new(value),
                words,
                send_time,
            },
        ) {
            self.channel_failure("send", e);
        }
        // The sender pays the transfer from its own clock.
        let t = self.clock.complete_exchange_costing(send_time, words, cost);
        if self.trace.is_enabled() {
            let rank = self.rank();
            self.trace
                .record(rank, send_time, t, EventKind::Send { to, words });
        }
    }

    /// Receive the next value from rank `from`, suspending the rank until
    /// it arrives. Completes at
    /// `max(own clock, sender's send-start) + ts + words·tw`.
    ///
    /// # Panics
    /// Panics if the payload is not a `T` — a type mismatch is a bug in the
    /// SPMD program, not a runtime condition.
    pub async fn recv_async<T: Send + 'static>(&mut self, from: usize) -> T {
        self.fault_tick();
        let packet = match self.pop_packet(from).await {
            Ok(p) => p,
            Err(e) => self.channel_failure("recv", e),
        };
        let words = packet.words;
        let cost = self.link_cost(self.rank(), from, words);
        let (start, t) = self
            .clock
            .complete_exchange_spanning(packet.send_time, words, cost);
        if self.trace.is_enabled() {
            let rank = self.rank();
            self.trace.record(
                rank,
                start,
                t,
                EventKind::Recv {
                    from,
                    words,
                    sent_at: packet.send_time,
                },
            );
        }
        let to = self.rank();
        *packet.payload.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "{}",
                MachineError::TypeMismatch {
                    from,
                    to,
                    expected: std::any::type_name::<T>()
                }
            )
        })
    }

    /// Simultaneous bidirectional exchange with `partner`: sends `value`,
    /// returns the partner's value. Both sides pay a single
    /// `ts + max_words·tw` and end at the same simulated instant
    /// (the paper's `T_sendrecv`). Under a lossy fault plan each direction
    /// replays its own drop schedule before entering the rendezvous, so
    /// retry delays push the meeting point out without breaking its
    /// symmetry.
    pub async fn exchange_async<T: Send + 'static>(
        &mut self,
        partner: usize,
        value: T,
        words: u64,
    ) -> T {
        self.fault_tick();
        let out_cost = self.link_cost(self.rank(), partner, words);
        self.simulate_drops(partner, words, out_cost);
        let my_time = self.clock.now();
        if let Err(e) = self.shared.push(
            self.rank,
            partner,
            Packet {
                payload: Box::new(value),
                words,
                send_time: my_time,
            },
        ) {
            self.channel_failure("exchange push", e);
        }
        let packet = match self.pop_packet(partner).await {
            Ok(p) => p,
            Err(e) => self.channel_failure("exchange pop", e),
        };
        let w = words.max(packet.words);
        let cost = self.link_cost(self.rank(), partner, w);
        let (start, t) = self
            .clock
            .complete_exchange_spanning(packet.send_time, w, cost);
        if self.trace.is_enabled() {
            let rank = self.rank();
            self.trace.record(
                rank,
                start,
                t,
                EventKind::Exchange {
                    partner,
                    words: w,
                    sent_at: packet.send_time,
                },
            );
        }
        let from = partner;
        let to = self.rank();
        *packet.payload.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "{}",
                MachineError::TypeMismatch {
                    from,
                    to,
                    expected: std::any::type_name::<T>()
                }
            )
        })
    }

    /// Barrier across all ranks; clocks leave at the global maximum. If a
    /// rank dies mid-run the barrier aborts instead of blocking forever.
    pub async fn barrier_async(&mut self) {
        self.fault_tick();
        let entry = self.clock.now();
        let t = match DesBarrier::new(Rc::clone(&self.shared), self.rank, entry).await {
            Ok(t) => t,
            Err(e) => {
                if self.injector.is_some() {
                    std::panic::panic_any(FaultAbort {
                        error: e,
                        origin: false,
                    });
                }
                panic!("barrier on rank {}: {e}", self.rank());
            }
        };
        self.clock.sync_to(t);
        if self.trace.is_enabled() {
            let rank = self.rank();
            self.trace.record(rank, entry, t, EventKind::Barrier);
        }
    }

    pub(crate) fn into_parts(self) -> (SimClock, Trace) {
        (self.clock, self.trace)
    }
}

/// Outcome of one SPMD run.
#[derive(Debug)]
pub struct RunResult<T> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<T>,
    /// Maximum final simulated time over all ranks — the paper's notion of
    /// parallel run time.
    pub makespan: f64,
    /// Final simulated time of each rank.
    pub finish_times: Vec<f64>,
    /// Total computation operations charged, per rank.
    pub compute_ops: Vec<f64>,
    /// Message exchanges each rank participated in.
    pub messages: Vec<u64>,
    /// Failed transmission attempts each rank retried (all zero without a
    /// lossy fault plan).
    pub retries: Vec<u64>,
    /// Simulated time each rank lost to failed attempts — the *exact*
    /// fault overhead of a lossy-but-recovered run.
    pub retry_time: Vec<f64>,
    /// Merged event trace (empty unless tracing was enabled).
    pub trace: Trace,
}

impl<T> RunResult<T> {
    /// Failed transmission attempts summed over ranks.
    pub fn total_retries(&self) -> u64 {
        self.retries.iter().sum()
    }

    /// Retry time summed over ranks.
    pub fn total_retry_time(&self) -> f64 {
        self.retry_time.iter().sum()
    }
}

/// What one rank's future produced.
pub(crate) enum RankOutcome<T> {
    /// Clean completion.
    Done(T, SimClock, Trace),
    /// An injected fault unwound the rank.
    Faulted(MachineError, bool),
    /// A genuine panic (programming error) — payload re-raised once every
    /// rank has an outcome.
    Panicked(Box<dyn std::any::Any + Send>),
}

/// The execution engine, as `collopt_core::exec::ExecConfig::engine`
/// names it.
///
/// There is one: every program runs on the discrete-event scheduler, and
/// every value of this type (and `ExecConfig::engine: None`) selects it.
/// The type is kept only because the standalone `benchmark/` crate spells
/// `ExecConfig { engine: Some(ExecEngine::Des), .. }`; ROADMAP item 5's
/// follow-up `benchmark` issue ("drop the engine vestiges") deletes it and
/// `ExecConfig::engine` together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecEngine {
    /// Single-threaded discrete-event scheduler: each rank is a resumable
    /// future driven off a binary-heap event queue, so `p` is bounded by
    /// memory.
    Des,
}

/// A virtual machine of `p` fully connected processors.
#[derive(Debug, Clone)]
pub struct Machine {
    p: usize,
    params: ClockParams,
    tracing: bool,
    faults: Option<Arc<FaultPlan>>,
}

impl Machine {
    /// A machine with `p ≥ 1` processors and the given cost parameters.
    pub fn new(p: usize, params: ClockParams) -> Self {
        assert!(p >= 1, "{}", MachineError::EmptyMachine);
        Machine {
            p,
            params,
            tracing: false,
            faults: None,
        }
    }

    /// Enable event tracing for subsequent runs.
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Attach a fault plan: subsequent runs replay its faults
    /// deterministically. Prefer [`try_run_des`](Self::try_run_des)
    /// afterwards — [`run_des`](Self::run_des) panics if the plan makes the
    /// run fail.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// Number of processors.
    pub fn size(&self) -> usize {
        self.p
    }

    /// Cost parameters.
    pub fn params(&self) -> ClockParams {
        self.params
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_deref()
    }

    /// Run one SPMD program, surfacing injected faults as errors: `f` is
    /// called once per rank to build that rank's body as a future
    /// borrowing its [`Ctx`] (and nothing else — per-rank inputs are
    /// typically an `Arc<Vec<_>>` cloned into each body and indexed by
    /// `ctx.rank()`). All ranks advance cooperatively on the calling
    /// thread, so `p` is bounded by memory.
    ///
    /// Returns `Err` when a fault plan crashes a rank
    /// ([`MachineError::RankFailed`]) or exhausts a message's retry budget
    /// ([`MachineError::Timeout`]); the error describes the *originating*
    /// fault even when other ranks failed in sympathy — no hang. Genuine
    /// panics (programming errors) still propagate as panics.
    pub fn try_run_des<T, F>(&self, f: F) -> Result<RunResult<T>, MachineError>
    where
        T: Send,
        F: for<'a> Fn(&'a mut Ctx) -> Pin<Box<dyn Future<Output = T> + 'a>>,
    {
        if self.faults.is_some() {
            install_quiet_fault_hook();
        }
        let outcomes =
            crate::des::run_ranks_des(self.p, self.params, self.tracing, self.faults.as_ref(), &f);
        collect_outcomes(self.p, outcomes)
    }

    /// Run one SPMD program; see [`try_run_des`](Self::try_run_des).
    ///
    /// # Panics
    /// Panics if an attached fault plan makes the run fail.
    pub fn run_des<T, F>(&self, f: F) -> RunResult<T>
    where
        T: Send,
        F: for<'a> Fn(&'a mut Ctx) -> Pin<Box<dyn Future<Output = T> + 'a>>,
    {
        self.try_run_des(f)
            .unwrap_or_else(|e| panic!("machine run failed: {e}"))
    }
}

/// Triage per-rank outcomes and assemble the [`RunResult`]. A genuine
/// panic outranks everything (programming errors must not be masked by
/// injected faults); then the originating fault (lowest rank); then any
/// derived fault.
fn collect_outcomes<T>(
    p: usize,
    mut outcomes: Vec<RankOutcome<T>>,
) -> Result<RunResult<T>, MachineError> {
    let mut origin_error = None;
    let mut derived_error = None;
    for outcome in &outcomes {
        match outcome {
            RankOutcome::Panicked(_) => {}
            RankOutcome::Faulted(e, true) if origin_error.is_none() => {
                origin_error = Some(e.clone());
            }
            RankOutcome::Faulted(e, _) if derived_error.is_none() => {
                derived_error = Some(e.clone());
            }
            _ => {}
        }
    }
    for outcome in &mut outcomes {
        if let RankOutcome::Panicked(_) = outcome {
            let RankOutcome::Panicked(payload) = std::mem::replace(
                outcome,
                RankOutcome::Faulted(MachineError::EmptyMachine, false),
            ) else {
                unreachable!()
            };
            std::panic::resume_unwind(payload);
        }
    }
    if let Some(e) = origin_error.or(derived_error) {
        return Err(e);
    }

    let mut results = Vec::with_capacity(p);
    let mut finish_times = Vec::with_capacity(p);
    let mut compute_ops = Vec::with_capacity(p);
    let mut messages = Vec::with_capacity(p);
    let mut retries = Vec::with_capacity(p);
    let mut retry_time = Vec::with_capacity(p);
    let mut traces = Vec::with_capacity(p);
    for outcome in outcomes {
        let RankOutcome::Done(out, clock, t) = outcome else {
            unreachable!("non-Done outcomes were handled above");
        };
        results.push(out);
        finish_times.push(clock.now());
        compute_ops.push(clock.compute_ops());
        messages.push(clock.messages());
        retries.push(clock.retries());
        retry_time.push(clock.retry_time());
        traces.push(t);
    }
    let trace = Trace::merge_many(traces);
    let makespan = finish_times.iter().cloned().fold(0.0, f64::max);
    Ok(RunResult {
        results,
        makespan,
        finish_times,
        compute_ops,
        messages,
        retries,
        retry_time,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pass_accumulates() {
        let m = Machine::new(4, ClockParams::free());
        let run = m.run_des(|ctx| {
            Box::pin(async move {
                // Each rank adds its id and passes a token around the ring.
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
    fn exchange_is_symmetric_and_synchronizing() {
        let m = Machine::new(2, ClockParams::new(10.0, 1.0));
        let run = m.run_des(|ctx| {
            Box::pin(async move {
                // Rank 1 computes first, then both exchange.
                if ctx.rank() == 1 {
                    ctx.charge(100.0, "work");
                }
                let got = ctx
                    .exchange_async(1 - ctx.rank(), ctx.rank() as u64, 5)
                    .await;
                (got, ctx.time())
            })
        });
        assert_eq!(run.results[0].0, 1);
        assert_eq!(run.results[1].0, 0);
        // Both end at max(0, 100) + 10 + 5 = 115.
        assert_eq!(run.results[0].1, 115.0);
        assert_eq!(run.results[1].1, 115.0);
        assert_eq!(run.makespan, 115.0);
    }

    #[test]
    fn sends_from_one_rank_serialize_on_its_clock() {
        let m = Machine::new(3, ClockParams::new(10.0, 1.0));
        let run = m.run_des(|ctx| {
            Box::pin(async move {
                if ctx.rank() == 0 {
                    ctx.send(1, (), 4);
                    ctx.send(2, (), 4);
                    ctx.time()
                } else {
                    ctx.recv_async::<()>(0).await;
                    ctx.time()
                }
            })
        });
        // Sender: two eager sends of 14 each -> 28.
        assert_eq!(run.results[0], 28.0);
        // First receiver: max(0, 0) + 14.
        assert_eq!(run.results[1], 14.0);
        // Second receiver: sender started its send at t=14 -> 14 + 14.
        assert_eq!(run.results[2], 28.0);
    }

    #[test]
    fn barrier_aligns_clocks_to_max() {
        let m = Machine::new(4, ClockParams::free());
        let run = m.run_des(|ctx| {
            Box::pin(async move {
                ctx.charge((ctx.rank() * 10) as f64, "skew");
                ctx.barrier_async().await;
                ctx.time()
            })
        });
        for t in run.results {
            assert_eq!(t, 30.0);
        }
    }

    #[test]
    fn repeated_barriers_stay_consistent() {
        let m = Machine::new(3, ClockParams::free());
        let run = m.run_des(|ctx| {
            Box::pin(async move {
                let mut times = Vec::new();
                for round in 0..5 {
                    ctx.charge(((ctx.rank() + round) % 3) as f64, "w");
                    ctx.barrier_async().await;
                    times.push(ctx.time());
                }
                times
            })
        });
        for round in 0..5 {
            let t0 = run.results[0][round];
            assert!(
                run.results.iter().all(|r| r[round] == t0),
                "round {round} disagrees"
            );
        }
        // Times strictly increase across rounds (some rank always works).
        for r in &run.results {
            for w in r.windows(2) {
                assert!(w[1] > w[0]);
            }
        }
    }

    #[test]
    fn makespan_is_deterministic_across_reruns() {
        let m = Machine::new(8, ClockParams::new(50.0, 2.0));
        // A butterfly allreduce-like exchange pattern.
        async fn prog(ctx: &mut Ctx) -> u64 {
            let mut v = ctx.rank() as u64;
            for round in 0..3 {
                let partner = ctx.rank() ^ (1 << round);
                let got = ctx.exchange_async(partner, v, 8).await;
                v += got;
                ctx.charge(8.0, "combine");
            }
            v
        }
        let a = m.run_des(|ctx| Box::pin(prog(ctx)));
        let b = m.run_des(|ctx| Box::pin(prog(ctx)));
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.results, b.results);
        assert_eq!(a.results, vec![28; 8]);
        // 3 rounds x (50 + 8*2 + 8 compute) = 3 * 74 = 222.
        assert_eq!(a.makespan, 222.0);
    }

    #[test]
    fn tracing_collects_events_from_all_ranks() {
        let m = Machine::new(2, ClockParams::free()).with_tracing();
        let run = m.run_des(|ctx| {
            Box::pin(async move {
                if ctx.rank() == 0 {
                    ctx.send(1, 1u8, 1);
                } else {
                    ctx.recv_async::<u8>(0).await;
                }
                ctx.mark(format!("done-{}", ctx.rank()));
            })
        });
        let marks = run.trace.marks();
        assert!(marks.contains(&"done-0"));
        assert!(marks.contains(&"done-1"));
        let sends = run
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Send { .. }))
            .count();
        assert_eq!(sends, 1);
    }

    #[test]
    fn mixed_payload_types_in_one_program() {
        let m = Machine::new(2, ClockParams::free());
        let run = m.run_des(|ctx| {
            Box::pin(async move {
                if ctx.rank() == 0 {
                    ctx.send(1, vec![1.5f64, 2.5], 2);
                    ctx.send(1, String::from("tag"), 1);
                    0.0
                } else {
                    let v: Vec<f64> = ctx.recv_async(0).await;
                    let s: String = ctx.recv_async(0).await;
                    assert_eq!(s, "tag");
                    v.iter().sum()
                }
            })
        });
        assert_eq!(run.results[1], 4.0);
    }

    #[test]
    #[should_panic(expected = "not of the expected type")]
    fn type_mismatch_panics_with_context() {
        let m = Machine::new(2, ClockParams::free());
        m.run_des(|ctx| {
            Box::pin(async move {
                if ctx.rank() == 0 {
                    ctx.send(1, 1u32, 1);
                } else {
                    let _: u64 = ctx.recv_async(0).await;
                }
            })
        });
    }

    #[test]
    fn single_rank_machine_runs() {
        let m = Machine::new(1, ClockParams::free());
        let run = m.run_des(|ctx| {
            Box::pin(async move {
                ctx.barrier_async().await;
                ctx.charge(3.0, "solo");
                ctx.rank()
            })
        });
        assert_eq!(run.results, vec![0]);
        assert_eq!(run.makespan, 3.0);
    }

    #[test]
    fn run_result_stats_match_activity() {
        let m = Machine::new(2, ClockParams::new(1.0, 1.0));
        let run = m.run_des(|ctx| {
            Box::pin(async move {
                ctx.charge(7.0, "w");
                ctx.exchange_async(1 - ctx.rank(), (), 3).await;
            })
        });
        assert_eq!(run.compute_ops, vec![7.0, 7.0]);
        assert_eq!(run.messages, vec![1, 1]);
        assert_eq!(run.retries, vec![0, 0]);
        assert_eq!(run.retry_time, vec![0.0, 0.0]);
        assert_eq!(run.finish_times[0], run.finish_times[1]);
        assert_eq!(run.makespan, 7.0 + 1.0 + 3.0);
    }

    // ---- fault injection -------------------------------------------------

    /// A small pipeline every fault test reuses: ring shift then butterfly.
    async fn chatty(ctx: &mut Ctx) -> u64 {
        let mut v = ctx.rank() as u64 + 1;
        ctx.charge(4.0, "warmup");
        let next = (ctx.rank() + 1) % ctx.size();
        let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
        ctx.send(next, v, 2);
        v += ctx.recv_async::<u64>(prev).await;
        if ctx.size().is_power_of_two() {
            for round in 0..ctx.size().trailing_zeros() {
                let partner = ctx.rank() ^ (1 << round);
                let got = ctx.exchange_async(partner, v, 2).await;
                v = v.wrapping_add(got);
                ctx.charge(2.0, "combine");
            }
        }
        ctx.barrier_async().await;
        v
    }

    #[test]
    fn empty_fault_plan_is_observationally_inert() {
        let plain = Machine::new(4, ClockParams::new(10.0, 1.0)).with_tracing();
        let faulted = plain.clone().with_faults(FaultPlan::new(1234));
        let a = plain.run_des(|ctx| Box::pin(chatty(ctx)));
        let b = faulted
            .try_run_des(|ctx| Box::pin(chatty(ctx)))
            .expect("empty plan cannot fail");
        assert_eq!(a.results, b.results);
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.finish_times, b.finish_times);
        assert_eq!(a.compute_ops, b.compute_ops);
        assert_eq!(a.messages, b.messages);
        assert_eq!(b.total_retries(), 0);
        assert_eq!(b.total_retry_time(), 0.0);
        assert_eq!(a.trace.events(), b.trace.events());
    }

    #[test]
    fn straggler_slows_only_its_rank_and_keeps_results() {
        let m = Machine::new(4, ClockParams::new(10.0, 1.0));
        let clean = m.run_des(|ctx| Box::pin(chatty(ctx)));
        let slow = m
            .with_faults(FaultPlan::new(0).with_straggler(2, 5.0))
            .try_run_des(|ctx| Box::pin(chatty(ctx)))
            .expect("delay-only plan cannot fail");
        assert_eq!(clean.results, slow.results, "results must be bit-identical");
        assert!(slow.makespan > clean.makespan);
        // Logical op counts are unchanged — only the clock stretched.
        assert_eq!(clean.compute_ops, slow.compute_ops);
    }

    #[test]
    fn slow_link_inflates_only_the_named_pair() {
        async fn prog(ctx: &mut Ctx) -> f64 {
            if ctx.rank() == 0 {
                ctx.send(1, (), 5);
                ctx.send(2, (), 5);
            } else {
                ctx.recv_async::<()>(0).await;
            }
            ctx.time()
        }
        let m = Machine::new(3, ClockParams::new(10.0, 1.0));
        let clean = m.run_des(|ctx| Box::pin(prog(ctx)));
        let faulted = m
            .with_faults(FaultPlan::new(0).with_slow_link(0, 1, 2.0, 3.0))
            .try_run_des(|ctx| Box::pin(prog(ctx)))
            .expect("delay-only plan cannot fail");
        // 0 -> 1 costs 2*15 + 3 = 33 instead of 15 on both endpoints.
        assert_eq!(faulted.results[1], 33.0);
        // 0 -> 2 is still 15 but starts after the slow send: 33 + 15.
        assert_eq!(faulted.results[2], 48.0);
        assert_eq!(clean.results[1], 15.0);
    }

    #[test]
    fn dropped_send_retries_and_stays_bit_identical() {
        let m = Machine::new(4, ClockParams::new(10.0, 1.0)).with_tracing();
        let clean = m.run_des(|ctx| Box::pin(chatty(ctx)));
        // Drop the first message from 0 to 1 twice; retry costs
        // 2 * (cost + timeout) = 2 * (12 + 7) = 38 extra on rank 0.
        let plan = FaultPlan::new(0)
            .with_drop_exact(0, 1, 0, 2)
            .with_retry(4, 7.0);
        let lossy = m
            .with_faults(plan)
            .try_run_des(|ctx| Box::pin(chatty(ctx)))
            .expect("recoverable");
        assert_eq!(clean.results, lossy.results, "payloads must be untouched");
        assert_eq!(lossy.retries[0], 2);
        assert_eq!(lossy.retry_time[0], 2.0 * (12.0 + 7.0));
        assert!(lossy.makespan >= clean.makespan);
        let retry_events = lossy
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Retry { .. }))
            .count();
        assert_eq!(retry_events, 2);
    }

    #[test]
    fn exhausted_retries_surface_a_timeout() {
        let m = Machine::new(4, ClockParams::new(10.0, 1.0));
        let plan = FaultPlan::new(0)
            .with_drop_exact(0, 1, 0, 10)
            .with_retry(3, 5.0);
        let err = m
            .with_faults(plan)
            .try_run_des(|ctx| Box::pin(chatty(ctx)))
            .expect_err("the message can never get through");
        assert_eq!(
            err,
            MachineError::Timeout {
                from: 0,
                to: 1,
                attempts: 3
            }
        );
    }

    #[test]
    fn crash_surfaces_rank_failed_cleanly() {
        let m = Machine::new(4, ClockParams::new(10.0, 1.0));
        for after_ops in [0, 1, 2, 3] {
            let err = m
                .clone()
                .with_faults(FaultPlan::new(0).with_crash(2, after_ops))
                .try_run_des(|ctx| Box::pin(chatty(ctx)))
                .expect_err("a crashed rank must fail the run");
            assert_eq!(
                err,
                MachineError::RankFailed { rank: 2 },
                "crash at op {after_ops}"
            );
        }
    }

    #[test]
    fn crash_before_a_barrier_does_not_hang() {
        let m = Machine::new(3, ClockParams::free());
        // Rank 1 dies before its only operation — the barrier all other
        // ranks are waiting in must abort.
        let err = m
            .with_faults(FaultPlan::new(0).with_crash(1, 0))
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
    fn faulted_runs_are_deterministic() {
        let m = Machine::new(8, ClockParams::new(50.0, 2.0));
        let plan = FaultPlan::new(77)
            .with_straggler(3, 2.0)
            .with_slow_link(0, 4, 1.5, 10.0)
            .with_drops(0.2, 2);
        let a = m
            .clone()
            .with_faults(plan.clone())
            .try_run_des(|ctx| Box::pin(chatty(ctx)));
        let b = m.with_faults(plan).try_run_des(|ctx| Box::pin(chatty(ctx)));
        match (a, b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.results, y.results);
                assert_eq!(x.makespan.to_bits(), y.makespan.to_bits());
                assert_eq!(x.retries, y.retries);
                assert_eq!(x.retry_time, y.retry_time);
            }
            (Err(x), Err(y)) => assert_eq!(x, y),
            (x, y) => panic!("reruns disagree on fate: {x:?} vs {y:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "machine run failed")]
    fn run_panics_on_injected_failure() {
        let m =
            Machine::new(2, ClockParams::free()).with_faults(FaultPlan::new(0).with_crash(0, 0));
        let _ = m.run_des(|ctx| {
            Box::pin(async move {
                ctx.barrier_async().await;
            })
        });
    }
}
