//! Type-erased point-to-point mailboxes between ranks.
//!
//! The machine is fully connected: every ordered pair of ranks `(src, dst)`
//! gets its own FIFO queue, so a receive from a specific source needs no
//! tag matching and two messages from the same source can never overtake
//! each other. Payloads are type-erased (`Box<dyn Any + Send>`) so that a
//! single SPMD program can exchange values of several types — e.g. a
//! broadcast of `Vec<f64>` followed by a scan over pairs.
//!
//! Built on `std::sync` only: each rank owns one inbox (a mutex-protected
//! set of per-source FIFO queues). A sender locks the destination inbox,
//! enqueues, and wakes the receiver if one is parked; a receiver blocks via
//! `thread::park`. Because each rank is the *only* thread that ever
//! receives from its own inbox, at most one waiter can exist per inbox, so
//! a single parked-thread slot replaces a condvar — roughly halving the
//! cost of every blocking receive, which dominates simulator wall-clock.
//! When a rank's [`Mailboxes`] is dropped, it marks itself dead in every
//! peer's inbox so blocked receivers observe a disconnect instead of
//! hanging — the same semantics a per-pair channel would give when its
//! sending half is dropped (queued packets still drain first).

use std::any::Any;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::thread::Thread;

use crate::error::MachineError;

/// A message in flight: payload, declared size in words (for cost
/// accounting), and the sender's simulated clock at the moment of sending.
pub struct Packet {
    /// The type-erased payload.
    pub payload: Box<dyn Any + Send>,
    /// Size in machine words, as charged by the cost model.
    pub words: u64,
    /// Sender's simulated time when the message entered the network.
    pub send_time: f64,
}

impl std::fmt::Debug for Packet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Packet")
            .field("words", &self.words)
            .field("send_time", &self.send_time)
            .finish_non_exhaustive()
    }
}

/// Mutable inbox state of one rank: a FIFO queue per source plus the
/// liveness of each sender (false once that rank's [`Mailboxes`] dropped).
struct InboxState {
    queues: Vec<VecDeque<Packet>>,
    live: Vec<bool>,
    /// Rotating start index so [`Mailboxes::pop_any`] is fair across
    /// sources rather than always favouring rank 0.
    next_scan: usize,
    /// The owning rank's thread, registered while it is parked waiting for
    /// a packet. Single-slot: only the owner ever receives from its inbox.
    waiter: Option<Thread>,
}

/// One rank's inbox. Receivers block via `park`; senders and droppers wake
/// the registered waiter, if any.
struct Inbox {
    state: Mutex<InboxState>,
}

impl Inbox {
    fn new(p: usize) -> Inbox {
        Inbox {
            state: Mutex::new(InboxState {
                queues: (0..p).map(|_| VecDeque::new()).collect(),
                live: vec![true; p],
                next_scan: 0,
                waiter: None,
            }),
        }
    }
}

/// Wake the parked receiver, if any. Must be called *after* mutating the
/// state the receiver re-checks (enqueue or liveness flip) while still
/// holding the lock, so the take-then-unpark pairs with the receiver's
/// register-then-park.
fn wake(state: &mut InboxState) {
    if let Some(t) = state.waiter.take() {
        t.unpark();
    }
}

/// One rank's view of the full mesh: its own inbox (to receive) and every
/// peer's inbox (to send).
pub struct Mailboxes {
    rank: usize,
    /// Shared, not per-rank-cloned: handing out `p` views costs `p` Arc
    /// bumps instead of `p²`.
    inboxes: Arc<Vec<Arc<Inbox>>>,
}

impl Mailboxes {
    /// Rank that owns this set of mailboxes.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the mesh.
    pub fn size(&self) -> usize {
        self.inboxes.len()
    }

    /// Enqueue a packet for `dst`.
    pub fn push(&self, dst: usize, packet: Packet) -> Result<(), MachineError> {
        if dst >= self.inboxes.len() {
            return Err(MachineError::InvalidRank {
                rank: dst,
                size: self.inboxes.len(),
            });
        }
        let mut state = self.inboxes[dst].state.lock().expect("inbox poisoned");
        state.queues[self.rank].push_back(packet);
        wake(&mut state);
        Ok(())
    }

    /// Block until a packet from `src` arrives.
    pub fn pop(&self, src: usize) -> Result<Packet, MachineError> {
        if src >= self.inboxes.len() {
            return Err(MachineError::InvalidRank {
                rank: src,
                size: self.inboxes.len(),
            });
        }
        let inbox = &self.inboxes[self.rank];
        let mut state = inbox.state.lock().expect("inbox poisoned");
        loop {
            if let Some(p) = state.queues[src].pop_front() {
                state.waiter = None;
                return Ok(p);
            }
            if !state.live[src] {
                // Sender gone and its queue drained.
                state.waiter = None;
                return Err(MachineError::Disconnected { rank: src });
            }
            state.waiter = Some(std::thread::current());
            drop(state);
            // A push between the drop above and this park leaves an unpark
            // token, so the wakeup cannot be lost; stale tokens merely cause
            // one extra trip around the re-check loop.
            std::thread::park();
            state = inbox.state.lock().expect("inbox poisoned");
        }
    }

    /// Block until a packet arrives from *any* source (MPI_ANY_SOURCE);
    /// returns `(source, packet)`. A rotating scan start keeps the choice
    /// fair when several sources are ready.
    pub fn pop_any(&self) -> Result<(usize, Packet), MachineError> {
        let p = self.inboxes.len();
        let inbox = &self.inboxes[self.rank];
        let mut state = inbox.state.lock().expect("inbox poisoned");
        loop {
            let start = state.next_scan;
            for off in 0..p {
                let src = (start + off) % p;
                if let Some(packet) = state.queues[src].pop_front() {
                    state.next_scan = (src + 1) % p;
                    state.waiter = None;
                    return Ok((src, packet));
                }
            }
            // Every queue is empty; if every *other* rank is also gone, no
            // packet can ever arrive (a rank blocked in `pop_any` cannot
            // send to itself), so report the lowest dead peer rather than
            // waiting forever. A single dead peer is fine — the others may
            // still send.
            let dead_peer = (0..p).find(|&src| src != self.rank && !state.live[src]);
            let any_live_peer = (0..p).any(|src| src != self.rank && state.live[src]);
            if !any_live_peer {
                if let Some(dead) = dead_peer.or((p == 1).then_some(0)) {
                    state.waiter = None;
                    return Err(MachineError::Disconnected { rank: dead });
                }
            }
            state.waiter = Some(std::thread::current());
            drop(state);
            std::thread::park();
            state = inbox.state.lock().expect("inbox poisoned");
        }
    }

    /// Non-blocking variant of [`pop`](Self::pop): `Ok(None)` when the
    /// mailbox from `src` is currently empty.
    pub fn try_pop(&self, src: usize) -> Result<Option<Packet>, MachineError> {
        if src >= self.inboxes.len() {
            return Err(MachineError::InvalidRank {
                rank: src,
                size: self.inboxes.len(),
            });
        }
        let mut state = self.inboxes[self.rank]
            .state
            .lock()
            .expect("inbox poisoned");
        if let Some(p) = state.queues[src].pop_front() {
            return Ok(Some(p));
        }
        if !state.live[src] {
            return Err(MachineError::Disconnected { rank: src });
        }
        Ok(None)
    }
}

impl Drop for Mailboxes {
    fn drop(&mut self) {
        // Mark this rank dead in every inbox (including our own, for
        // completeness) and wake any blocked receiver so it can observe
        // the disconnect instead of waiting forever.
        for inbox in self.inboxes.iter() {
            if let Ok(mut state) = inbox.state.lock() {
                state.live[self.rank] = false;
                wake(&mut state);
            }
        }
    }
}

/// Builds a full `p × p` mesh and hands each rank its mailboxes.
pub fn build_mesh(p: usize) -> Vec<Mailboxes> {
    let inboxes: Arc<Vec<Arc<Inbox>>> = Arc::new((0..p).map(|_| Arc::new(Inbox::new(p))).collect());
    (0..p)
        .map(|rank| Mailboxes {
            rank,
            inboxes: inboxes.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet<T: Send + 'static>(v: T, words: u64) -> Packet {
        Packet {
            payload: Box::new(v),
            words,
            send_time: 0.0,
        }
    }

    #[test]
    fn mesh_routes_point_to_point() {
        let mut mesh = build_mesh(3);
        let m2 = mesh.pop().unwrap();
        let m1 = mesh.pop().unwrap();
        let m0 = mesh.pop().unwrap();
        assert_eq!(m0.rank(), 0);
        assert_eq!(m1.rank(), 1);
        assert_eq!(m2.rank(), 2);

        m0.push(2, packet(41u32, 1)).unwrap();
        m1.push(2, packet("hello", 1)).unwrap();
        let p = m2.pop(0).unwrap();
        assert_eq!(*p.payload.downcast::<u32>().unwrap(), 41);
        let p = m2.pop(1).unwrap();
        assert_eq!(*p.payload.downcast::<&str>().unwrap(), "hello");
    }

    #[test]
    fn fifo_order_per_pair() {
        let mesh = build_mesh(2);
        mesh[0].push(1, packet(1u8, 1)).unwrap();
        mesh[0].push(1, packet(2u8, 1)).unwrap();
        mesh[0].push(1, packet(3u8, 1)).unwrap();
        for expected in 1..=3u8 {
            let p = mesh[1].pop(0).unwrap();
            assert_eq!(*p.payload.downcast::<u8>().unwrap(), expected);
        }
    }

    #[test]
    fn self_send_works() {
        let mesh = build_mesh(1);
        mesh[0].push(0, packet(7i64, 1)).unwrap();
        let p = mesh[0].pop(0).unwrap();
        assert_eq!(*p.payload.downcast::<i64>().unwrap(), 7);
    }

    #[test]
    fn try_pop_empty_returns_none() {
        let mesh = build_mesh(2);
        assert!(mesh[0].try_pop(1).unwrap().is_none());
        mesh[1].push(0, packet(9u16, 1)).unwrap();
        let got = mesh[0].try_pop(1).unwrap().unwrap();
        assert_eq!(*got.payload.downcast::<u16>().unwrap(), 9);
    }

    #[test]
    fn invalid_rank_is_reported() {
        let mesh = build_mesh(2);
        assert_eq!(
            mesh[0].push(5, packet(0u8, 1)).unwrap_err(),
            MachineError::InvalidRank { rank: 5, size: 2 }
        );
        assert_eq!(
            mesh[0].pop(9).unwrap_err(),
            MachineError::InvalidRank { rank: 9, size: 2 }
        );
    }

    #[test]
    fn packets_carry_metadata() {
        let mesh = build_mesh(2);
        mesh[0]
            .push(
                1,
                Packet {
                    payload: Box::new(0u8),
                    words: 42,
                    send_time: 3.5,
                },
            )
            .unwrap();
        let p = mesh[1].pop(0).unwrap();
        assert_eq!(p.words, 42);
        assert_eq!(p.send_time, 3.5);
    }

    #[test]
    fn queued_packets_drain_before_disconnect_is_reported() {
        let mut mesh = build_mesh(2);
        let m1 = mesh.pop().unwrap();
        let m0 = mesh.pop().unwrap();
        m0.push(1, packet(5u8, 1)).unwrap();
        drop(m0);
        let p = m1.pop(0).unwrap();
        assert_eq!(*p.payload.downcast::<u8>().unwrap(), 5);
        assert_eq!(
            m1.pop(0).unwrap_err(),
            MachineError::Disconnected { rank: 0 }
        );
    }

    #[test]
    fn pop_any_reports_disconnect_when_all_peers_die() {
        let mut mesh = build_mesh(3);
        let m2 = mesh.pop().unwrap();
        let m1 = mesh.pop().unwrap();
        let m0 = mesh.pop().unwrap();
        // Rank 1 sends one packet then dies; rank 2 dies silently. Rank 0
        // must drain the queued packet, then observe the disconnect (it
        // can never receive from itself while blocked).
        m1.push(0, packet(1u8, 1)).unwrap();
        drop(m1);
        drop(m2);
        let (src, p) = m0.pop_any().unwrap();
        assert_eq!(src, 1);
        assert_eq!(*p.payload.downcast::<u8>().unwrap(), 1);
        let err = m0.pop_any().unwrap_err();
        assert_eq!(err, MachineError::Disconnected { rank: 1 });
    }

    #[test]
    fn pop_any_is_fair_across_ready_sources() {
        let mesh = build_mesh(3);
        for _ in 0..2 {
            mesh[0].push(2, packet(0usize, 1)).unwrap();
            mesh[1].push(2, packet(1usize, 1)).unwrap();
        }
        let mut sources = Vec::new();
        for _ in 0..4 {
            let (src, _) = mesh[2].pop_any().unwrap();
            sources.push(src);
        }
        sources.sort_unstable();
        assert_eq!(sources, vec![0, 0, 1, 1]);
    }

    #[test]
    fn parked_receiver_wakes_on_push() {
        let mut boxes = build_mesh(2);
        let m1 = boxes.pop().unwrap();
        let m0 = boxes.pop().unwrap();
        let handle = std::thread::spawn(move || {
            let p = m1.pop(0).unwrap();
            *p.payload.downcast::<u64>().unwrap()
        });
        // Give the receiver a moment to park, then wake it with a push.
        std::thread::sleep(std::time::Duration::from_millis(10));
        m0.push(1, packet(77u64, 1)).unwrap();
        assert_eq!(handle.join().unwrap(), 77);
    }
}
