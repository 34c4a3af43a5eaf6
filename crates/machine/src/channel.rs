//! Type-erased point-to-point messages between ranks.
//!
//! The machine is fully connected: every ordered pair of ranks `(src, dst)`
//! behaves as its own FIFO queue, so a receive from a specific source needs
//! no tag matching and two messages from the same source can never overtake
//! each other. Payloads are type-erased (`Box<dyn Any + Send>`) so that a
//! single SPMD program can exchange values of several types — e.g. a
//! broadcast of `Vec<f64>` followed by a scan over pairs. When a rank
//! leaves the machine, packets it already sent still drain before its
//! peers observe the disconnect. [`crate::des`] keeps these queues; the
//! tests below hold it to this contract.

use std::any::Any;

/// A message in flight: payload, declared size in words (for cost
/// accounting), and the sender's simulated clock at the moment of sending.
pub(crate) struct Packet {
    /// The type-erased payload.
    pub(crate) payload: Box<dyn Any + Send>,
    /// Size in machine words, as charged by the cost model.
    pub(crate) words: u64,
    /// Sender's simulated time when the message entered the network.
    pub(crate) send_time: f64,
}

impl std::fmt::Debug for Packet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Packet")
            .field("words", &self.words)
            .field("send_time", &self.send_time)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use std::future::Future;
    use std::pin::Pin;
    use std::rc::Rc;
    use std::task::{Context, Poll, Waker};

    use super::*;
    use crate::clock::ClockParams;
    use crate::des::{DesPop, DesShared};
    use crate::error::MachineError;
    use crate::machine::Machine;

    fn packet<T: Send + 'static>(v: T, words: u64) -> Packet {
        Packet {
            payload: Box::new(v),
            words,
            send_time: 0.0,
        }
    }

    /// One poll of `to`'s receive from `from`, outside the scheduler.
    fn pop(shared: &Rc<DesShared>, to: usize, from: usize) -> Poll<Result<Packet, MachineError>> {
        let mut pop = DesPop::new(Rc::clone(shared), to, from, 0.0);
        Pin::new(&mut pop).poll(&mut Context::from_waker(Waker::noop()))
    }

    fn ready(polled: Poll<Result<Packet, MachineError>>) -> Result<Packet, MachineError> {
        match polled {
            Poll::Ready(result) => result,
            Poll::Pending => panic!("nothing queued and the source is alive"),
        }
    }

    #[test]
    fn mesh_routes_point_to_point() {
        let shared = Rc::new(DesShared::new(3));
        shared.push(0, 2, packet(41u32, 1)).unwrap();
        shared.push(1, 2, packet("hello", 1)).unwrap();
        let p = ready(pop(&shared, 2, 0)).unwrap();
        assert_eq!(*p.payload.downcast::<u32>().unwrap(), 41);
        let p = ready(pop(&shared, 2, 1)).unwrap();
        assert_eq!(*p.payload.downcast::<&str>().unwrap(), "hello");
        assert!(
            pop(&shared, 1, 0).is_pending(),
            "nothing was sent to rank 1"
        );
    }

    #[test]
    fn fifo_order_per_pair() {
        let shared = Rc::new(DesShared::new(2));
        for v in 1..=3u8 {
            shared.push(0, 1, packet(v, 1)).unwrap();
        }
        for expected in 1..=3u8 {
            let p = ready(pop(&shared, 1, 0)).unwrap();
            assert_eq!(*p.payload.downcast::<u8>().unwrap(), expected);
        }
    }

    #[test]
    fn self_send_works() {
        let shared = Rc::new(DesShared::new(1));
        shared.push(0, 0, packet(7i64, 1)).unwrap();
        let p = ready(pop(&shared, 0, 0)).unwrap();
        assert_eq!(*p.payload.downcast::<i64>().unwrap(), 7);
    }

    #[test]
    fn invalid_rank_is_reported() {
        let shared = Rc::new(DesShared::new(2));
        assert_eq!(
            shared.push(0, 5, packet(0u8, 1)).unwrap_err(),
            MachineError::InvalidRank { rank: 5, size: 2 }
        );
        assert_eq!(
            ready(pop(&shared, 0, 9)).unwrap_err(),
            MachineError::InvalidRank { rank: 9, size: 2 }
        );
    }

    #[test]
    fn packets_carry_metadata() {
        let shared = Rc::new(DesShared::new(2));
        let sent = Packet {
            payload: Box::new(0u8),
            words: 42,
            send_time: 3.5,
        };
        shared.push(0, 1, sent).unwrap();
        let p = ready(pop(&shared, 1, 0)).unwrap();
        assert_eq!(p.words, 42);
        assert_eq!(p.send_time, 3.5);
    }

    #[test]
    fn queued_packets_drain_before_disconnect_is_reported() {
        let shared = Rc::new(DesShared::new(2));
        shared.push(0, 1, packet(5u8, 1)).unwrap();
        shared.mark_dead(0);
        let p = ready(pop(&shared, 1, 0)).unwrap();
        assert_eq!(*p.payload.downcast::<u8>().unwrap(), 5);
        assert_eq!(
            ready(pop(&shared, 1, 0)).unwrap_err(),
            MachineError::Disconnected { rank: 0 }
        );
    }

    #[test]
    fn parked_receiver_wakes_on_push() {
        // Rank 0 is stepped first and parks on rank 1; rank 1's push wakes
        // it, then rank 1 parks on rank 0 until rank 0's reply. A lost
        // wake-up is the scheduler's deadlock panic.
        let run = Machine::new(2, ClockParams::free()).run_des(|ctx| {
            Box::pin(async move {
                if ctx.rank() == 0 {
                    let got: u64 = ctx.recv_async(1).await;
                    ctx.send(1, got + 1, 1);
                    got
                } else {
                    ctx.send(0, 76u64, 1);
                    ctx.recv_async::<u64>(0).await
                }
            })
        });
        assert_eq!(run.results, vec![76, 77]);
    }
}
