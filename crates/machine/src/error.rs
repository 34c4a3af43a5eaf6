//! Error types for the simulated machine.

use std::fmt;

/// Errors raised by the machine runtime.
///
/// The variants fall into two families:
///
/// * **Programming errors** — [`InvalidRank`](MachineError::InvalidRank),
///   [`TypeMismatch`](MachineError::TypeMismatch),
///   [`EmptyMachine`](MachineError::EmptyMachine). The collective
///   algorithms in `collopt-collectives` are structured so that a
///   well-formed SPMD program never triggers these; they surface bugs, not
///   runtime conditions a caller should recover from.
/// * **Recoverable runtime faults** —
///   [`Disconnected`](MachineError::Disconnected),
///   [`Timeout`](MachineError::Timeout) and
///   [`RankFailed`](MachineError::RankFailed). These arise when a
///   [`FaultPlan`](crate::fault::FaultPlan) injects message loss or a rank
///   crash (or when a peer thread genuinely dies); they propagate cleanly
///   out of [`Machine::try_run`](crate::Machine::try_run) so a caller can
///   observe the failure, report the reproducing `(seed, plan)` pair and
///   move on — no hang, no panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// A rank argument was `>= p`.
    InvalidRank {
        /// The offending rank.
        rank: usize,
        /// The number of processors in the machine.
        size: usize,
    },
    /// A received message could not be downcast to the expected type.
    ///
    /// The machine's mailboxes are type-erased so that one SPMD program can
    /// exchange payloads of several types; a mismatch between the type sent
    /// and the type expected by `recv` is a bug in the program.
    TypeMismatch {
        /// Source rank of the offending message.
        from: usize,
        /// Receiving rank.
        to: usize,
        /// The type the receiver expected.
        expected: &'static str,
    },
    /// A channel was disconnected: the named peer's thread exited (crash,
    /// panic, or normal return) while this rank was still waiting on it.
    Disconnected {
        /// The peer rank whose mailbox was disconnected.
        rank: usize,
    },
    /// A message exhausted its retry budget: every one of `attempts`
    /// transmission attempts from `from` to `to` was dropped by the fault
    /// plan, so the sender's ack/retry protocol gave up. Raised only under
    /// a lossy [`FaultPlan`](crate::fault::FaultPlan) whose drop schedule
    /// exceeds [`RetryParams::max_attempts`](crate::fault::RetryParams).
    Timeout {
        /// The sending rank that gave up.
        from: usize,
        /// The destination the message never reached.
        to: usize,
        /// How many attempts were made before giving up.
        attempts: u32,
    },
    /// A rank crashed. Either the fault plan's
    /// [`CrashSpec`](crate::fault::CrashSpec) fired on this rank, or the
    /// rank observed a crashed peer through a disconnected channel and
    /// aborted in sympathy; `rank` always names the rank that originally
    /// went down.
    RankFailed {
        /// The rank that crashed.
        rank: usize,
    },
    /// The machine was constructed with zero processors.
    EmptyMachine,
    /// The run asked for more ranks than the engine can host. The
    /// thread-per-rank engine caps `p` at
    /// [`ExecEngine::THREAD_MAX_P`](crate::ExecEngine::THREAD_MAX_P)
    /// (spawning past the OS thread budget would abort mid-run); the
    /// discrete-event engine (`des`) has no such cap.
    CapacityExceeded {
        /// The rank count the run asked for.
        requested: usize,
        /// The engine's rank ceiling.
        limit: usize,
        /// Name of the engine that refused (`threads`).
        engine: &'static str,
    },
}

impl MachineError {
    /// Is this a recoverable runtime fault (vs a programming error)?
    /// Recoverable faults are the ones
    /// [`Machine::try_run`](crate::Machine::try_run) returns as `Err`;
    /// programming errors still panic.
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            MachineError::Disconnected { .. }
                | MachineError::Timeout { .. }
                | MachineError::RankFailed { .. }
        )
    }
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::InvalidRank { rank, size } => {
                write!(f, "invalid rank {rank} for a machine of {size} processors")
            }
            MachineError::TypeMismatch { from, to, expected } => write!(
                f,
                "message from rank {from} to rank {to} is not of the expected type {expected}"
            ),
            MachineError::Disconnected { rank } => {
                write!(
                    f,
                    "mailbox of rank {rank} disconnected (peer thread exited mid-run)"
                )
            }
            MachineError::Timeout { from, to, attempts } => write!(
                f,
                "message from rank {from} to rank {to} timed out after {attempts} attempts"
            ),
            MachineError::RankFailed { rank } => {
                write!(f, "rank {rank} failed (crashed mid-run)")
            }
            MachineError::EmptyMachine => write!(f, "a machine needs at least one processor"),
            MachineError::CapacityExceeded {
                requested,
                limit,
                engine,
            } => write!(
                f,
                "p={requested} exceeds the {engine} engine's capacity of {limit} ranks \
                 (use the des engine for larger machines)"
            ),
        }
    }
}

impl std::error::Error for MachineError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every variant that involves ranks must name *all* offending ranks in
    /// its message — chaos-test failure reports lean on this to be
    /// actionable without a debugger.
    #[test]
    fn every_variant_names_the_offending_ranks() {
        let cases: Vec<(MachineError, Vec<&str>)> = vec![
            (
                MachineError::InvalidRank { rank: 9, size: 4 },
                vec!["9", "4"],
            ),
            (
                MachineError::TypeMismatch {
                    from: 1,
                    to: 2,
                    expected: "alloc::vec::Vec<u64>",
                },
                vec!["1", "2", "Vec<u64>"],
            ),
            (MachineError::Disconnected { rank: 3 }, vec!["3"]),
            (
                MachineError::Timeout {
                    from: 5,
                    to: 6,
                    attempts: 7,
                },
                vec!["5", "6", "7"],
            ),
            (MachineError::RankFailed { rank: 8 }, vec!["8"]),
            (
                MachineError::CapacityExceeded {
                    requested: 100_000,
                    limit: 4096,
                    engine: "threads",
                },
                vec!["100000", "4096", "threads"],
            ),
        ];
        for (err, needles) in cases {
            let msg = err.to_string();
            for needle in needles {
                assert!(
                    msg.contains(needle),
                    "{err:?} message {msg:?} does not mention {needle:?}"
                );
            }
        }
        assert!(MachineError::EmptyMachine
            .to_string()
            .contains("at least one"));
    }

    #[test]
    fn recoverable_classification() {
        assert!(MachineError::Disconnected { rank: 0 }.is_recoverable());
        assert!(MachineError::Timeout {
            from: 0,
            to: 1,
            attempts: 3
        }
        .is_recoverable());
        assert!(MachineError::RankFailed { rank: 2 }.is_recoverable());
        assert!(!MachineError::InvalidRank { rank: 0, size: 1 }.is_recoverable());
        assert!(!MachineError::TypeMismatch {
            from: 0,
            to: 1,
            expected: "u8"
        }
        .is_recoverable());
        assert!(!MachineError::EmptyMachine.is_recoverable());
        assert!(!MachineError::CapacityExceeded {
            requested: 10_000,
            limit: 4096,
            engine: "threads"
        }
        .is_recoverable());
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(MachineError::EmptyMachine, MachineError::EmptyMachine);
        assert_ne!(
            MachineError::InvalidRank { rank: 0, size: 1 },
            MachineError::InvalidRank { rank: 1, size: 1 }
        );
        assert_ne!(
            MachineError::RankFailed { rank: 0 },
            MachineError::RankFailed { rank: 1 }
        );
    }
}
