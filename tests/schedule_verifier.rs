//! End-to-end drills for the static communication-schedule verifier.
//!
//! Three layers are tied together here:
//!
//! 1. **Breadth** — every shipped collective lowering must verify clean
//!    (no deadlocks, no orphan messages, round counts matching the cost
//!    model's closed forms) across the full p ∈ 2..=64 sweep, including
//!    non-powers-of-two and blocks smaller than the machine (`m < p`).
//! 2. **Determinism** — the verifier is a pure function of `(p, m)`;
//!    its byte-stable JSON rendering must not change between runs.
//! 3. **Ground truth** — each planted-bug lowering is rejected
//!    statically with its expected code, *and* its runnable async twin
//!    genuinely deadlocks the discrete-event engine. A verifier whose
//!    rejections don't correspond to real hangs is just a linter with
//!    opinions; these drills pin the static verdict to dynamic reality.

use collopt::analysis::schedule::{render_reports_json, verify_planted, verify_registry};
use collopt::collectives::schedule::planted;
use collopt::machine::{ClockParams, Machine};
use collopt_bench::sweep_driver::par_map;

#[test]
fn every_shipped_lowering_verifies_across_the_full_p_sweep() {
    par_map((2..=64usize).collect(), |p| {
        // m = 5 puts m < p on most of the sweep; 97 is prime (ragged
        // against every p > 1); 32 and 64 divide evenly on the pow2
        // points; 4096 is a block far larger than any machine here.
        for m in [1u64, 5, 32, 64, 97, 4096] {
            for report in verify_registry(p, m) {
                assert!(
                    report.ok(),
                    "{} fails static verification at p={p} m={m}: {:#?}",
                    report.variant,
                    report.diagnostics
                );
            }
        }
    });
}

#[test]
fn verifier_output_is_deterministic() {
    for (p, m) in [(6usize, 14u64), (16, 97), (64, 5)] {
        let a = render_reports_json(&verify_registry(p, m), p, m);
        let b = render_reports_json(&verify_registry(p, m), p, m);
        assert_eq!(a, b, "verifier output must be a pure function of (p, m)");
    }
}

#[test]
fn planted_bugs_are_rejected_at_every_applicable_point() {
    for p in 2..=64usize {
        for m in [1u64, 4, 9, 32, 97, 4096] {
            for (report, expected) in verify_planted(p, m) {
                assert!(
                    report.diagnostics.iter().any(|d| d.code == expected),
                    "planted {} not rejected with {expected} at p={p} m={m}: {:#?}",
                    report.variant,
                    report.diagnostics
                );
            }
        }
    }
}

// The dynamic halves: each statically-rejected lowering must actually
// hang the DES engine, which detects quiescence-with-blocked-ranks and
// panics instead of spinning forever. `ClockParams::free()` keeps the
// drills instant.

#[test]
#[should_panic(expected = "DES deadlock")]
fn swapped_ring_reduce_scatter_deadlocks_dynamically() {
    let machine = Machine::new(4, ClockParams::free());
    machine.run_des(|ctx| {
        Box::pin(async move {
            let block: Vec<i64> = (0..8).collect();
            planted::swapped_ring_reduce_scatter_async(ctx, block).await
        })
    });
}

#[test]
#[should_panic(expected = "DES deadlock")]
fn dropped_barrier_deadlocks_dynamically() {
    let machine = Machine::new(5, ClockParams::free());
    machine.run_des(|ctx| Box::pin(async move { planted::dropped_barrier_async(ctx).await }));
}

// The off-by-one broadcast is rejected with COL009 (orphan message),
// not COL008: the root finishes having sent to the wrong rank, so the
// skipped rank blocks on a peer that already exited. Dynamically that
// surfaces as a disconnected-mailbox panic, not a quiescent deadlock —
// the static code and the dynamic failure mode agree.
#[test]
#[should_panic(expected = "disconnected (peer thread exited mid-run)")]
fn off_by_one_bcast_orphans_a_rank_dynamically() {
    let machine = Machine::new(8, ClockParams::free());
    machine.run_des(|ctx| {
        Box::pin(async move {
            let value = (ctx.rank() == 0).then(|| vec![7i64; 3]);
            planted::off_by_one_bcast_async(ctx, value, 3).await
        })
    });
}
