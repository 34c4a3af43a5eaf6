//! Comcast — *compute after broadcast* (Section 3.4).
//!
//! The target pattern of the *-Comcast rules: if the root holds `b`, then
//! processor `i` ends with `g^i b` — function `g` applied `i` times.
//! The paper gives two implementations and the surprising verdict that the
//! asymptotically wasteful one is faster in practice:
//!
//! * [`comcast_bcast_repeat_async`] — broadcast `b`, then every processor locally
//!   runs [`repeat_apply`] over the binary digits of its own rank: digit 0
//!   applies `e`, digit 1 applies `o` (Figure 6; the square-and-multiply
//!   idea of Knuth §4.6.3). Logarithmic time, redundant computation.
//! * [`comcast_cost_optimal_async`] — successive doubling: processor 0 computes
//!   `e`/`o` on the seed and ships `o`'s result to processor 1; the step
//!   repeats with 2, 4, … active processors. Cost-optimal in total work
//!   but *slower* in time because the auxiliary tuple components must
//!   travel with every message (the paper's closing remark of Section 3.4,
//!   visible as the top curve of Figures 7–8).
//!
//! Both are generic in a *repeat operator* ([`RepeatOp`]): the state type
//! `S` is the auxiliary tuple (pair/triple/quadruple depending on the
//! rule), `inject` builds it from the broadcast value and `project`
//! extracts the final component (the paper's `pair`/`triple`/`quadruple`
//! and `π1` adjustment functions).

use collopt_machine::topology::ceil_log2;
use collopt_machine::Ctx;

use crate::bcast::bcast_binomial_async;

/// The `e`/`o` step functions of the paper's `repeat` schema (eq. 14),
/// with their per-word costs.
pub struct RepeatOp<'a, S> {
    /// Applied for a 0 digit. Must preserve the projected component.
    pub e: &'a (dyn Fn(&S) -> S + Sync),
    /// Applied for a 1 digit.
    pub o: &'a (dyn Fn(&S) -> S + Sync),
    /// Base operations per word for `e` (1 for BS-Comcast's `e`).
    pub ops_e: f64,
    /// Base operations per word for `o` (2 for BS-Comcast's `o`).
    pub ops_o: f64,
}

impl<S> std::fmt::Debug for RepeatOp<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RepeatOp")
            .field("ops_e", &self.ops_e)
            .field("ops_o", &self.ops_o)
            .finish_non_exhaustive()
    }
}

/// Pure `repeat(e,o) k` over exactly `rounds` binary digits of `k`, least
/// significant first (eq. 14, made SPMD-uniform as in Figure 6: every
/// processor performs the same number of steps; `e` at exhausted digit
/// positions leaves the projected component untouched).
pub fn repeat_apply<S>(mut state: S, k: usize, rounds: u32, op: &RepeatOp<'_, S>) -> S {
    for j in 0..rounds {
        state = if (k >> j) & 1 == 0 {
            (op.e)(&state)
        } else {
            (op.o)(&state)
        };
    }
    state
}

/// Comcast via broadcast + local `repeat` (the fast variant, Figure 6).
///
/// `inject` is the pre-adjustment (`pair`, `triple`, `quadruple`),
/// `project` the post-adjustment (`π1`). Non-root ranks pass `None`.
pub async fn comcast_bcast_repeat_async<B, S>(
    ctx: &mut Ctx,
    root: usize,
    value: Option<B>,
    words: u64,
    inject: &(dyn Fn(&B) -> S + Sync),
    project: &(dyn Fn(&S) -> B + Sync),
    op: &RepeatOp<'_, S>,
) -> B
where
    B: Clone + Send + 'static,
{
    let no_fmt = None::<fn(&S) -> String>;
    comcast_bcast_repeat_traced_async(ctx, root, value, words, inject, project, op, no_fmt).await
}

/// [`comcast_bcast_repeat_async`] with an optional formatter: when given,
/// the state after each repeat step is recorded via [`Ctx::mark`] — used
/// to reproduce Figure 6 verbatim.
#[allow(clippy::too_many_arguments)]
pub async fn comcast_bcast_repeat_traced_async<B, S>(
    ctx: &mut Ctx,
    root: usize,
    value: Option<B>,
    words: u64,
    inject: &(dyn Fn(&B) -> S + Sync),
    project: &(dyn Fn(&S) -> B + Sync),
    op: &RepeatOp<'_, S>,
    fmt: Option<impl Fn(&S) -> String>,
) -> B
where
    B: Clone + Send + 'static,
{
    let b = bcast_binomial_async(ctx, root, value, words).await;
    let k = (ctx.rank() + ctx.size() - root) % ctx.size();
    let rounds = ceil_log2(ctx.size());
    let mut state = inject(&b);
    if let Some(f) = &fmt {
        ctx.mark(format!("step0:{}", f(&state)));
    }
    for j in 0..rounds {
        if (k >> j) & 1 == 0 {
            state = (op.e)(&state);
            ctx.charge(words as f64 * op.ops_e, "comcast:e");
        } else {
            state = (op.o)(&state);
            ctx.charge(words as f64 * op.ops_o, "comcast:o");
        }
        if let Some(f) = &fmt {
            ctx.mark(format!("step{}:{}", j + 1, f(&state)));
        }
    }
    project(&state)
}

/// Cost-optimal comcast via successive doubling (Section 3.4's alternative).
///
/// Round `j`: every active processor `v < 2^j` computes `o(s)` — the state
/// for index `v + 2^j` — sends it to that processor (full auxiliary tuple
/// on the wire, `words · words_factor` words), and keeps `e(s)` to stay
/// current for later rounds. Total work is O(p) operator applications, but
/// the critical path pays `log p · (ts + f·m·tw + (ops_e + ops_o)·m)`,
/// which loses to [`comcast_bcast_repeat_async`]'s
/// `log p · (ts + m·tw + ops_o·m)` whenever the auxiliary factor `f > 1` —
/// the paper's observation that the cost-optimal version is slower.
#[allow(clippy::too_many_arguments)]
pub async fn comcast_cost_optimal_async<B, S>(
    ctx: &mut Ctx,
    root: usize,
    value: Option<B>,
    words: u64,
    inject: &(dyn Fn(&B) -> S + Sync),
    project: &(dyn Fn(&S) -> B + Sync),
    op: &RepeatOp<'_, S>,
    words_factor: u64,
) -> B
where
    B: Clone + Send + 'static,
    S: Clone + Send + 'static,
{
    let p = ctx.size();
    let v = (ctx.rank() + p - root) % p;
    let rounds = ceil_log2(p);
    let mut state: Option<S> = if v == 0 {
        Some(inject(&value.expect("root must supply the comcast seed")))
    } else {
        assert!(
            value.is_none(),
            "non-root rank must not supply a comcast seed"
        );
        None
    };
    for j in 0..rounds {
        let bit = 1usize << j;
        match &state {
            Some(s) => {
                let target = v + bit;
                if target < p {
                    let shipped = (op.o)(s);
                    ctx.charge(words as f64 * op.ops_o, "comcast_opt:o");
                    ctx.send((target + root) % p, shipped, words * words_factor);
                }
                state = Some((op.e)(s));
                ctx.charge(words as f64 * op.ops_e, "comcast_opt:e");
            }
            None => {
                if v >= bit && v < 2 * bit {
                    let src = ((v - bit) + root) % p;
                    state = Some(ctx.recv_async(src).await);
                }
            }
        }
    }
    project(&state.expect("every rank is reached within ceil_log2(p) rounds"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ref_comcast;
    use collopt_machine::{ClockParams, Machine};

    /// BS-Comcast's repeat operator with ⊕ = + (Figure 6):
    /// `e(t,u) = (t, u+u)`, `o(t,u) = (t+u, u+u)`.
    fn e(s: &(i64, i64)) -> (i64, i64) {
        (s.0, s.1 + s.1)
    }
    fn o(s: &(i64, i64)) -> (i64, i64) {
        (s.0 + s.1, s.1 + s.1)
    }
    fn pair(b: &i64) -> (i64, i64) {
        (*b, *b)
    }
    fn pi1(s: &(i64, i64)) -> i64 {
        s.0
    }
    fn bs_op<'a>() -> RepeatOp<'a, (i64, i64)> {
        RepeatOp {
            e: &e,
            o: &o,
            ops_e: 1.0,
            ops_o: 2.0,
        }
    }

    /// Broadcast + repeat with the BS operator, seed `b` held by `root`.
    async fn bs_repeat(ctx: &mut Ctx, root: usize, b: i64, words: u64) -> i64 {
        let value = (ctx.rank() == root).then_some(b);
        comcast_bcast_repeat_async(ctx, root, value, words, &pair, &pi1, &bs_op()).await
    }

    /// The cost-optimal variant with the BS operator, seed `b` at rank 0.
    async fn bs_cost_optimal(ctx: &mut Ctx, b: i64, words: u64) -> i64 {
        let value = (ctx.rank() == 0).then_some(b);
        comcast_cost_optimal_async(ctx, 0, value, words, &pair, &pi1, &bs_op(), 2).await
    }

    #[test]
    fn repeat_apply_computes_k_plus_one_times_b() {
        // With the BS operator, π1(repeat k (b,b)) = (k+1)·b.
        for k in 0..64usize {
            let rounds = 6;
            let got = repeat_apply(pair(&2), k, rounds, &bs_op());
            assert_eq!(got.0, 2 * (k as i64 + 1), "k={k}");
        }
    }

    #[test]
    fn repeat_apply_zero_rounds_is_identity() {
        assert_eq!(repeat_apply(pair(&9), 0, 0, &bs_op()), (9, 9));
    }

    #[test]
    fn figure6_exact_result_on_six_processors() {
        // Figure 6: b = 2, six processors, result [2,4,6,8,10,12].
        let m = Machine::new(6, ClockParams::free());
        let run = m.run_des(|ctx| Box::pin(bs_repeat(ctx, 0, 2i64, 1)));
        assert_eq!(run.results, vec![2, 4, 6, 8, 10, 12]);
    }

    #[test]
    fn figure6_intermediate_states_match_paper() {
        // Figure 6's table for processor 3: (2,2) → (4,4) → (8,8) → (8,16).
        let m = Machine::new(6, ClockParams::free()).with_tracing();
        let run = m.run_des(|ctx| {
            Box::pin(async move {
                let value = (ctx.rank() == 0).then_some(2i64);
                let fmt = |s: &(i64, i64)| format!("{},{}", s.0, s.1);
                comcast_bcast_repeat_traced_async(
                    ctx,
                    0,
                    value,
                    1,
                    &pair,
                    &pi1,
                    &bs_op(),
                    Some(fmt),
                )
                .await
            })
        });
        assert_eq!(run.results, vec![2, 4, 6, 8, 10, 12]);
        let marks = run.trace.marks();
        // Proc 0 (k=0, digits 0,0,0): (2,2) → (2,4) → (2,8) → (2,16).
        for want in ["step0:2,2", "step1:2,4", "step2:2,8", "step3:2,16"] {
            assert!(marks.contains(&want), "missing {want}; got {marks:?}");
        }
        // Proc 3 (k=3, digits 1,1,0): (2,2) → (4,4) → (8,8) → (8,16).
        for want in ["step1:4,4", "step2:8,8", "step3:8,16"] {
            assert!(marks.contains(&want), "missing {want}; got {marks:?}");
        }
        // Proc 5 (k=5, digits 1,0,1): (2,2) → (4,4) → (4,8) → (12,16).
        for want in ["step2:4,8", "step3:12,16"] {
            assert!(marks.contains(&want), "missing {want}; got {marks:?}");
        }
    }

    #[test]
    fn both_variants_agree_with_reference_for_all_sizes() {
        for p in 1..=24usize {
            let seed = 3i64;
            let expect: Vec<i64> = {
                let mut xs = vec![seed; p];
                xs[0] = seed;
                ref_comcast(|x| x + seed, &xs)
            };
            let m = Machine::new(p, ClockParams::free());
            let run_fast = m.run_des(|ctx| Box::pin(bs_repeat(ctx, 0, seed, 1)));
            assert_eq!(run_fast.results, expect, "bcast_repeat p={p}");
            let run_opt = m.run_des(|ctx| Box::pin(bs_cost_optimal(ctx, seed, 1)));
            assert_eq!(run_opt.results, expect, "cost_optimal p={p}");
        }
    }

    #[test]
    fn cost_optimal_is_slower_than_bcast_repeat() {
        // The paper's Section 3.4 remark, and the ordering of the curves in
        // Figures 7–8: comcast (cost-optimal) > bcast;repeat.
        let params = ClockParams::new(100.0, 2.0);
        let mw = 64u64;
        for p in [8usize, 16, 64] {
            let m = Machine::new(p, params);
            let fast = m.run_des(|ctx| Box::pin(bs_repeat(ctx, 0, 1i64, mw)));
            let opt = m.run_des(|ctx| Box::pin(bs_cost_optimal(ctx, 1i64, mw)));
            assert!(
                opt.makespan > fast.makespan,
                "p={p}: cost-optimal {} should exceed bcast;repeat {}",
                opt.makespan,
                fast.makespan
            );
        }
    }

    #[test]
    fn bcast_repeat_makespan_matches_table1_bs_row() {
        // Table 1, BS-Comcast "after": log p · (ts + m·(tw + 2)).
        let params = ClockParams::new(100.0, 2.0);
        for (p, mw) in [(8usize, 10u64), (64, 32)] {
            let m = Machine::new(p, params);
            let run = m.run_des(move |ctx| Box::pin(bs_repeat(ctx, 0, 1i64, mw)));
            let logp = collopt_machine::topology::ceil_log2(p) as f64;
            let expected = logp * (params.ts + mw as f64 * (params.tw + 2.0));
            assert_eq!(run.makespan, expected, "p={p} m={mw}");
        }
    }

    #[test]
    fn nonzero_root_rotates_the_pattern() {
        let m = Machine::new(5, ClockParams::free());
        let run = m.run_des(|ctx| Box::pin(bs_repeat(ctx, 2, 10i64, 1)));
        // Virtual index of rank r is (r - 2) mod 5.
        assert_eq!(run.results, vec![40, 50, 10, 20, 30]);
    }
}
