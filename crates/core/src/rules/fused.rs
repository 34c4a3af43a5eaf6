//! Constructors for the fused operators of Section 3.
//!
//! Every optimization rule trades collective operations for a more complex
//! operator on auxiliary tuples. These constructors build those operators
//! generically from the base operators `⊗`/`⊕`; `parts` picks a rule's
//! constructor, the one per-rule `match` outside the rule table. What each
//! constructor costs per block element is its rule's `RuleSpec::ops` entry
//! (`collopt_cost::table1`, with the breakdowns). All scalar-level
//! functions are lifted elementwise over `m`-word blocks.

use std::sync::Arc;

use collopt_cost::table1::{RuleSpec, OP_SR2};

use super::Rule;
use crate::op::BinOp;
use crate::term::{PairedFn, ValueFn, ValueFn2};
use crate::value::Value;

/// The fused functions of one rule's right-hand side.
pub(crate) enum Fused {
    /// One associative operator.
    Op(BinOp),
    /// A balanced-tree combine and its unary variant.
    Tree((ValueFn2, ValueFn)),
    /// A paired butterfly combine and its solo variant.
    Paired((PairedFn, ValueFn)),
    /// The comcast steps `e` and `o`.
    Steps((ValueFn, ValueFn)),
}

/// `rule`'s fused functions over `⊗` (for the rules that bind one) and `⊕`.
pub(crate) fn parts(rule: Rule, otimes: Option<&BinOp>, oplus: &BinOp) -> Fused {
    let ot = || otimes.expect("the rule's pattern binds ⊗");
    match rule {
        Rule::Sr2Reduction | Rule::Ss2Scan => Fused::Op(op_sr2(ot(), oplus)),
        Rule::SrReduction => Fused::Tree(op_sr(oplus)),
        Rule::SsScan => Fused::Paired(op_ss(oplus)),
        Rule::BsComcast => Fused::Steps(bs_eo(oplus)),
        Rule::Bss2Comcast => Fused::Steps(bss2_eo(ot(), oplus)),
        Rule::BssComcast => Fused::Steps(bss_eo(oplus)),
        Rule::BrLocal | Rule::CrAlllocal => Fused::Tree(br_iter(oplus)),
        Rule::Bsr2Local => Fused::Tree(bsr2_iter(ot(), oplus)),
        Rule::BsrLocal => Fused::Tree(bsr_iter(oplus)),
    }
}

/// `op_sr2` (rules SR2-Reduction and SS2-Scan): on pairs `(s, r)`,
///
/// ```text
/// op_sr2((s1,r1),(s2,r2)) = (s1 ⊕ (r1 ⊗ s2), r1 ⊗ r2)
/// ```
///
/// Associative whenever `⊗` distributes over `⊕` — this is what lets the
/// fused term use an ordinary reduction/scan.
pub fn op_sr2(otimes: &BinOp, oplus: &BinOp) -> BinOp {
    let ot = otimes.clone();
    let op = oplus.clone();
    let name = format!("op_sr2[{},{}]", otimes.name(), oplus.name());
    let cost = RuleSpec::count(OP_SR2, oplus.ops_per_word(), otimes.ops_per_word());
    BinOp::new(name, move |a, b| {
        let (s1, r1) = (a.proj(0), a.proj(1));
        let (s2, r2) = (b.proj(0), b.proj(1));
        Value::Tuple(vec![op.apply(&s1, &ot.apply(&r1, &s2)), ot.apply(&r1, &r2)])
    })
    .with_cost(cost)
    .with_width(2.0)
}

/// `op_sr` (rule SR-Reduction): the non-associative combine on pairs
/// `(t, u)` for the balanced reduction, plus its unary variant.
///
/// ```text
/// op_sr((t1,u1),(t2,u2)) = (t1 ⊕ t2 ⊕ u1, uu ⊕ uu)    uu = u1 ⊕ u2
/// op_sr((),     (t2,u2)) = (t2, u2 ⊕ u2)
/// ```
///
/// Returns `(combine, solo)` as block-lifted closures.
pub fn op_sr(oplus: &BinOp) -> (ValueFn2, ValueFn) {
    let op1 = oplus.clone();
    let combine: ValueFn2 = Arc::new(move |a: &Value, b: &Value| {
        let op1 = &op1;
        a.zip_block(b, &|x, y| {
            let (t1, u1) = (x.proj(0), x.proj(1));
            let (t2, u2) = (y.proj(0), y.proj(1));
            let uu = op1.apply(&u1, &u2);
            Value::Tuple(vec![
                op1.apply(&op1.apply(&t1, &t2), &u1),
                op1.apply(&uu, &uu),
            ])
        })
    });
    let op2 = oplus.clone();
    let solo: ValueFn = Arc::new(move |v: &Value| {
        let op2 = &op2;
        v.map_block(&|x| {
            let (t, u) = (x.proj(0), x.proj(1));
            Value::Tuple(vec![t, op2.apply(&u, &u)])
        })
    });
    (combine, solo)
}

/// `op_ss` (rule SS-Scan): the paired combine on quadruples
/// `(s, t, u, v)` for the balanced scan, plus the solo variant for ranks
/// without a butterfly partner.
///
/// ```text
/// op_ss((s1,t1,u1,v1),(s2,t2,u2,v2)) =
///     ((s1, ttu, uuuu, vv), (s2 ⊕ t1 ⊕ v1, ttu, uuuu, uu ⊕ vv))
///   where ttu = t1⊕t2⊕u1, uu = u1⊕u2, uuuu = uu⊕uu, vv = v1⊕v2
/// op_ss((s1,t1,u1,v1), ()) = ((s1, _, _, _), ())
/// ```
///
/// The solo variant keeps the entire quadruple: the paper leaves `t,u,v`
/// undefined (`_`), and a rank that ever lacks a partner can never serve as
/// a *lower* partner afterwards (it lacked a partner at round `i` because
/// `rank + 2^i ≥ p`, so `rank + 2^j ≥ p` for all later rounds `j > i`), so
/// its stale components are provably never consumed.
pub fn op_ss(oplus: &BinOp) -> (PairedFn, ValueFn) {
    let op1 = oplus.clone();
    let combine: PairedFn = Arc::new(move |a: &Value, b: &Value| {
        let op1 = &op1;
        let scalar = |x: &Value, y: &Value| {
            let (s1, t1, u1, v1) = (x.proj(0), x.proj(1), x.proj(2), x.proj(3));
            let (s2, t2, u2, v2) = (y.proj(0), y.proj(1), y.proj(2), y.proj(3));
            let ttu = op1.apply(&op1.apply(&t1, &t2), &u1);
            let uu = op1.apply(&u1, &u2);
            let uuuu = op1.apply(&uu, &uu);
            let vv = op1.apply(&v1, &v2);
            let lower = Value::Tuple(vec![s1, ttu.clone(), uuuu.clone(), vv.clone()]);
            let upper = Value::Tuple(vec![
                op1.apply(&op1.apply(&s2, &t1), &v1),
                ttu,
                uuuu,
                op1.apply(&uu, &vv),
            ]);
            (lower, upper)
        };
        match (a, b) {
            (Value::List(xs), Value::List(ys)) => {
                assert_eq!(xs.len(), ys.len());
                let mut lows = Vec::with_capacity(xs.len());
                let mut highs = Vec::with_capacity(xs.len());
                for (x, y) in xs.iter().zip(ys.iter()) {
                    let (l, h) = scalar(x, y);
                    lows.push(l);
                    highs.push(h);
                }
                (Value::list(lows), Value::list(highs))
            }
            (x, y) => scalar(x, y),
        }
    });
    let solo: ValueFn = Arc::new(|v: &Value| v.clone());
    (combine, solo)
}

/// The `e`/`o` step functions of rule BS-Comcast (Figure 6), on pairs
/// `(t, u)`:
///
/// ```text
/// e(t,u) = (t, u⊕u)      o(t,u) = (t⊕u, u⊕u)
/// ```
pub fn bs_eo(oplus: &BinOp) -> (ValueFn, ValueFn) {
    let op1 = oplus.clone();
    let e: ValueFn = Arc::new(move |v: &Value| {
        let op1 = &op1;
        v.map_block(&|x| {
            let (t, u) = (x.proj(0), x.proj(1));
            Value::Tuple(vec![t, op1.apply(&u, &u)])
        })
    });
    let op2 = oplus.clone();
    let o: ValueFn = Arc::new(move |v: &Value| {
        let op2 = &op2;
        v.map_block(&|x| {
            let (t, u) = (x.proj(0), x.proj(1));
            Value::Tuple(vec![op2.apply(&t, &u), op2.apply(&u, &u)])
        })
    });
    (e, o)
}

/// The `e`/`o` step functions of rule BSS2-Comcast, on triples `(s, t, u)`:
///
/// ```text
/// e(s,t,u) = (s,          t ⊕ (t⊗u), u⊗u)
/// o(s,t,u) = (t ⊕ (s⊗u),  t ⊕ (t⊗u), u⊗u)
/// ```
pub fn bss2_eo(otimes: &BinOp, oplus: &BinOp) -> (ValueFn, ValueFn) {
    let (ot, op1) = (otimes.clone(), oplus.clone());
    let e: ValueFn = Arc::new(move |v: &Value| {
        let (ot, op1) = (&ot, &op1);
        v.map_block(&|x| {
            let (s, t, u) = (x.proj(0), x.proj(1), x.proj(2));
            Value::Tuple(vec![s, op1.apply(&t, &ot.apply(&t, &u)), ot.apply(&u, &u)])
        })
    });
    let (ot2, op2) = (otimes.clone(), oplus.clone());
    let o: ValueFn = Arc::new(move |v: &Value| {
        let (ot2, op2) = (&ot2, &op2);
        v.map_block(&|x| {
            let (s, t, u) = (x.proj(0), x.proj(1), x.proj(2));
            Value::Tuple(vec![
                op2.apply(&t, &ot2.apply(&s, &u)),
                op2.apply(&t, &ot2.apply(&t, &u)),
                ot2.apply(&u, &u),
            ])
        })
    });
    (e, o)
}

/// The `e`/`o` step functions of rule BSS-Comcast, on quadruples
/// `(s, t, u, v)`:
///
/// ```text
/// e(s,t,u,v) = (s,        t⊕t⊕u, uu⊕uu, v⊕v)        uu = u⊕u
/// o(s,t,u,v) = (s⊕t⊕v,    t⊕t⊕u, uu⊕uu, uu⊕v⊕v)
/// ```
pub fn bss_eo(oplus: &BinOp) -> (ValueFn, ValueFn) {
    let op1 = oplus.clone();
    let e: ValueFn = Arc::new(move |v: &Value| {
        let op1 = &op1;
        v.map_block(&|x| {
            let (s, t, u, w) = (x.proj(0), x.proj(1), x.proj(2), x.proj(3));
            let uu = op1.apply(&u, &u);
            Value::Tuple(vec![
                s,
                op1.apply(&op1.apply(&t, &t), &u),
                op1.apply(&uu, &uu),
                op1.apply(&w, &w),
            ])
        })
    });
    let op2 = oplus.clone();
    let o: ValueFn = Arc::new(move |v: &Value| {
        let op2 = &op2;
        v.map_block(&|x| {
            let (s, t, u, w) = (x.proj(0), x.proj(1), x.proj(2), x.proj(3));
            let uu = op2.apply(&u, &u);
            Value::Tuple(vec![
                op2.apply(&op2.apply(&s, &t), &w),
                op2.apply(&op2.apply(&t, &t), &u),
                op2.apply(&uu, &uu),
                op2.apply(&op2.apply(&uu, &w), &w),
            ])
        })
    });
    (e, o)
}

/// `op_br` for the local rules BR-Local / CR-Alllocal: `combine = ⊕`
/// directly, solo = identity (an associative operator tolerates the
/// balanced tree's unary nodes as pass-throughs).
pub fn br_iter(oplus: &BinOp) -> (ValueFn2, ValueFn) {
    let op1 = oplus.clone();
    let combine: ValueFn2 = Arc::new(move |a: &Value, b: &Value| op1.apply(a, b));
    let solo: ValueFn = Arc::new(|v: &Value| v.clone());
    (combine, solo)
}

/// `op_bsr2` generalized for rule BSR2-Local: combining `(s, t)` states of
/// two equal groups of broadcast copies is exactly `op_sr2`, which is
/// associative, so the solo variant is the identity. The paper's printed
/// `op_bsr2(s,t) = (s ⊕ (s⊗t), t⊗t)` is the diagonal
/// `combine(x, x)` — the power-of-two doubling step.
pub fn bsr2_iter(otimes: &BinOp, oplus: &BinOp) -> (ValueFn2, ValueFn) {
    let fused = op_sr2(otimes, oplus);
    let combine: ValueFn2 = Arc::new(move |a: &Value, b: &Value| fused.apply(a, b));
    let solo: ValueFn = Arc::new(|v: &Value| v.clone());
    (combine, solo)
}

/// `op_bsr` generalized for rule BSR-Local: the balanced-tree combine is
/// `op_sr`; its diagonal `combine(x, x)` is the paper's printed
/// `op_bsr(t,u) = (t⊕t⊕u, uu⊕uu)`.
pub fn bsr_iter(oplus: &BinOp) -> (ValueFn2, ValueFn) {
    op_sr(oplus)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjust::{pair, pi1, quadruple, repeat};
    use crate::op::lib;

    fn pair_samples() -> Vec<Value> {
        let mut out = Vec::new();
        for a in [-3i64, 0, 1, 2, 7] {
            for b in [-2i64, 1, 3] {
                out.push(Value::Tuple(vec![Value::Int(a), Value::Int(b)]));
            }
        }
        out
    }

    #[test]
    fn op_sr2_is_associative_given_distributivity() {
        let fused = op_sr2(&lib::mul(), &lib::add());
        assert!(fused.check_associative(&pair_samples()));
        assert_eq!(fused.ops_per_word(), 3.0);
        assert_eq!(fused.width(), 2.0);
    }

    #[test]
    fn op_sr2_fold_equals_scan_then_reduce() {
        // Fold pairs (x,x) with op_sr2(mul, add); π1 must equal
        // reduce(+)(scan(*)(xs)).
        let fused = op_sr2(&lib::mul(), &lib::add());
        for xs in [
            vec![3i64],
            vec![2, 5],
            vec![1, 2, 3, 4],
            vec![2, -1, 3, 2, 2],
        ] {
            let mut acc = pair(&Value::Int(xs[0]));
            for &x in &xs[1..] {
                acc = fused.apply(&acc, &pair(&Value::Int(x)));
            }
            let mut prefix = 1i64;
            let mut expected = 0i64;
            for &x in &xs {
                prefix *= x;
                expected += prefix;
            }
            assert_eq!(pi1(&acc).as_int(), expected, "{xs:?}");
        }
    }

    #[test]
    fn op_sr_diagonal_matches_paper_op_bsr() {
        // combine((t,u),(t,u)) must equal op_bsr(t,u) = (t⊕t⊕u, uu⊕uu)
        // with uu = u⊕u.
        let (combine, _) = op_sr(&lib::add());
        let x = Value::Tuple(vec![Value::Int(5), Value::Int(3)]);
        let got = combine(&x, &x);
        assert_eq!(got, Value::Tuple(vec![Value::Int(13), Value::Int(12)]));
    }

    #[test]
    fn op_sr_solo_doubles_u_only() {
        let (_, solo) = op_sr(&lib::add());
        let x = Value::Tuple(vec![Value::Int(9), Value::Int(14)]);
        assert_eq!(solo(&x), Value::Tuple(vec![Value::Int(9), Value::Int(28)]));
    }

    #[test]
    fn op_sr_figure4_first_level() {
        // Figure 4: (2,2)+(5,5) → (9,14); (9,9)+(1,1) → (19,20);
        // (2,2)+(6,6) → (10,16).
        let (combine, _) = op_sr(&lib::add());
        let mk = |a: i64, b: i64| Value::Tuple(vec![Value::Int(a), Value::Int(b)]);
        assert_eq!(combine(&mk(2, 2), &mk(5, 5)), mk(9, 14));
        assert_eq!(combine(&mk(9, 9), &mk(1, 1)), mk(19, 20));
        assert_eq!(combine(&mk(2, 2), &mk(6, 6)), mk(10, 16));
        // Second level: (19,20)+(10,16) → (49,72); root (9,28)+(49,72) → (86,200).
        assert_eq!(combine(&mk(19, 20), &mk(10, 16)), mk(49, 72));
        assert_eq!(combine(&mk(9, 28), &mk(49, 72)), mk(86, 200));
    }

    #[test]
    fn op_ss_figure5_first_phase() {
        // Figure 5, phase 1 on processors 0 and 1 (values 2 and 5):
        // lower → (2,9,14,7), upper → (9,9,14,14).
        let (combine, _) = op_ss(&lib::add());
        let q = |v: i64| quadruple(&Value::Int(v));
        let (lo, hi) = combine(&q(2), &q(5));
        let t = |a: i64, b: i64, c: i64, d: i64| {
            Value::Tuple(vec![
                Value::Int(a),
                Value::Int(b),
                Value::Int(c),
                Value::Int(d),
            ])
        };
        assert_eq!(lo, t(2, 9, 14, 7));
        assert_eq!(hi, t(9, 9, 14, 14));
        // Phase 2 on processors 0 and 2: (2,9,14,7) & (9,19,20,10) →
        // (2,42,68,17) and (25,42,68,51).
        let (lo2, hi2) = combine(&t(2, 9, 14, 7), &t(9, 19, 20, 10));
        assert_eq!(lo2, t(2, 42, 68, 17));
        assert_eq!(hi2, t(25, 42, 68, 51));
    }

    #[test]
    fn bs_eo_matches_figure6_node_ops() {
        let (e, o) = bs_eo(&lib::add());
        let x = Value::Tuple(vec![Value::Int(2), Value::Int(4)]);
        assert_eq!(e(&x), Value::Tuple(vec![Value::Int(2), Value::Int(8)]));
        assert_eq!(o(&x), Value::Tuple(vec![Value::Int(6), Value::Int(8)]));
    }

    #[test]
    fn bss2_repeat_computes_scan_of_scan_of_bcast() {
        // bcast b; scan(⊗); scan(⊕) at processor k equals
        // ⊕_{j=0..k} b^{⊗(j+1)}. With ⊗ = mul, ⊕ = add, b = 2:
        // processor k gets 2 + 4 + … + 2^(k+1).
        let (e, o) = bss2_eo(&lib::mul(), &lib::add());
        let b = Value::Int(2);
        let seed = crate::adjust::triple(&b);
        for k in 0..8usize {
            let out = repeat(&*e, &*o, k, 3, seed.clone());
            let expected: i64 = (1..=k as u32 + 1).map(|j| 2i64.pow(j)).sum();
            assert_eq!(out.proj(0).as_int(), expected, "k={k}");
        }
    }

    #[test]
    fn bss_repeat_computes_triangular_multiples() {
        // bcast b; scan(+); scan(+) at processor k equals
        // (k+1)(k+2)/2 · b.
        let (e, o) = bss_eo(&lib::add());
        let b = 2i64;
        let seed = quadruple(&Value::Int(b));
        for k in 0..16usize {
            let out = repeat(&*e, &*o, k, 4, seed.clone());
            let n = k as i64 + 1;
            assert_eq!(out.proj(0).as_int(), n * (n + 1) / 2 * b, "k={k}");
        }
    }

    #[test]
    fn br_iter_computes_p_fold_sum() {
        let (combine, solo) = br_iter(&lib::add());
        for p in 1..50usize {
            let (v, _, _) = crate::adjust::iter_balanced(p, &Value::Int(3), &*combine, &*solo);
            assert_eq!(v.as_int(), 3 * p as i64, "p={p}");
        }
    }

    #[test]
    fn bsr2_iter_computes_reduce_scan_bcast() {
        // bcast b; scan(*); reduce(+) on p processors = Σ_{i=1..p} b^i.
        let (combine, solo) = bsr2_iter(&lib::mul(), &lib::add());
        let b = 2i64;
        for p in 1..20usize {
            let leaf = pair(&Value::Int(b));
            let (v, _, _) = crate::adjust::iter_balanced(p, &leaf, &*combine, &*solo);
            let expected: i64 = (1..=p as u32).map(|i| b.pow(i)).sum();
            assert_eq!(pi1(&v).as_int(), expected, "p={p}");
        }
    }

    #[test]
    fn bsr_iter_diagonal_matches_paper_op_bsr_costs() {
        // The diagonal of op_sr: op_bsr(t,u) = (t+t+u, (u+u)+(u+u)).
        let (combine, _) = bsr_iter(&lib::add());
        let x = Value::Tuple(vec![Value::Int(1), Value::Int(1)]);
        assert_eq!(
            combine(&x, &x),
            Value::Tuple(vec![Value::Int(3), Value::Int(4)])
        );
    }

    #[test]
    fn fused_ops_lift_over_blocks() {
        let fused = op_sr2(&lib::mul(), &lib::add());
        let block = |v: i64| {
            Value::list(vec![
                Value::Tuple(vec![Value::Int(v), Value::Int(v)]),
                Value::Tuple(vec![Value::Int(10 * v), Value::Int(10 * v)]),
            ])
        };
        let out = fused.apply(&block(2), &block(3));
        // Element 0: op_sr2((2,2),(3,3)) = (2 + 2*3, 6) = (8, 6).
        assert_eq!(
            out.as_list()[0],
            Value::Tuple(vec![Value::Int(8), Value::Int(6)])
        );
        // Element 1: op_sr2((20,20),(30,30)) = (20+600, 600).
        assert_eq!(
            out.as_list()[1],
            Value::Tuple(vec![Value::Int(620), Value::Int(600)])
        );
    }
}
