//! The optimization rules of Section 3.
//!
//! Each rule is a *semantic equality*: a window of stages whose side
//! condition holds may be replaced by the rule's right-hand side without
//! changing the program's meaning. Each rule is one entry of the rule table
//! ([`Rule::spec`], in `collopt-cost`): `match_rule` checks a window
//! against the entry's pattern and law class, and `Match::rhs` builds the
//! replacement from the entry's RHS kind and operation counts over the
//! fused operators of [`fused`]; [`try_match`] does both. The engine in
//! [`crate::rewrite`] decides *where* and *whether* (cost-guidedly) to
//! apply.
//!
//! Rule naming follows the paper: initials of the collective operations in
//! the matched window (`B`roadcast, `S`can, `R`eduction), a `2` when the
//! two base operators differ (requiring distributivity), and the class of
//! the result (Reduction, Scan, Comcast, Local).
//!
//! ## Soundness caveat of the Local rules
//!
//! The paper notes (Section 3.5) that `bcast; reduce(⊕) → iter(op_br)`
//! drops the broadcast's side effect: the original leaves every processor
//! holding `b`, the local version touches only processor 0. Every
//! application whose window ends in `reduce` (BR-Local, BSR2-Local,
//! BSR-Local, and SR2-/SR-Reduction on `reduce`) is therefore an equality
//! **on the first component** of the distributed list; the rest preserve
//! all components. The rewrite engine only applies the first-component
//! rules when asked to ([`crate::rewrite::Rewriter::allow_rank0_rules`]).

pub mod enabling;
pub mod fused;

pub use collopt_cost::Rule;

use std::sync::Arc;

use collopt_cost::table1::{Laws, Pat, RhsKind, RuleSpec, Slot};

use crate::adjust;
use crate::op::{BinOp, RequiredLaw};
use crate::term::{ComcastVariant, Stage, ValueFn};
use fused::Fused;

/// Length of the stage window the rule matches (2 or 3 collectives).
pub fn window_len(rule: Rule) -> usize {
    rule.spec().lhs.len()
}

/// A matched rewrite: the replacement stages, plus whether the equality
/// only covers processor 0's value (see module docs).
#[derive(Clone)]
pub struct Rewrite {
    /// The stages replacing the matched window.
    pub stages: Vec<Stage>,
    /// `true` when only processor 0's value is guaranteed equal.
    pub rank0_only: bool,
}

/// A window that matches a rule's pattern and whose side condition holds
/// by declaration on its operators.
pub(crate) struct Match<'a> {
    rule: Rule,
    /// The window's operators, in window order.
    ops: [Option<&'a BinOp>; 2],
    /// `⊗`, for the rules that have one, and `⊕`, each bound where its
    /// slot first occurs.
    otimes: Option<&'a BinOp>,
    oplus: &'a BinOp,
    last: &'a Stage,
}

/// Match `rule` at the *start* of `window` without allocating: the
/// entry's pattern binds the operator slots (a repeated slot must name the
/// same operator), then its law class is checked on the declarations.
pub(crate) fn match_rule<'a>(
    rule: Rule,
    window: impl IntoIterator<Item = &'a Stage>,
) -> Option<Match<'a>> {
    let spec = rule.spec();
    let mut window = window.into_iter();
    let (mut ops, mut slots) = ([None; 2], [None; 2]);
    let (mut last, mut n) = (None, 0);
    for pat in spec.lhs {
        let stage = window.next()?;
        last = Some(stage);
        let (slot, op) = match (*pat, stage) {
            (Pat::Bcast, Stage::Bcast) => continue,
            (Pat::Scan(s), Stage::Scan(op))
            | (Pat::Reduce(s) | Pat::AnyReduce(s), Stage::Reduce(op))
            | (Pat::AllReduce(s) | Pat::AnyReduce(s), Stage::AllReduce(op)) => (s, op),
            _ => return None,
        };
        match slots[slot as usize] {
            None => slots[slot as usize] = Some(op),
            Some(bound) if bound.name() != op.name() => return None,
            Some(_) => {}
        }
        ops[n] = Some(op);
        n += 1;
    }
    let (otimes, oplus) = (slots[Slot::Times as usize], slots[Slot::Plus as usize]?);
    let holds = match spec.laws {
        Laws::Associative => true,
        Laws::Commutative => oplus.is_commutative(),
        Laws::Distributive { differ } => otimes
            .is_some_and(|ot| ot.distributes_over(oplus) && !(differ && ot.name() == oplus.name())),
    };
    holds.then_some(Match {
        rule,
        ops,
        otimes,
        oplus,
        last: last?,
    })
}

impl<'a> Match<'a> {
    /// `true` when only processor 0's value is guaranteed equal: the
    /// window ends in `reduce`, so the fused form never materializes what
    /// the other processors held after the window.
    pub(crate) fn rank0_only(&self) -> bool {
        matches!(self.last, Stage::Reduce(_))
    }

    /// The algebraic side conditions bound to the window's operators:
    /// associativity of each, in window order, then the entry's
    /// commutativity (of each) or distributivity. This is the
    /// machine-checkable content of a rewrite certificate — every law can
    /// be re-verified later with [`RequiredLaw::counterexample`]. The laws
    /// borrow the window's operators; nothing is built.
    pub(crate) fn laws(&self) -> impl Iterator<Item = RequiredLaw<&'a BinOp>> + Clone {
        let ops = self.ops.into_iter().flatten();
        let class = self.rule.spec().laws;
        let commutative = matches!(class, Laws::Commutative).then_some(ops.clone());
        let distributive = match class {
            Laws::Distributive { .. } => {
                let ot = self.otimes.expect("a distributive match binds ⊗");
                Some(RequiredLaw::DistributesOver(ot, self.oplus))
            }
            _ => None,
        };
        ops.map(RequiredLaw::Associative)
            .chain(
                commutative
                    .into_iter()
                    .flatten()
                    .map(RequiredLaw::Commutative),
            )
            .chain(distributive)
    }

    /// The stages replacing the window: the entry's RHS kind over the
    /// rule's fused operator, charged the entry's operation counts, with
    /// the input injected into the entry's tuple and projected back.
    pub(crate) fn rhs(&self) -> Vec<Stage> {
        let spec = self.rule.spec();
        let (ot, op) = (self.otimes, self.oplus);
        let ct = ot.map_or(0.0, BinOp::ops_per_word);
        let [crit, other] = spec.ops.map(|k| RuleSpec::count(k, op.ops_per_word(), ct));
        let label = || match ot {
            Some(ot) => format!("{}[{},{}]", spec.label, ot.name(), op.name()),
            None => format!("{}[{}]", spec.label, op.name()),
        };
        let all = matches!(self.last, Stage::AllReduce(_));
        let words_factor = spec.words;
        let stage = match (spec.rhs, fused::parts(self.rule, ot, op)) {
            (RhsKind::Fused, Fused::Op(f)) => match self.last {
                Stage::Scan(_) => Stage::Scan(f),
                Stage::AllReduce(_) => Stage::AllReduce(f),
                _ => Stage::Reduce(f),
            },
            (RhsKind::ReduceBalanced, Fused::Tree((combine, solo))) => Stage::ReduceBalanced {
                combine,
                solo,
                all,
                ops_combine: crit,
                ops_solo: other,
                words_factor,
                label: label(),
            },
            // The solo variant of a balanced scan is the identity.
            (RhsKind::ScanBalanced, Fused::Paired((combine, solo))) => Stage::ScanBalanced {
                combine,
                solo,
                ops_lower: other,
                ops_upper: crit,
                ops_solo: 0.0,
                words_factor,
                label: label(),
            },
            (RhsKind::Comcast, Fused::Steps((e, o))) => Stage::Comcast {
                e,
                o,
                inject: inject(spec.inject).1,
                project: Arc::new(adjust::pi1),
                ops_e: other,
                ops_o: crit,
                words_factor,
                variant: ComcastVariant::BcastRepeat,
                label: label(),
            },
            (RhsKind::IterLocal, Fused::Tree((combine, solo))) => Stage::IterLocal {
                combine,
                solo,
                all,
                ops_combine: crit,
                ops_solo: other,
                label: label(),
            },
            _ => unreachable!("{}: rules::fused disagrees with the RHS kind", self.rule),
        };
        // A comcast injects and projects inside the stage.
        if spec.inject == 1 || spec.rhs == RhsKind::Comcast {
            return vec![stage];
        }
        let (name, f) = inject(spec.inject);
        let map = |label: &str, f| Stage::Map {
            f,
            ops: 0.0,
            label: label.to_string(),
        };
        vec![map(name, f), stage, map("pi1", Arc::new(adjust::pi1))]
    }
}

/// `pair` / `triple` / `quadruple`: the adjustment into an `arity`-tuple.
fn inject(arity: usize) -> (&'static str, ValueFn) {
    match arity {
        2 => ("pair", Arc::new(adjust::pair)),
        3 => ("triple", Arc::new(adjust::triple)),
        _ => ("quadruple", Arc::new(adjust::quadruple)),
    }
}

/// The algebraic side conditions `rule` relies on at the *start* of
/// `window`: associativity of each of its operators, in window order, then
/// the entry's commutativity (of each) or distributivity, bound to the
/// concrete operators. This is the machine-checkable content of a rewrite
/// certificate, over the window's operators, borrowed. `None` when the
/// window does not match.
pub fn required_laws<'a>(
    rule: Rule,
    window: impl IntoIterator<Item = &'a Stage>,
) -> Option<impl Iterator<Item = RequiredLaw<&'a BinOp>> + Clone> {
    match_rule(rule, window).map(|m| m.laws())
}

/// Try to apply `rule` at the *start* of `window`: the rewrite if the
/// pattern matches and the algebraic side condition holds (by declaration
/// on the operators), `None` otherwise.
pub fn try_match(rule: Rule, window: &[Stage]) -> Option<Rewrite> {
    let m = match_rule(rule, window)?;
    Some(Rewrite {
        rank0_only: m.rank0_only(),
        stages: m.rhs(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::lib;
    use crate::rewrite::program_cost;
    use crate::semantics::eval_program;
    use crate::term::Program;
    use crate::value::Value;
    use collopt_cost::MachineParams;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn ints(vs: &[i64]) -> Vec<Value> {
        vs.iter().map(|&v| Value::Int(v)).collect()
    }

    fn apply_at(prog: &Program, rule: Rule, at: usize) -> Program {
        let rw =
            try_match(rule, &prog.stages()[at..]).unwrap_or_else(|| panic!("{rule} must match"));
        prog.splice(at, window_len(rule), rw.stages)
    }

    fn rank0_only(prog: &Program, rule: Rule) -> bool {
        try_match(rule, prog.stages())
            .expect("must match")
            .rank0_only
    }

    #[test]
    fn sr2_matches_only_with_distributivity() {
        let good = Program::new().scan(lib::mul()).reduce(lib::add());
        assert!(try_match(Rule::Sr2Reduction, good.stages()).is_some());
        // add does not distribute over mul.
        let bad = Program::new().scan(lib::add()).reduce(lib::mul());
        assert!(try_match(Rule::Sr2Reduction, bad.stages()).is_none());
    }

    #[test]
    fn sr2_preserves_semantics_at_rank0() {
        // The reduce variant is a rank-0 equality: the fused term no
        // longer materializes the scan prefixes on processors 1..p.
        let prog = Program::new().scan(lib::mul()).reduce(lib::add());
        assert!(rank0_only(&prog, Rule::Sr2Reduction));
        let opt = apply_at(&prog, Rule::Sr2Reduction, 0);
        for input in [vec![2i64], vec![1, 2, 3], vec![3, -1, 2, 2, 4, 1]] {
            let xs = ints(&input);
            assert_eq!(
                eval_program(&prog, &xs)[0],
                eval_program(&opt, &xs)[0],
                "{input:?}"
            );
        }
        assert_eq!(opt.collective_count(), 1);
    }

    #[test]
    fn sr2_allreduce_variant_preserves_all_positions() {
        let prog = Program::new()
            .scan(lib::add_tropical())
            .allreduce(lib::max());
        assert!(!rank0_only(&prog, Rule::Sr2Reduction));
        let opt = apply_at(&prog, Rule::Sr2Reduction, 0);
        let xs = ints(&[3, -5, 7, 1, 0, 2]);
        assert_eq!(eval_program(&prog, &xs), eval_program(&opt, &xs));
    }

    #[test]
    fn sr_matches_same_commutative_op_only() {
        let good = Program::new().scan(lib::add()).reduce(lib::add());
        assert!(try_match(Rule::SrReduction, good.stages()).is_some());
        let diff_ops = Program::new().scan(lib::mul()).reduce(lib::add());
        assert!(try_match(Rule::SrReduction, diff_ops.stages()).is_none());
        let non_comm = Program::new().scan(lib::mat2mul()).reduce(lib::mat2mul());
        assert!(try_match(Rule::SrReduction, non_comm.stages()).is_none());
    }

    #[test]
    fn sr_preserves_semantics_all_sizes() {
        let prog = Program::new().scan(lib::add()).reduce(lib::add());
        let opt = apply_at(&prog, Rule::SrReduction, 0);
        for p in 1..=17usize {
            let input: Vec<i64> = (0..p as i64).map(|i| i * 3 - 4).collect();
            let xs = ints(&input);
            assert_eq!(
                eval_program(&prog, &xs)[0],
                eval_program(&opt, &xs)[0],
                "p={p}"
            );
        }
    }

    #[test]
    fn sr_allreduce_variant() {
        let prog = Program::new().scan(lib::add()).allreduce(lib::add());
        let opt = apply_at(&prog, Rule::SrReduction, 0);
        let xs = ints(&[2, 5, 9, 1, 2, 6]);
        let expected = eval_program(&prog, &xs);
        assert_eq!(expected, ints(&[86, 86, 86, 86, 86, 86]));
        assert_eq!(eval_program(&opt, &xs), expected);
    }

    #[test]
    fn ss2_preserves_semantics() {
        let prog = Program::new().scan(lib::mul()).scan(lib::add());
        let opt = apply_at(&prog, Rule::Ss2Scan, 0);
        for p in 1..=12usize {
            let input: Vec<i64> = (0..p as i64).map(|i| (i % 3) + 1).collect();
            let xs = ints(&input);
            assert_eq!(eval_program(&prog, &xs), eval_program(&opt, &xs), "p={p}");
        }
    }

    #[test]
    fn ss2_requires_distinct_distributive_ops() {
        let same = Program::new().scan(lib::add()).scan(lib::add());
        assert!(try_match(Rule::Ss2Scan, same.stages()).is_none());
        let nondist = Program::new().scan(lib::add()).scan(lib::mul());
        assert!(try_match(Rule::Ss2Scan, nondist.stages()).is_none());
    }

    #[test]
    fn ss_scan_figure5_result() {
        let prog = Program::new().scan(lib::add()).scan(lib::add());
        let opt = apply_at(&prog, Rule::SsScan, 0);
        let xs = ints(&[2, 5, 9, 1, 2, 6]);
        let expected = ints(&[2, 9, 25, 42, 61, 86]);
        assert_eq!(eval_program(&prog, &xs), expected);
        assert_eq!(eval_program(&opt, &xs), expected);
    }

    #[test]
    fn ss_scan_preserves_semantics_all_sizes() {
        let prog = Program::new().scan(lib::add()).scan(lib::add());
        let opt = apply_at(&prog, Rule::SsScan, 0);
        for p in 1..=20usize {
            let input: Vec<i64> = (0..p as i64).map(|i| 7 - 2 * i).collect();
            let xs = ints(&input);
            assert_eq!(eval_program(&prog, &xs), eval_program(&opt, &xs), "p={p}");
        }
    }

    #[test]
    fn bs_comcast_preserves_semantics() {
        let prog = Program::new().bcast().scan(lib::add());
        let opt = apply_at(&prog, Rule::BsComcast, 0);
        for p in 1..=16usize {
            let mut input = vec![0i64; p];
            input[0] = 5;
            let xs = ints(&input);
            assert_eq!(eval_program(&prog, &xs), eval_program(&opt, &xs), "p={p}");
        }
    }

    #[test]
    fn bss2_comcast_preserves_semantics() {
        let prog = Program::new().bcast().scan(lib::mul()).scan(lib::add());
        let opt = apply_at(&prog, Rule::Bss2Comcast, 0);
        assert_eq!(opt.collective_count(), 1);
        for p in 1..=10usize {
            let mut input = vec![0i64; p];
            input[0] = 2;
            let xs = ints(&input);
            assert_eq!(eval_program(&prog, &xs), eval_program(&opt, &xs), "p={p}");
        }
    }

    #[test]
    fn bss_comcast_preserves_semantics() {
        let prog = Program::new().bcast().scan(lib::add()).scan(lib::add());
        let opt = apply_at(&prog, Rule::BssComcast, 0);
        for p in 1..=16usize {
            let mut input = vec![0i64; p];
            input[0] = 3;
            let xs = ints(&input);
            assert_eq!(eval_program(&prog, &xs), eval_program(&opt, &xs), "p={p}");
        }
    }

    #[test]
    fn br_local_preserves_first_component() {
        let prog = Program::new().bcast().reduce(lib::add());
        let opt = apply_at(&prog, Rule::BrLocal, 0);
        for p in 1..=20usize {
            let mut input = vec![9i64; p];
            input[0] = 4;
            let xs = ints(&input);
            let orig = eval_program(&prog, &xs);
            let local = eval_program(&opt, &xs);
            assert_eq!(orig[0], local[0], "p={p}");
            assert_eq!(local[0], Value::Int(4 * p as i64));
        }
    }

    #[test]
    fn br_local_drops_broadcast_side_effect() {
        // The paper's caveat: positions 1.. differ (b vs the old values).
        let prog = Program::new().bcast().reduce(lib::add());
        let opt = apply_at(&prog, Rule::BrLocal, 0);
        let xs = ints(&[4, 9, 9]);
        let orig = eval_program(&prog, &xs);
        let local = eval_program(&opt, &xs);
        assert_eq!(orig[1], Value::Int(4)); // broadcast happened
        assert_eq!(local[1], Value::Int(9)); // untouched
        assert!(rank0_only(&prog, Rule::BrLocal));
    }

    #[test]
    fn bsr2_local_preserves_first_component() {
        let prog = Program::new().bcast().scan(lib::mul()).reduce(lib::add());
        let opt = apply_at(&prog, Rule::Bsr2Local, 0);
        assert_eq!(opt.collective_count(), 0);
        for p in 1..=12usize {
            let mut input = vec![0i64; p];
            input[0] = 2;
            let xs = ints(&input);
            assert_eq!(
                eval_program(&prog, &xs)[0],
                eval_program(&opt, &xs)[0],
                "p={p}"
            );
        }
    }

    #[test]
    fn bsr_local_preserves_first_component() {
        let prog = Program::new().bcast().scan(lib::add()).reduce(lib::add());
        let opt = apply_at(&prog, Rule::BsrLocal, 0);
        for p in 1..=20usize {
            let mut input = vec![0i64; p];
            input[0] = 3;
            let xs = ints(&input);
            let expected = eval_program(&prog, &xs)[0].clone();
            let n = p as i64;
            assert_eq!(expected, Value::Int(3 * n * (n + 1) / 2));
            assert_eq!(eval_program(&opt, &xs)[0], expected, "p={p}");
        }
    }

    #[test]
    fn cr_alllocal_preserves_everything() {
        let prog = Program::new().bcast().allreduce(lib::add());
        assert!(!rank0_only(&prog, Rule::CrAlllocal));
        let opt = apply_at(&prog, Rule::CrAlllocal, 0);
        for p in 1..=16usize {
            let mut input = vec![7i64; p];
            input[0] = 4;
            let xs = ints(&input);
            assert_eq!(eval_program(&prog, &xs), eval_program(&opt, &xs), "p={p}");
        }
    }

    #[test]
    fn rules_work_on_blocks_too() {
        let prog = Program::new().scan(lib::mul()).allreduce(lib::add());
        let opt = apply_at(&prog, Rule::Sr2Reduction, 0);
        let input = vec![
            Value::int_list([2, 1]),
            Value::int_list([3, 5]),
            Value::int_list([1, 2]),
        ];
        assert_eq!(eval_program(&prog, &input), eval_program(&opt, &input));
    }

    #[test]
    fn window_too_short_never_matches() {
        let prog = Program::new().bcast();
        for rule in Rule::ALL {
            assert!(try_match(rule, prog.stages()).is_none(), "{rule}");
        }
    }

    // ---- The rule table's discipline (cranelift's "rules for rules") ----

    /// Every window `rule`'s entry admits over `⊗` = `ot` and `⊕` = `op`:
    /// an `AnyReduce` instantiates as `reduce` and as `allreduce`.
    fn instantiations(rule: Rule, ot: &BinOp, op: &BinOp) -> Vec<Program> {
        let slot = |s| match s {
            Slot::Times => ot.clone(),
            Slot::Plus => op.clone(),
        };
        let mut progs = vec![Program::new()];
        for pat in rule.spec().lhs {
            progs = progs
                .into_iter()
                .flat_map(|prog| match *pat {
                    Pat::Bcast => vec![prog.bcast()],
                    Pat::Scan(s) => vec![prog.scan(slot(s))],
                    Pat::Reduce(s) => vec![prog.reduce(slot(s))],
                    Pat::AllReduce(s) => vec![prog.allreduce(slot(s))],
                    Pat::AnyReduce(s) => {
                        vec![prog.clone().reduce(slot(s)), prog.allreduce(slot(s))]
                    }
                })
                .collect();
        }
        progs
    }

    /// An integer operator declared to cost `cost` that counts its
    /// applications in the returned counter.
    fn counting(name: &str, cost: f64, f: fn(i64, i64) -> i64) -> (BinOp, Arc<AtomicUsize>) {
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = calls.clone();
        let op = BinOp::new(name, move |a, b| {
            seen.fetch_add(1, Ordering::Relaxed);
            Value::Int(f(a.as_int(), b.as_int()))
        });
        (op.with_cost(cost).commutative(), calls)
    }

    /// (a) The cost claim, snippet rule 1: for every entry and every window
    /// it admits, at operator costs `(c⊗, c⊕)` ∈ {(1, 1), (2, 3)}, the
    /// built LHS and RHS cost exactly the entry's `before` and `after` on
    /// every machine of the grid, the RHS is strictly cheaper wherever the
    /// entry predicts a gain, and the fused functions apply `⊕`/`⊗` as
    /// often per element as the entry's counts say.
    #[test]
    fn every_entry_costs_what_it_claims() {
        for (ct, cp) in [(1.0, 1.0), (2.0, 3.0)] {
            let (ot, times) = counting("mul", ct, |a, b| a * b);
            let ot = ot.distributes_over_op("add");
            let (op, plus) = counting("add", cp, |a, b| a + b);
            let count = |run: &dyn Fn()| {
                plus.store(0, Ordering::Relaxed);
                times.store(0, Ordering::Relaxed);
                run();
                let load = |n: &AtomicUsize| n.load(Ordering::Relaxed) as f64;
                (load(&plus), load(&times))
            };
            for rule in Rule::ALL {
                let spec = rule.spec();
                let (before, after) = spec.sides(cp, ct);
                let claim = collopt_cost::RuleEstimate {
                    rule,
                    before,
                    after,
                };
                for lhs in instantiations(rule, &ot, &op) {
                    let rw = try_match(rule, lhs.stages()).expect("an entry matches its own LHS");
                    let rhs = lhs.splice(0, window_len(rule), rw.stages.clone());
                    for p in [1, 2, 5, 64] {
                        for (ts, tw, m) in [
                            (0.0, 0.0, 1.0),
                            (0.5, 0.25, 8.0),
                            (200.0, 2.0, 1.0),
                            (200.0, 0.25, 1000.0),
                            (0.5, 2.0, 1000.0),
                        ] {
                            let params = MachineParams::new(p, ts, tw);
                            let l = program_cost(&lhs, &params, m);
                            let r = program_cost(&rhs, &params, m);
                            let at = format!("{rule}: {lhs} at p={p} ts={ts} tw={tw} m={m}");
                            assert_eq!(l, before.eval(&params, m), "before of {at}");
                            assert_eq!(r, after.eval(&params, m), "after of {at}");
                            if claim.improves(&params, m) {
                                assert!(r < l, "{at}: predicted gain, RHS not cheaper");
                            }
                        }
                    }
                    // One element injected the way the RHS injects it.
                    let x = match &rw.stages[0] {
                        Stage::Map { f, .. } => f(&Value::Int(2)),
                        _ => Value::Int(2),
                    };
                    let fused = rw.stages.iter().find(|s| !matches!(s, Stage::Map { .. }));
                    let counted = match fused.expect("a fused stage") {
                        Stage::Scan(f) | Stage::Reduce(f) | Stage::AllReduce(f) => {
                            [count(&|| drop(f.apply(&x, &x))), (0.0, 0.0)]
                        }
                        Stage::ReduceBalanced { combine, solo, .. }
                        | Stage::IterLocal { combine, solo, .. } => {
                            [count(&|| drop(combine(&x, &x))), count(&|| drop(solo(&x)))]
                        }
                        // The lower partner's share of the one paired
                        // combine cannot be counted apart from the upper's.
                        Stage::ScanBalanced { combine, .. } => {
                            [count(&|| drop(combine(&x, &x))), spec.ops[1]]
                        }
                        Stage::Comcast { e, o, inject, .. } => {
                            let x = inject(&x);
                            [count(&|| drop(o(&x))), count(&|| drop(e(&x)))]
                        }
                        other => panic!("{rule}: unexpected RHS stage {other:?}"),
                    };
                    assert_eq!(counted, spec.ops, "{rule}: counted (⊕, ⊗) applications");
                }
            }
        }
    }

    /// (b) `rank0_only` is sound and necessary, snippet rule 2: a full
    /// rewrite agrees at every position, a rank-0 one at position 0 — and
    /// some input tells its other positions apart, so the flag is needed.
    #[test]
    fn rank0_only_is_sound_and_necessary() {
        let mut rng = collopt_machine::Rng::new(0x5EED_0026);
        for rule in Rule::ALL {
            for lhs in instantiations(rule, &lib::mul(), &lib::add()) {
                let rw = try_match(rule, lhs.stages()).expect("an entry matches its own LHS");
                let rhs = lhs.splice(0, window_len(rule), rw.stages);
                let mut narrowed = false;
                for p in 1..=9 {
                    for _ in 0..8 {
                        let xs: Vec<Value> =
                            (0..p).map(|_| Value::Int(rng.range_i64(-3, 4))).collect();
                        let (l, r) = (eval_program(&lhs, &xs), eval_program(&rhs, &xs));
                        if rw.rank0_only {
                            assert_eq!(l[0], r[0], "{rule}: {lhs} at rank 0, p={p}");
                            narrowed |= l[1..] != r[1..];
                        } else {
                            assert_eq!(l, r, "{rule}: {lhs} must agree everywhere, p={p}");
                        }
                    }
                }
                assert!(
                    narrowed || !rw.rank0_only,
                    "{rule}: {lhs} is marked rank-0 only but never differs elsewhere"
                );
            }
        }
    }

    /// (c) Every RHS has strictly fewer collectives than its LHS, snippet
    /// rule 3: rewriting terminates, and no entry is a bare reassociation
    /// or commutation.
    #[test]
    fn every_rhs_has_fewer_collectives() {
        for rule in Rule::ALL {
            for lhs in instantiations(rule, &lib::mul(), &lib::add()) {
                let rw = try_match(rule, lhs.stages()).expect("an entry matches its own LHS");
                let rhs = lhs.splice(0, window_len(rule), rw.stages);
                assert!(
                    rhs.collective_count() < lhs.collective_count(),
                    "{rule}: {lhs} → {rhs}"
                );
            }
        }
    }
}
