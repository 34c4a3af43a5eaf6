//! The optimization rules as one table, and the paper's Table 1 from it.
//!
//! Every per-rule fact is one [`RuleSpec`] entry ([`Rule::spec`]): the
//! left-hand-side pattern, the law class of the side condition, the
//! right-hand side's stage kind and operation counts, and the paper's
//! "improved if" condition. The matcher, certificates, distribution states,
//! the fuzz targets and the rule boxes in the other crates read the
//! entries; only the fused operators themselves (`collopt-core`'s
//! `rules::fused`) are written per rule.
//!
//! Table 1 gives, for every rule, the cost of the program term before the
//! rule, the cost after, and the condition under which the rule improves
//! the target performance (both sides carry a `log p` factor, omitted here
//! as in the paper):
//!
//! | Rule          | before              | after             | improved if        |
//! |---------------|---------------------|-------------------|--------------------|
//! | SR2-Reduction | 2ts + m(2tw + 3)    | ts + m(2tw + 3)   | always             |
//! | SR-Reduction  | 2ts + m(2tw + 3)    | ts + m(2tw + 4)   | ts > m             |
//! | SS2-Scan      | 2ts + m(2tw + 4)    | ts + m(2tw + 6)   | ts > 2m            |
//! | SS-Scan       | 2ts + m(2tw + 4)    | ts + m(3tw + 8)   | ts > m(tw + 4)     |
//! | BS-Comcast    | 2ts + m(2tw + 2)    | ts + m(tw + 2)    | always             |
//! | BSS2-Comcast  | 3ts + m(3tw + 4)    | ts + m(tw + 5)    | tw + ts/m > 1/2    |
//! | BSS-Comcast   | 3ts + m(3tw + 4)    | ts + m(tw + 8)    | tw + ts/m > 2      |
//! | BR-Local      | 2ts + m(2tw + 1)    | m                 | always             |
//! | BSR2-Local    | 3ts + m(3tw + 3)    | 3m                | always             |
//! | BSR-Local     | 3ts + m(3tw + 3)    | 4m                | tw + ts/m ≥ 1/3    |
//!
//! The rows are not transcribed literally: each side is *assembled* from
//! an entry and the per-collective costs of [`crate::collectives`]
//! ([`RuleSpec::sides`]), and the unit tests assert that the assembly
//! reproduces the paper's printed formulas coefficient by coefficient.
//! CR-Alllocal — stated in the paper's Section 3.5 but not printed in its
//! Table 1 — is included with costs derived the same way.

use crate::collectives as coll;
use crate::params::MachineParams;
use crate::phase::PhaseCost;

use Laws::{Associative, Commutative, Distributive};
use Pat::{AllReduce, AnyReduce, Bcast, Reduce, Scan};
use RhsKind::{Comcast, Fused, IterLocal, ReduceBalanced, ScanBalanced};
use Slot::{Plus, Times};

/// The optimization rules of Section 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `scan(⊗); reduce(⊕)` → `reduce(op_sr2)` (⊗ distributes over ⊕).
    Sr2Reduction,
    /// `scan(⊕); reduce(⊕)` → `reduce_balanced(op_sr)` (⊕ commutative).
    SrReduction,
    /// `scan(⊗); scan(⊕)` → `scan(op_sr2)` (⊗ distributes over ⊕).
    Ss2Scan,
    /// `scan(⊕); scan(⊕)` → `scan_balanced(op_ss)` (⊕ commutative).
    SsScan,
    /// `bcast; scan(⊕)` → comcast.
    BsComcast,
    /// `bcast; scan(⊗); scan(⊕)` → comcast (distributivity).
    Bss2Comcast,
    /// `bcast; scan(⊕); scan(⊕)` → comcast (commutativity).
    BssComcast,
    /// `bcast; reduce(⊕)` → local iteration.
    BrLocal,
    /// `bcast; scan(⊗); reduce(⊕)` → local iteration (distributivity).
    Bsr2Local,
    /// `bcast; scan(⊕); reduce(⊕)` → local iteration (commutativity).
    BsrLocal,
    /// `bcast; allreduce(⊕)` → local iteration followed by a broadcast
    /// (Section 3.5's allreduce remark; not a printed Table-1 row).
    CrAlllocal,
}

/// One of the two base-operator slots of a rule's left-hand side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// `⊗`, the operator that distributes over `⊕` in the `*2` rules.
    Times,
    /// `⊕`.
    Plus,
}

/// One collective of a rule's left-hand side, over an operator slot. A
/// slot named twice in one pattern means "the same operator".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pat {
    /// `bcast`.
    Bcast,
    /// `scan`.
    Scan(Slot),
    /// `reduce`.
    Reduce(Slot),
    /// `allreduce`.
    AllReduce(Slot),
    /// `reduce` or `allreduce`.
    AnyReduce(Slot),
}

/// The law class of a rule's side condition. Every class includes the
/// associativity of each operator in the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Laws {
    /// Associativity only.
    Associative,
    /// Plus commutativity of each operator.
    Commutative,
    /// Plus `⊗` distributing over `⊕`; `differ` demands two distinct
    /// operators.
    Distributive {
        /// The two slots must bind different operators.
        differ: bool,
    },
}

/// The stage a rule's right-hand side fuses the window into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RhsKind {
    /// The window's last collective over one fused operator.
    Fused,
    /// A balanced reduction (`reduce_balanced` / `allreduce_balanced`).
    ReduceBalanced,
    /// A balanced scan; the critical path pays the upper partner.
    ScanBalanced,
    /// A comcast, broadcast then `repeat`; the `o` step is on the
    /// critical path.
    Comcast,
    /// A local iteration, plus a broadcast after an `allreduce` window.
    IterLocal,
}

/// Everything the workspace knows about one rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuleSpec {
    /// The rule's name as printed in the paper.
    pub name: &'static str,
    /// The matched window, collective by collective.
    pub lhs: &'static [Pat],
    /// The side condition's law class.
    pub laws: Laws,
    /// The right-hand side's stage.
    pub rhs: RhsKind,
    /// Operations per block word as `(c⊕, c⊗)` coefficients: first the
    /// count on the critical path (the operator, combine, upper partner or
    /// `o`), then the other one (solo, lower partner or `e`).
    pub ops: [(f64, f64); 2],
    /// Words on the wire per block word (0 for a local iteration).
    pub words: u64,
    /// Width of the auxiliary tuple the window's input is injected into
    /// (1: no tuple).
    pub inject: usize,
    /// Display-name prefix of the fused stage or operator.
    pub label: &'static str,
    /// The paper's "improved if" column, verbatim.
    pub condition: &'static str,
}

/// `op_sr2` on pairs: `s1 ⊕ (r1 ⊗ s2)` is one `⊕` and one `⊗`, `r1 ⊗ r2`
/// one more `⊗`.
pub const OP_SR2: (f64, f64) = (1.0, 2.0);

/// `op_sr`'s combine `(t1⊕t2⊕u1, uu⊕uu)` with `uu = u1⊕u2` is four `⊕`
/// (the paper's "four rather than five"); its solo `u⊕u` one.
const OP_SR: [(f64, f64); 2] = [(4.0, 0.0), (1.0, 0.0)];

const NONE: (f64, f64) = (0.0, 0.0);

/// Indexed by `Rule as usize`, i.e. in [`Rule::ALL`] order; per entry, the
/// left-hand side, then the side condition and the paper's "improved if",
/// then the right-hand side.
///
/// The right-hand sides' counts, beyond [`OP_SR2`] and `OP_SR`: `op_ss`'s
/// shared `ttu, uu, uuuu, vv` are five and the upper partner adds
/// `s2⊕t1⊕v1` and `uu⊕vv` (the paper's "twelve to eight"), three of its
/// four components crossing the link per direction. BS: `e = (t, u⊕u)`,
/// `o = (t⊕u, u⊕u)`. BSS2: `o` pays `t⊕(s⊗u)` and `t⊕(t⊗u)`, two each, and
/// `u⊗u`; `e` drops `t⊕(s⊗u)`. BSS: `o` pays `s⊕t⊕v`, `t⊕t⊕u` and
/// `uu⊕v⊕v`, two each, `uu` and `uu⊕uu`; `e` keeps `s` and pays `v⊕v` for
/// `uu⊕v⊕v`. `op_br = s⊕s`; `op_bsr2` and `op_bsr` are `op_sr2`'s and
/// `op_sr`'s diagonals. CR-Alllocal's `allreduce` costs as a `reduce`
/// (eq. 16) and its right-hand side is `iter(op_br); bcast`.
#[rustfmt::skip]
const RULES: [RuleSpec; 11] = [
    RuleSpec { name: "SR2-Reduction", lhs: &[Scan(Times), AnyReduce(Plus)],
        laws: Distributive { differ: false }, condition: "always",
        rhs: Fused, ops: [OP_SR2, NONE], words: 2, inject: 2, label: "op_sr2" },
    RuleSpec { name: "SR-Reduction", lhs: &[Scan(Plus), AnyReduce(Plus)],
        laws: Commutative, condition: "ts > m",
        rhs: ReduceBalanced, ops: OP_SR, words: 2, inject: 2, label: "op_sr" },
    RuleSpec { name: "SS2-Scan", lhs: &[Scan(Times), Scan(Plus)],
        laws: Distributive { differ: true }, condition: "ts > 2m",
        rhs: Fused, ops: [OP_SR2, NONE], words: 2, inject: 2, label: "op_sr2" },
    RuleSpec { name: "SS-Scan", lhs: &[Scan(Plus), Scan(Plus)],
        laws: Commutative, condition: "ts > m*(tw + 4)",
        rhs: ScanBalanced, ops: [(8.0, 0.0), (5.0, 0.0)], words: 3, inject: 4, label: "op_ss" },
    RuleSpec { name: "BS-Comcast", lhs: &[Bcast, Scan(Plus)],
        laws: Associative, condition: "always",
        rhs: Comcast, ops: [(2.0, 0.0), (1.0, 0.0)], words: 2, inject: 2, label: "op_comp_bs" },
    RuleSpec { name: "BSS2-Comcast", lhs: &[Bcast, Scan(Times), Scan(Plus)],
        laws: Distributive { differ: true }, condition: "tw + ts/m > 1/2",
        rhs: Comcast, ops: [(2.0, 3.0), (1.0, 2.0)], words: 3, inject: 3, label: "op_comp_bss2" },
    RuleSpec { name: "BSS-Comcast", lhs: &[Bcast, Scan(Plus), Scan(Plus)],
        laws: Commutative, condition: "tw + ts/m > 2",
        rhs: Comcast, ops: [(8.0, 0.0), (5.0, 0.0)], words: 4, inject: 4, label: "op_comp_bss" },
    RuleSpec { name: "BR-Local", lhs: &[Bcast, Reduce(Plus)],
        laws: Associative, condition: "always",
        rhs: IterLocal, ops: [(1.0, 0.0), NONE], words: 0, inject: 1, label: "op_br" },
    RuleSpec { name: "BSR2-Local", lhs: &[Bcast, Scan(Times), Reduce(Plus)],
        laws: Distributive { differ: false }, condition: "always",
        rhs: IterLocal, ops: [OP_SR2, NONE], words: 0, inject: 2, label: "op_bsr2" },
    RuleSpec { name: "BSR-Local", lhs: &[Bcast, Scan(Plus), Reduce(Plus)],
        laws: Commutative, condition: "tw + ts/m >= 1/3",
        rhs: IterLocal, ops: OP_SR, words: 0, inject: 2, label: "op_bsr" },
    RuleSpec { name: "CR-Alllocal", lhs: &[Bcast, AllReduce(Plus)],
        laws: Associative, condition: "always",
        rhs: IterLocal, ops: [(1.0, 0.0), NONE], words: 0, inject: 1, label: "op_br" },
];

impl RuleSpec {
    /// Per-word operation count of coefficients `k` when `⊕` costs `cp`
    /// and `⊗` costs `ct` operations per word.
    pub fn count(k: (f64, f64), cp: f64, ct: f64) -> f64 {
        k.0 * cp + k.1 * ct
    }

    /// The window's last collective.
    pub fn last(&self) -> Pat {
        self.lhs[self.lhs.len() - 1]
    }

    /// Per-phase cost of the left- and right-hand side when `⊕` costs `cp`
    /// and `⊗` costs `ct` operations per word. The left-hand side is the
    /// sum of its collectives, in window order; an `allreduce` costs as a
    /// `reduce` (eq. 16).
    pub fn sides(&self, cp: f64, ct: f64) -> (PhaseCost, PhaseCost) {
        let c = |slot| match slot {
            Plus => cp,
            Times => ct,
        };
        let before = self
            .lhs
            .iter()
            .map(|pat| match *pat {
                Bcast => coll::bcast(),
                Scan(s) => coll::scan(c(s), 1.0),
                Reduce(s) | AllReduce(s) | AnyReduce(s) => coll::reduce(c(s), 1.0),
            })
            .sum();
        let crit = Self::count(self.ops[0], cp, ct);
        let words = self.words as f64;
        let after = match (self.rhs, self.last()) {
            (Fused, Scan(_)) => coll::scan(crit, words),
            (Fused, _) => coll::reduce(crit, words),
            (ReduceBalanced, _) => coll::reduce_balanced(crit, words),
            (ScanBalanced, _) => coll::scan_balanced(crit, words),
            (Comcast, _) => coll::comcast_bcast_repeat(crit),
            (IterLocal, AllReduce(_)) => coll::local_iter(crit) + coll::bcast(),
            (IterLocal, _) => coll::local_iter(crit),
        };
        (before, after)
    }
}

impl Rule {
    /// All rules, in the paper's Table-1 order (CR-Alllocal appended).
    pub const ALL: [Rule; 11] = [
        Rule::Sr2Reduction,
        Rule::SrReduction,
        Rule::Ss2Scan,
        Rule::SsScan,
        Rule::BsComcast,
        Rule::Bss2Comcast,
        Rule::BssComcast,
        Rule::BrLocal,
        Rule::Bsr2Local,
        Rule::BsrLocal,
        Rule::CrAlllocal,
    ];

    /// The rule's table entry.
    pub fn spec(self) -> &'static RuleSpec {
        &RULES[self as usize]
    }

    /// The rule's name as printed in the paper.
    pub fn name(&self) -> &'static str {
        self.spec().name
    }

    /// The full estimate row for this rule, with unit-cost operators.
    pub fn estimate(&self) -> RuleEstimate {
        let (before, after) = self.spec().sides(1.0, 1.0);
        RuleEstimate {
            rule: *self,
            before,
            after,
        }
    }

    /// The paper's "improved if" column, verbatim.
    pub fn condition_str(&self) -> &'static str {
        self.spec().condition
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One row of Table 1: the rule, and the per-phase costs of its two sides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuleEstimate {
    /// Which rule.
    pub rule: Rule,
    /// Cost of the original term, per `log p` phase.
    pub before: PhaseCost,
    /// Cost of the optimized term, per `log p` phase.
    pub after: PhaseCost,
}

impl RuleEstimate {
    /// Predicted saving `T_before − T_after` (may be negative).
    pub fn saving(&self, params: &MachineParams, m: f64) -> f64 {
        self.before.eval(params, m) - self.after.eval(params, m)
    }

    /// Does the rule improve performance on this machine at block size `m`?
    /// (Strict improvement; the degenerate `p = 1` machine, where both
    /// sides cost zero, never "improves".)
    pub fn improves(&self, params: &MachineParams, m: f64) -> bool {
        self.saving(params, m) > 0.0
    }

    /// Is the rule an unconditional win (the "always" rows)?
    pub fn always_improves(&self) -> bool {
        self.before.always_exceeds(&self.after)
    }

    /// The block size `m*` at which the saving changes sign for the given
    /// `ts`/`tw`, i.e. the solution of `Δ(m) = 0` with
    /// `Δ = a·ts + (b·tw + c)·m`. Returns `None` when the saving never
    /// changes sign for positive `m` (always- or never-profitable rules).
    pub fn crossover_m(&self, ts: f64, tw: f64) -> Option<f64> {
        let d = self.before.minus(&self.after);
        let slope = d.mtw * tw + d.m;
        let intercept = d.ts * ts;
        if slope == 0.0 {
            return None;
        }
        let m = -intercept / slope;
        (m > 0.0).then_some(m)
    }
}

/// Renders the table in the paper's layout (name, before, after,
/// condition), for `collopt repro table1` and EXPERIMENTS.md.
pub fn render_table1() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:<22} {:<20} {}\n",
        "Rule name", "(time before) x log p", "(time after) x log p", "Improved if"
    ));
    for rule in Rule::ALL {
        let est = rule.estimate();
        out.push_str(&format!(
            "{:<14} {:<22} {:<20} {}\n",
            rule.name(),
            est.before.render(),
            est.after.render(),
            rule.condition_str()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(rule: Rule) -> RuleEstimate {
        rule.estimate()
    }

    #[test]
    fn before_costs_match_paper_literals() {
        // Table 1, "time before" column.
        assert_eq!(
            row(Rule::Sr2Reduction).before,
            PhaseCost::new(2.0, 2.0, 3.0)
        );
        assert_eq!(row(Rule::SrReduction).before, PhaseCost::new(2.0, 2.0, 3.0));
        assert_eq!(row(Rule::Ss2Scan).before, PhaseCost::new(2.0, 2.0, 4.0));
        assert_eq!(row(Rule::SsScan).before, PhaseCost::new(2.0, 2.0, 4.0));
        assert_eq!(row(Rule::BsComcast).before, PhaseCost::new(2.0, 2.0, 2.0));
        assert_eq!(row(Rule::Bss2Comcast).before, PhaseCost::new(3.0, 3.0, 4.0));
        assert_eq!(row(Rule::BssComcast).before, PhaseCost::new(3.0, 3.0, 4.0));
        assert_eq!(row(Rule::BrLocal).before, PhaseCost::new(2.0, 2.0, 1.0));
        assert_eq!(row(Rule::Bsr2Local).before, PhaseCost::new(3.0, 3.0, 3.0));
        assert_eq!(row(Rule::BsrLocal).before, PhaseCost::new(3.0, 3.0, 3.0));
    }

    #[test]
    fn after_costs_match_paper_literals() {
        // Table 1, "time after" column.
        assert_eq!(row(Rule::Sr2Reduction).after, PhaseCost::new(1.0, 2.0, 3.0));
        assert_eq!(row(Rule::SrReduction).after, PhaseCost::new(1.0, 2.0, 4.0));
        assert_eq!(row(Rule::Ss2Scan).after, PhaseCost::new(1.0, 2.0, 6.0));
        assert_eq!(row(Rule::SsScan).after, PhaseCost::new(1.0, 3.0, 8.0));
        assert_eq!(row(Rule::BsComcast).after, PhaseCost::new(1.0, 1.0, 2.0));
        assert_eq!(row(Rule::Bss2Comcast).after, PhaseCost::new(1.0, 1.0, 5.0));
        assert_eq!(row(Rule::BssComcast).after, PhaseCost::new(1.0, 1.0, 8.0));
        assert_eq!(row(Rule::BrLocal).after, PhaseCost::new(0.0, 0.0, 1.0));
        assert_eq!(row(Rule::Bsr2Local).after, PhaseCost::new(0.0, 0.0, 3.0));
        assert_eq!(row(Rule::BsrLocal).after, PhaseCost::new(0.0, 0.0, 4.0));
    }

    #[test]
    fn always_rows_match_paper() {
        let always: Vec<Rule> = Rule::ALL
            .iter()
            .copied()
            .filter(|r| r.estimate().always_improves())
            .collect();
        assert_eq!(
            always,
            vec![
                Rule::Sr2Reduction,
                Rule::BsComcast,
                Rule::BrLocal,
                Rule::Bsr2Local,
                Rule::CrAlllocal
            ]
        );
    }

    #[test]
    fn sr_reduction_condition_is_ts_greater_m() {
        // Δ = ts − m: improves iff ts > m.
        let est = row(Rule::SrReduction);
        for (ts, m, want) in [(10.0, 5.0, true), (5.0, 10.0, false), (10.0, 10.0, false)] {
            let p = MachineParams::new(8, ts, 3.0);
            assert_eq!(est.improves(&p, m), want, "ts={ts} m={m}");
        }
    }

    #[test]
    fn ss2_scan_condition_is_ts_greater_2m() {
        let est = row(Rule::Ss2Scan);
        for (ts, m, want) in [(21.0, 10.0, true), (20.0, 10.0, false), (19.0, 10.0, false)] {
            let p = MachineParams::new(8, ts, 7.0);
            assert_eq!(est.improves(&p, m), want, "ts={ts} m={m}");
        }
        // Derivation of §4.2: crossover at m* = ts/2.
        assert_eq!(est.crossover_m(100.0, 5.0), Some(50.0));
    }

    #[test]
    fn ss_scan_condition_is_ts_greater_m_tw_plus_4() {
        let est = row(Rule::SsScan);
        let tw = 3.0;
        // ts > m(tw+4) = 7m.
        for (ts, m, want) in [(71.0, 10.0, true), (70.0, 10.0, false)] {
            let p = MachineParams::new(8, ts, tw);
            assert_eq!(est.improves(&p, m), want, "ts={ts} m={m}");
        }
    }

    #[test]
    fn bss2_comcast_condition() {
        // tw + ts/m > 1/2.
        let est = row(Rule::Bss2Comcast);
        let p = MachineParams::new(8, 1.0, 0.4);
        assert!(est.improves(&p, 5.0)); // 0.4 + 0.2 = 0.6 > 0.5
        assert!(!est.improves(&p, 20.0)); // 0.4 + 0.05 = 0.45 < 0.5
    }

    #[test]
    fn bss_comcast_condition() {
        // tw + ts/m > 2.
        let est = row(Rule::BssComcast);
        let p = MachineParams::new(8, 30.0, 1.0);
        assert!(est.improves(&p, 20.0)); // 1 + 1.5 = 2.5 > 2
        assert!(!est.improves(&p, 40.0)); // 1 + 0.75 < 2
    }

    #[test]
    fn bsr_local_condition() {
        // tw + ts/m > 1/3 (paper prints ≥; strict at the boundary the
        // saving is exactly zero, so `improves` is false there).
        let est = row(Rule::BsrLocal);
        let p = MachineParams::new(8, 2.0, 0.2);
        assert!(est.improves(&p, 10.0)); // 0.2 + 0.2 = 0.4 > 1/3
        assert!(!est.improves(&p, 60.0)); // 0.2 + 1/30 < 1/3
    }

    #[test]
    fn crossover_m_inverts_improves() {
        // SS-Scan at ts=100, tw=2: m* = 100/6.
        let est = row(Rule::SsScan);
        let m_star = est.crossover_m(100.0, 2.0).unwrap();
        assert!((m_star - 100.0 / 6.0).abs() < 1e-9);
        let p = MachineParams::new(8, 100.0, 2.0);
        assert!(est.improves(&p, m_star * 0.99));
        assert!(!est.improves(&p, m_star * 1.01));
    }

    #[test]
    fn always_rules_have_no_positive_crossover() {
        for rule in [
            Rule::Sr2Reduction,
            Rule::BsComcast,
            Rule::BrLocal,
            Rule::Bsr2Local,
        ] {
            let est = rule.estimate();
            // The saving is positive for all positive ts; crossing zero
            // would need a negative m.
            assert_eq!(est.crossover_m(100.0, 2.0), None, "{rule}");
        }
    }

    #[test]
    fn parsytec_preset_enables_every_rule_for_small_blocks() {
        // Latency-dominated machine, m = 1: all rules should fire —
        // the regime the paper targets.
        let p = MachineParams::parsytec_like(64);
        for rule in Rule::ALL {
            assert!(
                rule.estimate().improves(&p, 1.0),
                "{rule} should pay off at m=1"
            );
        }
    }

    #[test]
    fn large_blocks_disable_the_conditional_rules() {
        let p = MachineParams::parsytec_like(64); // ts=200, tw=2
        let m = 1e6;
        for rule in [Rule::SrReduction, Rule::Ss2Scan, Rule::SsScan] {
            assert!(
                !rule.estimate().improves(&p, m),
                "{rule} must not pay off at huge m"
            );
        }
        for rule in [
            Rule::Sr2Reduction,
            Rule::BsComcast,
            Rule::BrLocal,
            Rule::Bsr2Local,
        ] {
            assert!(rule.estimate().improves(&p, m), "{rule} is an always-rule");
        }
    }

    #[test]
    fn render_contains_all_rows() {
        let s = render_table1();
        for rule in Rule::ALL {
            assert!(s.contains(rule.name()), "missing {rule}");
        }
        assert!(s.contains("2ts + m*(2tw + 3)"));
        assert!(s.contains("always"));
    }

    #[test]
    fn condition_strings_agree_with_always_classification() {
        for rule in Rule::ALL {
            let is_always = rule.condition_str() == "always";
            assert_eq!(rule.estimate().always_improves(), is_always, "{rule}");
        }
    }
}
