//! The paper's Table 1: per-rule performance estimates.
//!
//! For every optimization rule the table gives the cost of the program
//! term before the rule, the cost after, and the condition under which the
//! rule improves the target performance (both sides carry a `log p`
//! factor, omitted here as in the paper):
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
//! the per-collective costs of [`crate::collectives`] (broadcast, scan,
//! reduction, balanced variants, comcast, local iteration with the fused
//! operators' operation counts), and the unit tests assert that the
//! assembly reproduces the paper's printed formulas coefficient by
//! coefficient. CR-Alllocal — stated in the paper's Section 3.5 but not
//! printed in its Table 1 — is included with costs derived the same way.

use crate::collectives as coll;
use crate::params::MachineParams;
use crate::phase::PhaseCost;

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

    /// The rule's name as printed in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Rule::Sr2Reduction => "SR2-Reduction",
            Rule::SrReduction => "SR-Reduction",
            Rule::Ss2Scan => "SS2-Scan",
            Rule::SsScan => "SS-Scan",
            Rule::BsComcast => "BS-Comcast",
            Rule::Bss2Comcast => "BSS2-Comcast",
            Rule::BssComcast => "BSS-Comcast",
            Rule::BrLocal => "BR-Local",
            Rule::Bsr2Local => "BSR2-Local",
            Rule::BsrLocal => "BSR-Local",
            Rule::CrAlllocal => "CR-Alllocal",
        }
    }

    /// The full estimate row for this rule.
    pub fn estimate(&self) -> RuleEstimate {
        // Operation counts of the fused operators (per block word):
        //   op_sr2 : 3 (s1 ⊕ (r1 ⊗ s2): 2, r1 ⊗ r2: 1), pair on the wire.
        //   op_sr  : 4 (t1⊕t2⊕u1: 2, uu: 1, uu⊕uu: 1), pair on the wire.
        //   op_ss  : 8 on the upper partner (§3.3: "twelve to eight");
        //            3 of 4 components on the wire per direction.
        //   BS  o  : 2 (t⊕u, u⊕u).
        //   BSS2 o : 5 (t⊕(s⊗u): 2, t⊕(t⊗u): 2, u⊗u: 1).
        //   BSS o  : 8 (s⊕t⊕v: 2, t⊕t⊕u: 2, uu + uu⊕uu: 2, uu⊕v⊕v: 2).
        //   op_br  : 1 (s⊕s).
        //   op_bsr2: 3 (s⊕(s⊗t): 2, t⊗t: 1).
        //   op_bsr : 4 (t⊕t⊕u: 2, uu: 1, uu⊕uu: 1).
        let (before, after) = match self {
            Rule::Sr2Reduction => (
                coll::scan(1.0, 1.0) + coll::reduce(1.0, 1.0),
                coll::reduce(3.0, 2.0),
            ),
            Rule::SrReduction => (
                coll::scan(1.0, 1.0) + coll::reduce(1.0, 1.0),
                coll::reduce_balanced(4.0, 2.0),
            ),
            Rule::Ss2Scan => (
                coll::scan(1.0, 1.0) + coll::scan(1.0, 1.0),
                coll::scan(3.0, 2.0),
            ),
            Rule::SsScan => (
                coll::scan(1.0, 1.0) + coll::scan(1.0, 1.0),
                coll::scan_balanced(8.0, 3.0),
            ),
            Rule::BsComcast => (
                coll::bcast() + coll::scan(1.0, 1.0),
                coll::comcast_bcast_repeat(2.0),
            ),
            Rule::Bss2Comcast => (
                coll::bcast() + coll::scan(1.0, 1.0) + coll::scan(1.0, 1.0),
                coll::comcast_bcast_repeat(5.0),
            ),
            Rule::BssComcast => (
                coll::bcast() + coll::scan(1.0, 1.0) + coll::scan(1.0, 1.0),
                coll::comcast_bcast_repeat(8.0),
            ),
            Rule::BrLocal => (
                coll::bcast() + coll::reduce(1.0, 1.0),
                coll::local_iter(1.0),
            ),
            Rule::Bsr2Local => (
                coll::bcast() + coll::scan(1.0, 1.0) + coll::reduce(1.0, 1.0),
                coll::local_iter(3.0),
            ),
            Rule::BsrLocal => (
                coll::bcast() + coll::scan(1.0, 1.0) + coll::reduce(1.0, 1.0),
                coll::local_iter(4.0),
            ),
            Rule::CrAlllocal => {
                // bcast; allreduce — allreduce costs as reduce (eq. 16) —
                // versus iter(op_br); bcast.
                (
                    coll::bcast() + coll::reduce(1.0, 1.0),
                    coll::local_iter(1.0) + coll::bcast(),
                )
            }
        };
        RuleEstimate {
            rule: *self,
            before,
            after,
        }
    }

    /// The paper's "improved if" column, verbatim.
    pub fn condition_str(&self) -> &'static str {
        match self {
            Rule::Sr2Reduction | Rule::BsComcast | Rule::BrLocal | Rule::Bsr2Local => "always",
            Rule::SrReduction => "ts > m",
            Rule::Ss2Scan => "ts > 2m",
            Rule::SsScan => "ts > m*(tw + 4)",
            Rule::Bss2Comcast => "tw + ts/m > 1/2",
            Rule::BssComcast => "tw + ts/m > 2",
            Rule::BsrLocal => "tw + ts/m >= 1/3",
            Rule::CrAlllocal => "always",
        }
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

    /// The start-up time `ts*` at which the saving changes sign for the
    /// given `tw` and `m`.
    pub fn crossover_ts(&self, tw: f64, m: f64) -> Option<f64> {
        let d = self.before.minus(&self.after);
        if d.ts == 0.0 {
            return None;
        }
        let ts = -(d.mtw * tw + d.m) * m / d.ts;
        (ts > 0.0).then_some(ts)
    }
}

/// All Table-1 rows (plus CR-Alllocal), in the paper's order.
pub fn table1_rules() -> Vec<RuleEstimate> {
    Rule::ALL.iter().map(Rule::estimate).collect()
}

/// All Table-1 rows as a constant-friendly accessor.
pub static TABLE1_RULES: [Rule; 11] = Rule::ALL;

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
    fn crossover_ts_inverts_improves() {
        for rule in Rule::ALL {
            let est = rule.estimate();
            let (tw, m) = (2.0, 16.0);
            if let Some(ts_star) = est.crossover_ts(tw, m) {
                let above = MachineParams::new(8, ts_star * 1.01, tw);
                let below = MachineParams::new(8, ts_star * 0.99, tw);
                assert_ne!(
                    est.improves(&above, m),
                    est.improves(&below, m),
                    "{rule}: sign must flip at ts* = {ts_star}"
                );
            }
        }
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
