//! Parameter sweeps and recommendation reports over the rule set.
//!
//! Table 1 answers "does rule R help on machine M at block size m?" one
//! rule at a time; this module aggregates: crossover tables (at which
//! block size does each conditional rule stop paying off on a given
//! machine?), full recommendation reports for a design point, and the
//! profitable-region boundary in the `(ts/tw, m)` plane that the paper's
//! Section 4 discusses qualitatively.

use crate::collectives::{
    allreduce_butterfly_cost, allreduce_rabenseifner_cost, allreduce_ring_cost,
};
use crate::params::MachineParams;
use crate::table1::Rule;

/// One rule's entry in a crossover table.
#[derive(Debug, Clone)]
pub struct CrossoverRow {
    /// The rule.
    pub rule: Rule,
    /// The paper's condition string.
    pub condition: &'static str,
    /// Block size above which the rule stops improving, `None` for the
    /// "always" rules (profitable at every block size).
    pub crossover_m: Option<f64>,
}

/// Crossover table for a machine's `ts`/`tw`.
pub fn crossover_table(ts: f64, tw: f64) -> Vec<CrossoverRow> {
    Rule::ALL
        .iter()
        .map(|&rule| CrossoverRow {
            rule,
            condition: rule.condition_str(),
            crossover_m: rule.estimate().crossover_m(ts, tw),
        })
        .collect()
}

/// One rule's entry in a recommendation report.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// The rule.
    pub rule: Rule,
    /// Does it improve at this design point?
    pub improves: bool,
    /// Predicted saving in time units (negative = slowdown).
    pub saving: f64,
    /// Saving as a fraction of the original term's cost.
    pub saving_fraction: f64,
}

/// Full per-rule report for a design point `(machine, block size)`.
pub fn recommend(params: &MachineParams, m: f64) -> Vec<Recommendation> {
    Rule::ALL
        .iter()
        .map(|&rule| {
            let est = rule.estimate();
            let before = est.before.eval(params, m);
            let saving = est.saving(params, m);
            Recommendation {
                rule,
                improves: saving > 0.0,
                saving,
                saving_fraction: if before > 0.0 { saving / before } else { 0.0 },
            }
        })
        .collect()
}

/// For a conditional rule, the boundary `ts*(m)` of its profitable region
/// at fixed `tw`, sampled over the given block sizes — the data for a
/// region plot in the `(m, ts)` plane.
pub fn profit_boundary(rule: Rule, tw: f64, blocks: &[f64]) -> Vec<(f64, Option<f64>)> {
    let est = rule.estimate();
    blocks
        .iter()
        .map(|&m| (m, est.crossover_ts(tw, m)))
        .collect()
}

/// Block size above which Rabenseifner's reduce-scatter + allgather
/// allreduce beats the butterfly on a power-of-two machine, solving
/// `log p (ts + m(tw+c)) = 2 log p·ts + m(1−1/p)(2tw+c)`:
///
/// `m* = log p·ts / (log p (tw+c) − (1−1/p)(2tw+c))`
///
/// `None` when the denominator is non-positive (only possible at
/// `p ≤ 4` with `log p (tw+c) ≤ (1−1/p)(2tw+c)`): the butterfly then
/// wins at every block size.
pub fn allreduce_crossover_m(params: &MachineParams, ops: f64) -> Option<f64> {
    let logp = params.log_p();
    if logp == 0.0 {
        return None;
    }
    let frac = 1.0 - 1.0 / params.p as f64;
    let denom = logp * (params.tw + ops) - frac * (2.0 * params.tw + ops);
    (denom > 0.0).then(|| logp * params.ts / denom)
}

/// One fused-rule RHS costed under one allreduce algorithm.
#[derive(Debug, Clone)]
pub struct FusedRhsVariant {
    /// The Table-1 rule whose right-hand side this is.
    pub rule: Rule,
    /// Algorithm executing the RHS reduction.
    pub algorithm: &'static str,
    /// Predicted makespan at the queried block size.
    pub cost: f64,
}

/// Table-1 variants: the reduction-valued right-hand sides of the fused
/// rules (SR2-AllReduction's `allreduce(op_sr2)`, SR-Reduction's
/// balanced reduction) costed under each member of the reduction family.
/// Table 1 itself assumes the butterfly — the `"butterfly"` rows
/// reproduce `rule.estimate().after` exactly — while the
/// `"reduce_scatter"` rows show what the fused RHS costs when executed
/// as halving/doubling (what the adaptive executor actually runs for
/// large blocks) and `"ring"` the fully bandwidth-optimal variant.
///
/// Both fused operators put `wf = 2` words on the wire per block word
/// (`op_sr2`'s pairs, `op_sr`'s `(t, u)` tuples) and charge 3 resp. 4
/// operations per block word; the family formulas take wire words, so
/// block size `m` maps to `2m` wire words at `c/2` operations each.
pub fn fused_rhs_allreduce_variants(params: &MachineParams, m: f64) -> Vec<FusedRhsVariant> {
    let mut out = Vec::new();
    for (rule, wf, ops) in [
        (Rule::Sr2Reduction, 2.0, 3.0),
        (Rule::SrReduction, 2.0, 4.0),
    ] {
        let wire_m = wf * m;
        let wire_ops = ops / wf;
        for (algorithm, cost) in [
            (
                "butterfly",
                allreduce_butterfly_cost(params, wire_m, wire_ops),
            ),
            (
                "reduce_scatter",
                allreduce_rabenseifner_cost(params, wire_m, wire_ops),
            ),
            ("ring", allreduce_ring_cost(params, wire_m, wire_ops)),
        ] {
            out.push(FusedRhsVariant {
                rule,
                algorithm,
                cost,
            });
        }
    }
    out
}

/// Render the fused-RHS variant table over a set of block sizes.
pub fn render_allreduce_variants(params: &MachineParams, blocks: &[f64]) -> String {
    let mut out = format!(
        "fused-rule RHS cost by allreduce algorithm (p = {}, ts = {}, tw = {})\n{:<16} {:<16}",
        params.p, params.ts, params.tw, "rule", "algorithm"
    );
    for m in blocks {
        out.push_str(&format!(" {:>12}", format!("m={m}")));
    }
    out.push('\n');
    let per_m: Vec<Vec<FusedRhsVariant>> = blocks
        .iter()
        .map(|&m| fused_rhs_allreduce_variants(params, m))
        .collect();
    for (i, first) in per_m[0].iter().enumerate() {
        out.push_str(&format!(
            "{:<16} {:<16}",
            first.rule.name(),
            first.algorithm
        ));
        for row in &per_m {
            out.push_str(&format!(" {:>12.0}", row[i].cost));
        }
        out.push('\n');
    }
    out
}

/// Render the crossover table as aligned text (for `collopt repro
/// crossovers` and EXPERIMENTS.md).
pub fn render_crossovers(ts: f64, tw: f64) -> String {
    let mut out = format!("crossover block sizes m* at ts = {ts}, tw = {tw}\n");
    out.push_str(&format!(
        "{:<14} {:<20} {}\n",
        "rule", "condition", "profitable for"
    ));
    for row in crossover_table(ts, tw) {
        let range = match row.crossover_m {
            None => "all m".to_string(),
            Some(m) => format!("m < {m:.1}"),
        };
        out.push_str(&format!(
            "{:<14} {:<20} {}\n",
            row.rule.name(),
            row.condition,
            range
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_rules_have_no_crossover() {
        // "always" ⟹ no crossover at any machine. (The converse is
        // false: a conditional rule whose condition happens to hold for
        // all m at this ts/tw — e.g. BSS2 whenever tw > 1/2 — also has
        // none.)
        for row in crossover_table(200.0, 2.0) {
            if row.condition == "always" {
                assert!(row.crossover_m.is_none(), "{}", row.rule.name());
            }
        }
        // At a low-tw machine the conditional comcast rules do cross.
        let low = crossover_table(100.0, 0.1);
        assert!(low
            .iter()
            .find(|r| r.rule == Rule::BssComcast)
            .unwrap()
            .crossover_m
            .is_some());
        assert!(low
            .iter()
            .find(|r| r.rule == Rule::Bss2Comcast)
            .unwrap()
            .crossover_m
            .is_some());
    }

    #[test]
    fn crossovers_match_paper_conditions() {
        let table = crossover_table(200.0, 2.0);
        let get = |r: Rule| {
            table
                .iter()
                .find(|row| row.rule == r)
                .unwrap()
                .crossover_m
                .unwrap()
        };
        // SR: ts > m → m* = ts.
        assert_eq!(get(Rule::SrReduction), 200.0);
        // SS2: ts > 2m → m* = ts/2.
        assert_eq!(get(Rule::Ss2Scan), 100.0);
        // SS: ts > m(tw+4) → m* = ts/(tw+4).
        assert!((get(Rule::SsScan) - 200.0 / 6.0).abs() < 1e-9);
        // BSS2: tw + ts/m > 1/2; tw = 2 > 1/2 already → profitable for
        // all m: the difference never changes sign, so no crossover.
        assert!(table
            .iter()
            .find(|row| row.rule == Rule::Bss2Comcast)
            .unwrap()
            .crossover_m
            .is_none());
    }

    #[test]
    fn bss_rules_cross_only_on_low_bandwidth_cost_machines() {
        // tw = 2 ≥ 2: BSS-Comcast profitable for every m (condition
        // tw + ts/m > 2 holds as ts/m > 0).
        let high_tw = crossover_table(200.0, 2.5);
        assert!(high_tw
            .iter()
            .find(|r| r.rule == Rule::BssComcast)
            .unwrap()
            .crossover_m
            .is_none());
        // tw = 0.5 < 2: crossover at ts/m = 1.5 → m* = ts/1.5.
        let low_tw = crossover_table(300.0, 0.5);
        let m_star = low_tw
            .iter()
            .find(|r| r.rule == Rule::BssComcast)
            .unwrap()
            .crossover_m
            .unwrap();
        assert!((m_star - 200.0).abs() < 1e-9);
    }

    #[test]
    fn recommendations_are_consistent_with_estimates() {
        let params = MachineParams::parsytec_like(64);
        for m in [1.0, 64.0, 100_000.0] {
            for rec in recommend(&params, m) {
                let est = rec.rule.estimate();
                assert_eq!(
                    rec.improves,
                    est.improves(&params, m),
                    "{}",
                    rec.rule.name()
                );
                assert!((rec.saving - est.saving(&params, m)).abs() < 1e-9);
                if rec.improves {
                    assert!(rec.saving_fraction > 0.0 && rec.saving_fraction < 1.0);
                }
            }
        }
    }

    #[test]
    fn saving_fraction_bounded_by_one() {
        // Even the Local rules cannot save more than the whole term.
        let params = MachineParams::new(64, 1e6, 10.0);
        for rec in recommend(&params, 1.0) {
            assert!(rec.saving_fraction <= 1.0, "{}", rec.rule.name());
        }
    }

    #[test]
    fn profit_boundary_is_monotone_for_sr() {
        // SR-Reduction: ts* = m (independent of tw): boundary linear in m.
        let b = profit_boundary(Rule::SrReduction, 3.0, &[1.0, 10.0, 100.0]);
        for (m, ts_star) in b {
            assert!((ts_star.unwrap() - m).abs() < 1e-9);
        }
    }

    #[test]
    fn render_lists_every_rule() {
        let s = render_crossovers(200.0, 2.0);
        for rule in Rule::ALL {
            assert!(s.contains(rule.name()));
        }
        assert!(s.contains("all m"));
        assert!(s.contains("m <"));
    }

    #[test]
    fn allreduce_crossover_separates_the_winners() {
        let params = MachineParams::parsytec_like(16);
        let m_star = allreduce_crossover_m(&params, 1.0).unwrap();
        // m* = 4·200 / (4·3 − (15/16)·5) = 800/7.3125 ≈ 109.4.
        assert!((m_star - 800.0 / 7.3125).abs() < 1e-9);
        // Just below: butterfly cheaper; just above: Rabenseifner.
        let lo = m_star * 0.99;
        let hi = m_star * 1.01;
        assert!(
            allreduce_butterfly_cost(&params, lo, 1.0)
                < allreduce_rabenseifner_cost(&params, lo, 1.0)
        );
        assert!(
            allreduce_rabenseifner_cost(&params, hi, 1.0)
                < allreduce_butterfly_cost(&params, hi, 1.0)
        );
        // p = 2: log p (tw+c) = 3 < (1/2)·5 = 2.5 is false — denominator
        // positive, crossover exists; p = 1 has nothing to cross.
        assert!(allreduce_crossover_m(&MachineParams::new(1, 200.0, 2.0), 1.0).is_none());
    }

    #[test]
    fn fused_rhs_butterfly_rows_reproduce_table1() {
        // The "butterfly" rows must equal the rules' own Table-1 RHS
        // estimates — same formula through two different code paths.
        let params = MachineParams::parsytec_like(64);
        for m in [1.0, 64.0, 4096.0] {
            for row in fused_rhs_allreduce_variants(&params, m) {
                if row.algorithm == "butterfly" {
                    let table1 = row.rule.estimate().after.eval(&params, m);
                    assert!(
                        (row.cost - table1).abs() < 1e-9,
                        "{} at m={m}: {} vs {}",
                        row.rule.name(),
                        row.cost,
                        table1
                    );
                }
            }
        }
    }

    #[test]
    fn fused_rhs_prefers_reduce_scatter_for_large_blocks() {
        let params = MachineParams::parsytec_like(16);
        let cost_of = |m: f64, alg: &str, rule: Rule| {
            fused_rhs_allreduce_variants(&params, m)
                .into_iter()
                .find(|r| r.rule == rule && r.algorithm == alg)
                .unwrap()
                .cost
        };
        for rule in [Rule::Sr2Reduction, Rule::SrReduction] {
            assert!(cost_of(4.0, "butterfly", rule) < cost_of(4.0, "reduce_scatter", rule));
            assert!(cost_of(8192.0, "reduce_scatter", rule) < cost_of(8192.0, "butterfly", rule));
        }
    }

    #[test]
    fn variant_render_mentions_every_algorithm() {
        let s = render_allreduce_variants(&MachineParams::parsytec_like(16), &[16.0, 1024.0]);
        for needle in ["butterfly", "reduce_scatter", "ring", "m=16", "m=1024"] {
            assert!(s.contains(needle), "missing {needle}:\n{s}");
        }
    }
}
