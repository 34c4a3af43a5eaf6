//! Fuzz oracle 2 over the Table-1 rule programs: both sides of every rule
//! run under the fault plans [`random_plan`] draws for each seed in each
//! of the three families, on a machine size drawn from the seed, through
//! [`check_faulted_run`]. Each point must keep the fault layer's contract
//! against a clean run (bit-identical results, message and compute
//! totals; a makespan inside the delay envelope plus the exact retry
//! time; `RankFailed` naming a crash plan's victim) and match itself in
//! two permuted step orders: the full reversal, and one drawn from the
//! seed with bit 0 set, so that ranks `2k` and `2k + 1` queued together
//! swap whatever the draw.
//!
//! Each violation prints its `(seed, plan)`: the plan replays with
//! `collopt "<pipeline>" --faults "<plan>"`.

use collopt_bench::sweep_driver::par_map;
use collopt_bench::{rule_lhs, rule_rhs, varied_input};
use collopt_core::rules::Rule;
use collopt_fuzz::{check_faulted_run, random_plan, ChaosKind};
use collopt_machine::Rng;

/// Words per block: small but non-scalar, so bandwidth terms participate.
const M: usize = 4;

/// Every violation over seeds `0..seeds`, each seed on `p ∈ 2..=pmax`.
fn battery(seeds: u64, pmax: usize) -> Vec<String> {
    let points: Vec<(u64, ChaosKind)> = (0..seeds)
        .flat_map(|seed| ChaosKind::ALL.map(|kind| (seed, kind)))
        .collect();
    let per_point = par_map(points, |(seed, kind)| {
        let p = Rng::new(seed).range_usize(2, pmax + 1);
        let plan = random_plan(seed, p, kind);
        let inputs = varied_input(p, M, seed);
        let orders = [u64::MAX, Rng::new(seed).next_u64() | 1];
        let mut violations = Vec::new();
        for rule in Rule::ALL {
            for (side, prog) in [("LHS", rule_lhs(rule)), ("RHS", rule_rhs(rule))] {
                for what in check_faulted_run(&prog, &inputs, Some(&plan), &orders) {
                    violations.push(format!(
                        "seed={seed} {} p={p} {rule} {side}: {what} [plan: {}]",
                        kind.label(),
                        plan.describe()
                    ));
                }
            }
        }
        violations
    });
    per_point.into_iter().flatten().collect()
}

fn assert_clean(violations: &[String]) {
    assert!(
        violations.is_empty(),
        "{} violations:\n{}",
        violations.len(),
        violations.join("\n")
    );
}

#[test]
fn every_rule_keeps_the_fault_contract_in_every_family_and_order() {
    assert_clean(&battery(96, 9));
}

#[test]
#[ignore = "nightly scale: 256 seeds, p up to 16"]
fn every_rule_keeps_the_fault_contract_at_nightly_scale() {
    assert_clean(&battery(256, 16));
}
