#![forbid(unsafe_code)]
//! Coverage-guided differential fuzzing of the whole collopt stack.
//!
//! The paper's central guarantee — rule-rewritten pipelines are
//! observationally equal to their sources on any machine — is checked
//! here on *generated* pipelines rather than hand-written ones. A seeded
//! [`generator`](gen) draws arbitrary compositions over the full grammar
//! (bcast/scan/reduce/fused forms/PolyEval) with random lookup-table
//! operators whose declared laws may be *deliberately false*; five
//! differential [`oracles`](oracle) then cross-examine the stack:
//!
//! 1. optimized vs. unoptimized execution (bit-equal outputs),
//! 2. Threads vs. Des engines (bit-equal everything),
//! 3. auditor / audited rewriter / certifier / linter unanimity on
//!    planted lies and withheld laws, and
//! 4. equality-saturation extraction vs. the brute-force optimality
//!    oracle (bit-equal program and cost, never above greedy) on every
//!    pipeline of ≤ 6 stages, and
//! 5. the static schedule verifier vs. the collective registry's ground
//!    truth (shipped lowerings accepted, planted bugs rejected with
//!    their expected lint code, at the case's `(p, m)` point).
//!
//! Failures are [`shrunk`](mod@shrink) to a local minimum and
//! [`pinned`](corpus) into `tests/corpus/` as self-contained spec
//! strings; a [`CoverageLedger`](ledger) fails any campaign in which one
//! of the 11 Table-1 rules never fired. Everything is deterministic in
//! `(seed, iters)` — including across `SWEEP_WORKERS` settings, because
//! per-case results are folded in seed order, not completion order.

pub mod corpus;
pub mod gen;
pub mod ledger;
pub mod oracle;
pub mod shrink;

pub use corpus::{load_corpus, parse_case_file, pin, CorpusCase};
pub use gen::{case_mode, generate_case, CaseDomain, CaseMode, CaseSpec, GenConfig, TableSpec};
pub use ledger::CoverageLedger;
pub use oracle::{run_case, FuzzFailure, OracleKind};
pub use shrink::shrink;

use collopt_bench::sweep_driver::{par_map, par_map_with};

/// Campaign knobs.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Base seed; case `i` uses `seed.wrapping_add(i)`, so consecutive
    /// seeds sweep the generator's mode schedule (see [`gen::case_mode`]).
    pub seed: u64,
    /// Number of cases to generate and check.
    pub iters: u64,
    /// Generator shape limits.
    pub gen: GenConfig,
    /// Worker override; `None` follows `SWEEP_WORKERS` /
    /// [`collopt_bench::sweep_driver::default_workers`].
    pub workers: Option<usize>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0xC0110,
            iters: 500,
            gen: GenConfig::default(),
            workers: None,
        }
    }
}

/// A finished campaign: every oracle violation plus the merged coverage.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// All violations, in seed order.
    pub failures: Vec<FuzzFailure>,
    /// Merged exercise counters.
    pub ledger: CoverageLedger,
}

impl CampaignResult {
    /// A campaign passes when no oracle tripped *and* every Table-1 rule
    /// fired at least once.
    pub fn passed(&self) -> bool {
        self.failures.is_empty() && self.ledger.missing_rules().is_empty()
    }
}

/// Run `iters` cases in parallel. Deterministic in `(seed, iters, gen)`:
/// each case folds into a private ledger and the per-seed results are
/// merged in seed order afterwards, so the worker count never changes
/// the outcome.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignResult {
    let seeds: Vec<u64> = (0..cfg.iters).map(|i| cfg.seed.wrapping_add(i)).collect();
    let gen_cfg = cfg.gen.clone();
    let one = move |seed: u64| -> (Vec<FuzzFailure>, CoverageLedger) {
        let case = generate_case(seed, &gen_cfg);
        let mut ledger = CoverageLedger::new();
        let failures = run_case(&case, &mut ledger);
        (failures, ledger)
    };
    let per_case = match cfg.workers {
        Some(workers) => par_map_with(seeds, workers, one),
        None => par_map(seeds, one),
    };
    let mut result = CampaignResult {
        failures: Vec::new(),
        ledger: CoverageLedger::new(),
    };
    for (failures, ledger) in per_case {
        result.failures.extend(failures);
        result.ledger.merge(&ledger);
    }
    result
}

/// Shrink every campaign failure (capped) against a reproduce-the-same-
/// oracle predicate, returning `(original, shrunk)` pairs in input order.
pub fn shrink_failures(failures: &[FuzzFailure], cap: usize) -> Vec<(FuzzFailure, CaseSpec)> {
    failures
        .iter()
        .take(cap)
        .filter_map(|failure| {
            let case = CaseSpec::parse(&failure.spec).ok()?;
            let oracle = failure.oracle;
            let reproduces = move |candidate: &CaseSpec| {
                let mut ledger = CoverageLedger::new();
                run_case(candidate, &mut ledger)
                    .iter()
                    .any(|f| f.oracle == oracle)
            };
            let shrunk = shrink(&case, &reproduces);
            Some((failure.clone(), shrunk))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_passes_and_counts_add_up() {
        let cfg = CampaignConfig {
            seed: 0,
            iters: 40,
            workers: Some(2),
            ..CampaignConfig::default()
        };
        let result = run_campaign(&cfg);
        assert!(
            result.failures.is_empty(),
            "violations: {}",
            result.failures[0]
        );
        assert_eq!(result.ledger.cases, 40);
        assert!(result.ledger.over_claim_cases > 0);
        assert_eq!(result.ledger.lies_caught, result.ledger.over_claim_cases);
        assert!(
            result.ledger.saturation_cases > 0,
            "the optimality oracle never ran"
        );
        assert!(
            result.ledger.static_checks > 0,
            "the static-check oracle never ran"
        );
        assert!(
            result.ledger.static_rejects > 0,
            "no planted lowering was statically rejected"
        );
    }
}
