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
//! 2. canonical vs. permuted step order (bit-equal everything), and a
//!    faulted run vs. a clean one (bit-equal results, makespan inside the
//!    fault plan's envelope, `RankFailed` naming a crash victim),
//! 3. auditor / audited rewriter / certifier / linter unanimity on
//!    planted lies and withheld laws, and
//! 4. equality-saturation extraction vs. the brute-force optimality
//!    oracle (bit-equal program and cost) on every
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
pub use gen::{
    case_mode, generate_case, random_plan, CaseDomain, CaseMode, CaseSpec, ChaosKind, GenConfig,
    TableSpec,
};
pub use ledger::CoverageLedger;
pub use oracle::{
    check_extracted_cost, check_faulted_run, check_periodic, check_split, long_chain,
    long_chain_machine, run_case, tail_first_cost, FuzzFailure, OracleKind, Periodic,
};
pub use shrink::shrink;

use std::path::Path;

use collopt_bench::sweep_driver::{par_map, par_map_with};
use collopt_machine::Json;

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

/// The campaign verdict `collopt fuzz --out` writes (committed as
/// `results/BENCH_fuzz.json`): seed, size, failure count, coverage. A pure
/// function of `(seed, iters, gen)` — no wall time, no worker count — so
/// the committed file reproduces byte for byte.
pub fn verdict_json(cfg: &CampaignConfig, result: &CampaignResult) -> String {
    let missing: Vec<String> = result
        .ledger
        .missing_rules()
        .iter()
        .map(|r| format!("\"{r}\""))
        .collect();
    format!(
        concat!(
            "{{\n",
            "  \"bench\": \"fuzz\",\n",
            "  \"seed\": {},\n",
            "  \"iters\": {},\n",
            "  \"failures\": {},\n",
            "  \"missing_rules\": [{}],\n",
            "  \"passed\": {},\n",
            "  \"coverage\": {}\n",
            "}}\n"
        ),
        cfg.seed,
        cfg.iters,
        result.failures.len(),
        missing.join(", "),
        result.passed(),
        result.ledger.to_json(),
    )
}

/// Cap on how many failures get the (expensive) shrink treatment.
const SHRINK_CAP: usize = 10;

/// What a campaign does with its violations: shrink each (the first
/// `SHRINK_CAP`) to a local minimum against a reproduce-the-same-oracle
/// predicate, pin the shrunk case into `pin_dir` when one is given — from
/// where `tests/corpus_replay.rs` replays it forever — and return the
/// `(original, shrunk)` specs as a JSON list. Progress goes to stderr.
pub fn report_failures(failures: &[FuzzFailure], pin_dir: Option<&Path>) -> String {
    let quoted = |s: &str| Json::Str(s.to_string()).render();
    let mut entries = Vec::new();
    for failure in failures.iter().take(SHRINK_CAP) {
        let Ok(case) = CaseSpec::parse(&failure.spec) else {
            continue;
        };
        let reproduces = |candidate: &CaseSpec| {
            let mut ledger = CoverageLedger::new();
            run_case(candidate, &mut ledger)
                .iter()
                .any(|f| f.oracle == failure.oracle)
        };
        let small = shrink(&case, &reproduces);
        let small_spec = small.render();
        eprintln!("  shrunk seed={}: {small_spec}", failure.seed);
        if let Some(dir) = pin_dir {
            let notes = [
                format!("oracle: {}", failure.oracle.label()),
                format!("what: {}", failure.what),
                format!("original: {}", failure.spec),
            ];
            match pin(dir, &small, &notes) {
                Ok(path) => eprintln!("  pinned to {}", path.display()),
                Err(e) => eprintln!("  pin failed: {e}"),
            }
        }
        entries.push(format!(
            "  {{\"seed\": {}, \"oracle\": {}, \"what\": {}, \"spec\": {}, \"shrunk\": {}}}",
            failure.seed,
            quoted(failure.oracle.label()),
            quoted(&failure.what),
            quoted(&failure.spec),
            quoted(&small_spec),
        ));
    }
    format!("[\n{}\n]\n", entries.join(",\n"))
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

    #[test]
    fn a_failure_is_shrunk_pinned_and_listed() {
        // Synthetic: the case passes every oracle, so nothing smaller
        // "still fails" and the shrinker hands the case back unchanged.
        let spec = generate_case(9, &GenConfig::default()).render();
        let failure = FuzzFailure {
            seed: 9,
            oracle: OracleKind::Rewrite,
            spec: spec.clone(),
            what: "said \"no\"".to_string(),
        };
        let dir = std::env::temp_dir().join(format!("collopt-fuzz-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let unpinned = report_failures(std::slice::from_ref(&failure), None);
        assert!(!dir.exists(), "no --pin directory, nothing written");
        let listed = report_failures(&[failure], Some(&dir));
        assert_eq!(listed, unpinned, "pinning does not change the list");

        let doc = Json::parse(&listed).expect("failures JSON parses");
        let [entry] = doc.as_array().expect("a list") else {
            panic!("one failure in, one entry out: {listed}")
        };
        assert_eq!(entry.get("seed").and_then(Json::as_f64), Some(9.0));
        assert_eq!(entry.get("oracle").and_then(Json::as_str), Some("rewrite"));
        assert_eq!(
            entry.get("what").and_then(Json::as_str),
            Some("said \"no\"")
        );
        assert_eq!(entry.get("spec").and_then(Json::as_str), Some(&spec[..]));
        assert_eq!(entry.get("shrunk").and_then(Json::as_str), Some(&spec[..]));

        let [pinned] = &load_corpus(&dir).expect("corpus loads")[..] else {
            panic!("exactly one case pinned")
        };
        assert_eq!(pinned.case.render(), spec);
        assert!(pinned.notes.iter().any(|n| n == "oracle: rewrite"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
