//! Property tests for the equality-saturation search (`core::egraph`).
//!
//! The contracts pinned here are the ones the rest of the stack leans
//! on: extraction never worsens the program under the cost model, is
//! deterministic across runs and worker counts, always hands back a
//! certificate-carrying plan that revalidates, beats greedy on the
//! paper's `scan;scan;reduce` family, and terminates under an explicit
//! node budget on chains too deep for the brute-force oracle.

use collopt::analysis::audit::AuditConfig;
use collopt::analysis::certify::validate_result;
use collopt::core::egraph::{saturate_program, SaturateConfig, DEFAULT_NODE_BUDGET};
use collopt::core::op::lib;
use collopt::core::rewrite::{program_cost, Rewriter};
use collopt::core::rules::Rule;
use collopt::core::term::Program;
use collopt::core::value::Value;
use collopt::cost::MachineParams;
use collopt::fuzz::{generate_case, GenConfig};
use collopt_bench::sweep_driver::par_map_with;

fn oracle_params(p: usize) -> MachineParams {
    MachineParams::new(p, 100.0, 2.0)
}

/// Extraction minimizes over a set containing the (normalized) input, so
/// the extracted cost can never exceed the input's.
#[test]
fn extracted_cost_is_monotone_non_increasing() {
    let gen = GenConfig::default();
    let mut optimized_some = false;
    for seed in 0..120u64 {
        let case = generate_case(seed, &gen);
        let prog = case.base_program();
        let params = oracle_params(case.p);
        let m = case.m as f64;
        let result = Rewriter::exhaustive().saturate(&prog, &params, m).result;
        let before = program_cost(&prog, &params, m);
        let after = program_cost(&result.program, &params, m);
        assert!(
            after <= before + 1e-9,
            "seed {seed}: extraction worsened `{prog}` ({before}) into `{}` ({after})",
            result.program
        );
        optimized_some |= after < before;
    }
    assert!(optimized_some, "no generated case ever improved");
}

/// Same program, same machine → bit-identical extraction, whether the
/// cases run serially or fan out over any `SWEEP_WORKERS`-style pool
/// (results fold in seed order, so the worker count must not matter).
#[test]
fn extraction_is_deterministic_across_runs_and_workers() {
    let gen = GenConfig::default();
    let seeds: Vec<u64> = (0..32).collect();
    let one = |seed: u64| -> (String, u64, usize) {
        let case = generate_case(seed, &gen);
        let prog = case.base_program();
        let params = oracle_params(case.p);
        let m = case.m as f64;
        let result = Rewriter::exhaustive().saturate(&prog, &params, m).result;
        let cost = program_cost(&result.program, &params, m);
        (
            result.program.to_string(),
            cost.to_bits(),
            result.steps.len(),
        )
    };
    let serial: Vec<_> = seeds.iter().map(|&s| one(s)).collect();
    let one_worker = par_map_with(seeds.clone(), 1, one);
    let four_workers = par_map_with(seeds.clone(), 4, one);
    assert_eq!(serial, one_worker, "1 worker diverged from serial");
    assert_eq!(serial, four_workers, "4 workers diverged from serial");
    // And a literal re-run is bit-identical too.
    let again: Vec<_> = seeds.iter().map(|&s| one(s)).collect();
    assert_eq!(serial, again, "extraction is not reproducible");
}

/// Every step of an extracted plan carries a certificate, and on honest
/// operators each one revalidates against the full audit machinery.
#[test]
fn extracted_steps_certificates_revalidate() {
    let params = oracle_params(64);
    let samples: Vec<Value> = (-3..=4).map(Value::Int).collect();
    let programs = [
        Program::new().scan(lib::mul()).reduce(lib::add()),
        Program::new()
            .scan(lib::add())
            .scan(lib::add())
            .reduce(lib::add()),
        Program::new()
            .bcast()
            .map("f", 1.0, |v| Value::Int(v.as_int() + 1))
            .scan(lib::add()),
        Program::new().bcast().reduce(lib::add()),
    ];
    let mut steps_seen = 0;
    for prog in &programs {
        for m in [1.0, 8.0, 64.0] {
            let result = Rewriter::exhaustive().saturate(prog, &params, m).result;
            let issues = validate_result(&result, &samples, &AuditConfig::default());
            assert!(
                issues.is_empty(),
                "`{prog}` (m={m}): certificate issues {issues:?}"
            );
            steps_seen += result.steps.len();
        }
    }
    assert!(steps_seen > 0, "no plan ever applied a rule");
}

/// The paper's pinned family: greedy fuses `scan;scan` first and gets
/// stuck; the optimal plan keeps the first scan and fuses `scan;reduce`.
#[test]
fn scan_scan_reduce_family_beats_greedy() {
    let params = oracle_params(64);
    let prog = Program::new()
        .scan(lib::add())
        .scan(lib::add())
        .reduce(lib::add());
    for m in [1.0, 4.0, 8.0, 32.0] {
        let greedy = Rewriter::cost_guided(params, m).optimize(&prog);
        let optimal = Rewriter::exhaustive().saturate(&prog, &params, m).result;
        let g = program_cost(&greedy.program, &params, m);
        let o = program_cost(&optimal.program, &params, m);
        assert!(o <= g + 1e-9, "m={m}: optimal {o} exceeds greedy {g}");
    }
    // At m=8 the gap is strict and the plan is exactly one SR-Reduction.
    let optimal = Rewriter::exhaustive().saturate(&prog, &params, 8.0).result;
    let greedy = Rewriter::cost_guided(params, 8.0).optimize(&prog);
    assert!(
        program_cost(&optimal.program, &params, 8.0) < program_cost(&greedy.program, &params, 8.0)
    );
    assert_eq!(
        optimal.steps.iter().map(|s| s.rule).collect::<Vec<_>>(),
        vec![Rule::SrReduction]
    );
}

/// Chains of up to 12 stages are far beyond the brute-force oracle, but
/// the e-graph saturates (or hits its explicit node budget — a tight one
/// and the engine's default) and still extracts a sound, never-worse
/// program — deterministically.
#[test]
fn deep_chains_terminate_under_node_budget() {
    let params = oracle_params(64);
    let m = 8.0;
    // `scan-chain`: every adjacent pair fuses and the search must pick
    // which fusions to forgo — the worst case for ordering. `mixed-chain`:
    // a scan/map/bcast round-robin that exercises the enabling
    // normalizations and the broadcast rules alongside fusion.
    let scan_chain = |depth: usize| {
        let mut prog = Program::new();
        for _ in 0..depth - 1 {
            prog = prog.scan(lib::add());
        }
        prog.reduce(lib::add())
    };
    let mixed_chain = |depth: usize| {
        let mut prog = Program::new();
        for i in 0..depth - 1 {
            prog = match i % 3 {
                0 => prog.scan(lib::add()),
                1 => prog.map(format!("f{i}"), 1.0, |v| Value::Int(v.as_int() + 1)),
                _ => prog.bcast(),
            };
        }
        prog.reduce(lib::add())
    };
    for depth in 2..=12usize {
        for (family, prog) in [
            ("scan-chain", scan_chain(depth)),
            ("mixed-chain", mixed_chain(depth)),
        ] {
            for budget in [4000, DEFAULT_NODE_BUDGET] {
                let tag = format!("{family} depth {depth} budget {budget}");
                let cfg = SaturateConfig::new(params, m).node_budget(budget);
                let outcome = saturate_program(&prog, &cfg);
                assert!(
                    outcome.stats.nodes <= budget,
                    "{tag}: {} nodes exceeds the budget",
                    outcome.stats.nodes
                );
                let before = program_cost(&prog, &params, m);
                let after = program_cost(&outcome.result.program, &params, m);
                assert!(
                    after <= before + 1e-9,
                    "{tag}: budgeted extraction worsened the program"
                );
                let again = saturate_program(&prog, &cfg);
                assert_eq!(
                    outcome.result.program.to_string(),
                    again.result.program.to_string(),
                    "{tag}: budgeted extraction is nondeterministic"
                );
            }
        }
    }
}
