//! Operator-table fuzzing: the rules' side conditions are *sufficient*
//! for **every** operator, not just the friendly ones in the library.
//!
//! Built on the [`collopt::fuzz`] generator: random binary operations on
//! the 4-element domain `{0,1,2,3}` come from [`TableSpec`] /
//! [`gen::random_table`] (seeded, reproducible), their algebraic
//! properties are brute-forced exhaustively, and then:
//!
//! * if a random table is associative + commutative, the commutative
//!   rules (SR, SS) must preserve semantics for it;
//! * if a random pair `(⊗, ⊕)` is associative and `⊗` exhaustively
//!   distributes over `⊕`, the distributivity rules (SR2, SS2) must
//!   preserve semantics;
//! * the library's randomized property checkers must agree with the
//!   brute-force ground truth on full-domain samples;
//! * whole *generated pipelines* — honest and lying — must satisfy all
//!   three differential oracles on a seed window disjoint from the fuzz
//!   crate's own tests.
//!
//! Any counterexample here would be a soundness bug in a fused-operator
//! construction — the strongest class of test in the suite.

use collopt::core::rules::{try_match, window_len, Rule};
use collopt::core::semantics::eval_program;
use collopt::fuzz::gen::{random_table, N};
use collopt::fuzz::{
    case_mode, generate_case, run_campaign, run_case, CampaignConfig, CaseMode, CoverageLedger,
    GenConfig,
};
use collopt::machine::Rng;
use collopt::prelude::*;

fn full_domain() -> Vec<Value> {
    (0..N).map(Value::Int).collect()
}

fn random_domain_vec(rng: &mut Rng, min_len: usize, max_len: usize) -> Vec<Value> {
    let len = rng.range_usize(min_len, max_len);
    (0..len).map(|_| Value::Int(rng.range_i64(0, N))).collect()
}

fn check_rule(rule: Rule, prog: &Program, inputs: &[Value]) {
    let Some(rw) = try_match(rule, prog.stages()) else {
        panic!("{rule} should match");
    };
    let rank0 = rw.rank0_only;
    let opt = prog.splice(0, window_len(rule), rw.stages);
    let a = eval_program(prog, inputs);
    let b = eval_program(&opt, inputs);
    let ea = execute(prog, inputs, ClockParams::free()).outputs;
    let eb = execute(&opt, inputs, ClockParams::free()).outputs;
    if rank0 {
        assert_eq!(&a[0], &b[0], "{} evaluator rank0", rule);
        assert_eq!(&ea[0], &eb[0], "{} executor rank0", rule);
    } else {
        assert_eq!(&a, &b, "{} evaluator", rule);
        assert_eq!(&ea, &eb, "{} executor", rule);
    }
}

#[test]
fn library_checkers_agree_with_brute_force() {
    let mut rng = Rng::new(0xF022);
    for _ in 0..96 {
        let t = random_table(&mut rng);
        let u = random_table(&mut rng);
        let samples = full_domain();
        let a = t.binop(0);
        let b = u.binop(1);
        // On the full domain the sampled checkers ARE exhaustive (the
        // table ops wrap via rem_euclid, so laws on ℤ ⟺ laws on {0..3}).
        assert_eq!(a.check_associative(&samples), t.is_associative());
        assert_eq!(a.check_commutative(&samples), t.is_commutative());
        assert_eq!(
            a.check_distributes_over(&b, &samples),
            t.distributes_over(&u)
        );
    }
}

#[test]
fn commutative_rules_sound_for_arbitrary_tables() {
    let mut rng = Rng::new(0xF023);
    let mut hits = 0;
    for _ in 0..96 {
        let mut t = random_table(&mut rng);
        let inputs = random_domain_vec(&mut rng, 1, 10);
        if !(t.is_associative() && t.is_commutative()) {
            continue;
        }
        hits += 1;
        t.declare_commutative = true;
        let op = t.binop(0);
        check_rule(
            Rule::SrReduction,
            &Program::new().scan(op.clone()).allreduce(op.clone()),
            &inputs,
        );
        check_rule(
            Rule::SsScan,
            &Program::new().scan(op.clone()).scan(op.clone()),
            &inputs,
        );
        check_rule(
            Rule::BssComcast,
            &Program::new().bcast().scan(op.clone()).scan(op.clone()),
            &inputs,
        );
        check_rule(
            Rule::BsrLocal,
            &Program::new().bcast().scan(op.clone()).reduce(op.clone()),
            &inputs,
        );
    }
    assert!(
        hits >= 10,
        "too few associative+commutative samples: {hits}"
    );
}

#[test]
fn distributive_rules_sound_for_arbitrary_table_pairs() {
    let mut rng = Rng::new(0xF024);
    let mut hits = 0;
    for _ in 0..96 {
        let mut t = random_table(&mut rng);
        let u = random_table(&mut rng);
        let inputs = random_domain_vec(&mut rng, 1, 10);
        if !(t.is_associative() && u.is_associative() && t.distributes_over(&u)) {
            continue;
        }
        hits += 1;
        t.declare_distributes_over = Some(1);
        let ot = t.binop(0);
        let op = u.binop(1);
        check_rule(
            Rule::Sr2Reduction,
            &Program::new().scan(ot.clone()).allreduce(op.clone()),
            &inputs,
        );
        check_rule(
            Rule::Ss2Scan,
            &Program::new().scan(ot.clone()).scan(op.clone()),
            &inputs,
        );
        check_rule(
            Rule::Bss2Comcast,
            &Program::new().bcast().scan(ot.clone()).scan(op.clone()),
            &inputs,
        );
        check_rule(
            Rule::Bsr2Local,
            &Program::new().bcast().scan(ot.clone()).reduce(op.clone()),
            &inputs,
        );
    }
    assert!(hits >= 10, "too few distributive samples: {hits}");
}

#[test]
fn associativity_only_rules_sound_for_arbitrary_tables() {
    let mut rng = Rng::new(0xF025);
    let mut hits = 0;
    for _ in 0..96 {
        let t = random_table(&mut rng);
        let b = rng.range_i64(0, N);
        let p = rng.range_usize(1, 10);
        if !t.is_associative() {
            continue;
        }
        hits += 1;
        let op = t.binop(0);
        let mut inputs = vec![Value::Int(0); p];
        inputs[0] = Value::Int(b);
        check_rule(
            Rule::BsComcast,
            &Program::new().bcast().scan(op.clone()),
            &inputs,
        );
        check_rule(
            Rule::BrLocal,
            &Program::new().bcast().reduce(op.clone()),
            &inputs,
        );
        check_rule(
            Rule::CrAlllocal,
            &Program::new().bcast().allreduce(op.clone()),
            &inputs,
        );
    }
    assert!(hits >= 10, "too few associative samples: {hits}");
}

#[test]
fn verified_rewriter_accepts_iff_brute_force_condition_holds() {
    let mut rng = Rng::new(0xF026);
    for _ in 0..96 {
        let mut t = random_table(&mut rng);
        // Declare commutativity unconditionally (possibly a lie) and let
        // the verifying rewriter decide on the full domain.
        t.declare_commutative = true;
        let op = t.binop(0);
        let prog = Program::new().scan(op.clone()).allreduce(op.clone());
        let res = Rewriter::exhaustive()
            .audited(full_domain())
            .optimize(&prog);
        let truly_ok = t.is_associative() && t.is_commutative();
        assert_eq!(!res.steps.is_empty(), truly_ok);
    }
}

#[test]
fn generated_campaign_passes_on_a_fresh_seed_window() {
    // Whole-pipeline differential fuzzing on a seed window disjoint from
    // the fuzz crate's own tests: 220 consecutive seeds are guaranteed to
    // target every Table-1 rule at least ten times (see gen::case_mode).
    let cfg = CampaignConfig {
        seed: 0xF022_0000,
        iters: 220,
        gen: GenConfig::default(),
        workers: None,
    };
    let result = run_campaign(&cfg);
    assert!(
        result.failures.is_empty(),
        "oracle violations: {}",
        result.failures[0]
    );
    assert!(
        result.ledger.missing_rules().is_empty(),
        "rules never fired: {:?}",
        result.ledger.missing_rules()
    );
    for (rule, count) in &result.ledger.rules {
        assert!(*count >= 10, "{rule} fired only {count} times in 220 cases");
    }
}

#[test]
fn generated_lies_are_always_caught() {
    // Every over-claiming case in the window must be flagged by the full
    // defense stack (auditor + audited rewriter + certifier + linter).
    let mut lies = 0;
    for seed in 0xF023_0000u64..0xF023_0000 + 150 {
        let case = generate_case(seed, &GenConfig::default());
        if !matches!(case_mode(seed), CaseMode::OverClaim(_)) {
            continue;
        }
        lies += 1;
        let mut ledger = CoverageLedger::new();
        let failures = run_case(&case, &mut ledger);
        assert!(failures.is_empty(), "seed {seed}: {}", failures[0]);
        assert_eq!(ledger.lies_caught, 1, "seed {seed}: lie not caught");
    }
    assert!(lies >= 30, "too few lying cases in the window: {lies}");
}
