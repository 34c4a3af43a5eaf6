//! Teeth for the auditor's process-wide law table.
//!
//! The table remembers "does law L hold on domain D's pool" for library
//! operators, by name. A name does not identify a function, so the table
//! must be invisible to every operator that merely *shares* a library
//! name, and what it answers must be what a fresh probe answers — in any
//! request order and from any thread.

use std::sync::Barrier;

use collopt_analysis::{
    audit_operator, builtin_table, lint_program, AuditConfig, Domain, LintConfig, LintReport,
};
use collopt_core::op::{lib, BinOp};
use collopt_core::parser::parse_pipeline;
use collopt_core::term::{Program, Stage};
use collopt_core::value::Value;

fn lint(prog: &Program) -> LintReport {
    lint_program(prog, None, &LintConfig::default())
}

fn codes(report: &LintReport) -> Vec<&'static str> {
    report.diagnostics.iter().map(|d| d.code).collect()
}

/// Subtraction under a library name, falsely declared commutative.
fn sub_named(name: &str) -> BinOp {
    BinOp::new(name, |a, b| Value::Int(a.as_int() - b.as_int())).commutative()
}

#[test]
fn an_impostor_never_reads_a_library_entry() {
    // Warm the genuine `add`/`mul` facts.
    let genuine = Program::new().scan(lib::mul()).reduce(lib::add());
    let before = lint(&genuine);
    assert!(codes(&before).contains(&"COL001"), "{before:#?}");
    assert!(!codes(&before).contains(&"COL002"), "{before:#?}");

    // `add` is a known name (domain Int, no fallback needed), but this
    // `add` subtracts: the cached "commutativity of add holds" is a fact
    // about another function.
    let fake = sub_named("add");
    assert!(!fake.is_library());
    let report = lint(&Program::new().scan(fake.clone()).reduce(fake));
    let lie = report
        .diagnostics
        .iter()
        .find(|d| d.code == "COL002" && d.message.contains("commutativity of add"))
        .unwrap_or_else(|| panic!("the impostor's lie went unreported: {report:#?}"));
    assert!(
        lie.message.contains("a=0, b=1"),
        "witness not shrunk: {}",
        lie.message
    );
    assert!(!codes(&report).contains(&"COL001"), "{report:#?}");

    // A non-wrapping `mul` that falsely declares distributivity over max.
    let fake = BinOp::new("mul", |a, b| Value::Int(a.as_int() * b.as_int()))
        .commutative()
        .distributes_over_op("max");
    let report = lint(&Program::new().scan(fake).reduce(lib::max()));
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == "COL002" && d.message.contains("mul distributes over max")),
        "{report:#?}"
    );
    assert!(!codes(&report).contains(&"COL001"), "{report:#?}");

    // The impostors wrote nothing the genuine operators read back.
    assert_eq!(lint(&genuine).render_json(), before.render_json());
}

#[test]
fn an_impostor_never_writes_a_library_entry() {
    // No other test of this file touches `gcd`: its entries are cold when
    // the impostor is probed, so a name-keyed table would record the
    // impostor's refutations under the library's name.
    let fake = sub_named("gcd");
    let report = lint(&Program::new().scan(fake.clone()).reduce(fake));
    assert!(codes(&report).contains(&"COL002"), "{report:#?}");

    let report = lint(&Program::new().scan(lib::gcd()).reduce(lib::gcd()));
    assert!(!codes(&report).contains(&"COL002"), "{report:#?}");
    assert!(codes(&report).contains(&"COL001"), "{report:#?}");
}

/// `op` rebuilt through `BinOp::new`: same name, function and
/// declarations, but not a library operator — every law about it is
/// probed afresh, as all laws were before the table existed.
fn unmemoized_twin(op: &BinOp) -> BinOp {
    let f = op.raw();
    let mut twin = BinOp::new(op.name(), move |a, b| f(a, b))
        .with_cost(op.ops_per_word())
        .with_width(op.width());
    if op.is_commutative() {
        twin = twin.commutative();
    }
    let mut seen = std::collections::HashSet::new();
    for (peer, _) in builtin_table() {
        if op.distributes_over(&peer) && seen.insert(peer.name().to_string()) {
            twin = twin.distributes_over_op(peer.name());
        }
    }
    assert!(!twin.is_library());
    twin
}

fn with_unmemoized_operators(prog: &Program) -> Program {
    prog.stages()
        .iter()
        .fold(Program::new(), |twin, stage| match stage {
            Stage::Scan(op) => twin.scan(unmemoized_twin(op)),
            Stage::Reduce(op) => twin.reduce(unmemoized_twin(op)),
            Stage::AllReduce(op) => twin.allreduce(unmemoized_twin(op)),
            other => twin.push(other.clone()),
        })
}

/// 40 pipelines: ten same-domain operator pairs in four shapes.
fn deck() -> Vec<Program> {
    let pairs = [
        ("mul", "add"),
        ("add", "add"),
        ("add", "mul"),
        ("max", "min"),
        ("maxplus", "max"),
        ("add", "max"),
        ("and", "or"),
        ("or", "or"),
        ("fmul", "fadd"),
        ("fadd", "fadd"),
    ];
    let mut deck = Vec::new();
    for (a, b) in pairs {
        for src in [
            format!("scan({a}) ; reduce({b})"),
            format!("map f ; scan({a}) ; scan({b}) ; map g"),
            format!("bcast ; scan({a}) ; allreduce({b})"),
            format!("scan({b}) ; scan({a}) ; reduce({b}) ; bcast"),
        ] {
            deck.push(parse_pipeline(&src).expect("deck pipelines parse"));
        }
    }
    deck
}

#[test]
fn lint_json_is_the_fresh_probes_answer_in_any_order_and_from_two_threads() {
    let deck = deck();
    assert_eq!(deck.len(), 40);
    let fresh: Vec<String> = deck
        .iter()
        .map(|prog| lint(&with_unmemoized_operators(prog)).render_json())
        .collect();
    let check = |order: &mut dyn Iterator<Item = usize>| {
        for i in order {
            assert_eq!(lint(&deck[i]).render_json(), fresh[i], "pipeline {i}");
        }
    };
    // Whatever this process has not asked yet is cold on the first pass
    // and warm on the second.
    check(&mut (0..deck.len()));
    check(&mut (0..deck.len()).rev());
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            start.wait();
            check(&mut (0..deck.len()));
        });
        scope.spawn(|| {
            start.wait();
            check(&mut (0..deck.len()).rev());
        });
    });
}

#[test]
fn a_non_default_config_is_honoured_over_a_warm_table() {
    let default = AuditConfig::default();
    let audit = |cfg: &AuditConfig| audit_operator(&lib::fadd(), Domain::Float, &[], cfg);
    // Warm: float addition is associative up to the default tolerance …
    assert!(audit(&default).is_sound());
    // … and not bit-for-bit; the remembered verdict must not answer for
    // a config it was not probed under.
    let exact = AuditConfig {
        tolerance: 0.0,
        ..default.clone()
    };
    let strict = audit(&exact);
    assert!(!strict.is_sound(), "{strict:#?}");
    assert!(strict.over_claims[0].law.contains("associativity of fadd"));
    assert!(audit(&default).is_sound());
}
