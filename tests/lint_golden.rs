//! Golden-file tests for `collopt lint` output.
//!
//! The human renderer and the JSON renderer are public interfaces: CI
//! gates parse the exit codes, editors and scripts parse the JSON. These
//! tests pin both renderings byte-for-byte over the corpus in
//! `examples/pipelines/`, at the default machine model (p=64, ts=200,
//! tw=2, m=32) unless noted. Regenerate a golden with e.g.
//! `collopt lint --file examples/pipelines/lints/missed_fusion.pipeline
//! --json > tests/golden/missed_fusion.json` after verifying the new
//! output by eye.

use collopt::analysis::{lint_source, LintConfig};
use collopt::cost::MachineParams;

fn corpus(name: &str) -> String {
    let path = format!("{}/examples/pipelines/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing corpus file {path}: {e}"))
        .trim()
        .to_string()
}

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden file {path}: {e}"))
}

#[test]
fn missed_fusion_human_output_is_pinned() {
    let src = corpus("lints/missed_fusion.pipeline");
    let out = lint_source(&src, &LintConfig::default())
        .unwrap()
        .render_human(Some(&src));
    assert_eq!(out, golden("missed_fusion.human.txt"));
}

#[test]
fn missed_fusion_json_output_is_pinned() {
    let src = corpus("lints/missed_fusion.pipeline");
    let out = lint_source(&src, &LintConfig::default())
        .unwrap()
        .render_json();
    assert_eq!(format!("{out}\n"), golden("missed_fusion.json"));
}

#[test]
fn float_fusion_human_output_is_pinned() {
    let src = corpus("lints/float_fusion.pipeline");
    let out = lint_source(&src, &LintConfig::default())
        .unwrap()
        .render_human(Some(&src));
    assert_eq!(out, golden("float_fusion.human.txt"));
}

#[test]
fn float_fusion_json_output_is_pinned() {
    let src = corpus("lints/float_fusion.pipeline");
    let out = lint_source(&src, &LintConfig::default())
        .unwrap()
        .render_json();
    assert_eq!(format!("{out}\n"), golden("float_fusion.json"));
}

#[test]
fn distribution_mismatch_human_output_is_pinned() {
    let src = corpus("lints/distribution_mismatch.pipeline");
    let out = lint_source(&src, &LintConfig::default())
        .unwrap()
        .render_human(Some(&src));
    assert_eq!(out, golden("distribution_mismatch.human.txt"));
}

#[test]
fn distribution_mismatch_json_output_is_pinned() {
    let src = corpus("lints/distribution_mismatch.pipeline");
    let out = lint_source(&src, &LintConfig::default())
        .unwrap()
        .render_json();
    assert_eq!(format!("{out}\n"), golden("distribution_mismatch.json"));
}

#[test]
fn cost_regression_json_output_is_pinned() {
    // SS-Scan regresses when ts < m(tw+4): m=200 on the default machine.
    let cfg = LintConfig {
        block: 200.0,
        ..LintConfig::default()
    };
    let out = lint_source("scan(add) ; scan(add)", &cfg)
        .unwrap()
        .render_json();
    assert_eq!(format!("{out}\n"), golden("cost_regression.json"));
}

#[test]
fn clean_corpus_has_no_errors_or_warnings() {
    for name in [
        "clean/local_pipeline.pipeline",
        "clean/scatter_work_gather.pipeline",
        "clean/scan_hint.pipeline",
    ] {
        let src = corpus(name);
        let report = lint_source(&src, &LintConfig::default()).unwrap();
        assert_eq!(
            report.errors() + report.warnings(),
            0,
            "{name}: {:#?}",
            report.diagnostics
        );
    }
}

#[test]
fn lint_corpus_each_triggers_a_warning_or_error() {
    for name in [
        "lints/missed_fusion.pipeline",
        "lints/redundant_bcast.pipeline",
        "lints/gather_scatter_roundtrip.pipeline",
        "lints/float_fusion.pipeline",
        "lints/lattice_fusion.pipeline",
        "lints/distribution_mismatch.pipeline",
        "lints/rank0_narrowing.pipeline",
    ] {
        let src = corpus(name);
        let report = lint_source(&src, &LintConfig::default()).unwrap();
        assert!(
            report.errors() + report.warnings() > 0,
            "{name} should lint dirty"
        );
    }
}

#[test]
fn json_is_byte_stable_across_runs_and_machines_param_changes_matter() {
    let src = corpus("lints/missed_fusion.pipeline");
    let a = lint_source(&src, &LintConfig::default())
        .unwrap()
        .render_json();
    let b = lint_source(&src, &LintConfig::default())
        .unwrap()
        .render_json();
    assert_eq!(a, b);
    let other = LintConfig {
        params: MachineParams::new(16, 10.0, 1.0),
        ..LintConfig::default()
    };
    let c = lint_source(&src, &other).unwrap().render_json();
    assert_ne!(a, c, "machine model must be reflected in the output");
}
