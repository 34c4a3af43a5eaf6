//! Golden-file tests for `collopt lint` output.
//!
//! The human renderer and the JSON renderer are public interfaces: gates
//! read the exit codes (`tests/cli_contract.rs` pins them over the
//! corpus), editors and scripts parse the JSON. These tests pin both
//! renderings byte-for-byte over the corpus in `examples/pipelines/`, and
//! hold every file of `clean/` free of warnings and every file of
//! `lints/` to at least one, at the default machine model (p=64, ts=200,
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

/// Every `.pipeline` file of `examples/pipelines/{dir}/`, by name, with its
/// source: a file added there is covered without editing a test.
fn corpus_dir(dir: &str) -> Vec<(String, String)> {
    let path = format!("{}/examples/pipelines/{dir}", env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(&path)
        .unwrap_or_else(|e| panic!("missing corpus directory {path}: {e}"))
        .map(|entry| entry.expect("a directory entry").file_name())
        .map(|name| name.to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".pipeline"))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "{path} holds no pipeline");
    names
        .into_iter()
        .map(|name| {
            let src = corpus(&format!("{dir}/{name}"));
            (name, src)
        })
        .collect()
}

#[test]
fn clean_corpus_has_no_errors_or_warnings() {
    for (name, src) in corpus_dir("clean") {
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
    for (name, src) in corpus_dir("lints") {
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
