//! The `collopt` binary keeps its exit contract: whatever a user gets
//! wrong on the command line is exit code 2 and one line on stderr, never
//! a panic — and `collopt repro` prints what is committed.

use std::process::{Command, Output};

fn collopt(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_collopt"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run collopt")
}

fn assert_usage_error(args: &[&str]) {
    let out = collopt(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "collopt {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "collopt {args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "collopt {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "collopt {args:?} printed a result");
}

#[test]
fn bad_arguments_are_usage_errors_in_every_mode() {
    // Each mode with arguments it accepts, and one of its flags that takes
    // a value. A flag the mode does not know (`--p` for `fuzz`, `serve`, …)
    // is as much a usage error as a value outside the flag's domain (and
    // `repro` takes exactly one argument), so the same bad tails apply
    // everywhere; none of them lets `serve` bind, `submit` connect or a
    // campaign start.
    let modes: [(&[&str], &str); 9] = [
        (&["scan(add) ; reduce(add)"], "--faults"),
        (&["lint", "scan(add)"], "--file"),
        (&["check"], "--p"),
        (&["saturate", "scan(add)"], "--budget"),
        (&["fuzz"], "--iters"),
        (&["chaos"], "--seeds"),
        (&["repro", "table1"], "--all"),
        (&["serve"], "--addr"),
        (&["submit", "scan(add)"], "--addr"),
    ];
    for (mode, valued_flag) in modes {
        let bad_tails: [&[&str]; 6] = [
            &["--p", "x"],
            &["--p", "0"],
            &["--ts", "-1"],
            &["--m", "nan"],
            &["--no-such-flag"],
            &[valued_flag],
        ];
        for tail in bad_tails {
            assert_usage_error(&[mode, tail].concat());
        }
    }
    assert_usage_error(&["repro", "no-such-artifact"]);
    assert_usage_error(&["repro"]);
    assert_usage_error(&["fuzz", "--pmax", "1"]);
    assert_usage_error(&["chaos", "--pmax", "1"]);
    assert_usage_error(&["lint", "scan(add)", "--deny", "notes"]);
    // There is one engine: `--engine` is an unknown flag like any other.
    assert_usage_error(&["scan(add)", "--profile", "--engine", "des"]);
    assert_usage_error(&["submit", "scan(add)", "--engine", "des"]);
}

#[test]
fn the_edge_of_the_domain_is_accepted() {
    let mut args = vec!["scan(add) ; reduce(add)"];
    args.extend("--p 1 --ts 0 --tw 0 --m 0".split(' '));
    let out = collopt(&args);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(
        collopt(&["check", "--p", "1", "--m", "0"]).status.code(),
        Some(0)
    );
}

#[test]
fn repro_prints_the_committed_artifact() {
    let out = collopt(&["repro", "table1"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let committed = std::fs::read(concat!(env!("CARGO_MANIFEST_DIR"), "/results/table1.txt"))
        .expect("results/table1.txt is committed");
    assert!(out.stdout == committed, "`collopt repro table1` drifted");
}
