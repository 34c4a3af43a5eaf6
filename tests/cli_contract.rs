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
    let modes: [(&[&str], &str); 8] = [
        (&["scan(add) ; reduce(add)"], "--faults"),
        (&["lint", "scan(add)"], "--file"),
        (&["check"], "--p"),
        (&["saturate", "scan(add)"], "--budget"),
        (&["fuzz"], "--iters"),
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
    // A replayed spec meets the generator's bounds: no p = 65 machine.
    assert_usage_error(&[
        "fuzz",
        "--replay",
        "v1|seed=101|p=65|m=1|domain=int|prog=scan(mul) ; reduce(add)|tables=-|plan=none|fuse=none",
    ]);
    // The fault-contract sweep is fuzz oracle 2; `chaos` is no mode.
    assert_usage_error(&["chaos", "--seeds", "96"]);
    assert_usage_error(&["lint", "scan(add)", "--deny", "notes"]);
    // There is one engine: `--engine` is an unknown flag like any other.
    assert_usage_error(&["scan(add)", "--profile", "--engine", "des"]);
    assert_usage_error(&["submit", "scan(add)", "--engine", "des"]);
    // There is one optimizer: `--optimal` is an unknown flag too.
    assert_usage_error(&["scan(add) ; reduce(add)", "--optimal"]);
}

#[test]
fn a_machine_too_large_to_price_is_a_usage_error() {
    // At `tw = 1e308` every program costs `inf`: the plan would be a choice
    // between two infinite costs and the saving `NaN`.
    for machine in [
        ["--tw", "1e308"],
        ["--ts", "1e308"],
        ["--m", "1e10"],
        ["--tw", "1000000001"],
    ] {
        assert_usage_error(&[&["scan(add) ; reduce(add)", "--m", "1e9"][..], &machine].concat());
    }
    let at_the_bound = collopt(&[
        "scan(add) ; reduce(add)",
        "--ts",
        "1e9",
        "--tw",
        "1e9",
        "--m",
        "1e9",
    ]);
    assert_eq!(at_the_bound.status.code(), Some(0), "{at_the_bound:?}");
    let stdout = String::from_utf8_lossy(&at_the_bound.stdout);
    assert!(
        !stdout.contains("NaN") && !stdout.contains("inf"),
        "{stdout}"
    );
}

#[test]
fn saturate_prints_one_plan_even_under_a_budget() {
    let chain = "scan(add) ; scan(add) ; scan(add) ; scan(add) ; scan(add) ; scan(add) ; \
                 scan(add) ; reduce(add)";
    let out = collopt(&["saturate", chain, "--m", "1", "--budget", "20"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(node budget exhausted)"), "{stdout}");
    assert!(stdout.contains("optimal  : "), "{stdout}");
    for gone in ["greedy", "delta"] {
        assert!(!stdout.contains(gone), "`{gone}` in:\n{stdout}");
    }
}

#[test]
fn the_cli_and_serve_answer_one_request_alike() {
    // The CLI's JSON is the serve result document without its lint and
    // simulation sections: same plan, same derivation.
    let out = collopt(&["bcast ; scan(add) ; scan(add)", "--m", "1024", "--json"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let cli = String::from_utf8(out.stdout).expect("utf-8");
    let cli = cli.trim_end().strip_suffix('}').expect("a JSON object");
    assert!(cli.contains("\"optimized\":{\"program\":\"bcast; map# op_comp_bs[add] ; scan(add)\""));
    let service = collopt::serve::Service::new(8);
    for lint in [false, true] {
        let request = format!(
            r#"{{"id":1,"pipeline":"bcast ; scan(add) ; scan(add)","p":64,"ts":200,"tw":2,"m":1024,"options":{{"lint":{lint},"simulate":false}}}}"#
        );
        let reply = service.handle_line(&request).text;
        let result = reply
            .strip_prefix(r#"{"id":1,"ok":true,"result":"#)
            .expect("an ok reply");
        assert!(result.starts_with(cli), "lint={lint}:\n{reply}\n{cli}");
    }
}

#[test]
fn a_ragged_allreduce_is_priced_and_linted_as_the_butterfly_it_runs() {
    // p = 16 does not divide m = 4097. The stage runs the butterfly, four
    // rounds of the whole block: 4 · (200 + 4097 · (2 + 1)) = 49,964. No
    // segmenting lowering runs, so there are no ragged segments to warn of.
    let out = collopt(&["allreduce(add)", "--p", "16", "--m", "4097", "--json"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let json = String::from_utf8_lossy(&out.stdout);
    let priced = r#""original":{"program":"allreduce(add)","cost":49964,"#;
    assert!(json.contains(priced), "{json}");
    let lint: Vec<&str> = "lint allreduce(add) --p 16 --m 4097 --deny warnings"
        .split(' ')
        .collect();
    let out = collopt(&lint);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("0 warning(s)"), "{stdout}");
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
