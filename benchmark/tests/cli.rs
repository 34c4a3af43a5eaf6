//! The benchmark run as the driver runs it: as a command.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_collopt-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark starts")
}

/// The `counted` record of one slice: allocations and bytes.
fn counted(workload: &str) -> String {
    let out = benchmark(&["--slice", "0", "--workload", workload, "--seconds", "0.01"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find(|l| l.starts_with("counted "))
        .expect("a counted record")
        .to_string()
}

#[test]
fn counted_rounds_repeat_to_the_last_allocation() {
    for workload in ["sim_batch", "check_sweep"] {
        assert_eq!(counted(workload), counted(workload), "{workload}");
    }
}

/// A copy of `expected/` in which `from` reads `to` in `file`.
fn corrupted_expectations(name: &str, file: &str, from: &str, to: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    let source = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected");
    for entry in std::fs::read_dir(source).unwrap() {
        let path = entry.unwrap().path();
        let mut text = std::fs::read_to_string(&path).unwrap();
        if path.file_name().unwrap() == file {
            assert!(text.contains(from), "{file} has no '{from}'");
            text = text.replacen(from, to, 1);
        }
        std::fs::write(dir.join(path.file_name().unwrap()), text).unwrap();
    }
    dir
}

#[test]
fn a_corrupted_expectation_fails_the_run_and_the_op() {
    // One message fewer than `scan(add) ; reduce(add)` sends at p = 8.
    let dir = corrupted_expectations(
        "corrupted",
        "sim_batch.txt",
        "scan(add) ; reduce(add) @ p=8\tmakespan_bits=0x4093140000000000 messages=38",
        "scan(add) ; reduce(add) @ p=8\tmakespan_bits=0x4093140000000000 messages=37",
    );
    let out = benchmark(&[
        "--workload",
        "sim_batch",
        "--seconds",
        "0.01",
        "--expected",
        dir.to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "the run must exit non-zero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = stdout.lines().last().expect("a result line");
    assert!(result.starts_with("{\"correct\":false,"), "{result}");
    // A tenth of the ops run that case, in every round of every slice.
    assert!(!result.contains("\"failed\":0,"), "{result}");
    assert!(stdout.contains("messages=38', expected"), "{stdout}");
}
