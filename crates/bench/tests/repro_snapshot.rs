//! Everything in `results/` is reproducible byte for byte.
//!
//! For every row of `repro::ARTIFACTS` the produced bytes equal the
//! committed file, and every file under `results/` is owned by exactly one
//! row (or is `BENCH_fuzz.json`, the campaign verdict CI's `fuzz-smoke`
//! holds the same way). So the ASCII run-time diagrams, the figure series,
//! the Chrome traces and Table 1 cannot be reshaped silently by a change
//! to the trace layer, the cost model or a lowering. `UPDATE_GOLDEN=1`
//! rewrites the files (same as `collopt repro --all`).

use collopt_bench::repro;

#[test]
fn every_artifact_matches_its_committed_file() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        repro::write_all(&dir).expect("rewrite results/");
    }
    let problems = repro::check(&dir);
    assert!(
        problems.is_empty(),
        "results/ is not what `collopt repro` produces; if the change is \
         intended, run `collopt repro --all` and inspect the diff:\n  {}",
        problems.join("\n  ")
    );
}

/// EXPERIMENTS.md lists the artifacts by name; a row added to the table
/// without a line there fails here.
#[test]
fn experiments_md_names_every_artifact() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md"))
        .expect("EXPERIMENTS.md is committed");
    for artifact in repro::ARTIFACTS {
        assert!(
            doc.contains(&format!("`{}`", artifact.name)),
            "EXPERIMENTS.md does not mention `collopt repro {}`",
            artifact.name
        );
    }
}
