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

/// The documents a reader follows name only files that exist: every
/// example they cite is a file under `examples/`, none points at the
/// retired `cargo bench` surface or its never-committed output, and
/// README's example block lists every example there is.
#[test]
fn docs_name_only_files_that_exist() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let examples: Vec<String> = std::fs::read_dir(root.join("examples"))
        .expect("examples/ is committed")
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            Some(name.strip_suffix(".rs")?.to_string())
        })
        .collect();
    let mut problems = Vec::new();
    for doc in [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md",
    ] {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc is committed");
        for name in cited_examples(&text) {
            if !examples.contains(&name) {
                problems.push(format!(
                    "{doc} names example `{name}`, not a file in examples/"
                ));
            }
        }
        for retired in ["cargo bench", "bench_output"] {
            if text.contains(retired) {
                problems.push(format!("{doc} mentions `{retired}`; timing is benchmark/"));
            }
        }
    }
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md is committed");
    let listed = names_after(&readme, "--example ", "");
    for name in &examples {
        if !listed.contains(name) {
            problems.push(format!("README.md's example block omits `{name}`"));
        }
    }
    assert!(problems.is_empty(), "\n  {}", problems.join("\n  "));
}

/// Every example a document cites: `examples/<name>.rs`, `--example
/// <name>`, ``example `<name>` ``, and each `<name>.rs` on a line that
/// starts with `examples/` (an inventory line).
fn cited_examples(text: &str) -> Vec<String> {
    let mut names = names_after(text, "examples/", ".rs");
    names.extend(names_after(text, "--example ", ""));
    names.extend(names_after(text, "example `", "`"));
    for line in text.lines() {
        if line.trim_start().starts_with("examples/") {
            names.extend(names_after(line, " ", ".rs"));
        }
    }
    names
}

/// The identifier after each `marker` in `text` that is followed by
/// `close`. An empty identifier (a placeholder like `--example <name>`)
/// is returned as is, so it fails to resolve.
fn names_after(text: &str, marker: &str, close: &str) -> Vec<String> {
    text.match_indices(marker)
        .filter_map(|(at, _)| {
            let rest = &text[at + marker.len()..];
            let len = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            rest[len..]
                .starts_with(close)
                .then(|| rest[..len].to_string())
        })
        .collect()
}
