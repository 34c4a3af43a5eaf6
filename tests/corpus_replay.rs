//! Pinned-regression replay: every `.case` file in `tests/corpus/` is a
//! self-contained fuzz case (spec string + seed) that once failed — or
//! was hand-written to pin an interesting boundary — and must replay
//! green against all three differential oracles forever.
//!
//! `collopt fuzz --pin tests/corpus` (the nightly campaign) writes shrunk
//! failures here; a case can also be replayed by hand with
//! `collopt fuzz --replay "<spec>"`.

use std::path::Path;

use collopt::fuzz::{load_corpus, run_case, CoverageLedger};

fn corpus_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus"))
}

#[test]
fn every_corpus_case_replays_green() {
    let cases = load_corpus(corpus_dir()).expect("corpus directory loads");
    assert!(
        cases.len() >= 5,
        "corpus lost its seeded regressions: only {} cases",
        cases.len()
    );
    for entry in &cases {
        let mut ledger = CoverageLedger::new();
        let failures = run_case(&entry.case, &mut ledger);
        assert!(
            failures.is_empty(),
            "{} no longer replays green: {}",
            entry.path.display(),
            failures[0]
        );
    }
}

#[test]
fn corpus_specs_are_canonical() {
    // Each pinned spec must round-trip through render(), so a future
    // grammar change that silently reinterprets old specs fails loudly
    // here rather than quietly replaying a different case.
    for entry in load_corpus(corpus_dir()).expect("corpus directory loads") {
        let rendered = entry.case.render();
        let reparsed = collopt::fuzz::CaseSpec::parse(&rendered).expect("rendered spec reparses");
        assert_eq!(
            entry.case,
            reparsed,
            "{}: spec does not round-trip",
            entry.path.display()
        );
    }
}
