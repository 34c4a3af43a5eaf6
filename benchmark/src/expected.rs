//! The committed expectations: `expected/<workload>.txt`, one
//! `key<TAB>value` line per pinned fact (makespan bits, message totals,
//! optimal costs, verification totals, planted-bug codes).
//!
//! They were written once by `--write-expected` and are compared on every
//! run, so a change that moves a simulated statistic or an optimal cost
//! fails the benchmark even where the independent oracles agree with it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::workload::Fact;

pub struct Expected {
    path: PathBuf,
    entries: BTreeMap<String, String>,
    for_this_seed: bool,
    recording: bool,
}

impl Expected {
    /// Load `dir/<workload>.txt`. `for_this_seed` says whether facts that
    /// depend on the seed may be compared with it (the default seed only).
    pub fn load(
        dir: &Path,
        workload: &str,
        for_this_seed: bool,
        recording: bool,
    ) -> Result<Expected, String> {
        let path = dir.join(format!("{workload}.txt"));
        let mut entries = BTreeMap::new();
        if !recording {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            for line in text
                .lines()
                .filter(|l| !l.starts_with('#') && !l.is_empty())
            {
                let (key, value) = line
                    .split_once('\t')
                    .ok_or_else(|| format!("{}: no tab in '{line}'", path.display()))?;
                entries.insert(key.to_string(), value.to_string());
            }
        }
        Ok(Expected {
            path,
            entries,
            for_this_seed,
            recording,
        })
    }

    pub fn is_for_this_seed(&self) -> bool {
        self.for_this_seed
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    pub fn check(&self, fact: &Fact) -> Result<(), String> {
        match self.entries.get(&fact.key) {
            Some(value) if *value == fact.value => Ok(()),
            Some(value) => Err(format!(
                "{} is '{}', expected '{value}' ({})",
                fact.key,
                fact.value,
                self.path.display()
            )),
            None => Err(format!("{} is not in {}", fact.key, self.path.display())),
        }
    }

    /// An expectation no fact was held against would pass unseen.
    pub fn unchecked(&self, facts: usize) -> Option<String> {
        (facts != self.entries.len()).then(|| {
            format!(
                "{} pins {} facts, the run stated {facts}",
                self.path.display(),
                self.entries.len()
            )
        })
    }

    /// Write the facts of this run as the new expectations.
    pub fn record(&self, facts: &[Fact]) -> Result<(), String> {
        let mut text =
            "# Written by --write-expected, compared on every run; see ../README.md.\n".to_string();
        let mut lines: Vec<String> = facts
            .iter()
            .map(|fact| format!("{}\t{}\n", fact.key, fact.value))
            .collect();
        lines.sort();
        text.extend(lines);
        std::fs::write(&self.path, text)
            .map_err(|e| format!("cannot write {}: {e}", self.path.display()))
    }
}
