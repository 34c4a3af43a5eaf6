//! Campaign coverage accounting.
//!
//! A [`CoverageLedger`] records which Table-1 rules fired, which stage
//! kinds executed, which fault kinds were injected, and which domains ran
//! during a campaign. The campaign driver fails the run when
//! any of the 11 rules never fired — a fuzzer that silently stops
//! exercising a rewrite is worse than no fuzzer, because it keeps
//! reporting green.

use std::collections::BTreeMap;

use collopt_core::rules::Rule;

/// Per-campaign exercise counters. All maps are `BTreeMap` so summaries
/// and JSON renderings are deterministic.
#[derive(Debug, Clone, Default)]
pub struct CoverageLedger {
    /// Cases generated.
    pub cases: u64,
    /// Cases with honest declarations.
    pub honest: u64,
    /// Cases planting at least one over-claim (a lying declaration).
    pub over_claim_cases: u64,
    /// Cases planting an under-claim (a withheld true law).
    pub under_claim_cases: u64,
    /// Planted over-claim cases where all defense layers caught the lie.
    pub lies_caught: u64,
    /// Cases short enough (≤ 6 stages) for the saturation-vs-brute-force
    /// optimality oracle to run.
    pub saturation_cases: u64,
    /// Static schedule verifications run (shipped + planted lowerings,
    /// over every case's `(p, m)` point).
    pub static_checks: u64,
    /// Planted-bug lowerings the static verifier rejected with the
    /// expected lint code.
    pub static_rejects: u64,
    /// Rewrite-rule applications observed, by rule name. Initialized with
    /// every Table-1 rule at zero so absences are visible.
    pub rules: BTreeMap<&'static str, u64>,
    /// Stage kinds executed (e.g. `scan`, `comcast`, `reduce_balanced`).
    pub stages: BTreeMap<String, u64>,
    /// Fault kinds injected: `none`, `delay`, `lossy`, `crash`.
    pub faults: BTreeMap<&'static str, u64>,
    /// Value domains exercised.
    pub domains: BTreeMap<&'static str, u64>,
}

impl CoverageLedger {
    /// A ledger with every rule counter present (at zero).
    pub fn new() -> CoverageLedger {
        let mut ledger = CoverageLedger::default();
        for rule in Rule::ALL {
            ledger.rules.insert(rule.name(), 0);
        }
        ledger
    }

    /// Record one rule application.
    pub fn record_rule(&mut self, rule: Rule) {
        *self.rules.entry(rule.name()).or_insert(0) += 1;
    }

    /// Record one executed stage kind.
    pub fn record_stage(&mut self, kind: String) {
        *self.stages.entry(kind).or_insert(0) += 1;
    }

    /// Fold another ledger into this one (order-independent).
    pub fn merge(&mut self, other: &CoverageLedger) {
        self.cases += other.cases;
        self.honest += other.honest;
        self.over_claim_cases += other.over_claim_cases;
        self.under_claim_cases += other.under_claim_cases;
        self.lies_caught += other.lies_caught;
        self.saturation_cases += other.saturation_cases;
        self.static_checks += other.static_checks;
        self.static_rejects += other.static_rejects;
        for (k, v) in &other.rules {
            *self.rules.entry(k).or_insert(0) += v;
        }
        for (k, v) in &other.stages {
            *self.stages.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.faults {
            *self.faults.entry(k).or_insert(0) += v;
        }
        for (k, v) in &other.domains {
            *self.domains.entry(k).or_insert(0) += v;
        }
    }

    /// Table-1 rules that never fired during the campaign.
    pub fn missing_rules(&self) -> Vec<&'static str> {
        Rule::ALL
            .into_iter()
            .map(|r| r.name())
            .filter(|name| self.rules.get(name).copied().unwrap_or(0) == 0)
            .collect()
    }

    /// Number of distinct rules that fired at least once.
    pub fn rules_fired(&self) -> usize {
        self.rules.values().filter(|&&v| v > 0).count()
    }

    /// Render as a JSON object (hand-rolled; the workspace is
    /// dependency-free).
    pub fn to_json(&self) -> String {
        fn map_json<K: std::fmt::Display>(m: &BTreeMap<K, u64>) -> String {
            let fields: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            format!("{{{}}}", fields.join(", "))
        }
        format!(
            concat!(
                "{{\n",
                "  \"cases\": {},\n",
                "  \"honest\": {},\n",
                "  \"over_claim_cases\": {},\n",
                "  \"under_claim_cases\": {},\n",
                "  \"lies_caught\": {},\n",
                "  \"saturation_cases\": {},\n",
                "  \"static_checks\": {},\n",
                "  \"static_rejects\": {},\n",
                "  \"rules_fired\": {},\n",
                "  \"rules\": {},\n",
                "  \"stages\": {},\n",
                "  \"faults\": {},\n",
                "  \"domains\": {}\n",
                "}}"
            ),
            self.cases,
            self.honest,
            self.over_claim_cases,
            self.under_claim_cases,
            self.lies_caught,
            self.saturation_cases,
            self.static_checks,
            self.static_rejects,
            self.rules_fired(),
            map_json(&self.rules),
            map_json(&self.stages),
            map_json(&self.faults),
            map_json(&self.domains),
        )
    }

    /// Multi-line human summary for the bin and the CLI.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "cases={} honest={} over_claims={} under_claims={} lies_caught={} saturation_checked={} static_checks={} static_rejects={}\n",
            self.cases,
            self.honest,
            self.over_claim_cases,
            self.under_claim_cases,
            self.lies_caught,
            self.saturation_cases,
            self.static_checks,
            self.static_rejects
        ));
        out.push_str(&format!("rules fired: {}/11", self.rules_fired()));
        for (name, count) in &self.rules {
            out.push_str(&format!("\n  {name:<14} {count}"));
        }
        let line = |label: &str, m: &BTreeMap<&'static str, u64>| {
            let parts: Vec<String> = m.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("\n{label}: {}", parts.join(" "))
        };
        out.push_str(&line("faults", &self.faults));
        out.push_str(&line("domains", &self.domains));
        out.push_str(&format!("\nstage kinds: {}", self.stages.len()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_ledger_reports_all_rules_missing() {
        let ledger = CoverageLedger::new();
        assert_eq!(ledger.missing_rules().len(), 11);
        assert_eq!(ledger.rules_fired(), 0);
    }

    #[test]
    fn merge_accumulates_and_clears_missing() {
        let mut total = CoverageLedger::new();
        for rule in Rule::ALL {
            let mut part = CoverageLedger::new();
            part.cases = 1;
            part.record_rule(rule);
            total.merge(&part);
        }
        assert_eq!(total.cases, 11);
        assert!(total.missing_rules().is_empty());
        assert_eq!(total.rules_fired(), 11);
    }

    #[test]
    fn json_is_well_formed_enough_to_nest() {
        let ledger = CoverageLedger::new();
        let json = ledger.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"rules_fired\": 0"));
    }
}
