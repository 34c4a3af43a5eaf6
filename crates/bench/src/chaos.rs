//! Deterministic chaos testing of the Table-1 rule programs.
//!
//! The differential oracle behind `tests/chaos_dst.rs` and `collopt
//! chaos`: run every rule's LHS and RHS program twice — once
//! clean, once under a seeded [`FaultPlan`] — and check that the fault
//! layer keeps its contract:
//!
//! * **Delay plans** (stragglers, slow links) may only stretch time.
//!   Results, message counts and compute totals must be *bit-identical*
//!   to the clean run, and the faulty makespan must stay inside the
//!   analytic envelope `clean ≤ faulty ≤ Fmax·clean + Amax·M` where
//!   `Fmax` is the largest inflation factor, `Amax` the largest additive
//!   link delay and `M` the total message count.
//! * **Lossy plans** (dropped messages recovered by retry) must also
//!   reproduce results bit-identically; the extra time is accounted for
//!   *exactly* by the machine's retry-time counter, so the envelope
//!   gains precisely `total_retry_time`.
//! * **Crash plans** must surface a clean [`MachineError::RankFailed`]
//!   naming the crashed rank — never a hang, never a panic — unless the
//!   crash ordinal lies beyond the program's event count, in which case
//!   the run completes bit-identically.
//!
//! Every run is repeated to pin determinism: same `(seed, plan)` → same
//! outcome to the bit. Violations come back as [`ChaosFailure`] records
//! whose `plan` field is the [`FaultPlan::describe`] spec string — paste
//! it into `collopt --faults` to reproduce.

use collopt_core::exec::{execute, execute_faulted, ExecConfig};
use collopt_core::rules::Rule;
use collopt_core::term::Program;
use collopt_core::value::Value;
use collopt_machine::{ClockParams, FaultInjector, FaultPlan, Json, MachineError, Rng};

use crate::{rule_lhs, rule_rhs, varied_input};

/// Which family of faults a generated plan draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// Stragglers and slow links only — time stretches, nothing is lost.
    Delay,
    /// Message drops recovered by the ack/retry protocol, on top of
    /// delays.
    Lossy,
    /// One rank killed at a pseudo-random event ordinal.
    Crash,
}

impl ChaosKind {
    /// All three families, in sweep order.
    pub const ALL: [ChaosKind; 3] = [ChaosKind::Delay, ChaosKind::Lossy, ChaosKind::Crash];

    /// Short label for reports and file names.
    pub fn label(&self) -> &'static str {
        match self {
            ChaosKind::Delay => "delay",
            ChaosKind::Lossy => "lossy",
            ChaosKind::Crash => "crash",
        }
    }
}

/// One violated invariant, carrying everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct ChaosFailure {
    /// Sweep seed the plan was generated from.
    pub seed: u64,
    /// `FaultPlan::describe()` spec — feed to `collopt --faults` or
    /// `FaultPlan::parse` to replay.
    pub plan: String,
    /// Rule whose program tripped the invariant.
    pub rule: String,
    /// `"LHS"` or `"RHS"`.
    pub side: &'static str,
    /// Machine size of the failing run.
    pub p: usize,
    /// What went wrong.
    pub what: String,
}

impl std::fmt::Display for ChaosFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed={} p={} {} {}: {} [plan: {}]",
            self.seed, self.p, self.rule, self.side, self.what, self.plan
        )
    }
}

/// Generate the deterministic fault plan for `(seed, p, kind)`.
///
/// The plan's own RNG seed is folded from the sweep seed so that drop
/// schedules differ between sweep points even when the structural
/// parameters coincide.
pub fn random_plan(seed: u64, p: usize, kind: ChaosKind) -> FaultPlan {
    let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ kind.label().len() as u64);
    let mut plan = FaultPlan::new(seed);

    // Every family gets some timing skew: 1–2 stragglers, 0–2 slow links.
    for _ in 0..rng.range_usize(1, 3) {
        let rank = rng.range_usize(0, p);
        let factor = 1.0 + (rng.below(6) + 1) as f64 * 0.5;
        plan = plan.with_straggler(rank, factor);
    }
    for _ in 0..rng.range_usize(0, 3) {
        let a = rng.range_usize(0, p);
        let b = (a + rng.range_usize(1, p)) % p;
        let factor = 1.0 + rng.below(4) as f64 * 0.5;
        let add = rng.below(5) as f64 * 50.0;
        plan = plan.with_slow_link(a, b, factor, add);
    }

    match kind {
        ChaosKind::Delay => plan,
        ChaosKind::Lossy => {
            // Keep the consecutive-drop cap strictly below max_attempts so
            // every message is eventually delivered — these plans must be
            // *recoverable* by construction.
            let prob = 0.05 + rng.unit_f64() * 0.25;
            let burst = 1 + rng.below(2) as u32;
            plan = plan.with_drops(prob, burst).with_retry(burst + 3, 150.0);
            if rng.chance(0.5) {
                let from = rng.range_usize(0, p);
                let to = (from + rng.range_usize(1, p)) % p;
                plan = plan.with_drop_exact(from, to, rng.below(3), 1 + rng.below(2) as u32);
            }
            plan
        }
        ChaosKind::Crash => plan.with_crash(rng.range_usize(0, p), rng.below(40)),
    }
}

/// Makespan slack for float comparison: the envelope arithmetic combines
/// sums the machine performs in a different order.
fn eps(bound: f64) -> f64 {
    bound.abs() * 1e-9 + 1e-6
}

/// Worst-case multiplicative factor and additive delay any single event
/// can suffer under `plan` on a `p`-rank machine. Probes the injector's
/// compounded per-rank compute factor and per-link linear map directly.
/// Depends only on `(plan, p)` — `sweep_seed` computes it once per
/// seed and shares it across the whole rule battery.
pub fn worst_inflation(plan: &FaultPlan, p: usize) -> (f64, f64) {
    let arc = std::sync::Arc::new(plan.clone());
    let mut fmax = 1.0f64;
    let mut amax = 0.0f64;
    for rank in 0..p {
        let inj = FaultInjector::new(arc.clone(), rank, p);
        fmax = fmax.max(inj.compute_factor());
        for to in 0..p {
            if to == rank {
                continue;
            }
            let add = inj.inflate_link(rank, to, 0.0);
            let factor = inj.inflate_link(rank, to, 1.0) - add;
            fmax = fmax.max(factor);
            amax = amax.max(add);
        }
    }
    (fmax, amax)
}

/// Check every invariant of one `(rule, side, seed, plan)` point; returns
/// all violations (empty = pass).
#[allow(clippy::too_many_arguments)]
pub fn check_point(
    rule: Rule,
    side: &'static str,
    prog: &Program,
    p: usize,
    inputs: &[Value],
    seed: u64,
    clock: ClockParams,
    plan: &FaultPlan,
    worst: (f64, f64),
    kind: ChaosKind,
) -> Vec<ChaosFailure> {
    let mut failures = Vec::new();
    let fail = |what: String| ChaosFailure {
        seed,
        plan: plan.describe(),
        rule: rule.to_string(),
        side,
        p,
        what,
    };

    let clean = execute(prog, inputs, clock);
    let faulty = execute_faulted(prog, inputs, clock, ExecConfig::default(), plan);
    // Determinism first: the exact same point must replay to the bit.
    // Only the *faulted* run is repeated — the clean executor exercises
    // the same machinery minus the injector, so rerunning it here bought
    // nothing and cost a third of the whole sweep.
    let again = execute_faulted(prog, inputs, clock, ExecConfig::default(), plan);
    match (&faulty, &again) {
        (Ok(a), Ok(b)) => {
            if a.outputs != b.outputs || a.makespan.to_bits() != b.makespan.to_bits() {
                failures.push(fail(format!(
                    "non-deterministic replay: makespan {} vs {}",
                    a.makespan, b.makespan
                )));
            }
        }
        (Err(a), Err(b)) => {
            if a != b {
                failures.push(fail(format!("non-deterministic failure: {a} vs {b}")));
            }
        }
        _ => failures.push(fail("replay flipped between Ok and Err".into())),
    }

    match faulty {
        Err(e) => {
            let crashed = plan.crash.as_ref().map(|c| c.rank);
            match (kind, crashed) {
                (ChaosKind::Crash, Some(rank)) => {
                    if e != (MachineError::RankFailed { rank }) {
                        failures.push(fail(format!(
                            "expected RankFailed for rank {rank}, got: {e}"
                        )));
                    }
                }
                _ => failures.push(fail(format!("recoverable plan failed the run: {e}"))),
            }
        }
        Ok(faulty) => {
            if faulty.outputs != clean.outputs {
                failures.push(fail("results differ from the fault-free run".into()));
            }
            if faulty.total_messages != clean.total_messages {
                failures.push(fail(format!(
                    "message count changed: {} -> {}",
                    clean.total_messages, faulty.total_messages
                )));
            }
            if faulty.total_compute != clean.total_compute {
                failures.push(fail(format!(
                    "compute total changed: {} -> {}",
                    clean.total_compute, faulty.total_compute
                )));
            }
            if !plan.is_lossy() && faulty.total_retries != 0 {
                failures.push(fail(format!(
                    "non-lossy plan produced {} retries",
                    faulty.total_retries
                )));
            }
            if faulty.total_retries == 0 && faulty.total_retry_time != 0.0 {
                failures.push(fail("retry time without retries".into()));
            }

            // Makespan envelope: delays stretch, never shrink…
            if faulty.makespan < clean.makespan - eps(clean.makespan) {
                failures.push(fail(format!(
                    "faulty makespan {} below clean {}",
                    faulty.makespan, clean.makespan
                )));
            }
            // …and by no more than the analytic worst case plus the
            // machine's exact retry-time accounting. Multiple plan entries
            // on the same rank/link *compound*, so probe the injector's
            // actual linear map `cost -> F·cost + A` per rank and link
            // rather than trusting per-entry maxima.
            let (fmax, amax) = worst;
            let bound = fmax * clean.makespan
                + amax * clean.total_messages as f64
                + faulty.total_retry_time;
            if faulty.makespan > bound + eps(bound) {
                failures.push(fail(format!(
                    "faulty makespan {} exceeds envelope {bound} \
                     (clean {}, Fmax {fmax}, retry time {})",
                    faulty.makespan, clean.makespan, faulty.total_retry_time
                )));
            }
        }
    }
    failures
}

/// Everything [`check_point`] needs for one seed's full rule battery:
/// the machine size and plan are derived deterministically from the seed
/// alone, so seeds partition cleanly across sweep workers.
fn sweep_seed(kind: ChaosKind, seed: u64, pmax: usize, m: usize) -> Vec<ChaosFailure> {
    let clock = ClockParams::new(100.0, 2.0);
    let mut rng = Rng::new(seed);
    let p = rng.range_usize(2, pmax + 1);
    let plan = random_plan(seed, p, kind);
    let worst = worst_inflation(&plan, p);
    let inputs = varied_input(p, m, seed);
    let mut failures = Vec::new();
    for rule in Rule::ALL {
        for (side, prog) in [("LHS", rule_lhs(rule)), ("RHS", rule_rhs(rule))] {
            failures.extend(check_point(
                rule, side, &prog, p, &inputs, seed, clock, &plan, worst, kind,
            ));
        }
    }
    failures
}

/// Sweep one fault family over `seeds` seeds: for each seed, a machine
/// size `p ∈ 2..=pmax` and plan are derived deterministically, then every
/// Table-1 rule's LHS *and* RHS run through [`check_point`]. Serial; see
/// [`sweep_parallel`] for the multi-core driver (identical output).
pub fn sweep(
    kind: ChaosKind,
    seeds: std::ops::Range<u64>,
    pmax: usize,
    m: usize,
) -> Vec<ChaosFailure> {
    let mut failures = Vec::new();
    for seed in seeds {
        failures.extend(sweep_seed(kind, seed, pmax, m));
    }
    failures
}

/// [`sweep`] fanned out across host cores by the run-level sweep driver:
/// each seed is one independent work item, results are collected in seed
/// order, and every simulation is internally deterministic — so the
/// returned failure list is byte-identical to the serial sweep's.
pub fn sweep_parallel(
    kind: ChaosKind,
    seeds: std::ops::Range<u64>,
    pmax: usize,
    m: usize,
) -> Vec<ChaosFailure> {
    crate::sweep_driver::par_map(seeds.collect(), |seed| sweep_seed(kind, seed, pmax, m))
        .into_iter()
        .flatten()
        .collect()
}

/// The violations of a sweep as a JSON list, one reproducing
/// `(seed, plan)` record per line — what `collopt chaos --out` writes.
pub fn failures_json(failures: &[(ChaosKind, ChaosFailure)]) -> String {
    let quoted = |s: &str| Json::Str(s.to_string()).render();
    let entries: Vec<String> = failures
        .iter()
        .map(|(kind, f)| {
            format!(
                "  {{\"kind\": {}, \"seed\": {}, \"p\": {}, \"rule\": {}, \"side\": {}, \
                 \"plan\": {}, \"what\": {}}}",
                quoted(kind.label()),
                f.seed,
                f.p,
                quoted(&f.rule),
                quoted(f.side),
                quoted(&f.plan),
                quoted(&f.what),
            )
        })
        .collect();
    format!("[\n{}\n]\n", entries.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_are_deterministic_and_in_range() {
        for seed in 0..32 {
            for kind in ChaosKind::ALL {
                let p = 2 + (seed as usize % 8);
                let a = random_plan(seed, p, kind);
                let b = random_plan(seed, p, kind);
                assert_eq!(a.describe(), b.describe(), "seed {seed} {kind:?}");
                for s in &a.compute {
                    assert!(s.rank < p && s.factor >= 1.0);
                }
                for l in &a.links {
                    assert!(l.a < p && l.b < p && l.a != l.b, "{}", a.describe());
                }
                match kind {
                    ChaosKind::Delay => assert!(!a.is_lossy() && a.crash.is_none()),
                    ChaosKind::Lossy => {
                        assert!(a.is_lossy() && a.crash.is_none());
                        // Recoverable by construction: bursts stay below
                        // the retry budget.
                        let dp = a.drop.as_ref().unwrap();
                        assert!(dp.max_consecutive < a.retry.max_attempts);
                    }
                    ChaosKind::Crash => assert!(a.crash.as_ref().unwrap().rank < p),
                }
            }
        }
    }

    #[test]
    fn plans_round_trip_through_their_spec() {
        for seed in [0, 7, 41, 999] {
            for kind in ChaosKind::ALL {
                let plan = random_plan(seed, 6, kind);
                let parsed = FaultPlan::parse(&plan.describe()).expect("spec parses");
                assert_eq!(parsed.describe(), plan.describe());
            }
        }
    }

    #[test]
    fn parallel_sweep_matches_serial_sweep() {
        for kind in ChaosKind::ALL {
            let serial = sweep(kind, 0..3, 5, 4);
            let parallel = sweep_parallel(kind, 0..3, 5, 4);
            assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(parallel.iter()) {
                assert_eq!(a.to_string(), b.to_string());
            }
        }
    }

    #[test]
    fn tiny_sweep_is_clean() {
        for kind in ChaosKind::ALL {
            let failures = sweep(kind, 0..4, 5, 4);
            assert!(
                failures.is_empty(),
                "{}",
                failures
                    .iter()
                    .map(|f| f.to_string())
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
    }

    #[test]
    fn failures_json_escapes_and_parses() {
        let failure = ChaosFailure {
            seed: 7,
            plan: "seed=7,straggler=1x2".to_string(),
            rule: "SR-Reduction".to_string(),
            side: "RHS",
            p: 5,
            what: "expected \"RankFailed\"".to_string(),
        };
        let doc = Json::parse(&failures_json(&[(ChaosKind::Crash, failure)])).expect("parses");
        let [entry] = doc.as_array().expect("a list") else {
            panic!("one failure in, one entry out")
        };
        assert_eq!(entry.get("kind").and_then(Json::as_str), Some("crash"));
        assert_eq!(entry.get("seed").and_then(Json::as_f64), Some(7.0));
        assert_eq!(
            entry.get("what").and_then(Json::as_str),
            Some("expected \"RankFailed\"")
        );
    }
}
