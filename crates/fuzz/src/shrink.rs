//! Greedy case minimization.
//!
//! [`shrink`] repeatedly proposes structurally smaller variants of a
//! failing [`CaseSpec`] — drop the fuse annotation, delete a stage, strip
//! the fault plan element by element, lower `p` and `m`, zero table cells,
//! drop orphaned tables — and keeps any
//! variant on which the caller's predicate still fails. Restarting from
//! the first candidate class after every acceptance makes the result a
//! local minimum: no single remaining simplification preserves the
//! failure.

use collopt_machine::FaultPlan;

use crate::gen::CaseSpec;

/// Hard cap on accepted shrink steps — a backstop against a pathological
/// predicate, far above what any real case needs.
const MAX_ACCEPTS: usize = 1000;

/// Minimize `case` while `still_fails` holds. The predicate receives
/// structurally *valid* candidates only (see [`CaseSpec::validate`]); the
/// input case is returned unchanged if nothing smaller still fails.
pub fn shrink(case: &CaseSpec, still_fails: &dyn Fn(&CaseSpec) -> bool) -> CaseSpec {
    let mut current = case.clone();
    let mut accepts = 0;
    'restart: while accepts < MAX_ACCEPTS {
        for candidate in candidates(&current) {
            if candidate.validate().is_ok() && still_fails(&candidate) {
                current = candidate;
                accepts += 1;
                continue 'restart;
            }
        }
        break;
    }
    current
}

/// All one-step simplifications of `case`, smallest-impact classes first.
fn candidates(case: &CaseSpec) -> Vec<CaseSpec> {
    let mut out = Vec::new();

    // 1. Drop the pre-applied fusion.
    if case.fuse.is_some() {
        let mut c = case.clone();
        c.fuse = None;
        out.push(c);
    }

    // 2. Remove each stage (dropping any table that loses its last
    //    reference, trailing-first so indices stay stable).
    for i in 0..case.stages.len() {
        let mut c = case.clone();
        c.stages.remove(i);
        c.fuse = None; // stage indices shifted; the fuse no longer applies
        drop_orphan_tables(&mut c);
        out.push(c);
    }

    // 3. Simplify the fault plan: all-at-once, then element-wise.
    if case.plan.is_some() {
        let mut c = case.clone();
        c.plan = None;
        out.push(c);
        out.extend(plan_reductions(case));
    }

    // 4. Shrink the machine and the block.
    if case.p > 2 {
        for p in [2, case.p - 1] {
            let mut c = case.clone();
            c.p = p;
            if let Some(plan) = &mut c.plan {
                clamp_plan(plan, p);
            }
            out.push(c);
            if case.p - 1 == 2 {
                break;
            }
        }
    }
    if case.m > 1 {
        for m in [1, case.m - 1] {
            let mut c = case.clone();
            c.m = m;
            out.push(c);
            if case.m - 1 == 1 {
                break;
            }
        }
    }

    // 5. Zero table cells one at a time (a table of zeros is the
    //    all-absorbing op — maximally boring).
    for (t, table) in case.tables.iter().enumerate() {
        for i in 0..16 {
            if table.cells[i] != 0 {
                let mut c = case.clone();
                c.tables[t].cells[i] = 0;
                out.push(c);
            }
        }
    }

    out
}

/// Remove trailing tables no stage references (leading tables cannot be
/// removed without renumbering every reference, so they stay).
fn drop_orphan_tables(case: &mut CaseSpec) {
    use crate::gen::{OpRef, StageSpec};
    loop {
        let last = case.tables.len().checked_sub(1);
        let Some(last) = last else { return };
        let referenced = case
            .stages
            .iter()
            .any(|s: &StageSpec| s.op_ref() == Some(&OpRef::Table(last)));
        if referenced {
            return;
        }
        case.tables.pop();
        for t in &mut case.tables {
            if t.declare_distributes_over == Some(last) {
                t.declare_distributes_over = None;
            }
        }
    }
}

/// Element-wise fault-plan reductions: drop one straggler, one slow link,
/// the drop model, one exact drop, the crash, in turn.
fn plan_reductions(case: &CaseSpec) -> Vec<CaseSpec> {
    let Some(plan) = &case.plan else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut with_plan = |edit: &dyn Fn(&mut FaultPlan)| {
        let mut c = case.clone();
        let p = c.plan.as_mut().expect("plan present");
        edit(p);
        if p.is_empty() {
            c.plan = None;
        }
        out.push(c);
    };
    for i in 0..plan.compute.len() {
        with_plan(&|p| {
            p.compute.remove(i);
        });
    }
    for i in 0..plan.links.len() {
        with_plan(&|p| {
            p.links.remove(i);
        });
    }
    if plan.drop.is_some() {
        with_plan(&|p| p.drop = None);
    }
    for i in 0..plan.drop_exact.len() {
        with_plan(&|p| {
            p.drop_exact.remove(i);
        });
    }
    if plan.crash.is_some() {
        with_plan(&|p| p.crash = None);
    }
    out
}

/// Drop plan elements that name ranks outside a shrunken machine.
fn clamp_plan(plan: &mut FaultPlan, p: usize) {
    plan.compute.retain(|s| s.rank < p);
    plan.links.retain(|l| l.a < p && l.b < p);
    plan.drop_exact.retain(|d| d.from < p && d.to < p);
    if plan.crash.as_ref().is_some_and(|c| c.rank >= p) {
        plan.crash = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_case, GenConfig};

    #[test]
    fn shrink_is_identity_when_nothing_smaller_fails() {
        let case = generate_case(3, &GenConfig::default());
        let out = shrink(&case, &|_| false);
        assert_eq!(out.render(), case.render());
    }

    #[test]
    fn shrink_reaches_a_small_case_under_a_permissive_predicate() {
        // Predicate: "fails whenever the pipeline still has a scan". The
        // shrinker must strip everything else down to minimal p/m/plan.
        let cfg = GenConfig::default();
        let case = generate_case(40, &cfg); // honest mode, some suffix
        let has_scan = |c: &CaseSpec| {
            c.stages
                .iter()
                .any(|s| matches!(s, crate::gen::StageSpec::Scan(_)))
        };
        if !has_scan(&case) {
            return;
        }
        let out = shrink(&case, &has_scan);
        assert!(has_scan(&out));
        assert_eq!(out.p, 2);
        assert_eq!(out.m, 1);
        assert!(out.plan.is_none());
        assert!(out.fuse.is_none());
        assert!(out.stages.len() <= case.stages.len());
        assert!(out.validate().is_ok());
    }

    #[test]
    fn shrunk_cases_always_stay_valid() {
        let cfg = GenConfig::default();
        for seed in 0..40 {
            let case = generate_case(seed, &cfg);
            // Worst-case predicate: accept every valid candidate ever
            // proposed; the result must still round-trip.
            let out = shrink(&case, &|c| c.validate().is_ok());
            assert!(out.validate().is_ok(), "seed {seed}");
            let spec = out.render();
            assert_eq!(
                CaseSpec::parse(&spec).expect("round-trip").render(),
                spec,
                "seed {seed}"
            );
        }
    }
}
