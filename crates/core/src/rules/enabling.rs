//! Enabling transformations (normalization).
//!
//! Section 2.1 of the paper observes that compositions of collective
//! operations "can also arise as a result of program transformations if,
//! e.g., some local and collective stages are interchanged, exploiting
//! their data independence." This module implements the two such
//! transformations that are unconditionally sound in the framework:
//!
//! * **map fusion** — `map f ; map g  =  map (f;g)`: adjacent local
//!   stages collapse into one (map is a functor);
//! * **broadcast/map commutation** — `bcast ; map f  =  map f ; bcast`
//!   for a *rank-oblivious* `f`: both sides leave `f x₁` on every
//!   processor. Moving the local stage to the left can bring a broadcast
//!   next to a following scan or reduction, unlocking the *-Comcast and
//!   *-Local rules. (`map#` does **not** commute: `bcast ; map# f` gives
//!   processor `i` the value `f i x₁`, whereas `map# f ; bcast` gives
//!   everyone `f 0 x₁`.)
//!
//! Neither transformation changes the program's cost under the model
//! (local stages charge the same wherever they sit), so the rewrite
//! engine applies them freely before hunting for fusible windows.

use std::sync::Arc;

use crate::term::{Program, Stage};

/// One applied normalization, for the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Normalization {
    /// `map f ; map g → map (f;g)` at the given stage index.
    MapFuse {
        /// Stage index of the first map.
        at: usize,
        /// Combined label.
        label: String,
    },
    /// `bcast ; map f → map f ; bcast` at the given stage index.
    BcastMapCommute {
        /// Stage index of the bcast.
        at: usize,
        /// The commuted map's label.
        label: String,
    },
    /// `gather ; scatter → (nothing)`: assembling the distributed list on
    /// processor 0 and immediately redistributing it is the identity.
    GatherScatterElim {
        /// Stage index of the gather.
        at: usize,
    },
}

/// Apply one normalization step in place if any applies (leftmost first).
fn step(stages: &mut Vec<Stage>) -> Option<Normalization> {
    for at in 0..stages.len().saturating_sub(1) {
        match (&stages[at], &stages[at + 1]) {
            (
                Stage::Map {
                    f: f1,
                    ops: o1,
                    label: l1,
                },
                Stage::Map {
                    f: f2,
                    ops: o2,
                    label: l2,
                },
            ) => {
                let label = format!("{l1};{l2}");
                let (f1, f2) = (f1.clone(), f2.clone());
                stages[at] = Stage::Map {
                    f: Arc::new(move |v| f2(&f1(v))),
                    ops: o1 + o2,
                    label: label.clone(),
                };
                stages.remove(at + 1);
                return Some(Normalization::MapFuse { at, label });
            }
            (Stage::Gather, Stage::Scatter) => {
                stages.drain(at..at + 2);
                return Some(Normalization::GatherScatterElim { at });
            }
            (Stage::Bcast, Stage::Map { label, .. }) => {
                let label = label.clone();
                stages.swap(at, at + 1);
                return Some(Normalization::BcastMapCommute { at, label });
            }
            _ => {}
        }
    }
    None
}

/// Normalize to fixpoint. Terminates: map fusion shrinks the program and
/// commutation strictly decreases the number of (bcast, map) inversions.
pub fn normalize(prog: &Program) -> (Program, Vec<Normalization>) {
    let mut stages = prog.stages().to_vec();
    let mut log = Vec::new();
    normalize_in_place(&mut stages, &mut log);
    (Program::from_stages(stages), log)
}

/// [`normalize`] on a stage sequence in place, appending each step to
/// `log` — the one normalizer, which the optimizer's plan read-off also
/// runs after each rule step.
pub fn normalize_in_place(stages: &mut Vec<Stage>, log: &mut Vec<Normalization>) {
    // Generous structural bound: each stage can fuse or commute at most
    // once per pass, and passes strictly reduce a bounded measure.
    let cap = stages.len() * (stages.len() + 1);
    for _ in 0..=cap {
        match step(stages) {
            Some(n) => log.push(n),
            None => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::lib;
    use crate::semantics::eval_program;
    use crate::value::Value;

    fn ints(vs: &[i64]) -> Vec<Value> {
        vs.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn adjacent_maps_fuse() {
        let prog = Program::new()
            .map("inc", 1.0, |v| Value::Int(v.as_int() + 1))
            .map("dbl", 1.0, |v| Value::Int(v.as_int() * 2));
        let (norm, log) = normalize(&prog);
        assert_eq!(norm.len(), 1);
        assert_eq!(
            log,
            vec![Normalization::MapFuse {
                at: 0,
                label: "inc;dbl".into()
            }]
        );
        let input = ints(&[3, 5]);
        assert_eq!(eval_program(&prog, &input), eval_program(&norm, &input));
        assert_eq!(eval_program(&norm, &input), ints(&[8, 12]));
    }

    #[test]
    fn map_chain_fuses_completely() {
        let mut prog = Program::new();
        for i in 0..5 {
            prog = prog.map(format!("m{i}"), 1.0, |v| Value::Int(v.as_int() + 1));
        }
        let (norm, log) = normalize(&prog);
        assert_eq!(norm.len(), 1);
        assert_eq!(log.len(), 4);
        assert_eq!(eval_program(&norm, &ints(&[0]))[0], Value::Int(5));
    }

    #[test]
    fn bcast_map_commutes_left() {
        let prog = Program::new()
            .bcast()
            .map("sq", 1.0, |v| Value::Int(v.as_int() * v.as_int()));
        let (norm, log) = normalize(&prog);
        assert_eq!(norm.to_string(), "map sq ; bcast");
        assert!(matches!(
            log[0],
            Normalization::BcastMapCommute { at: 0, .. }
        ));
        let input = ints(&[3, 7, 9]);
        assert_eq!(eval_program(&prog, &input), eval_program(&norm, &input));
        assert_eq!(eval_program(&norm, &input), ints(&[9, 9, 9]));
    }

    #[test]
    fn map_indexed_does_not_commute_with_bcast() {
        let prog = Program::new()
            .bcast()
            .map_indexed("addrank", 1.0, |i, v| Value::Int(v.as_int() + i as i64));
        let (norm, log) = normalize(&prog);
        assert!(log.is_empty());
        assert_eq!(norm.to_string(), prog.to_string());
    }

    #[test]
    fn normalization_exposes_a_bs_window() {
        // bcast ; map f ; scan — after commuting, bcast meets scan.
        let prog = Program::new()
            .bcast()
            .map("f", 1.0, |v| Value::Int(v.as_int() + 1))
            .scan(lib::add());
        let (norm, _) = normalize(&prog);
        assert_eq!(norm.to_string(), "map f ; bcast ; scan(add)");
        // And the window really is fusible now.
        assert!(
            crate::rules::try_match(crate::rules::Rule::BsComcast, &norm.stages()[1..]).is_some()
        );
        // Semantics preserved.
        let input = ints(&[4, 0, 0, 0, 0]);
        assert_eq!(eval_program(&prog, &input), eval_program(&norm, &input));
    }

    #[test]
    fn mixed_chain_normalizes_in_one_pass() {
        // bcast; map a; map b; scan → map a;b ; bcast ; scan.
        let prog = Program::new()
            .bcast()
            .map("a", 1.0, |v| Value::Int(v.as_int() + 1))
            .map("b", 1.0, |v| Value::Int(v.as_int() * 3))
            .scan(lib::add());
        let (norm, _) = normalize(&prog);
        assert_eq!(norm.to_string(), "map a;b ; bcast ; scan(add)");
        let input = ints(&[1, 9, 9]);
        assert_eq!(eval_program(&prog, &input), eval_program(&norm, &input));
    }

    #[test]
    fn gather_scatter_pair_is_eliminated() {
        let prog = Program::new()
            .scan(lib::add())
            .gather()
            .scatter()
            .reduce(lib::add());
        let (norm, log) = normalize(&prog);
        assert_eq!(norm.to_string(), "scan(add) ; reduce(add)");
        assert_eq!(log, vec![Normalization::GatherScatterElim { at: 1 }]);
        let input = ints(&[1, 2, 3]);
        assert_eq!(eval_program(&prog, &input), eval_program(&norm, &input));
    }

    #[test]
    fn scatter_gather_is_not_eliminated() {
        // scatter;gather is only an identity on processor 0's list view;
        // the distributed positions differ, so it must stay.
        let prog = Program::new().scatter().gather();
        let (norm, log) = normalize(&prog);
        assert!(log.is_empty());
        assert_eq!(norm.len(), 2);
    }

    #[test]
    fn collective_only_programs_are_untouched() {
        let prog = Program::new().scan(lib::add()).reduce(lib::add()).bcast();
        let (norm, log) = normalize(&prog);
        assert!(log.is_empty());
        assert_eq!(norm.to_string(), prog.to_string());
    }
}
