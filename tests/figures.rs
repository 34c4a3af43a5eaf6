//! Exact reproductions of the paper's worked figures.
//!
//! Every number asserted here is printed in the paper: Figure 2 (auxiliary
//! variables), Figure 4 (balanced reduction), Figure 5 (balanced scan) and
//! Figure 6 (broadcast + repeat comcast), all on the paper's own inputs
//! and processor counts.

use collopt::core::adjust::{pair, pi1, quadruple};
use collopt::core::rules::fused;
use collopt::core::semantics::eval_program;
use collopt::prelude::*;
use collopt_machine::topology::{BalancedStep, BalancedTree};

fn ints(vs: &[i64]) -> Vec<Value> {
    vs.iter().map(|&v| Value::Int(v)).collect()
}

fn tup(fs: &[i64]) -> Value {
    Value::Tuple(fs.iter().map(|&v| Value::Int(v)).collect())
}

/// Figure 2: `P1 = allreduce(+)` equals
/// `P2 = map pair ; allreduce(op_new) ; map π1` on input `[1,2,3,4]`,
/// where `op_new((a1,b1),(a2,b2)) = (a1+a2, b1·b2)`. The intermediate
/// reduction value is `(10, 24)` on every processor.
#[test]
fn figure2_auxiliary_variables() {
    let input = ints(&[1, 2, 3, 4]);

    let p1 = Program::new().allreduce(ops::add());
    let out1 = eval_program(&p1, &input);
    assert_eq!(out1, ints(&[10, 10, 10, 10]));

    let op_new = BinOp::new("op_new", |x, y| {
        Value::Tuple(vec![
            Value::Int(x.proj(0).as_int() + y.proj(0).as_int()),
            Value::Int(x.proj(1).as_int() * y.proj(1).as_int()),
        ])
    })
    .with_cost(2.0)
    .with_width(2.0);

    // Check the intermediate state the figure draws: after the allreduce
    // on pairs, every processor holds (10, 24).
    let upto_reduce = Program::new()
        .map("pair", 0.0, pair)
        .allreduce(op_new.clone());
    let mid = eval_program(&upto_reduce, &input);
    assert_eq!(mid, vec![tup(&[10, 24]); 4]);

    let p2 = Program::new()
        .map("pair", 0.0, pair)
        .allreduce(op_new)
        .map("pi1", 0.0, pi1);
    let out2 = eval_program(&p2, &input);
    assert_eq!(out1, out2, "P1 = P2 (Figure 2)");

    // And on the machine, for good measure.
    let m1 = execute(&p1, &input, ClockParams::free());
    let m2 = execute(&p2, &input, ClockParams::free());
    assert_eq!(m1.outputs, m2.outputs);
}

/// Figure 4: balanced reduction of `[2,5,9,1,2,6]` with `op_sr` (⊕ = +).
/// Asserts every intermediate pair the figure prints, and the final
/// `(86, 200)` at the root.
#[test]
fn figure4_balanced_reduction_full_trace() {
    let (combine, solo) = fused::op_sr(&ops::add());
    let tree = BalancedTree::new(6);
    let mut vals: Vec<Value> = [2i64, 5, 9, 1, 2, 6]
        .iter()
        .map(|&x| tup(&[x, x]))
        .collect();

    let levels = tree.schedule();
    // Level 1: (2,2)+(5,5) → (9,14), (9,9)+(1,1) → (19,20), (2,2)+(6,6) → (10,16).
    apply_level(&levels[0], &mut vals, &combine, &solo);
    assert_eq!(vals[0], tup(&[9, 14]));
    assert_eq!(vals[2], tup(&[19, 20]));
    assert_eq!(vals[4], tup(&[10, 16]));
    // Level 2: unary on proc 0 → (9,28); (19,20)+(10,16) → (49,72).
    apply_level(&levels[1], &mut vals, &combine, &solo);
    assert_eq!(vals[0], tup(&[9, 28]));
    assert_eq!(vals[2], tup(&[49, 72]));
    // Level 3 (root): (9,28)+(49,72) → (86,200).
    apply_level(&levels[2], &mut vals, &combine, &solo);
    assert_eq!(vals[0], tup(&[86, 200]));

    // 86 is indeed reduce(+) of scan(+) of the input.
    let check = eval_program(
        &Program::new().scan(ops::add()).reduce(ops::add()),
        &ints(&[2, 5, 9, 1, 2, 6]),
    );
    assert_eq!(check[0], Value::Int(86));
}

fn apply_level(
    level: &[BalancedStep],
    vals: &mut [Value],
    combine: &collopt::core::term::ValueFn2,
    solo: &collopt::core::term::ValueFn,
) {
    for step in level {
        match *step {
            BalancedStep::Combine {
                left_rep,
                right_rep,
                ..
            } => {
                vals[left_rep] = combine(&vals[left_rep], &vals[right_rep]);
            }
            BalancedStep::Unary { rep, .. } => {
                vals[rep] = solo(&vals[rep]);
            }
        }
    }
}

/// Figure 5: balanced scan of `[2,5,9,1,2,6]` with `op_ss` (⊕ = +),
/// run on the actual six-processor machine with per-phase tracing.
/// Asserts every defined quadruple the figure prints.
#[test]
fn figure5_balanced_scan_full_trace() {
    use collopt_collectives::balanced::{scan_balanced_traced_async, PairedOp};

    let inputs = std::sync::Arc::new(vec![2i64, 5, 9, 1, 2, 6]);
    let (combine, solo) = fused::op_ss(&ops::add());
    let machine = Machine::new(6, ClockParams::free()).with_tracing();
    let inp = inputs.clone();
    let run = machine.run(move |ctx| {
        let x = Value::Int(inp[ctx.rank()]);
        let cf = |a: &Value, b: &Value| combine(a, b);
        let sf = |v: &Value| solo(v);
        let op = PairedOp {
            combine: &cf,
            solo: &sf,
            ops_lower: 5.0,
            ops_upper: 8.0,
            ops_solo: 0.0,
            words_factor: 3,
        };
        drive(scan_balanced_traced_async(
            ctx,
            quadruple(&x),
            1,
            &op,
            Some(|q: &Value| q.to_string()),
        ))
    });

    // Final first components: [2, 9, 25, 42, 61, 86] — scan(scan(input)).
    let firsts: Vec<i64> = run.results.iter().map(|v| v.proj(0).as_int()).collect();
    assert_eq!(firsts, vec![2, 9, 25, 42, 61, 86]);

    let marks = run.trace.marks();
    // Phase 1 (column two of the figure).
    for want in [
        "phase1:(2,9,14,7)",
        "phase1:(9,9,14,14)",
        "phase1:(9,19,20,10)",
        "phase1:(19,19,20,20)",
        "phase1:(2,10,16,8)",
        "phase1:(10,10,16,16)",
    ] {
        assert!(marks.contains(&want), "missing {want}");
    }
    // Phase 2 (column three; processors 4 and 5 keep only their first
    // component — the paper prints (2,_,_,_) / (10,_,_,_), our solo keeps
    // the stale fields, which are provably never consumed).
    for want in [
        "phase2:(2,42,68,17)",
        "phase2:(9,42,68,34)",
        "phase2:(25,42,68,51)",
        "phase2:(42,42,68,68)",
    ] {
        assert!(marks.contains(&want), "missing {want}");
    }
    let p4_phase2: Vec<&&str> = marks
        .iter()
        .filter(|s| s.starts_with("phase2:(2,"))
        .collect();
    assert!(
        !p4_phase2.is_empty(),
        "processor 4 must keep s = 2 after phase 2"
    );
    // Phase 3 first components: 2, 9, 25, 42, 61, 86.
    for want in [
        "phase3:(2,",
        "phase3:(9,",
        "phase3:(25,",
        "phase3:(42,",
        "phase3:(61,",
        "phase3:(86,",
    ] {
        assert!(
            marks.iter().any(|s| s.starts_with(want)),
            "missing {want}..."
        );
    }
}

/// Figure 6: `bcast ; scan(+)` fused by BS-Comcast, on six processors with
/// b = 2 — result `[2,4,6,8,10,12]`, with the intermediate pairs of the
/// figure checked on three representative processors.
#[test]
fn figure6_comcast_program_level() {
    let prog = Program::new().bcast().scan(ops::add());
    let opt = Rewriter::exhaustive().optimize(&prog);
    assert_eq!(opt.steps.len(), 1);
    assert_eq!(opt.steps[0].rule.to_string(), "BS-Comcast");

    let mut input = ints(&[2, 0, 0, 0, 0, 0]);
    input[1] = Value::Int(99); // non-root values are don't-care
    let expected = ints(&[2, 4, 6, 8, 10, 12]);
    assert_eq!(eval_program(&prog, &input), expected);
    assert_eq!(eval_program(&opt.program, &input), expected);

    let run_orig = execute(&prog, &input, ClockParams::parsytec_like());
    let run_opt = execute(&opt.program, &input, ClockParams::parsytec_like());
    assert_eq!(run_orig.outputs, expected);
    assert_eq!(run_opt.outputs, expected);
    assert!(
        run_opt.makespan < run_orig.makespan,
        "BS-Comcast always improves (Table 1)"
    );

    // The figure's intermediate pairs via the pure repeat schema.
    let (e, o) = fused::bs_eo(&ops::add());
    let seed = pair(&Value::Int(2));
    let states = |k: usize| {
        let mut s = seed.clone();
        let mut trace = vec![s.to_string()];
        for j in 0..3 {
            s = if (k >> j) & 1 == 0 { e(&s) } else { o(&s) };
            trace.push(s.to_string());
        }
        trace
    };
    assert_eq!(states(0), vec!["(2,2)", "(2,4)", "(2,8)", "(2,16)"]);
    assert_eq!(states(3), vec!["(2,2)", "(4,4)", "(8,8)", "(8,16)"]);
    assert_eq!(states(5), vec!["(2,2)", "(4,4)", "(4,8)", "(12,16)"]);
}
