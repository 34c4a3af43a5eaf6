//! The paper's evaluation, reproduced: every committed file under
//! `results/` (the fuzz verdict aside) is the output of one function
//! here, listed in one table, [`ARTIFACTS`].
//!
//! All of it is deterministic — analytic tables, value traces and
//! simulated (virtual-time) makespans — so each function's bytes equal the
//! committed file's, which `tests/repro_snapshot.rs` and `collopt repro
//! --check` hold. `collopt repro <name>` prints one artifact, `collopt
//! repro --all` rewrites `results/`. Each function also asserts the claim
//! it reproduces (0 Table-1 disagreements, the Figure 7/8 orderings and the
//! `m = ts` crossover, critical path == makespan, …), so a run that
//! returns is a run that agreed with the paper.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

use collopt_collectives::{
    allreduce_auto, allreduce_model_cost, choose_allreduce, AllreduceChoice, Combine,
};
use collopt_core::adjust::{pair, quadruple};
use collopt_core::exec::{execute, execute_traced, execute_traced_with, ExecConfig};
use collopt_core::op::lib as ops;
use collopt_core::rewrite::Rewriter;
use collopt_core::rules::fused;
use collopt_core::term::Program;
use collopt_core::value::Value;
use collopt_cost::sweep::{allreduce_crossover_m, recommend, render_crossovers};
use collopt_cost::table1::render_table1;
use collopt_cost::{MachineParams, Rule};
use collopt_machine::topology::{butterfly_partner, BalancedStep, BalancedTree};
use collopt_machine::{chrome_trace_json, ClockParams, Machine, Trace};

use crate::sweep_driver::par_map;
use crate::{
    block_input, check_comcast_agreement, figure_clock, rule_lhs, rule_rhs, run_comcast,
    ComcastImpl,
};

/// What an artifact produces: `(file name under results/, its bytes)`.
pub type Files = Vec<(String, String)>;

/// One reproducible artifact of the paper's evaluation.
pub struct Artifact {
    /// The name `collopt repro <name>` takes.
    pub name: &'static str,
    /// Produces the `results/` file(s) this artifact owns.
    pub produce: fn() -> Files,
}

/// Every artifact, in the order EXPERIMENTS.md discusses them. A new
/// measurement is one function and one row here.
pub const ARTIFACTS: &[Artifact] = &[
    Artifact {
        name: "table1",
        produce: table1,
    },
    Artifact {
        name: "fig7",
        produce: fig7,
    },
    Artifact {
        name: "fig8",
        produce: fig8,
    },
    Artifact {
        name: "figures",
        produce: figures,
    },
    Artifact {
        name: "crossovers",
        produce: crossovers,
    },
    Artifact {
        name: "timeline",
        produce: timeline,
    },
    Artifact {
        name: "rules",
        produce: rules,
    },
    Artifact {
        name: "allreduce",
        produce: allreduce,
    },
    Artifact {
        name: "profile",
        produce: profile,
    },
];

/// Rewrite every artifact's file(s) under `dir`.
pub fn write_all(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for artifact in ARTIFACTS {
        for (file, bytes) in (artifact.produce)() {
            std::fs::write(dir.join(file), bytes)?;
        }
    }
    Ok(())
}

/// Compare `dir` with what the table produces. Returns one line per
/// problem, naming the file: its bytes drifted, it is missing, two
/// artifacts own it, or it sits in `dir` owned by none (`BENCH_fuzz.json`,
/// the campaign verdict `collopt fuzz --out` writes, is the one exception).
pub fn check(dir: &Path) -> Vec<String> {
    let mut problems = Vec::new();
    let mut owned = BTreeSet::new();
    // Two of the nine (Figures 7 and 8) are most of the work: overlap them.
    let produced = par_map(ARTIFACTS.iter().collect(), |a| (a, (a.produce)()));
    for (artifact, files) in produced {
        for (file, bytes) in files {
            match std::fs::read_to_string(dir.join(&file)) {
                Ok(committed) if committed == bytes => {}
                Ok(_) => problems.push(format!("{file}: drifted from `repro {}`", artifact.name)),
                Err(e) => problems.push(format!("{file}: {e}")),
            }
            if !owned.insert(file.clone()) {
                problems.push(format!("{file}: produced by two artifacts"));
            }
        }
    }
    // A directory that cannot be listed was reported file by file above.
    let listed: BTreeSet<String> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .collect();
    for name in listed.difference(&owned) {
        if name != "BENCH_fuzz.json" {
            problems.push(format!("{name}: no artifact owns it"));
        }
    }
    problems
}

fn one(file: &str, bytes: String) -> Files {
    vec![(file.to_string(), bytes)]
}

/// The analytic table as the paper lays it out, then for every rule and a
/// grid of `(ts, tw, m)` points the simulated makespan of both sides and
/// whether the measured improvement agrees with the printed condition.
fn table1() -> Files {
    let mut w = String::new();
    w += "== Table 1: performance estimates of optimization rules (analytic) ==\n\n";
    w += &render_table1();

    w += "\n== Empirical validation on the simulated machine (p = 8) ==\n\n";
    w += &format!(
        "{:<14} {:>5} {:>4} {:>6} {:>12} {:>12} {:>9} {:>10} {:>6}\n",
        "rule", "ts", "tw", "m", "T_before", "T_after", "saving%", "predicted", "agree"
    );
    let p = 8usize;
    let grid = [
        (200.0, 2.0, 1usize),
        (200.0, 2.0, 32),
        (200.0, 2.0, 1024),
        (20.0, 1.0, 8),
        (20.0, 1.0, 256),
        (4.0, 0.5, 64),
    ];
    let mut disagreements = 0;
    for rule in Rule::ALL {
        for &(ts, tw, m) in &grid {
            let clock = ClockParams::new(ts, tw);
            let input = block_input(p, m);
            let before = execute(&rule_lhs(rule), &input, clock).makespan;
            let after = execute(&rule_rhs(rule), &input, clock).makespan;
            let params = MachineParams::new(p, ts, tw);
            let predicted = rule.estimate().improves(&params, m as f64);
            let agree = predicted == (after < before);
            if !agree {
                disagreements += 1;
            }
            w += &format!(
                "{:<14} {:>5} {:>4} {:>6} {:>12.0} {:>12.0} {:>8.1}% {:>10} {:>6}\n",
                rule.name(),
                ts,
                tw,
                m,
                before,
                after,
                100.0 * (before - after) / before,
                if predicted { "improves" } else { "worse" },
                if agree { "yes" } else { "NO" }
            );
        }
    }
    w += &format!("\ndisagreements between measurement and Table-1 prediction: {disagreements}\n");
    assert_eq!(
        disagreements, 0,
        "the simulated machine must match the calculus"
    );
    one("table1.txt", w)
}

/// One row of a Figure 7/8 series: the simulated time of the three
/// implementations in the paper's legend order.
fn comcast_row(p: usize, m: usize) -> [f64; 3] {
    ComcastImpl::ALL.map(|which| run_comcast(which, p, m, figure_clock()).1)
}

/// Run time of the three `bcast;scan` implementations versus processor
/// count at block size 32·10³. The paper measured MPICH on a 64-processor
/// Parsytec; absolute values differ, the *shape* — `comcast` worst,
/// `bcast;scan` middle, `bcast;repeat` best — is the claim reproduced.
fn fig7() -> Files {
    let m = 32_000usize;
    check_comcast_agreement(8, 64);

    let mut w = String::new();
    w += &format!("# Figure 7: run time vs number of processors (block size {m})\n");
    w += "# simulated time units, parsytec-like preset (ts=200, tw=2)\n";
    w += &format!(
        "{:<6} {:>14} {:>14} {:>14}\n",
        "p", "bcast;scan", "comcast", "bcast;repeat"
    );
    for p in [2usize, 4, 8, 16, 24, 32, 48, 64] {
        let row = comcast_row(p, m);
        w += &format!(
            "{:<6} {:>14.0} {:>14.0} {:>14.0}\n",
            p, row[0], row[1], row[2]
        );
        assert!(
            row[2] < row[0],
            "bcast;repeat must beat bcast;scan at p={p}"
        );
        assert!(
            row[0] < row[1],
            "bcast;scan must beat cost-optimal comcast at p={p}"
        );
    }
    w += "# ordering check passed: comcast > bcast;scan > bcast;repeat for all p\n";
    one("fig7.tsv", w)
}

/// The same three implementations versus block size on 64 processors: all
/// curves grow with the block, `bcast;repeat` stays lowest, and the
/// cost-optimal `comcast` crosses `bcast;scan` at `m = ts`.
fn fig8() -> Files {
    let p = 64usize;
    check_comcast_agreement(p, 16);

    let mut w = String::new();
    w += &format!("# Figure 8: run time vs block size on {p} processors\n");
    w += "# simulated time units, parsytec-like preset (ts=200, tw=2)\n";
    w += &format!(
        "{:<8} {:>14} {:>14} {:>14}\n",
        "m", "bcast;scan", "comcast", "bcast;repeat"
    );
    let mut prev: Option<[f64; 3]> = None;
    for m in [1usize, 1000, 4000, 8000, 16_000, 24_000, 32_000] {
        let row = comcast_row(p, m);
        w += &format!(
            "{:<8} {:>14.0} {:>14.0} {:>14.0}\n",
            m, row[0], row[1], row[2]
        );
        assert!(
            row[2] < row[0] && row[2] < row[1],
            "bcast;repeat lowest at m={m}"
        );
        // Per phase comcast costs 2ts + 6m against ts + 7m for bcast;scan:
        // its auxiliary tuple loses once m > ts (= 200 in this preset);
        // below that the extra start-up of bcast;scan dominates instead.
        if m > 200 {
            assert!(
                row[0] < row[1],
                "comcast worst above the m = ts crossover (m={m})"
            );
        } else {
            assert!(
                row[1] < row[0],
                "comcast saves a start-up below the crossover (m={m})"
            );
        }
        if let Some(prev) = prev {
            for (a, b) in prev.iter().zip(&row) {
                assert!(b > a, "all curves grow with block size");
            }
        }
        prev = Some(row);
    }
    w += "# checks passed: bcast;repeat lowest everywhere;\n";
    w += "# comcast/bcast;scan cross at m = ts = 200 as the cost model predicts\n";
    one("fig8.tsv", w)
}

fn tuples(vals: &[Value]) -> String {
    vals.iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

/// The step-by-step value tables of Figures 2, 4, 5 and 6, computed by the
/// fused operators the rules install; the paper's end values are asserted.
fn figures() -> Files {
    let mut w = String::new();
    let input = [2i64, 5, 9, 1, 2, 6];
    w += &format!("input distributed list: {input:?}\n\n");

    w += "== Figure 2: P1 = P2 on [1,2,3,4] ==\n";
    let xs = [1i64, 2, 3, 4];
    let sum: i64 = xs.iter().sum();
    let prod: i64 = xs.iter().product();
    w += &format!("P1 = allreduce(+)                 -> [{sum}, {sum}, {sum}, {sum}]\n");
    w += "P2 = map pair; allreduce(op_new); map pi1\n";
    w += &format!("     after allreduce(op_new)      -> ({sum},{prod}) everywhere\n");
    w += &format!("     after map pi1                -> [{sum}, {sum}, {sum}, {sum}]\n\n");

    w += "== Figure 4: balanced reduction with op_sr (⊕ = +) ==\n";
    let (combine, solo) = fused::op_sr(&ops::add());
    let tree = BalancedTree::new(6);
    let mut vals: Vec<Value> = input.iter().map(|&x| pair(&Value::Int(x))).collect();
    w += &format!("leaves : {}\n", tuples(&vals));
    for (i, level) in tree.schedule().iter().enumerate() {
        for step in level {
            match *step {
                BalancedStep::Combine {
                    left_rep,
                    right_rep,
                    ..
                } => {
                    vals[left_rep] = combine(&vals[left_rep], &vals[right_rep]);
                }
                BalancedStep::Unary { rep, .. } => vals[rep] = solo(&vals[rep]),
            }
        }
        w += &format!("level {}: {}\n", i + 1, tuples(&vals));
    }
    w += &format!("root value: {}  (paper: (86,200))\n\n", vals[0]);
    assert_eq!(vals[0].to_string(), "(86,200)");

    w += "== Figure 5: balanced scan with op_ss (⊕ = +) ==\n";
    let (combine, solo) = fused::op_ss(&ops::add());
    let mut vals: Vec<Value> = input.iter().map(|&x| quadruple(&Value::Int(x))).collect();
    w += &format!("phase 0: {}\n", tuples(&vals));
    let p = vals.len();
    for round in 0..3u32 {
        let mut next = vals.clone();
        for r in 0..p {
            match butterfly_partner(r, round, p) {
                Some(partner) if r < partner => {
                    let (lo, hi) = combine(&vals[r], &vals[partner]);
                    next[r] = lo;
                    next[partner] = hi;
                }
                Some(_) => {}
                None => next[r] = solo(&vals[r]),
            }
        }
        vals = next;
        w += &format!("phase {}: {}\n", round + 1, tuples(&vals));
    }
    let firsts: Vec<i64> = vals.iter().map(|v| v.proj(0).as_int()).collect();
    w += &format!("first components: {firsts:?}  (paper: [2, 9, 25, 42, 61, 86])\n\n");
    assert_eq!(firsts, vec![2, 9, 25, 42, 61, 86]);

    w += "== Figure 6: bcast; repeat(e,o) with ⊕ = +, b = 2 ==\n";
    let (e, o) = fused::bs_eo(&ops::add());
    let b = Value::Int(2);
    for k in 0..6usize {
        let mut s = pair(&b);
        let mut row = vec![s.to_string()];
        for j in 0..3 {
            s = if (k >> j) & 1 == 0 { e(&s) } else { o(&s) };
            row.push(s.to_string());
        }
        w += &format!("proc {k}: {}  -> result {}\n", row.join(" "), s.proj(0));
    }
    w += "(paper: results [2, 4, 6, 8, 10, 12])\n";
    one("figures_2_4_5_6.txt", w)
}

/// Crossover tables and a recommendation report for representative
/// machines — the quantitative version of the paper's Section 4
/// discussion of when each rule pays off.
fn crossovers() -> Files {
    let mut w = String::new();
    for (name, ts, tw) in [
        ("parsytec-like (latency-bound)", 200.0, 2.0),
        ("low-latency (shared-memory-like)", 4.0, 0.5),
        ("high-bandwidth-cost (serial link)", 50.0, 10.0),
    ] {
        w += &format!("== {name} ==\n");
        w += &render_crossovers(ts, tw);
        w.push('\n');
    }

    w += "== recommendation report: parsytec-like, p = 64, m = 32 ==\n";
    let params = MachineParams::parsytec_like(64);
    w += &format!(
        "{:<14} {:>9} {:>12} {:>9}\n",
        "rule", "improves", "saving", "fraction"
    );
    for rec in recommend(&params, 32.0) {
        w += &format!(
            "{:<14} {:>9} {:>12.0} {:>8.1}%\n",
            rec.rule.name(),
            if rec.improves { "yes" } else { "no" },
            rec.saving,
            100.0 * rec.saving_fraction
        );
    }
    one("crossovers.txt", w)
}

/// The paper's running Example program (map; scan(×); reduce(+); map;
/// bcast) on scalar blocks.
fn example_program() -> Program {
    Program::new()
        .map("f", 1.0, |v| Value::Int(v.as_int() + 1))
        .scan(ops::mul())
        .reduce(ops::add())
        .map("g", 1.0, |v| Value::Int(v.as_int() * 2))
        .bcast()
}

/// The Figure 1 / Figure 3 run-time diagrams: the per-processor activity
/// of the Example program before and after rule SR2-Reduction, from real
/// machine traces.
///
/// Legend: `>` send, `<` receive, `x` simultaneous exchange, `*` local
/// computation, `|` barrier. Columns are distinct simulated time points.
fn timeline() -> Files {
    let p = 8;
    let example = example_program();
    let optimized = Rewriter::exhaustive().optimize(&example).program;

    let mut w = String::new();
    let mut makespans = Vec::new();
    for (name, prog) in [
        ("Example (original)", &example),
        ("Example after SR2-Reduction", &optimized),
    ] {
        let inputs: Vec<Value> = (0..p as i64).map(|i| Value::Int(i % 5 + 1)).collect();
        let run = execute_traced(prog, &inputs, ClockParams::parsytec_like());
        w += &format!("== {name} ==\n");
        w += &format!("program : {prog}\n");
        w += &format!("makespan: {:.0} simulated units\n", run.makespan);
        w += &run.trace.ascii_timeline(p);
        w.push('\n');
        makespans.push(run.makespan);
    }
    w += &format!(
        "time saved by SR2-Reduction (Figure 3's shaded region): {:.0} units ({:.1}%)\n",
        makespans[0] - makespans[1],
        100.0 * (makespans[0] - makespans[1]) / makespans[0]
    );
    assert!(makespans[1] < makespans[0]);
    one("timeline.txt", w)
}

/// The paper's Section-3 rule boxes from the implementation: for each
/// rule the matched pattern, the side condition, the rewritten term
/// (produced by running the matcher on a canonical window) and the
/// Table-1 cost line, then the fused operators' worked examples.
fn rules() -> Files {
    let mut w = String::new();
    w += "== The optimization rules, as implemented ==\n\n";
    for rule in Rule::ALL {
        let est = rule.estimate();
        let algebra = match rule {
            Rule::Sr2Reduction | Rule::Ss2Scan | Rule::Bss2Comcast | Rule::Bsr2Local => {
                "⊗ distributes over ⊕"
            }
            Rule::SrReduction | Rule::SsScan | Rule::BssComcast | Rule::BsrLocal => "⊕ commutative",
            Rule::BsComcast | Rule::BrLocal | Rule::CrAlllocal => "⊕ associative",
        };
        w += &format!("─── {} ───\n", rule.name());
        w += &format!("  pattern    : {}\n", rule_lhs(rule));
        w += &format!("  requires   : {algebra}\n");
        w += &format!("  improves if: {}\n", rule.condition_str());
        w += &format!("  rewrites to: {}\n", rule_rhs(rule));
        w += &format!(
            "  cost      : {}  →  {}   (× log p)\n",
            est.before.render(),
            est.after.render()
        );
        w.push('\n');
    }

    w += "== Fused-operator worked examples (⊗ = mul, ⊕ = add) ==\n\n";

    let sr2 = fused::op_sr2(&ops::mul(), &ops::add());
    let a = pair(&Value::Int(2));
    let b = pair(&Value::Int(3));
    w += &format!(
        "op_sr2((2,2),(3,3))      = {}   (s1+(r1*s2), r1*r2)\n",
        sr2.apply(&a, &b)
    );

    let (sr, sr_solo) = fused::op_sr(&ops::add());
    let x = Value::Tuple(vec![Value::Int(2), Value::Int(2)]);
    let y = Value::Tuple(vec![Value::Int(5), Value::Int(5)]);
    w += &format!(
        "op_sr((2,2),(5,5))       = {}   (Figure 4's first combine)\n",
        sr(&x, &y)
    );
    w += &format!(
        "op_sr_solo((9,14))       = {}   (Figure 4's unary node)\n",
        sr_solo(&sr(&x, &y))
    );

    let (ss, _) = fused::op_ss(&ops::add());
    let (lo, hi) = ss(&quadruple(&Value::Int(2)), &quadruple(&Value::Int(5)));
    w += &format!("op_ss(q(2),q(5))         = {lo} / {hi}   (Figure 5, phase 1, procs 0/1)\n");

    let (e, o) = fused::bs_eo(&ops::add());
    let s0 = pair(&Value::Int(2));
    w += &format!(
        "BS e/o chain from (2,2)  : e→{} o→{}   (Figure 6's node operations)\n",
        e(&s0),
        o(&s0)
    );
    w += "\n(each line is computed by the library, not typeset by hand)\n";
    one("rules.txt", w)
}

/// For every `(p, m)` point of the sweep: the algorithm `allreduce_auto`
/// picks, the analytic makespan of every candidate, the measured makespan
/// and the relative error — which must stay within 10 % (the models are
/// exact when `p | m`; the tolerance covers the ceil'd `log p` on
/// non-powers of two). Then the analytic butterfly → Rabenseifner
/// crossover block sizes (powers of two only; elsewhere the butterfly is
/// not a candidate).
fn allreduce() -> Files {
    type Block = Vec<i64>;
    const CANDIDATES: [AllreduceChoice; 4] = [
        AllreduceChoice::Butterfly,
        AllreduceChoice::Rabenseifner,
        AllreduceChoice::Ring,
        AllreduceChoice::ReduceBcast,
    ];
    let clock = ClockParams::parsytec_like();
    let measure = |p: usize, m: usize| -> f64 {
        let blocks: Arc<Vec<Block>> = Arc::new(
            (0..p)
                .map(|r| (0..m).map(|i| (r * 13 + i % 7) as i64).collect())
                .collect(),
        );
        Machine::new(p, clock)
            .run(move |ctx| {
                let f = |a: &Block, b: &Block| -> Block {
                    a.iter().zip(b).map(|(x, y)| x + y).collect()
                };
                let op = Combine::new(&f).assume_commutative();
                allreduce_auto(ctx, blocks[ctx.rank()].clone(), 1, &op)
            })
            .makespan
    };

    let procs = [4usize, 5, 6, 8, 12, 16, 32];
    let mut rows = Vec::new();
    let mut worst = 0.0f64;
    for &p in &procs {
        for k in [1usize, 16, 64, 256, 2048] {
            let m = p * k; // p | m keeps the closed forms exact
            let choice = choose_allreduce(p, m as u64, 1.0, true, &clock);
            let predicted = allreduce_model_cost(choice, p, m as u64, 1.0, &clock);
            let measured = measure(p, m);
            let rel_err = (measured - predicted).abs() / predicted.max(1.0);
            worst = worst.max(rel_err);
            assert!(
                rel_err <= 0.10,
                "model off by {:.1}% at p={p} m={m} ({})",
                100.0 * rel_err,
                choice.name()
            );
            let models: Vec<String> = CANDIDATES
                .iter()
                .map(|&c| {
                    let cost = allreduce_model_cost(c, p, m as u64, 1.0, &clock);
                    let shown = if cost.is_finite() {
                        format!("{cost:.3}")
                    } else {
                        "null".to_string()
                    };
                    format!("\"{}\": {}", c.name(), shown)
                })
                .collect();
            rows.push(format!(
                "    {{\"p\": {p}, \"m\": {m}, \"chosen\": \"{}\", \"predicted\": {predicted:.3}, \
                 \"measured\": {measured:.3}, \"rel_err\": {rel_err:.5}, \"models\": {{{}}}}}",
                choice.name(),
                models.join(", ")
            ));
        }
    }

    let crossovers: Vec<String> = procs
        .iter()
        .filter(|p| p.is_power_of_two())
        .filter_map(|&p| {
            let params = MachineParams::new(p, clock.ts, clock.tw);
            let mstar = allreduce_crossover_m(&params, 1.0)?;
            Some(format!("    {{\"p\": {p}, \"m_star\": {mstar:.3}}}"))
        })
        .collect();

    let json = format!(
        "{{\n  \"machine\": {{\"ts\": {}, \"tw\": {}}},\n  \"ops_per_word\": 1.0,\n  \
         \"worst_rel_err\": {worst:.5},\n  \"crossovers\": [\n{}\n  ],\n  \"rows\": [\n{}\n  ]\n}}\n",
        clock.ts,
        clock.tw,
        crossovers.join(",\n"),
        rows.join(",\n")
    );
    one("BENCH_allreduce.json", json)
}

/// Run `prog` with causal tracing on; the length of the trace-derived
/// critical path must equal the simulated clock's makespan *exactly*,
/// which pins the trace layer to the cost semantics.
fn profiled(prog: &Program, inputs: &[Value]) -> Trace {
    let config = ExecConfig {
        profile: true,
        ..ExecConfig::default()
    };
    let run = execute_traced_with(prog, inputs, figure_clock(), config);
    let path = run.critical_path().expect("trace is causally complete");
    assert_eq!(
        path.length(),
        run.outcome.makespan,
        "critical path must reproduce the clock makespan exactly for {prog}"
    );
    run.trace
}

/// One Chrome-trace file (open at <https://ui.perfetto.dev>) per Table-1
/// rule — the LHS run as process 0 and the RHS run as process 1, one
/// thread lane per rank, p = 8, 64-word blocks so bandwidth terms show —
/// plus the Section-5 case study, PolyEval_1 against the fully rewritten
/// PolyEval_3.
fn profile() -> Files {
    const P: usize = 8;
    const M: usize = 64;
    let mut files = Files::new();
    for rule in Rule::ALL {
        let (lhs, rhs) = (rule_lhs(rule), rule_rhs(rule));
        let inputs = block_input(P, M);
        let json = chrome_trace_json(&[
            (&format!("{rule} LHS: {lhs}"), &profiled(&lhs, &inputs)),
            (&format!("{rule} RHS: {rhs}"), &profiled(&rhs, &inputs)),
        ]);
        let file = format!("profile_{}.json", rule.name().to_lowercase());
        files.push((file, json));
    }

    let coeffs: Vec<f64> = (0..P).map(|i| (i + 1) as f64).collect();
    let prog = Program::new()
        .bcast()
        .scan(ops::fmul())
        .map_indexed("mul_coeff", 1.0, move |rank, v| {
            let a = coeffs[rank];
            v.map_block(&|x| Value::Float(a * x.as_float()))
        })
        .reduce(ops::fadd());
    let optimized = Rewriter::exhaustive().optimize(&prog).program;
    let ys: Vec<Value> = (0..P)
        .map(|r| {
            Value::list(if r == 0 {
                (0..M)
                    .map(|j| Value::Float(1.0 + j as f64 * 1e-3))
                    .collect()
            } else {
                vec![Value::Float(0.0); M]
            })
        })
        .collect();
    let json = chrome_trace_json(&[
        (&format!("PolyEval_1: {prog}"), &profiled(&prog, &ys)),
        (
            &format!("PolyEval_3: {optimized}"),
            &profiled(&optimized, &ys),
        ),
    ]);
    files.push(("profile_polyeval.json".to_string(), json));
    files
}
