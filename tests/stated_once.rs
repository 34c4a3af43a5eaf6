//! The "stated once" gates: each fact of the design lives in one place —
//! a rule in its `RuleSpec` entry, a collective in its one `*_async`
//! body, a stage in its one lowering, the optimizer in one saturation —
//! and each row of [`ROWS`] fails `cargo test` when a second copy of a
//! fact it guards comes back.
//!
//! A row names its gate, says why the gate exists and which change made
//! the fact single, lists the files and the forbidden patterns, and keeps
//! the mutations that were seen turning it red. Scoping is decided once,
//! in [`scoped`]:
//!
//! - [`Scope::Code`] checks the lines above a file's first column-0
//!   `#[cfg(test)]`, skipping lines whose first non-blank characters are
//!   `//` (comments and doc comments);
//! - [`Scope::Whole`] checks every line of every file, whatever its type;
//! - [`Scope::FirstLine`] checks line 1 only.
//!
//! Files are named like `git ls-files` pathspecs: `*` matches any run of
//! characters, `/` included, so `crates/*/src/*.rs` reaches
//! `crates/core/src/rules/`. They are looked up under `crates/`, `src/`,
//! `tests/` and `examples/`, this file excepted. A pattern is a plain
//! substring unless it needs a neighbour, a word boundary or several
//! lines: then it is a named predicate ([`Pat::Pred`]). Adding a gate is
//! adding a row.

use std::path::Path;

/// Where a clause looks inside a file.
#[derive(Clone, Copy)]
enum Scope {
    /// Non-test, non-comment lines.
    Code,
    /// Every line.
    Whole,
    /// Line 1 only.
    FirstLine,
}

/// A line of a file in scope: its 1-based number and its text.
type Line<'a> = (usize, &'a str);

/// A forbidden pattern.
enum Pat {
    /// A substring of one line.
    Sub(&'static str),
    /// A named predicate on the `i`-th line in scope, which may read the
    /// other lines in scope.
    Pred(&'static str, fn(&[Line], usize) -> bool),
}

impl Pat {
    fn hits(&self, lines: &[Line], i: usize) -> bool {
        match self {
            Pat::Sub(s) => lines[i].1.contains(s),
            Pat::Pred(_, pred) => pred(lines, i),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Pat::Sub(s) | Pat::Pred(s, _) => s,
        }
    }
}

/// Files, a scope, and the patterns forbidden there.
struct Clause {
    files: &'static [&'static str],
    except: &'static [&'static str],
    scope: Scope,
    pats: &'static [Pat],
}

/// One gate.
struct Row {
    gate: &'static str,
    /// The change that made the fact single, and why a second copy is a
    /// fault.
    why: &'static str,
    clauses: &'static [Clause],
    /// Mutations seen turning the gate red: a file the gate covers and
    /// the line(s) planted there.
    mutations: &'static [(&'static str, &'static str)],
}

/// `git ls-files 'crates/*/src/*.rs' 'src/*.rs'`.
const LIBRARY_SOURCES: &[&str] = &["crates/*/src/*.rs", "src/*.rs"];

const fn code(files: &'static [&'static str], pats: &'static [Pat]) -> Clause {
    Clause {
        files,
        except: &[],
        scope: Scope::Code,
        pats,
    }
}

const fn whole(files: &'static [&'static str], pats: &'static [Pat]) -> Clause {
    Clause {
        files,
        except: &[],
        scope: Scope::Whole,
        pats,
    }
}

const ROWS: &[Row] = &[
    Row {
        gate: "Forbid unsafe",
        why: "when `unsafe` was forbidden in every crate and the facade: the analysis \
              stack's soundness claims lean on its absence, so the attribute stays the \
              first line of every crate root",
        clauses: &[Clause {
            files: &["crates/*/src/lib.rs", "src/lib.rs"],
            except: &[],
            scope: Scope::FirstLine,
            pats: &[Pat::Pred(
                "a first line other than `#![forbid(unsafe_code)]`",
                |lines, i| !lines[i].1.contains("#![forbid(unsafe_code)]"),
            )],
        }],
        mutations: &[("crates/machine/src/lib.rs", "#![deny(unsafe_code)]")],
    },
    Row {
        gate: "Rule facts stated once",
        why: "when each rule became one `RuleSpec` entry: outside the rule table \
              (`crates/cost/src/`, `crates/core/src/rules/`) only `RULE_PRIORITY`, \
              whose one role is ordering, may name a rule",
        clauses: &[Clause {
            files: LIBRARY_SOURCES,
            except: &["crates/cost/src/*", "crates/core/src/rules/*"],
            scope: Scope::Code,
            pats: &[Pat::Pred(
                "`Rule::` and a variant, outside `RULE_PRIORITY`",
                names_a_rule,
            )],
        }],
        mutations: &[(
            "crates/core/src/dist.rs",
            "        _ if rule == Rule::SsScan => {}",
        )],
    },
    Row {
        gate: "One body per collective, one engine",
        why: "when the blocking twins and then the thread engine went: each collective \
              is one `*_async` fn, and every rank body is a future run by \
              `Machine::run_des` on the event engine",
        clauses: &[
            code(
                &["crates/collectives/src/*.rs"],
                &[Pat::Pred(
                    "a `pub fn` whose signature takes `&mut Ctx`",
                    pub_fn_taking_mut_ctx,
                )],
            ),
            whole(
                &["crates/*", "src/*", "tests/*", "examples/*"],
                &[
                    Pat::Pred("`drive(` as a word", calls_drive),
                    Pat::Sub("Mailboxes"),
                    Pat::Sub("ClockBarrier"),
                    Pat::Sub("build_mesh"),
                    Pat::Sub("THREAD_MAX_P"),
                    Pat::Sub("CapacityExceeded"),
                    Pat::Sub("ExecEngine::Threads"),
                    Pat::Sub(".run(|"),
                    Pat::Sub(".run(move |"),
                    Pat::Sub(".try_run(|"),
                    Pat::Sub(".try_run(move |"),
                    Pat::Pred("`Machine::run` or `Machine::try_run`", names_machine_run),
                ],
            ),
            whole(
                &["crates/machine/src/*"],
                &[
                    Pat::Sub("fn run("),
                    Pat::Sub("fn run<"),
                    Pat::Sub("fn try_run("),
                    Pat::Sub("fn try_run<"),
                ],
            ),
        ],
        mutations: &[
            (
                "crates/collectives/src/bcast.rs",
                "pub fn bcast_linear(\n    ctx: &mut Ctx,\n    value: Option<Vec<i64>>,\n) -> Vec<i64> {",
            ),
            ("examples/quickstart.rs", "    drive(async {});"),
        ],
    },
    Row {
        gate: "One future per rank, payload boxes reused, one packet slab",
        why: "when the engine began polling each rank's future directly and reusing \
              payload boxes (`DesShared::box_payload`), and again when the event heap \
              and the per-rank inboxes gave way to one FIFO run queue and one packet slab",
        clauses: &[
            code(&["crates/machine/src/*.rs"], &[Pat::Sub("payload: Box::new")]),
            code(
                &["crates/machine/src/des.rs"],
                &[Pat::Sub("BinaryHeap"), Pat::Sub("VecDeque<(usize, Packet)>")],
            ),
        ],
        mutations: &[
            ("crates/machine/src/machine.rs", "            payload: Box::new(value),"),
            ("crates/machine/src/des.rs", "use std::collections::{BinaryHeap, VecDeque};"),
            ("crates/machine/src/des.rs", "    inbox: VecDeque<(usize, Packet)>,"),
        ],
    },
    Row {
        gate: "One path per connection",
        why: "when the server began answering each connection's lines on that \
              connection's thread: no job queue, no dispatcher batch, no worker pool; \
              `ServerConfig::batch_limit` is an inert field, declared and defaulted, \
              never read or set",
        clauses: &[whole(
            &["crates/serve/src/*", "src/bin/*"],
            &[
                Pat::Sub("mpsc"),
                Pat::Sub("par_map_with"),
                Pat::Sub("batch_limit."),
                Pat::Sub(".batch_limit"),
            ],
        )],
        mutations: &[(
            "crates/serve/src/server.rs",
            "use collopt_bench::sweep_driver::{default_workers, par_map_with};",
        )],
    },
    Row {
        gate: "One optimizer",
        why: "when every optimizer entry point became one equality saturation, and \
              again when the plan came to be read off saturation's justified unions: \
              no greedy step or fallback to it, no CLI switch between engines, no \
              search or second normalizer in the e-graph, no linter re-deriving the plan",
        clauses: &[
            code(
                LIBRARY_SOURCES,
                &[
                    Pat::Sub("fn find_step"),
                    Pat::Sub("replay_fell_back"),
                    Pat::Sub("\"--optimal\""),
                ],
            ),
            code(
                &["crates/core/src/egraph.rs"],
                &[
                    Pat::Sub("REPLAY_STATE_CAP"),
                    Pat::Sub("CANDIDATE_CAP"),
                    Pat::Sub("fn replay("),
                    Pat::Sub("fn representable"),
                    Pat::Sub("fn best_chains"),
                    Pat::Sub("fn normalize_ids"),
                ],
            ),
            code(
                &["crates/analysis/src/lint.rs"],
                &[
                    Pat::Sub("try_match("),
                    Pat::Sub("program_cost("),
                    Pat::Sub("enabling::normalize("),
                ],
            ),
        ],
        mutations: &[
            ("src/bin/collopt.rs", "            \"--optimal\" => {}"),
            ("crates/core/src/egraph.rs", "    fn replay(&mut self) {}"),
            ("crates/core/src/egraph.rs", "const REPLAY_STATE_CAP: usize = 1 << 16;"),
            (
                "crates/analysis/src/lint.rs",
                "    let cost = program_cost(prog, &cfg.params, cfg.block);",
            ),
        ],
    },
    Row {
        gate: "One lowering per stage",
        why: "when each program stage came to run the one lowering its cost is priced \
              by: no executor switch to another bcast or reduction lowering, no selector \
              only such a switch would reach, no COL011 about a lowering nothing runs",
        clauses: &[code(
            LIBRARY_SOURCES,
            &[
                Pat::Sub("adaptive_bcast"),
                Pat::Sub("adaptive_reduction"),
                Pat::Sub("\"COL011\""),
                Pat::Sub("fn bcast_auto_async"),
                Pat::Sub("fn reduce_auto_async"),
                Pat::Sub("fn choose_bcast"),
                Pat::Sub("fn choose_reduce"),
                Pat::Sub("fn balanced_halving_wins"),
            ],
        )],
        mutations: &[
            ("crates/core/src/exec.rs", "    pub adaptive_reduction: bool,"),
            ("crates/analysis/src/distflow.rs", "        code: \"COL011\","),
        ],
    },
    Row {
        gate: "Saturation keys no strings, ids hashed without SipHash",
        why: "when the e-graph began interning stages under a borrowed structural key \
              and working on stage-id chains, and again when its id-keyed tables moved \
              to `IdHasher`: no rendered key, no list of rendered candidates, no table \
              on the default SipHash hasher",
        clauses: &[code(
            &["crates/core/src/egraph.rs"],
            &[
                Pat::Sub("fn stage_key"),
                Pat::Sub("HashMap<String"),
                Pat::Sub("Vec<String>"),
                Pat::Sub(".to_string()"),
                Pat::Sub("HashMap::new()"),
                Pat::Sub("HashSet::new()"),
                Pat::Sub("HashMap::with_capacity("),
                Pat::Sub("HashSet::from("),
            ],
        )],
        mutations: &[
            ("crates/core/src/egraph.rs", "        let key = start.to_string();"),
            ("crates/core/src/egraph.rs", "            refused: HashSet::new(),"),
        ],
    },
    Row {
        gate: "Schedules are flat",
        why: "when an extracted schedule became one exactly sized op buffer plus \
              offsets, written through `push(rank, op)` by builders run twice (count, \
              then fill): no per-rank `Vec` of ops, no indexing into one",
        clauses: &[code(
            &[
                "crates/collectives/src/schedule.rs",
                "crates/analysis/src/schedule.rs",
            ],
            &[
                Pat::Sub("Vec<Vec<SchedOp>>"),
                Pat::Sub(".ranks["),
                Pat::Sub("vec![Vec::new(); p]"),
            ],
        )],
        mutations: &[(
            "crates/collectives/src/schedule.rs",
            "        let _per_rank: Vec<Vec<SchedOp>> = Vec::new();",
        )],
    },
    Row {
        gate: "Responses are written, not built",
        why: "when the serve path began writing its result, lint, error and stats \
              documents member by member into one buffer with `machine::chrome`'s JSON \
              writers: no `Json` tree built to be rendered, no number formatted into a \
              `String` of its own (a pattern that reads a parsed request stays allowed)",
        clauses: &[code(
            &[
                "crates/serve/src/*.rs",
                "crates/core/src/report.rs",
                "crates/analysis/src/lint.rs",
            ],
            &[
                Pat::Sub("Json::Obj(vec!"),
                Pat::Sub("Json::Arr("),
                Pat::Sub("Json::Num("),
                Pat::Sub(".to_json()"),
                Pat::Sub("format!(\"{n}\")"),
            ],
        )],
        mutations: &[(
            "crates/serve/src/service.rs",
            "        out.push_str(&Json::Num(s.hits as f64).render());",
        )],
    },
];

/// Whether `line` holds `word` with no identifier character (`_` or
/// ASCII alphanumeric) right before it (if `before`) or right after it
/// (if `after`).
fn has_word(line: &str, word: &str, before: bool, after: bool) -> bool {
    let ident = |c: Option<char>| c.is_some_and(|c| c == '_' || c.is_ascii_alphanumeric());
    line.match_indices(word).any(|(at, _)| {
        let joined_before = before && ident(line[..at].chars().next_back());
        let joined_after = after && ident(line[at + word.len()..].chars().next());
        !(joined_before || joined_after)
    })
}

fn calls_drive(lines: &[Line], i: usize) -> bool {
    has_word(lines[i].1, "drive(", true, false)
}

fn names_machine_run(lines: &[Line], i: usize) -> bool {
    ["Machine::run", "Machine::try_run"]
        .iter()
        .any(|word| has_word(lines[i].1, word, false, true))
}

/// `Rule::` followed by an upper- then a lower-case letter, on a line
/// outside the `RULE_PRIORITY` array (from its `= [` line to the next
/// line that opens with `];`).
fn names_a_rule(lines: &[Line], i: usize) -> bool {
    let text = lines[i].1;
    let names = text.match_indices("Rule::").any(|(at, _)| {
        let mut next = text[at + "Rule::".len()..].chars();
        next.next().is_some_and(|c| c.is_ascii_uppercase())
            && next.next().is_some_and(|c| c.is_ascii_lowercase())
    });
    let in_priority = || {
        for (j, &(_, l)) in lines[..=i].iter().enumerate().rev() {
            if l.find("RULE_PRIORITY")
                .is_some_and(|at| l[at..].contains("= ["))
            {
                return true;
            }
            if j < i && l.starts_with("];") {
                return false;
            }
        }
        false
    };
    names && !in_priority()
}

/// A line opening a `pub fn` (or `pub(crate) fn`, …) whose signature —
/// this line and those after it, up to the first holding `{` or `;` — takes
/// `&mut Ctx`.
fn pub_fn_taking_mut_ctx(lines: &[Line], i: usize) -> bool {
    let Some(rest) = lines[i].1.trim_start().strip_prefix("pub") else {
        return false;
    };
    let rest = match rest.strip_prefix('(') {
        Some(vis) => match vis.split_once(')') {
            Some((v, rest)) if !v.is_empty() && v.chars().all(|c| c.is_ascii_lowercase()) => rest,
            _ => return false,
        },
        None => rest,
    };
    if !rest.starts_with(" fn ") {
        return false;
    }
    let end = lines[i..]
        .iter()
        .position(|(_, l)| l.contains(['{', ';']))
        .map_or(lines.len(), |k| i + k + 1);
    lines[i..end].iter().any(|(_, l)| l.contains("&mut Ctx"))
}

/// The lines of `text` a clause of `scope` checks.
fn scoped(text: &str, scope: Scope) -> Vec<Line<'_>> {
    let lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
    match scope {
        Scope::Whole => lines.collect(),
        Scope::FirstLine => vec![(1, text.lines().next().unwrap_or(""))],
        Scope::Code => lines
            .take_while(|(_, l)| !l.starts_with("#[cfg(test)]"))
            .filter(|(_, l)| !l.trim_start().starts_with("//"))
            .collect(),
    }
}

/// `path` against a pathspec whose `*` matches any run of characters,
/// `/` included.
fn glob(spec: &str, path: &str) -> bool {
    match spec.split_once('*') {
        None => spec == path,
        Some((head, tail)) => {
            path.starts_with(head)
                && (head.len()..=path.len())
                    .filter(|&at| path.is_char_boundary(at))
                    .any(|at| glob(tail, &path[at..]))
        }
    }
}

impl Clause {
    fn covers(&self, path: &str) -> bool {
        self.files.iter().any(|spec| glob(spec, path))
            && !self.except.iter().any(|spec| glob(spec, path))
    }

    /// The lines of `text`, read as the file at `path`, that a pattern of
    /// this clause hits: each line's number and the first pattern's name.
    fn hits(&self, path: &str, text: &str) -> Vec<(usize, &'static str)> {
        if !self.covers(path) {
            return Vec::new();
        }
        let lines = scoped(text, self.scope);
        (0..lines.len())
            .filter_map(|i| {
                let pat = self.pats.iter().find(|pat| pat.hits(&lines, i))?;
                Some((lines[i].0, pat.name()))
            })
            .collect()
    }
}

impl Row {
    fn hits(&self, path: &str, text: &str) -> Vec<(usize, &'static str)> {
        let mut hits: Vec<_> = self
            .clauses
            .iter()
            .flat_map(|clause| clause.hits(path, text))
            .collect();
        hits.sort_unstable();
        hits.dedup_by_key(|hit| hit.0);
        hits
    }
}

fn line_numbers(hits: Vec<(usize, &str)>) -> Vec<usize> {
    hits.into_iter().map(|(n, _)| n).collect()
}

/// Every file under `crates/`, `src/`, `tests/` and `examples/` but this
/// one, as a `/`-separated path from the repository root, with its text.
fn tree() -> Vec<(String, String)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
        for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
            let path = entry.expect("a directory entry").path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(root, &path, out);
                }
                continue;
            }
            let rel = path.strip_prefix(root).expect("under the root");
            let rel: Vec<_> = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect();
            let rel = rel.join("/");
            if rel != "tests/stated_once.rs" {
                let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{rel}: {e}"));
                out.push((rel, String::from_utf8_lossy(&bytes).into_owned()));
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        walk(root, &root.join(top), &mut files);
    }
    files.sort();
    files
}

#[test]
fn no_gate_is_hit_on_the_tree() {
    let files = tree();
    let mut report = String::new();
    for row in ROWS {
        for (path, text) in &files {
            let lines: Vec<&str> = text.lines().collect();
            for (n, pat) in row.hits(path, text) {
                let line = lines.get(n - 1).copied().unwrap_or("");
                report.push_str(&format!("{}: {path}:{n}: {pat}: {line}\n", row.gate));
            }
        }
    }
    assert!(
        report.is_empty(),
        "a fact stated twice (gate: file:line: pattern: text):\n{report}"
    );
}

#[test]
fn every_clause_covers_a_file_on_the_tree() {
    let files = tree();
    for row in ROWS {
        for (k, clause) in row.clauses.iter().enumerate() {
            assert!(
                files.iter().any(|(path, _)| clause.covers(path)),
                "{}: clause {k} ({:?}) covers no file",
                row.gate,
                clause.files
            );
        }
    }
}

/// Each recorded mutation, planted three times in a file the gate covers
/// — as code, in a `//` comment, and below `#[cfg(test)]` — is hit where
/// its clause's scope says: the first copy only under [`Scope::Code`] and
/// [`Scope::FirstLine`], all three under [`Scope::Whole`].
#[test]
fn every_recorded_mutation_is_caught_in_scope() {
    for row in ROWS {
        assert!(
            !row.why.is_empty() && !row.mutations.is_empty(),
            "{}",
            row.gate
        );
        for &(path, planted) in row.mutations {
            let k = planted.lines().count();
            let commented: String = planted.lines().map(|l| format!("// {l}\n")).collect();
            let text = format!("{planted}\n{commented}#[cfg(test)]\nmod tests {{\n{planted}\n}}\n");
            let mut caught = false;
            for clause in row.clauses.iter().filter(|c| c.covers(path)) {
                let hits = line_numbers(clause.hits(path, &text));
                if hits.is_empty() {
                    continue;
                }
                caught = true;
                let expected = match clause.scope {
                    Scope::Code | Scope::FirstLine => vec![1],
                    Scope::Whole => vec![1, 1 + k, 3 + 2 * k],
                };
                assert_eq!(hits, expected, "{}: {path}: {planted:?}", row.gate);
            }
            assert!(caught, "{}: {path}: {planted:?} is not caught", row.gate);
            assert_eq!(
                line_numbers(row.hits(path, planted)),
                vec![1],
                "{}: {planted:?}",
                row.gate
            );
        }
    }
}

#[test]
fn the_named_predicates_keep_their_boundaries() {
    let on = |pred: fn(&[Line], usize) -> bool, text: &str| {
        let lines = scoped(text, Scope::Whole);
        (0..lines.len()).any(|i| pred(&lines, i))
    };
    assert!(on(calls_drive, "drive(f)") && on(calls_drive, "x = drive(f)"));
    assert!(!on(calls_drive, "overdrive(f)") && !on(calls_drive, "re_drive(f)"));
    assert!(on(names_machine_run, "Machine::run(m)") && on(names_machine_run, "Machine::try_run"));
    assert!(!on(names_machine_run, "Machine::run_des(m)"));
    assert!(on(names_a_rule, "let r = Rule::SsScan;"));
    assert!(!on(names_a_rule, "Rule::SS") && !on(names_a_rule, "Rule::spec"));
    let priority = "pub const RULE_PRIORITY: [Rule; 2] = [\n    Rule::SsScan,\n];\nRule::BrLocal";
    let lines = scoped(priority, Scope::Whole);
    let hits: Vec<usize> = (0..lines.len())
        .filter(|&i| names_a_rule(&lines, i))
        .collect();
    assert_eq!(hits, vec![3]);
    assert!(on(
        pub_fn_taking_mut_ctx,
        "pub(crate) fn f(ctx: &mut Ctx) {"
    ));
    assert!(!on(
        pub_fn_taking_mut_ctx,
        "pub fn f(ctx: &Ctx) {\n    g(&mut Ctx::new());"
    ));
    assert!(!on(
        pub_fn_taking_mut_ctx,
        "pub async fn f(ctx: &mut Ctx) {"
    ));
    assert!(glob("crates/*/src/*.rs", "crates/core/src/rules/mod.rs"));
    assert!(!glob("crates/*/src/*.rs", "crates/core/tests/x.rs"));
    assert!(glob("src/*", "src/bin/collopt.rs") && !glob("src/*", "srcx"));
}
