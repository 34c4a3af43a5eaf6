//! Seeded random case generation over the full pipeline grammar.
//!
//! A [`CaseSpec`] is a *complete, self-contained* description of one fuzz
//! case: machine size, block size, value domain, the
//! pipeline (over builtin operators and/or random 4×4 lookup-table
//! operators with their *declared* — possibly lying — algebraic laws), an
//! optional [`FaultPlan`], and an optional pre-applied fusion rule. The
//! spec round-trips through a one-line string ([`CaseSpec::render`] /
//! [`CaseSpec::parse`]), which is what failure reports print and what the
//! pinned-regression corpus stores.
//!
//! Generation is a pure function of the case seed ([`generate_case`]):
//! the low decimal digit picks the *mode* (honest rule-targeted, PolyEval,
//! planted over-claim, planted under-claim) and the next digits cycle the
//! targeted rule, so any window of 110 consecutive seeds provably covers
//! every Table-1 rule with an honest case — the coverage ledger's
//! all-rules-fired gate cannot flake.

use std::ops::RangeInclusive;

use collopt_core::op::{lib as ops, BinOp};
use collopt_core::rules::{self, Rule};
use collopt_core::term::{Program, Stage};
use collopt_core::value::Value;
use collopt_cost::table1::{Laws, Pat, Slot};
use collopt_machine::{FaultPlan, Rng};

/// Size of the lookup-table operator domain `{0..N-1}`.
pub const N: i64 = 4;

/// Name of the `idx`-th table operator in a case (`t0`, `t1`, ...).
pub fn table_name(idx: usize) -> String {
    format!("t{idx}")
}

/// A random binary operation on `{0..3}` as a 16-entry lookup table, plus
/// its *declared* laws. `BinOp::new` always declares associativity, so an
/// associativity over-claim is expressed by a non-associative table; the
/// optional declarations below carry the commutativity/distributivity
/// claims. Declarations are independent of the table's brute-forced truth
/// — that gap is exactly what oracle 3 checks the analyzer stack against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSpec {
    /// Row-major `op(a, b) = cells[a * N + b]`, values in `0..N`.
    pub cells: [i64; 16],
    /// Whether the built [`BinOp`] declares `.commutative()`.
    pub declare_commutative: bool,
    /// Whether it declares `.distributes_over_op(table_name(j))`.
    pub declare_distributes_over: Option<usize>,
}

impl TableSpec {
    /// Apply the table on the canonical domain.
    pub fn apply(&self, a: i64, b: i64) -> i64 {
        self.cells[(a * N + b) as usize]
    }

    /// Exhaustive associativity check on the full domain.
    pub fn is_associative(&self) -> bool {
        for a in 0..N {
            for b in 0..N {
                for c in 0..N {
                    if self.apply(self.apply(a, b), c) != self.apply(a, self.apply(b, c)) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Exhaustive commutativity check on the full domain.
    pub fn is_commutative(&self) -> bool {
        for a in 0..N {
            for b in 0..N {
                if self.apply(a, b) != self.apply(b, a) {
                    return false;
                }
            }
        }
        true
    }

    /// Exhaustive two-sided distributivity check on the full domain.
    pub fn distributes_over(&self, other: &TableSpec) -> bool {
        for a in 0..N {
            for b in 0..N {
                for c in 0..N {
                    let l = self.apply(a, other.apply(b, c));
                    let r = other.apply(self.apply(a, b), self.apply(a, c));
                    let l2 = self.apply(other.apply(b, c), a);
                    let r2 = other.apply(self.apply(b, a), self.apply(c, a));
                    if l != r || l2 != r2 {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Build the executable [`BinOp`] carrying the *declared* laws. The
    /// closure wraps arbitrary integers into the domain (`rem_euclid`),
    /// which keeps every algebraic law on ℤ exactly equivalent to the
    /// brute-forced law on `{0..3}` — so the analyzer's `Domain::Int`
    /// audit and this module's exhaustive truth tables must agree.
    pub fn binop(&self, idx: usize) -> BinOp {
        let t = self.cells;
        let mut op = BinOp::new(table_name(idx), move |a, b| {
            let i = a.as_int().rem_euclid(N);
            let j = b.as_int().rem_euclid(N);
            Value::Int(t[(i * N + j) as usize])
        });
        if self.declare_commutative {
            op = op.commutative();
        }
        if let Some(j) = self.declare_distributes_over {
            op = op.distributes_over_op(&table_name(j));
        }
        op
    }

    /// Spec-string form: `t<idx>:<16 cells>:<flags>` with flags `c`
    /// (commutative declared), `dJ` (distributes over `tJ` declared), or
    /// `-` for no optional declarations.
    pub fn encode(&self, idx: usize) -> String {
        let cells: String = self.cells.iter().map(|c| c.to_string()).collect();
        let mut flags = String::new();
        if self.declare_commutative {
            flags.push('c');
        }
        if let Some(j) = self.declare_distributes_over {
            flags.push('d');
            flags.push_str(&j.to_string());
        }
        if flags.is_empty() {
            flags.push('-');
        }
        format!("t{idx}:{cells}:{flags}")
    }

    /// Inverse of [`TableSpec::encode`]; returns `(index, spec)`.
    pub fn decode(s: &str) -> Result<(usize, TableSpec), String> {
        let mut parts = s.split(':');
        let name = parts.next().ok_or("empty table spec")?;
        let idx: usize = name
            .strip_prefix('t')
            .and_then(|d| d.parse().ok())
            .ok_or_else(|| format!("bad table name {name:?}"))?;
        let cells_str = parts.next().ok_or("missing table cells")?;
        if cells_str.len() != 16 {
            return Err(format!("expected 16 cells, got {}", cells_str.len()));
        }
        let mut cells = [0i64; 16];
        for (i, ch) in cells_str.chars().enumerate() {
            let v = ch.to_digit(10).ok_or_else(|| format!("bad cell {ch:?}"))? as i64;
            if v >= N {
                return Err(format!("cell {v} out of domain 0..{N}"));
            }
            cells[i] = v;
        }
        let flags = parts.next().ok_or("missing table flags")?;
        if parts.next().is_some() {
            return Err(format!("trailing garbage in table spec {s:?}"));
        }
        let mut spec = TableSpec {
            cells,
            declare_commutative: false,
            declare_distributes_over: None,
        };
        if flags != "-" {
            let mut it = flags.chars().peekable();
            while let Some(ch) = it.next() {
                match ch {
                    'c' => spec.declare_commutative = true,
                    'd' => {
                        let j = it
                            .next()
                            .and_then(|d| d.to_digit(10))
                            .ok_or("flag d needs a table index")?;
                        spec.declare_distributes_over = Some(j as usize);
                    }
                    other => return Err(format!("unknown table flag {other:?}")),
                }
            }
        }
        Ok((idx, spec))
    }
}

/// One algebraic law claim about a table operator, in the same phrasing
/// [`collopt_core::op::RequiredLaw::describe`] and the analyzer use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LawClaim {
    /// Index of the table the claim is about.
    pub table: usize,
    /// Human law description, e.g. `"commutativity of t0"`.
    pub law: String,
}

/// The value domain a case's pipeline computes over. One domain per case
/// keeps every stage's operators and inputs type-consistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseDomain {
    /// Random 4×4 lookup tables on `{0..3}` (the lie-capable domain).
    Table,
    /// Builtin integer operators (`add`/`mul`/`max`/`min`).
    Int,
    /// Builtin boolean operators (`and`/`or`).
    Bool,
    /// Builtin float operators (`fadd`/`fmul`), dyadic inputs.
    Float,
}

impl CaseDomain {
    /// Spec-string token.
    pub fn label(&self) -> &'static str {
        match self {
            CaseDomain::Table => "table",
            CaseDomain::Int => "int",
            CaseDomain::Bool => "bool",
            CaseDomain::Float => "float",
        }
    }

    /// Inverse of [`CaseDomain::label`].
    pub fn parse(s: &str) -> Result<CaseDomain, String> {
        match s {
            "table" => Ok(CaseDomain::Table),
            "int" => Ok(CaseDomain::Int),
            "bool" => Ok(CaseDomain::Bool),
            "float" => Ok(CaseDomain::Float),
            other => Err(format!("unknown domain {other:?}")),
        }
    }
}

/// Reference to an operator: a case-local table or a builtin by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpRef {
    /// `tables[i]` of the owning case.
    Table(usize),
    /// A library operator (`add`, `mul`, `max`, `min`, `and`, `or`,
    /// `fadd`, `fmul`).
    Builtin(&'static str),
}

impl OpRef {
    fn encode(&self) -> String {
        match self {
            OpRef::Table(i) => table_name(*i),
            OpRef::Builtin(name) => (*name).to_string(),
        }
    }

    fn decode(s: &str) -> Result<OpRef, String> {
        if let Some(d) = s.strip_prefix('t') {
            if let Ok(i) = d.parse::<usize>() {
                return Ok(OpRef::Table(i));
            }
        }
        builtin_op(s).map(|_| OpRef::Builtin(intern_builtin(s)))
    }
}

fn intern_builtin(name: &str) -> &'static str {
    match name {
        "add" => "add",
        "mul" => "mul",
        "max" => "max",
        "min" => "min",
        "and" => "and",
        "or" => "or",
        "fadd" => "fadd",
        "fmul" => "fmul",
        other => panic!("not a fuzzable builtin: {other}"),
    }
}

/// Build a builtin operator by name.
pub fn builtin_op(name: &str) -> Result<BinOp, String> {
    match name {
        "add" => Ok(ops::add()),
        "mul" => Ok(ops::mul()),
        "max" => Ok(ops::max()),
        "min" => Ok(ops::min()),
        "and" => Ok(ops::and()),
        "or" => Ok(ops::or()),
        "fadd" => Ok(ops::fadd()),
        "fmul" => Ok(ops::fmul()),
        other => Err(format!("unknown operator {other:?}")),
    }
}

/// One pipeline stage in spec form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageSpec {
    /// `bcast`.
    Bcast,
    /// `gather` (rank 0 collects a list of every rank's value).
    Gather,
    /// `scatter` (rank 0's list is redistributed; the generator only
    /// emits it directly after a gather/allgather).
    Scatter,
    /// `allgather`.
    AllGather,
    /// `map id` — the identity local stage.
    MapId,
    /// `map# mul_coeff` — the PolyEval coefficient stage; per-rank dyadic
    /// coefficients derived from the case seed.
    CoeffMul,
    /// `scan(op)`.
    Scan(OpRef),
    /// `reduce(op)`.
    Reduce(OpRef),
    /// `allreduce(op)`.
    AllReduce(OpRef),
}

impl StageSpec {
    fn encode(&self) -> String {
        match self {
            StageSpec::Bcast => "bcast".to_string(),
            StageSpec::Gather => "gather".to_string(),
            StageSpec::Scatter => "scatter".to_string(),
            StageSpec::AllGather => "allgather".to_string(),
            StageSpec::MapId => "map".to_string(),
            StageSpec::CoeffMul => "coeff".to_string(),
            StageSpec::Scan(op) => format!("scan({})", op.encode()),
            StageSpec::Reduce(op) => format!("reduce({})", op.encode()),
            StageSpec::AllReduce(op) => format!("allreduce({})", op.encode()),
        }
    }

    fn decode(s: &str) -> Result<StageSpec, String> {
        let s = s.trim();
        match s {
            "bcast" => return Ok(StageSpec::Bcast),
            "gather" => return Ok(StageSpec::Gather),
            "scatter" => return Ok(StageSpec::Scatter),
            "allgather" => return Ok(StageSpec::AllGather),
            "map" => return Ok(StageSpec::MapId),
            "coeff" => return Ok(StageSpec::CoeffMul),
            _ => {}
        }
        for (prefix, build) in [
            ("scan(", StageSpec::Scan as fn(OpRef) -> StageSpec),
            ("reduce(", StageSpec::Reduce as fn(OpRef) -> StageSpec),
            ("allreduce(", StageSpec::AllReduce as fn(OpRef) -> StageSpec),
        ] {
            if let Some(rest) = s.strip_prefix(prefix) {
                let inner = rest
                    .strip_suffix(')')
                    .ok_or_else(|| format!("missing ')' in {s:?}"))?;
                return Ok(build(OpRef::decode(inner)?));
            }
        }
        Err(format!("unknown stage {s:?}"))
    }

    /// The operator referenced by this stage, if any.
    pub fn op_ref(&self) -> Option<&OpRef> {
        match self {
            StageSpec::Scan(op) | StageSpec::Reduce(op) | StageSpec::AllReduce(op) => Some(op),
            _ => None,
        }
    }
}

/// A complete fuzz case. See the module docs for the spec-string format.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseSpec {
    /// Case seed: inputs, PolyEval coefficients and the generation of
    /// every other field derive from it.
    pub seed: u64,
    /// Machine size.
    pub p: usize,
    /// Words per rank block (`m == 1` means scalar values).
    pub m: usize,
    /// Value domain.
    pub domain: CaseDomain,
    /// The pipeline.
    pub stages: Vec<StageSpec>,
    /// Table operators referenced by the pipeline.
    pub tables: Vec<TableSpec>,
    /// Fault plan for the event-order oracle (`None` = clean run).
    pub plan: Option<FaultPlan>,
    /// A rule pre-applied at a stage index, so the case *starts* from a
    /// fused form (exercises Comcast/balanced/IterLocal stages).
    pub fuse: Option<(Rule, usize)>,
}

fn rule_by_name(name: &str) -> Result<Rule, String> {
    Rule::ALL
        .into_iter()
        .find(|r| r.name() == name)
        .ok_or_else(|| format!("unknown rule {name:?}"))
}

impl CaseSpec {
    /// Serialize to the one-line reproducible spec string.
    pub fn render(&self) -> String {
        let prog = self
            .stages
            .iter()
            .map(StageSpec::encode)
            .collect::<Vec<_>>()
            .join(" ; ");
        let tables = if self.tables.is_empty() {
            "-".to_string()
        } else {
            self.tables
                .iter()
                .enumerate()
                .map(|(i, t)| t.encode(i))
                .collect::<Vec<_>>()
                .join(";")
        };
        let plan = match &self.plan {
            None => "none".to_string(),
            Some(p) => p.describe(),
        };
        let fuse = match &self.fuse {
            None => "none".to_string(),
            Some((rule, at)) => format!("{}@{at}", rule.name()),
        };
        format!(
            "v1|seed={}|p={}|m={}|domain={}|prog={}|tables={}|plan={}|fuse={}",
            self.seed,
            self.p,
            self.m,
            self.domain.label(),
            prog,
            tables,
            plan,
            fuse
        )
    }

    /// Parse a spec string produced by [`CaseSpec::render`]; validates
    /// structural invariants so every parsed spec builds a runnable case.
    pub fn parse(s: &str) -> Result<CaseSpec, String> {
        let mut fields = s.trim().split('|');
        if fields.next() != Some("v1") {
            return Err("spec must start with 'v1|'".to_string());
        }
        let mut seed = None;
        let mut p = None;
        let mut m = None;
        let mut domain = None;
        let mut stages: Option<Vec<StageSpec>> = None;
        let mut tables: Option<Vec<TableSpec>> = None;
        let mut plan = None;
        let mut fuse = None;
        for field in fields {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("field {field:?} is not key=value"))?;
            match key {
                "seed" => seed = Some(value.parse().map_err(|_| "bad seed")?),
                "p" => p = Some(value.parse().map_err(|_| "bad p")?),
                "m" => m = Some(value.parse().map_err(|_| "bad m")?),
                "domain" => domain = Some(CaseDomain::parse(value)?),
                "prog" => {
                    stages = Some(
                        value
                            .split(';')
                            .map(StageSpec::decode)
                            .collect::<Result<_, _>>()?,
                    )
                }
                "tables" => {
                    let mut ts = Vec::new();
                    if value != "-" {
                        for (want, part) in value.split(';').enumerate() {
                            let (idx, t) = TableSpec::decode(part)?;
                            if idx != want {
                                return Err(format!("table {idx} out of order"));
                            }
                            ts.push(t);
                        }
                    }
                    tables = Some(ts);
                }
                "plan" => {
                    plan = Some(if value == "none" {
                        None
                    } else {
                        Some(FaultPlan::parse(value)?)
                    })
                }
                "fuse" => {
                    fuse = Some(if value == "none" {
                        None
                    } else {
                        let (name, at) = value
                            .rsplit_once('@')
                            .ok_or("fuse must be RULE@index or none")?;
                        Some((
                            rule_by_name(name)?,
                            at.parse().map_err(|_| "bad fuse index")?,
                        ))
                    })
                }
                other => return Err(format!("unknown field {other:?}")),
            }
        }
        let case = CaseSpec {
            seed: seed.ok_or("missing seed")?,
            p: p.ok_or("missing p")?,
            m: m.ok_or("missing m")?,
            domain: domain.ok_or("missing domain")?,
            stages: stages.ok_or("missing prog")?,
            tables: tables.ok_or("missing tables")?,
            plan: plan.ok_or("missing plan")?,
            fuse: fuse.ok_or("missing fuse")?,
        };
        case.validate()?;
        Ok(case)
    }

    /// Structural validity: `p` and `m` inside [`P_RANGE`] and
    /// [`M_RANGE`], table references in range, scatter only right after a
    /// gather/allgather, plan ranks inside the machine, and a `fuse`
    /// annotation that actually matches.
    pub fn validate(&self) -> Result<(), String> {
        if !P_RANGE.contains(&self.p) {
            return Err(format!("p must be in {P_RANGE:?}, got {}", self.p));
        }
        if !M_RANGE.contains(&self.m) {
            return Err(format!("m must be in {M_RANGE:?}, got {}", self.m));
        }
        if self.stages.is_empty() {
            return Err("empty pipeline".to_string());
        }
        for (i, st) in self.stages.iter().enumerate() {
            if let Some(OpRef::Table(t)) = st.op_ref() {
                if *t >= self.tables.len() {
                    return Err(format!("stage {i} references missing table t{t}"));
                }
            }
            if matches!(st, StageSpec::Scatter)
                && !matches!(
                    i.checked_sub(1).map(|j| &self.stages[j]),
                    Some(StageSpec::Gather) | Some(StageSpec::AllGather)
                )
            {
                return Err(format!("scatter at stage {i} without a preceding gather"));
            }
        }
        for t in &self.tables {
            if let Some(j) = t.declare_distributes_over {
                if j >= self.tables.len() {
                    return Err(format!("distributivity declaration over missing t{j}"));
                }
            }
        }
        // Every table must be referenced: the analyzers only see operators
        // that occur in the pipeline, so an orphan table would make the
        // defense oracle's brute-forced claim sets diverge from theirs.
        for i in 0..self.tables.len() {
            let used = self
                .stages
                .iter()
                .any(|s| s.op_ref() == Some(&OpRef::Table(i)));
            if !used {
                return Err(format!("table t{i} is never referenced by a stage"));
            }
        }
        if let Some(plan) = &self.plan {
            let ranks_ok = plan.compute.iter().all(|s| s.rank < self.p)
                && plan.links.iter().all(|l| l.a < self.p && l.b < self.p)
                && plan
                    .drop_exact
                    .iter()
                    .all(|d| d.from < self.p && d.to < self.p)
                && plan.crash.as_ref().is_none_or(|c| c.rank < self.p);
            if !ranks_ok {
                return Err("fault plan names a rank outside the machine".to_string());
            }
        }
        if let Some((rule, at)) = self.fuse {
            let base = self.base_program();
            if at >= base.len() {
                return Err(format!("fuse index {at} out of range"));
            }
            if rules::try_match(rule, &base.stages()[at..]).is_none() {
                return Err(format!("fuse {}@{at} does not match", rule.name()));
            }
        }
        Ok(())
    }

    /// Build the pipeline *without* the `fuse` pre-application.
    pub fn base_program(&self) -> Program {
        let mut prog = Program::new();
        for st in &self.stages {
            prog = match st {
                StageSpec::Bcast => prog.bcast(),
                StageSpec::Gather => prog.gather(),
                StageSpec::Scatter => prog.scatter(),
                StageSpec::AllGather => prog.allgather(),
                StageSpec::MapId => prog.map("id", 0.0, |v| v.clone()),
                StageSpec::CoeffMul => {
                    let coeffs = self.coefficients();
                    prog.map_indexed("mul_coeff", 1.0, move |rank, v| {
                        scale_block(v, coeffs[rank])
                    })
                }
                StageSpec::Scan(op) => prog.scan(self.op(op)),
                StageSpec::Reduce(op) => prog.reduce(self.op(op)),
                StageSpec::AllReduce(op) => prog.allreduce(self.op(op)),
            };
        }
        prog
    }

    /// Build the pipeline, applying the `fuse` annotation when present.
    pub fn program(&self) -> Program {
        let base = self.base_program();
        match self.fuse {
            None => base,
            Some((rule, at)) => {
                let rw = rules::try_match(rule, &base.stages()[at..])
                    .unwrap_or_else(|| panic!("fuse {}@{at} does not match", rule.name()));
                base.splice(at, rules::window_len(rule), rw.stages)
            }
        }
    }

    /// Resolve an operator reference against this case's tables.
    pub fn op(&self, op: &OpRef) -> BinOp {
        match op {
            OpRef::Table(i) => self.tables[*i].binop(*i),
            OpRef::Builtin(name) => builtin_op(name).expect("builtin"),
        }
    }

    /// The PolyEval per-rank coefficients (dyadic, seed-derived).
    pub fn coefficients(&self) -> Vec<f64> {
        let mut rng = Rng::new(self.seed ^ 0xC0EF_C0EF);
        (0..self.p)
            .map(|_| rng.range_i64(-8, 9) as f64 * 0.5)
            .collect()
    }

    /// Deterministic domain-appropriate inputs: `p` blocks of `m` words.
    /// Float inputs are dyadic rationals, so rewrites that reassociate
    /// float arithmetic stay exactly representable at this scale.
    pub fn inputs(&self) -> Vec<Value> {
        let mut rng = Rng::new(self.seed ^ 0x1217_0B10);
        let scalar = |rng: &mut Rng| match self.domain {
            CaseDomain::Table => Value::Int(rng.range_i64(0, N)),
            CaseDomain::Int => Value::Int(rng.range_i64(-2, 3)),
            CaseDomain::Bool => Value::Bool(rng.chance(0.5)),
            CaseDomain::Float => Value::Float(rng.range_i64(-8, 9) as f64 * 0.5),
        };
        (0..self.p)
            .map(|_| {
                if self.m == 1 {
                    scalar(&mut rng)
                } else {
                    Value::list((0..self.m).map(|_| scalar(&mut rng)).collect())
                }
            })
            .collect()
    }

    /// Over-claims: laws *declared* on a table that its exhaustive truth
    /// table refutes. Non-empty exactly for planted-lie cases.
    pub fn over_claims(&self) -> Vec<LawClaim> {
        let mut out = Vec::new();
        for (i, t) in self.tables.iter().enumerate() {
            if !t.is_associative() {
                out.push(LawClaim {
                    table: i,
                    law: format!("associativity of {}", table_name(i)),
                });
            }
            if t.declare_commutative && !t.is_commutative() {
                out.push(LawClaim {
                    table: i,
                    law: format!("commutativity of {}", table_name(i)),
                });
            }
            if let Some(j) = t.declare_distributes_over {
                if !t.distributes_over(&self.tables[j]) {
                    out.push(LawClaim {
                        table: i,
                        law: format!("{} distributes over {}", table_name(i), table_name(j)),
                    });
                }
            }
        }
        out
    }

    /// Under-claims: laws that *hold* exhaustively but are not declared —
    /// commutativity, and distributivity over every case table *including
    /// the operator itself* (the analyzer probes self-distributivity too,
    /// e.g. idempotent lattice ops distribute over themselves).
    pub fn under_claims(&self) -> Vec<LawClaim> {
        let mut out = Vec::new();
        for (i, t) in self.tables.iter().enumerate() {
            if t.is_commutative() && !t.declare_commutative {
                out.push(LawClaim {
                    table: i,
                    law: format!("commutativity of {}", table_name(i)),
                });
            }
            for (j, u) in self.tables.iter().enumerate() {
                if t.declare_distributes_over != Some(j) && t.distributes_over(u) {
                    out.push(LawClaim {
                        table: i,
                        law: format!("{} distributes over {}", table_name(i), table_name(j)),
                    });
                }
            }
        }
        out
    }

    /// Whether comparing only rank 0 after an optimization that applied
    /// rank0-only rules is sound for this pipeline: every reducing stage
    /// (the only windows the Local rules can consume) must be followed by
    /// rank-local stages only, so non-root garbage can never flow back
    /// into rank 0's value. Judged on the base (unfused) pipeline, which
    /// is what the rewrite oracle optimizes.
    pub fn rank0_comparison_safe(&self) -> bool {
        let prog = self.base_program();
        let stages = prog.stages();
        for (i, s) in stages.iter().enumerate() {
            let reducing = matches!(
                s,
                Stage::Reduce(_)
                    | Stage::ReduceBalanced { all: false, .. }
                    | Stage::IterLocal { all: false, .. }
            );
            if reducing
                && stages[i + 1..]
                    .iter()
                    .any(|t| !matches!(t, Stage::Map { .. } | Stage::MapIndexed { .. }))
            {
                return false;
            }
        }
        true
    }
}

/// Multiply every scalar in a (possibly nested) block by `k`.
fn scale_block(v: &Value, k: f64) -> Value {
    match v {
        Value::List(items) => Value::list(items.iter().map(|x| scale_block(x, k)).collect()),
        scalar => Value::Float(scalar.as_float() * k),
    }
}

/// The machine sizes a case may have: [`CaseSpec::validate`] refuses any
/// other, and [`GenConfig::pmax`] must lie in it.
pub const P_RANGE: RangeInclusive<usize> = 2..=64;

/// The block sizes a case may have, likewise for [`GenConfig::mmax`].
pub const M_RANGE: RangeInclusive<usize> = 1..=64;

/// Knobs for [`generate_case`].
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Largest machine size drawn (inclusive).
    pub pmax: usize,
    /// Largest words-per-block drawn (inclusive).
    pub mmax: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig { pmax: 9, mmax: 4 }
    }
}

/// What a seed's case plants, decoded from the seed itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseMode {
    /// Honest declarations; pipeline embeds the LHS of a specific rule.
    HonestRule(Rule),
    /// The paper's Section-5 PolyEval pipeline (floats, honest).
    PolyEval,
    /// A deliberately false declaration of the given kind.
    OverClaim(LieKind),
    /// A true-but-undeclared commutativity.
    UnderClaim,
}

/// Which law an over-claim case lies about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LieKind {
    /// Non-associative table (associativity is always declared).
    Associativity,
    /// `.commutative()` on a non-commutative table.
    Commutativity,
    /// `.distributes_over_op(..)` that exhaustively fails.
    Distributivity,
}

/// Decode the mode a seed generates — the low digit cycles modes and the
/// next digits cycle rules/lie kinds, so consecutive seed ranges cover
/// everything deterministically (see module docs).
pub fn case_mode(seed: u64) -> CaseMode {
    match seed % 10 {
        0..=4 => CaseMode::HonestRule(Rule::ALL[((seed / 10) % 11) as usize]),
        5 => CaseMode::PolyEval,
        6..=8 => CaseMode::OverClaim(match (seed / 10) % 3 {
            0 => LieKind::Associativity,
            1 => LieKind::Commutativity,
            _ => LieKind::Distributivity,
        }),
        _ => CaseMode::UnderClaim,
    }
}

/// Generate the deterministic case for `seed`.
pub fn generate_case(seed: u64, cfg: &GenConfig) -> CaseSpec {
    let mut rng = Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xF022_2026);
    let p = rng.range_usize(2, cfg.pmax + 1);
    let m = rng.range_usize(1, cfg.mmax + 1);
    let plan = random_case_plan(&mut rng, seed, p);

    let mut case = CaseSpec {
        seed,
        p,
        m,
        domain: CaseDomain::Table,
        stages: Vec::new(),
        tables: Vec::new(),
        plan,
        fuse: None,
    };

    match case_mode(seed) {
        CaseMode::HonestRule(rule) => fill_honest(&mut case, rule, &mut rng),
        CaseMode::PolyEval => {
            case.domain = CaseDomain::Float;
            case.stages = vec![
                StageSpec::Bcast,
                StageSpec::Scan(OpRef::Builtin("fmul")),
                StageSpec::CoeffMul,
                StageSpec::Reduce(OpRef::Builtin("fadd")),
            ];
        }
        CaseMode::OverClaim(lie) => fill_over_claim(&mut case, lie, &mut rng),
        CaseMode::UnderClaim => fill_under_claim(&mut case, &mut rng),
    }
    debug_assert!(case.validate().is_ok(), "{:?}", case.validate());
    case
}

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

fn random_case_plan(rng: &mut Rng, seed: u64, p: usize) -> Option<FaultPlan> {
    if rng.chance(0.5) {
        return None;
    }
    let kind = match rng.range_usize(0, 10) {
        0..=4 => ChaosKind::Delay,
        5..=7 => ChaosKind::Lossy,
        _ => ChaosKind::Crash,
    };
    Some(random_plan(seed ^ 0x9A7A, p, kind))
}

/// Draw a random table; ~half are structured mixes of known associative
/// operations so the interesting cases actually occur.
pub fn random_table(rng: &mut Rng) -> TableSpec {
    let mut cells = [0i64; 16];
    if rng.chance(0.5) {
        for cell in cells.iter_mut() {
            *cell = rng.range_i64(0, N);
        }
    } else {
        let k = rng.range_usize(0, 6);
        for a in 0..N {
            for b in 0..N {
                cells[(a * N + b) as usize] = match k {
                    0 => a.min(b),
                    1 => a.max(b),
                    2 => (a + b) % N,
                    3 => (a * b) % N,
                    4 => a, // left projection (associative, non-comm.)
                    _ => 1, // constant (associative)
                };
            }
        }
    }
    TableSpec {
        cells,
        declare_commutative: false,
        declare_distributes_over: None,
    }
}

fn structured(kind: usize) -> TableSpec {
    let mut cells = [0i64; 16];
    for a in 0..N {
        for b in 0..N {
            cells[(a * N + b) as usize] = match kind {
                0 => a.min(b),
                1 => a.max(b),
                2 => (a + b) % N,
                3 => (a * b) % N,
                4 => a,
                _ => (a - b).rem_euclid(N), // non-associative, non-commutative
            };
        }
    }
    TableSpec {
        cells,
        declare_commutative: false,
        declare_distributes_over: None,
    }
}

fn sample_table(rng: &mut Rng, want: impl Fn(&TableSpec) -> bool, fallback: usize) -> TableSpec {
    for _ in 0..100 {
        let t = random_table(rng);
        if want(&t) {
            return t;
        }
    }
    let t = structured(fallback);
    assert!(want(&t), "fallback table does not satisfy the predicate");
    t
}

fn fill_honest(case: &mut CaseSpec, rule: Rule, rng: &mut Rng) {
    // Domains with exactly-verifiable laws only, so the targeted rule is
    // guaranteed to fire under property verification (coverage gate).
    case.domain = match rng.range_usize(0, 10) {
        0..=4 => CaseDomain::Table,
        5..=7 => CaseDomain::Int,
        _ => CaseDomain::Bool,
    };

    // Pick the window operator(s) honestly for the rule's side condition.
    let spec = rule.spec();
    let (ot, op) = if let Laws::Distributive { .. } = spec.laws {
        match case.domain {
            CaseDomain::Table => {
                let (t0, t1) = honest_distributive_pair(rng);
                case.tables = vec![t0, t1];
                (OpRef::Table(0), OpRef::Table(1))
            }
            CaseDomain::Int => (OpRef::Builtin("mul"), OpRef::Builtin("add")),
            _ => {
                if rng.chance(0.5) {
                    (OpRef::Builtin("and"), OpRef::Builtin("or"))
                } else {
                    (OpRef::Builtin("or"), OpRef::Builtin("and"))
                }
            }
        }
    } else {
        let need_comm = spec.laws == Laws::Commutative;
        let op = match case.domain {
            CaseDomain::Table => {
                let mut t = sample_table(
                    rng,
                    |t| t.is_associative() && (!need_comm || t.is_commutative()),
                    if need_comm { 0 } else { 4 },
                );
                // Honest declarations: exactly the brute-forced truth.
                t.declare_commutative = t.is_commutative();
                case.tables = vec![t];
                OpRef::Table(0)
            }
            CaseDomain::Int => OpRef::Builtin(["add", "max", "min"][rng.range_usize(0, 3)]),
            _ => OpRef::Builtin(if rng.chance(0.5) { "and" } else { "or" }),
        };
        (op.clone(), op)
    };

    // The targeted window sits at position 0 (no prefix, so no other rule
    // can consume it first); an `AnyReduce` draws reduce vs allreduce.
    let slot = |s| match s {
        Slot::Times => ot.clone(),
        Slot::Plus => op.clone(),
    };
    case.stages = spec
        .lhs
        .iter()
        .map(|pat| match *pat {
            Pat::Bcast => StageSpec::Bcast,
            Pat::Scan(s) => StageSpec::Scan(slot(s)),
            Pat::Reduce(s) => StageSpec::Reduce(slot(s)),
            Pat::AllReduce(s) => StageSpec::AllReduce(slot(s)),
            Pat::AnyReduce(s) if rng.chance(0.5) => StageSpec::Reduce(slot(s)),
            Pat::AnyReduce(s) => StageSpec::AllReduce(slot(s)),
        })
        .collect();

    append_suffix(case, rule, rng);

    // Occasionally pre-apply a matching rule so the case starts from a
    // fused form (Comcast / balanced / IterLocal stages reach oracle 2).
    if rng.chance(0.3) {
        let base = case.base_program();
        let mut matches = Vec::new();
        for at in 0..base.len() {
            for r in Rule::ALL {
                if rules::try_match(r, &base.stages()[at..]).is_some() {
                    matches.push((r, at));
                }
            }
        }
        if !matches.is_empty() {
            case.fuse = Some(matches[rng.range_usize(0, matches.len())]);
        }
    }
}

/// Random extra stages *after* the targeted window. Suffix-only keeps the
/// window at position 0 where the targeted rule matches first; a scan is
/// never appended directly after a window that is a proper prefix of a
/// longer rule's (BS-Comcast's: it would extend the match into a
/// higher-priority BSS window).
fn append_suffix(case: &mut CaseSpec, rule: Rule, rng: &mut Rng) {
    let lhs = rule.spec().lhs;
    let prefix_of_longer = Rule::ALL.iter().any(|r| {
        let longer = r.spec().lhs;
        longer.len() > lhs.len() && longer.starts_with(lhs)
    });
    let extra_op = |case: &CaseSpec, rng: &mut Rng| -> OpRef {
        match case.domain {
            // Reuse a case table (they are associative by construction).
            CaseDomain::Table => OpRef::Table(rng.range_usize(0, case.tables.len())),
            // `mul` excluded: stacked products overflow i64 in long runs.
            CaseDomain::Int => OpRef::Builtin(["add", "max", "min"][rng.range_usize(0, 3)]),
            _ => OpRef::Builtin(if rng.chance(0.5) { "and" } else { "or" }),
        }
    };
    for i in 0..rng.range_usize(0, 4) {
        let roll = rng.range_usize(0, 10);
        let stage = match roll {
            0..=1 => StageSpec::MapId,
            2..=3 => StageSpec::Bcast,
            4..=5 => {
                if i == 0 && prefix_of_longer {
                    StageSpec::MapId
                } else {
                    StageSpec::Scan(extra_op(case, rng))
                }
            }
            6 => StageSpec::Reduce(extra_op(case, rng)),
            7 => StageSpec::AllReduce(extra_op(case, rng)),
            _ => {
                // Terminal gather forms; nothing may follow a shape change.
                case.stages.push(if rng.chance(0.5) {
                    StageSpec::Gather
                } else {
                    StageSpec::AllGather
                });
                if rng.chance(0.5) {
                    case.stages.push(StageSpec::Scatter);
                }
                return;
            }
        };
        case.stages.push(stage);
    }
}

/// Pick an honest `(⊗, ⊕)` pair with `⊗` distributing over `⊕`: random
/// search first, then a known structured pair.
fn honest_distributive_pair(rng: &mut Rng) -> (TableSpec, TableSpec) {
    for _ in 0..20 {
        let t0 = random_table(rng);
        let t1 = random_table(rng);
        if t0.is_associative() && t1.is_associative() && t0.distributes_over(&t1) {
            return declare_pair(t0, t1);
        }
    }
    let (a, b) = match rng.range_usize(0, 3) {
        0 => (structured(3), structured(2)), // (a*b)%N over (a+b)%N
        1 => (structured(0), structured(1)), // min over max
        _ => (structured(1), structured(0)), // max over min
    };
    declare_pair(a, b)
}

fn declare_pair(mut t0: TableSpec, mut t1: TableSpec) -> (TableSpec, TableSpec) {
    t0.declare_commutative = t0.is_commutative();
    t0.declare_distributes_over = Some(1);
    t1.declare_commutative = t1.is_commutative();
    (t0, t1)
}

fn fill_over_claim(case: &mut CaseSpec, lie: LieKind, rng: &mut Rng) {
    case.domain = CaseDomain::Table;
    match lie {
        LieKind::Associativity => {
            // A non-associative table; `BinOp::new` still (falsely)
            // declares associativity. Use windows whose side condition
            // needs associativity only, so that is the single lie.
            let t = sample_table(rng, |t| !t.is_associative(), 5);
            case.tables = vec![t];
            let op = OpRef::Table(0);
            case.stages = match rng.range_usize(0, 3) {
                0 => vec![StageSpec::Bcast, StageSpec::Scan(op)],
                1 => vec![StageSpec::Bcast, StageSpec::Reduce(op)],
                _ => vec![StageSpec::Bcast, StageSpec::AllReduce(op)],
            };
        }
        LieKind::Commutativity => {
            let mut t = sample_table(rng, |t| t.is_associative() && !t.is_commutative(), 4);
            t.declare_commutative = true; // the lie
            case.tables = vec![t];
            let op = OpRef::Table(0);
            case.stages = match rng.range_usize(0, 4) {
                0 => vec![StageSpec::Scan(op.clone()), StageSpec::Reduce(op)],
                1 => vec![StageSpec::Scan(op.clone()), StageSpec::AllReduce(op)],
                2 => vec![StageSpec::Scan(op.clone()), StageSpec::Scan(op)],
                _ => vec![
                    StageSpec::Bcast,
                    StageSpec::Scan(op.clone()),
                    StageSpec::Reduce(op),
                ],
            };
        }
        LieKind::Distributivity => {
            // Sample the pair jointly: for some ⊕ almost every table
            // distributes, so a fixed fallback ⊗ is only safe for a
            // fixed ⊕ (projection does NOT distribute over mod-N add).
            let mut found = None;
            for _ in 0..100 {
                let t1 = random_table(rng);
                let t0 = random_table(rng);
                if t0.is_associative() && t1.is_associative() && !t0.distributes_over(&t1) {
                    found = Some((t0, t1));
                    break;
                }
            }
            let (mut t0, mut t1) = found.unwrap_or_else(|| (structured(4), structured(2)));
            t0.declare_distributes_over = Some(1); // the lie
            t0.declare_commutative = t0.is_commutative();
            t1.declare_commutative = t1.is_commutative();
            case.tables = vec![t0, t1];
            let (ot, op) = (OpRef::Table(0), OpRef::Table(1));
            case.stages = match rng.range_usize(0, 4) {
                0 => vec![StageSpec::Scan(ot), StageSpec::Reduce(op)],
                1 => vec![StageSpec::Scan(ot), StageSpec::AllReduce(op)],
                2 => vec![StageSpec::Scan(ot), StageSpec::Scan(op)],
                _ => vec![StageSpec::Bcast, StageSpec::Scan(ot), StageSpec::Scan(op)],
            };
        }
    }
}

fn fill_under_claim(case: &mut CaseSpec, rng: &mut Rng) {
    case.domain = CaseDomain::Table;
    // Associative AND commutative, but commutativity left undeclared: the
    // engine must miss the fusion and the auditor/linter must say why.
    let t = sample_table(rng, |t| t.is_associative() && t.is_commutative(), 0);
    case.tables = vec![t];
    let op = OpRef::Table(0);
    case.stages = if rng.chance(0.5) {
        vec![StageSpec::Scan(op.clone()), StageSpec::AllReduce(op)]
    } else {
        vec![StageSpec::Scan(op.clone()), StageSpec::Scan(op)]
    };
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
    fn structured_tables_have_expected_algebra() {
        assert!(structured(0).is_associative() && structured(0).is_commutative());
        assert!(structured(4).is_associative() && !structured(4).is_commutative());
        assert!(!structured(5).is_associative() && !structured(5).is_commutative());
        assert!(structured(3).distributes_over(&structured(2)));
        assert!(structured(0).distributes_over(&structured(1)));
        // The distributivity-lie fallback pair must genuinely not
        // distribute: projection over mod-N addition.
        assert!(!structured(4).distributes_over(&structured(2)));
    }

    #[test]
    fn specs_round_trip_through_render_and_parse() {
        let cfg = GenConfig::default();
        for seed in 0..400 {
            let case = generate_case(seed, &cfg);
            let spec = case.render();
            let back =
                CaseSpec::parse(&spec).unwrap_or_else(|e| panic!("seed {seed}: {e}\nspec: {spec}"));
            assert_eq!(back.render(), spec, "seed {seed}");
            assert_eq!(back, case, "seed {seed}");
        }
    }

    #[test]
    fn a_spec_outside_the_generator_bounds_is_refused() {
        // `--replay` runs whatever parses: a spec may ask for no machine or
        // block the generator could not have drawn.
        let case = generate_case(0, &GenConfig::default());
        let spec = case.render();
        let with = |field: &str, value: usize| {
            let old = format!("|{field}={}|", if field == "p" { case.p } else { case.m });
            let mutated = spec.replacen(&old, &format!("|{field}={value}|"), 1);
            assert_ne!(mutated, spec);
            CaseSpec::parse(&mutated)
        };
        assert_eq!(with("p", 64).map(|c| c.p), Ok(64));
        assert_eq!(with("m", 64).map(|c| c.m), Ok(64));
        assert_eq!(
            with("p", 65),
            Err("p must be in 2..=64, got 65".to_string())
        );
        assert_eq!(
            with("m", 65),
            Err("m must be in 1..=64, got 65".to_string())
        );
        assert_eq!(with("p", 1), Err("p must be in 2..=64, got 1".to_string()));
    }

    #[test]
    fn unknown_engines_are_parse_errors_not_panics() {
        // A spec names no engine: an `engine=` field is an unknown key,
        // whatever its value.
        let spec = generate_case(0, &GenConfig::default()).render();
        for engine in ["des", "threads", "warp", ""] {
            let mutated = spec.replacen("|domain=", &format!("|engine={engine}|domain="), 1);
            assert_ne!(mutated, spec);
            let err = CaseSpec::parse(&mutated).expect_err(&mutated);
            assert_eq!(err, "unknown field \"engine\"", "engine={engine}");
        }
    }

    #[test]
    fn mode_schedule_covers_every_rule_and_lie_kind() {
        let mut rules_seen = std::collections::BTreeSet::new();
        let mut lies_seen = std::collections::BTreeSet::new();
        let mut under = 0;
        for seed in 1000..1110 {
            match case_mode(seed) {
                CaseMode::HonestRule(r) => {
                    rules_seen.insert(r.name());
                }
                CaseMode::OverClaim(k) => {
                    lies_seen.insert(format!("{k:?}"));
                }
                CaseMode::UnderClaim => under += 1,
                CaseMode::PolyEval => {}
            }
        }
        assert_eq!(rules_seen.len(), 11, "{rules_seen:?}");
        assert_eq!(lies_seen.len(), 3, "{lies_seen:?}");
        assert!(under > 0);
    }

    #[test]
    fn over_claim_cases_plant_exactly_the_advertised_lie() {
        let cfg = GenConfig::default();
        let mut seen = 0;
        for seed in 0..400 {
            if let CaseMode::OverClaim(kind) = case_mode(seed) {
                let case = generate_case(seed, &cfg);
                let over = case.over_claims();
                assert!(!over.is_empty(), "seed {seed} planted nothing");
                let expect = match kind {
                    LieKind::Associativity => "associativity",
                    LieKind::Commutativity => "commutativity",
                    LieKind::Distributivity => "distributes over",
                };
                assert!(
                    over.iter().any(|c| c.law.contains(expect)),
                    "seed {seed}: {over:?} lacks {expect}"
                );
                seen += 1;
            }
        }
        assert!(seen >= 50);
    }

    #[test]
    fn under_claim_cases_withhold_a_true_law() {
        let cfg = GenConfig::default();
        for seed in 0..200 {
            if case_mode(seed) == CaseMode::UnderClaim {
                let case = generate_case(seed, &cfg);
                assert!(case.over_claims().is_empty());
                assert!(case
                    .under_claims()
                    .iter()
                    .any(|c| c.law.starts_with("commutativity")));
            }
        }
    }

    #[test]
    fn generated_programs_build_and_inputs_fit() {
        let cfg = GenConfig::default();
        for seed in 0..300 {
            let case = generate_case(seed, &cfg);
            let prog = case.program();
            assert!(!prog.is_empty());
            assert_eq!(case.inputs().len(), case.p);
        }
    }

    #[test]
    fn table_laws_survive_integer_wrapping() {
        // The rem_euclid wrapper must make laws on ℤ match the domain
        // truth exactly — spot-check with out-of-domain probe values.
        let t = structured(0); // min: associative + commutative
        let op = t.binop(0);
        let probes: Vec<Value> = [-7i64, -2, 0, 1, 5, 11].map(Value::Int).to_vec();
        assert!(op.check_associative(&probes));
        assert!(op.check_commutative(&probes));
        let bad = structured(5); // (a-b) mod N: neither law
        let op = bad.binop(0);
        assert!(!op.check_associative(&probes));
        assert!(!op.check_commutative(&probes));
    }
}
