//! Program terms: the paper's functional framework (Section 2.2).
//!
//! A [`Program`] is a forward composition of [`Stage`]s, mirroring eq. (2):
//!
//! ```text
//! example = map f ; scan (⊗) ; reduce (⊕) ; map g ; bcast
//! ```
//!
//! The stage set contains the paper's source-language constructs (`map`,
//! `map#`, `bcast`, `scan`, `reduce`, `allreduce`) **and** the target
//! constructs produced by the optimization rules (`reduce_balanced`,
//! `scan_balanced`, comcast, local iteration), so a rewritten program is a
//! first-class program again: it can be evaluated, executed on the
//! machine, cost-estimated and printed.

use std::sync::Arc;

use crate::op::BinOp;
use crate::value::Value;

/// A unary local function over values.
pub type ValueFn = Arc<dyn Fn(&Value) -> Value + Send + Sync>;
/// A binary local function over values.
pub type ValueFn2 = Arc<dyn Fn(&Value, &Value) -> Value + Send + Sync>;
/// A rank-indexed local function (the paper's `map#`, eq. 13).
pub type IndexedFn = Arc<dyn Fn(usize, &Value) -> Value + Send + Sync>;
/// A paired combine producing new values for both butterfly partners.
pub type PairedFn = Arc<dyn Fn(&Value, &Value) -> (Value, Value) + Send + Sync>;

/// Which comcast implementation a [`Stage::Comcast`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComcastVariant {
    /// Broadcast then local `repeat` (Figure 6) — the fast version.
    BcastRepeat,
    /// Successive doubling (Section 3.4's cost-optimal alternative).
    CostOptimal,
}

/// One stage of a program.
#[derive(Clone)]
pub enum Stage {
    /// `map f` — a local computation on every processor (eq. 4).
    Map {
        /// The function, applied to the whole block value.
        f: ValueFn,
        /// Computation charge in base operations per block element.
        ops: f64,
        /// Display name.
        label: String,
    },
    /// `map# f` — local computation that also sees the processor number.
    MapIndexed {
        /// The function, given `(rank, block)`.
        f: IndexedFn,
        /// Charge per block element.
        ops: f64,
        /// Display name.
        label: String,
    },
    /// `bcast` (eq. 8), root = processor 0.
    Bcast,
    /// `scan (⊕)` (eq. 7).
    Scan(BinOp),
    /// `reduce (⊕)` to processor 0 (eq. 5).
    Reduce(BinOp),
    /// `allreduce (⊕)` (eq. 6).
    AllReduce(BinOp),
    /// `reduce_balanced` / `allreduce_balanced` with a (generally
    /// non-associative) operator following the virtual balanced tree —
    /// the target of rule SR-Reduction.
    ReduceBalanced {
        /// Binary combine (left argument covers the lower ranks).
        combine: ValueFn2,
        /// Unary variant for nodes with an empty left subtree.
        solo: ValueFn,
        /// `true` for the allreduce form.
        all: bool,
        /// Charge per element for one binary combine (4 for `op_sr`).
        ops_combine: f64,
        /// Charge per element for the unary variant.
        ops_solo: f64,
        /// Words on the wire per block element (2 for `op_sr` pairs).
        words_factor: u64,
        /// Display name.
        label: String,
    },
    /// `scan_balanced` with a paired operator — the target of rule SS-Scan.
    ScanBalanced {
        /// `combine(lower, upper) → (new_lower, new_upper)`.
        combine: PairedFn,
        /// Applied by ranks without a butterfly partner.
        solo: ValueFn,
        /// Charge per element on the lower partner (5 for `op_ss`).
        ops_lower: f64,
        /// Charge per element on the upper partner (8 for `op_ss`).
        ops_upper: f64,
        /// Charge per element for the solo variant.
        ops_solo: f64,
        /// Words on the wire per block element per direction
        /// (3 for `op_ss`).
        words_factor: u64,
        /// Display name.
        label: String,
    },
    /// The comcast pattern (Section 3.4) — the target of the *-Comcast
    /// rules: processor `k` ends with `project(repeat (e,o) k (inject b))`.
    Comcast {
        /// Digit-0 step.
        e: ValueFn,
        /// Digit-1 step.
        o: ValueFn,
        /// Pre-adjustment (`pair`/`triple`/`quadruple`).
        inject: ValueFn,
        /// Post-adjustment (`π1`).
        project: ValueFn,
        /// Charge per element for `e`.
        ops_e: f64,
        /// Charge per element for `o`.
        ops_o: f64,
        /// Auxiliary-tuple width in words per block element (for the
        /// cost-optimal variant's messages).
        words_factor: u64,
        /// Implementation choice.
        variant: ComcastVariant,
        /// Display name.
        label: String,
    },
    /// `gather` — every processor's value assembled into a [`Value::List`]
    /// on processor 0, in rank order (the other processors keep their
    /// values, mirroring `reduce`'s treatment of undefined positions).
    Gather,
    /// `scatter` — processor 0 holds a [`Value::List`] with one element
    /// per processor; element `i` is delivered to processor `i`.
    Scatter,
    /// `allgather` — every processor ends with the full rank-ordered
    /// [`Value::List`].
    AllGather,
    /// `iter` — a purely local iteration on processor 0 (Section 3.5), the
    /// target of the *-Local rules. Generalized from the paper's `log p`
    /// doublings to any `p` via the local balanced tree
    /// ([`crate::adjust::iter_balanced`]).
    IterLocal {
        /// Binary combine (doubling at complete nodes).
        combine: ValueFn2,
        /// Unary variant at incomplete nodes.
        solo: ValueFn,
        /// `true` appends a broadcast (CR-Alllocal).
        all: bool,
        /// Charge per element for one combine.
        ops_combine: f64,
        /// Charge per element for the solo variant.
        ops_solo: f64,
        /// Display name.
        label: String,
    },
}

impl Stage {
    /// A `map` stage from a plain closure.
    pub fn map(
        label: impl Into<String>,
        ops: f64,
        f: impl Fn(&Value) -> Value + Send + Sync + 'static,
    ) -> Stage {
        Stage::Map {
            f: Arc::new(f),
            ops,
            label: label.into(),
        }
    }

    /// A `map#` stage from a rank-indexed closure.
    pub fn map_indexed(
        label: impl Into<String>,
        ops: f64,
        f: impl Fn(usize, &Value) -> Value + Send + Sync + 'static,
    ) -> Stage {
        Stage::MapIndexed {
            f: Arc::new(f),
            ops,
            label: label.into(),
        }
    }

    /// Short human-readable form, the stage's `Display`.
    pub fn describe(&self) -> String {
        self.with_form(std::fmt::format)
    }

    /// Hand the stage's human-readable form to `f`: the one spelling both
    /// [`Stage::describe`] (a `format!`) and `Display` (written in place,
    /// no `String`) use.
    fn with_form<R>(&self, f: impl FnOnce(std::fmt::Arguments<'_>) -> R) -> R {
        match self {
            Stage::Map { label, .. } => f(format_args!("map {label}")),
            Stage::MapIndexed { label, .. } => f(format_args!("map# {label}")),
            Stage::Bcast => f(format_args!("bcast")),
            Stage::Scan(op) => f(format_args!("scan({})", op.name())),
            Stage::Reduce(op) => f(format_args!("reduce({})", op.name())),
            Stage::AllReduce(op) => f(format_args!("allreduce({})", op.name())),
            Stage::ReduceBalanced { all, label, .. } => {
                if *all {
                    f(format_args!("allreduce_balanced({label})"))
                } else {
                    f(format_args!("reduce_balanced({label})"))
                }
            }
            Stage::Gather => f(format_args!("gather")),
            Stage::Scatter => f(format_args!("scatter")),
            Stage::AllGather => f(format_args!("allgather")),
            Stage::ScanBalanced { label, .. } => f(format_args!("scan_balanced({label})")),
            Stage::Comcast { label, variant, .. } => match variant {
                ComcastVariant::BcastRepeat => f(format_args!("bcast; map# {label}")),
                ComcastVariant::CostOptimal => f(format_args!("comcast({label})")),
            },
            Stage::IterLocal { all, label, .. } => {
                if *all {
                    f(format_args!("iter({label}); bcast"))
                } else {
                    f(format_args!("iter({label})"))
                }
            }
        }
    }

    /// Is this a collective stage (i.e. does it communicate)?
    pub fn is_collective(&self) -> bool {
        !matches!(
            self,
            Stage::Map { .. } | Stage::MapIndexed { .. } | Stage::IterLocal { all: false, .. }
        )
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.with_form(|form| f.write_fmt(form))
    }
}

impl std::fmt::Debug for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(self, f)
    }
}

/// A program: a forward composition of stages, `stage1 ; stage2 ; …`.
#[derive(Clone, Default)]
pub struct Program {
    stages: Vec<Stage>,
}

impl Program {
    /// The empty program (identity).
    pub fn new() -> Self {
        Program { stages: Vec::new() }
    }

    /// Append any stage.
    pub fn push(mut self, stage: Stage) -> Self {
        self.stages.push(stage);
        self
    }

    /// Append `map f`.
    pub fn map(
        self,
        label: impl Into<String>,
        ops: f64,
        f: impl Fn(&Value) -> Value + Send + Sync + 'static,
    ) -> Self {
        self.push(Stage::map(label, ops, f))
    }

    /// Append `map# f`.
    pub fn map_indexed(
        self,
        label: impl Into<String>,
        ops: f64,
        f: impl Fn(usize, &Value) -> Value + Send + Sync + 'static,
    ) -> Self {
        self.push(Stage::map_indexed(label, ops, f))
    }

    /// Append `bcast`.
    pub fn bcast(self) -> Self {
        self.push(Stage::Bcast)
    }

    /// Append `scan (op)`.
    pub fn scan(self, op: BinOp) -> Self {
        assert!(op.is_associative(), "scan needs an associative operator");
        self.push(Stage::Scan(op))
    }

    /// Append `reduce (op)`.
    pub fn reduce(self, op: BinOp) -> Self {
        assert!(op.is_associative(), "reduce needs an associative operator");
        self.push(Stage::Reduce(op))
    }

    /// Append `allreduce (op)`.
    pub fn allreduce(self, op: BinOp) -> Self {
        assert!(
            op.is_associative(),
            "allreduce needs an associative operator"
        );
        self.push(Stage::AllReduce(op))
    }

    /// Append `gather`.
    pub fn gather(self) -> Self {
        self.push(Stage::Gather)
    }

    /// Append `scatter`.
    pub fn scatter(self) -> Self {
        self.push(Stage::Scatter)
    }

    /// Append `allgather`.
    pub fn allgather(self) -> Self {
        self.push(Stage::AllGather)
    }

    /// The stages in order.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Is the program empty?
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Number of collective (communicating) stages — the quantity the
    /// optimization rules reduce.
    pub fn collective_count(&self) -> usize {
        self.stages.iter().filter(|s| s.is_collective()).count()
    }

    /// Replace stages `[at, at + consumed)` with `replacement`.
    pub fn splice(&self, at: usize, consumed: usize, replacement: Vec<Stage>) -> Program {
        assert!(at + consumed <= self.stages.len());
        let mut stages = Vec::with_capacity(self.stages.len() - consumed + replacement.len());
        stages.extend(self.stages[..at].iter().cloned());
        stages.extend(replacement);
        stages.extend(self.stages[at + consumed..].iter().cloned());
        Program { stages }
    }

    /// The program of these stages, in order.
    pub(crate) fn from_stages(stages: Vec<Stage>) -> Program {
        Program { stages }
    }

    /// The stages, in order.
    pub(crate) fn into_stages(self) -> Vec<Stage> {
        self.stages
    }

    /// Sequential composition: `self ; next` (the paper's program
    /// composition that creates new optimization opportunities, Figure 1).
    pub fn then(mut self, next: Program) -> Program {
        self.stages.extend(next.stages);
        self
    }
}

impl std::fmt::Display for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write_chain(f, &self.stages)
    }
}

/// A stage sequence spelled as a [`Program`] spells it: the stages joined
/// by ` ; `, or `id` when there are none.
pub(crate) fn write_chain<'a, S>(
    f: &mut std::fmt::Formatter<'_>,
    stages: impl IntoIterator<Item = &'a S>,
) -> std::fmt::Result
where
    S: std::fmt::Display + 'a,
{
    let mut stages = stages.into_iter().peekable();
    if stages.peek().is_none() {
        return f.write_str("id");
    }
    for (i, stage) in stages.enumerate() {
        if i > 0 {
            f.write_str(" ; ")?;
        }
        std::fmt::Display::fmt(stage, f)?;
    }
    Ok(())
}

impl std::fmt::Debug for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Program[{self}]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::lib;

    #[test]
    fn builder_composes_in_order() {
        let p = Program::new()
            .map("f", 1.0, |v| v.clone())
            .scan(lib::mul())
            .reduce(lib::add())
            .map("g", 1.0, |v| v.clone())
            .bcast();
        assert_eq!(p.len(), 5);
        assert_eq!(
            p.to_string(),
            "map f ; scan(mul) ; reduce(add) ; map g ; bcast"
        );
        assert_eq!(p.collective_count(), 3);
    }

    #[test]
    fn splice_replaces_a_window() {
        let p = Program::new().scan(lib::add()).reduce(lib::add()).bcast();
        let q = p.splice(0, 2, vec![Stage::map("fused", 0.0, |v| v.clone())]);
        assert_eq!(q.to_string(), "map fused ; bcast");
        assert_eq!(q.collective_count(), 1);
    }

    #[test]
    fn then_concatenates_programs() {
        let a = Program::new().bcast();
        let b = Program::new().scan(lib::add());
        let c = a.then(b);
        assert_eq!(c.to_string(), "bcast ; scan(add)");
    }

    #[test]
    fn empty_program_displays_id() {
        assert_eq!(Program::new().to_string(), "id");
        assert!(Program::new().is_empty());
    }

    #[test]
    #[should_panic(expected = "associative")]
    fn scan_rejects_non_associative_ops() {
        let bad = crate::op::BinOp::new("bad", |a, _| a.clone()).non_associative();
        let _ = Program::new().scan(bad);
    }

    #[test]
    fn is_collective_classification() {
        assert!(!Stage::map("f", 1.0, |v| v.clone()).is_collective());
        assert!(Stage::Bcast.is_collective());
        assert!(Stage::Scan(lib::add()).is_collective());
    }
}
