//! Base operators and their algebraic properties.
//!
//! The side conditions of the optimization rules are algebraic:
//! associativity (every collective needs it), commutativity (SR-Reduction,
//! SS-Scan, BSS-Comcast, BSR-Local), and distributivity of one operator
//! over another (the `2`-rules: SR2, SS2, BSS2, BSR2). A [`BinOp`] bundles
//! the combine function with *declared* properties; the declarations are
//! what the rewrite engine trusts, and [`BinOp::check_associative`] /
//! [`check_commutative`](BinOp::check_commutative) /
//! [`check_distributes_over`](BinOp::check_distributes_over) give
//! randomized verification used by the test-suite (and available to users
//! who declare properties of their own operators).

use std::sync::Arc;

use crate::value::Value;

/// A binary function over [`Value`]s.
pub type ValueFn2 = Arc<dyn Fn(&Value, &Value) -> Value + Send + Sync>;

/// A binary base operator with declared algebraic properties and a
/// declared cost (base operations per block word per application).
#[derive(Clone)]
pub struct BinOp {
    name: String,
    f: ValueFn2,
    associative: bool,
    commutative: bool,
    distributes_over: Vec<String>,
    ops_per_word: f64,
    width: f64,
    /// `f` is one of [`lib`]'s functions, so `name` identifies it.
    library: bool,
}

impl BinOp {
    /// A new operator. `associative` must hold for the operator to be used
    /// in any collective; it is asserted here as documentation of intent
    /// and verified by the randomized checkers in tests.
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(&Value, &Value) -> Value + Send + Sync + 'static,
    ) -> Self {
        BinOp {
            name: name.into(),
            f: Arc::new(f),
            associative: true,
            commutative: false,
            distributes_over: Vec::new(),
            ops_per_word: 1.0,
            width: 1.0,
            library: false,
        }
    }

    /// Declare the operator commutative.
    pub fn commutative(mut self) -> Self {
        self.commutative = true;
        self
    }

    /// Declare that `self` distributes over the operator named `other`:
    /// `a ⊗ (b ⊕ c) = (a ⊗ b) ⊕ (a ⊗ c)`.
    pub fn distributes_over_op(mut self, other: &str) -> Self {
        self.distributes_over.push(other.to_string());
        self
    }

    /// Override the per-word cost (default 1).
    pub fn with_cost(mut self, ops_per_word: f64) -> Self {
        assert!(ops_per_word >= 0.0);
        self.ops_per_word = ops_per_word;
        self
    }

    /// Mark the operator as non-associative (only used by fused operators
    /// that must never be fed to a standard collective).
    pub fn non_associative(mut self) -> Self {
        self.associative = false;
        self
    }

    /// Declare the value width in machine words per block element
    /// (2 for operators on pairs, etc.; default 1). Used by the cost
    /// estimator to size messages.
    pub fn with_width(mut self, width: f64) -> Self {
        assert!(width >= 1.0);
        self.width = width;
        self
    }

    /// Declared width in words per block element.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Operator name (identity for property lookups).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Was the operator built by [`lib`]? Only then does its name identify
    /// its function — anyone can build `BinOp::new("add", ..)` over another
    /// body. The declaration builders keep the flag: they do not touch `f`.
    pub fn is_library(&self) -> bool {
        self.library
    }

    /// Is the operator declared associative?
    pub fn is_associative(&self) -> bool {
        self.associative
    }

    /// Is the operator declared commutative?
    pub fn is_commutative(&self) -> bool {
        self.commutative
    }

    /// Does `self` distribute over `other` (by declaration)?
    pub fn distributes_over(&self, other: &BinOp) -> bool {
        self.distributes_over.iter().any(|n| n == other.name())
    }

    /// Declared cost in base operations per block word.
    pub fn ops_per_word(&self) -> f64 {
        self.ops_per_word
    }

    /// Apply to scalars or tuples directly; lifts elementwise over
    /// [`Value::List`] blocks.
    pub fn apply(&self, a: &Value, b: &Value) -> Value {
        let f = &self.f;
        a.zip_block(b, &|x, y| f(x, y))
    }

    /// The raw scalar function (no block lifting).
    pub fn raw(&self) -> ValueFn2 {
        self.f.clone()
    }

    /// Randomized associativity check over the given sample values:
    /// verifies `(a⊕b)⊕c = a⊕(b⊕c)` for all triples.
    pub fn check_associative(&self, samples: &[Value]) -> bool {
        RequiredLaw::Associative(self.clone())
            .counterexample(samples)
            .is_none()
    }

    /// Randomized commutativity check: `a⊕b = b⊕a` for all pairs.
    pub fn check_commutative(&self, samples: &[Value]) -> bool {
        RequiredLaw::Commutative(self.clone())
            .counterexample(samples)
            .is_none()
    }

    /// Randomized distributivity check:
    /// `a ⊗ (b ⊕ c) = (a ⊗ b) ⊕ (a ⊗ c)` and the right-handed law
    /// `(b ⊕ c) ⊗ a = (b ⊗ a) ⊕ (c ⊗ a)` for all triples. The rules need
    /// both orientations (the fused operators multiply on either side).
    pub fn check_distributes_over(&self, other: &BinOp, samples: &[Value]) -> bool {
        RequiredLaw::DistributesOver(self.clone(), other.clone())
            .counterexample(samples)
            .is_none()
    }
}

impl std::fmt::Debug for BinOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BinOp")
            .field("name", &self.name)
            .field("associative", &self.associative)
            .field("commutative", &self.commutative)
            .field("distributes_over", &self.distributes_over)
            .field("ops_per_word", &self.ops_per_word)
            .finish()
    }
}

/// The relative tolerance used by [`value_close`] for floating-point
/// comparisons — the **single** place the epsilon is defined.
///
/// Tolerance semantics: two floats `x`, `y` are close when
/// `|x − y| ≤ FLOAT_RTOL · max(|x|, |y|, 1)` — relative for large
/// magnitudes, absolute (`FLOAT_RTOL`) near zero. Consequently every
/// algebraic law the checkers report for a floating-point operator is
/// *tolerance-approximate*: it holds up to rounding at this epsilon, not
/// exactly. Integer and boolean comparisons are always exact. Callers
/// needing a different epsilon use [`value_close_with`].
pub const FLOAT_RTOL: f64 = 1e-9;

/// Structural equality with a small tolerance on floats (the randomized
/// checkers must not fail on benign rounding). Uses [`FLOAT_RTOL`]; see
/// its docs for the exact comparison semantics.
pub fn value_close(a: &Value, b: &Value) -> bool {
    value_close_with(a, b, FLOAT_RTOL)
}

/// [`value_close`] with an explicit relative tolerance for floats.
pub fn value_close_with(a: &Value, b: &Value, rtol: f64) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => {
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= rtol * scale
        }
        (Value::Tuple(xs), Value::Tuple(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys.iter())
                    .all(|(x, y)| value_close_with(x, y, rtol))
        }
        (Value::List(xs), Value::List(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys.iter())
                    .all(|(x, y)| value_close_with(x, y, rtol))
        }
        _ => false,
    }
}

/// A concrete refutation of an algebraic law: the assignment of sample
/// values to the law's variables, and the two sides that disagree.
///
/// Produced by [`RequiredLaw::counterexample`] after greedy shrinking:
/// each variable is minimized (towards fewer distinct values, then
/// smaller magnitudes) while the violation is preserved, so the reported
/// witness is as readable as the sample pool allows.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The violated law, e.g. `"commutativity of sub"`.
    pub law: String,
    /// The shrunk variable assignment, in the law's variable order
    /// (`a`, `b`, `c`).
    pub values: Vec<Value>,
    /// The equation instance that fails, e.g. `"a⊕b = b⊕a"`.
    pub equation: String,
    /// Left-hand side under the assignment.
    pub left: Value,
    /// Right-hand side under the assignment.
    pub right: Value,
}

impl Counterexample {
    /// Number of distinct values in the assignment (shrinking drives this
    /// down; a law over three variables needs at most three).
    pub fn distinct_values(&self) -> usize {
        let mut seen: Vec<String> = self.values.iter().map(|v| format!("{v:?}")).collect();
        seen.sort();
        seen.dedup();
        seen.len()
    }
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names = ["a", "b", "c"];
        let binds: Vec<String> = self
            .values
            .iter()
            .enumerate()
            .map(|(i, v)| format!("{}={}", names.get(i).copied().unwrap_or("?"), v))
            .collect();
        write!(
            f,
            "{} fails at {}: {} gives {} vs {}",
            self.law,
            binds.join(", "),
            self.equation,
            self.left,
            self.right
        )
    }
}

/// An algebraic side condition over concrete operators — the unit a
/// rewrite certificate is made of, and the unit the operator auditor
/// checks. Unlike the boolean `check_*` methods this type can *search*
/// for counterexamples, shrink them, and describe itself.
#[derive(Debug, Clone)]
pub enum RequiredLaw {
    /// `(a⊕b)⊕c = a⊕(b⊕c)`.
    Associative(BinOp),
    /// `a⊕b = b⊕a`.
    Commutative(BinOp),
    /// `a ⊗ (b⊕c) = (a⊗b) ⊕ (a⊗c)` and its mirrored form (the fused
    /// operators multiply on either side).
    DistributesOver(BinOp, BinOp),
}

impl RequiredLaw {
    /// Number of variables the law quantifies over.
    pub fn arity(&self) -> usize {
        match self {
            RequiredLaw::Commutative(_) => 2,
            RequiredLaw::Associative(_) | RequiredLaw::DistributesOver(..) => 3,
        }
    }

    /// Human-readable statement, e.g. `"mul distributes over add"`.
    pub fn describe(&self) -> String {
        match self {
            RequiredLaw::Associative(op) => format!("associativity of {}", op.name()),
            RequiredLaw::Commutative(op) => format!("commutativity of {}", op.name()),
            RequiredLaw::DistributesOver(ot, op) => {
                format!("{} distributes over {}", ot.name(), op.name())
            }
        }
    }

    /// Name(s) of the operator(s) the law constrains.
    pub fn op_names(&self) -> Vec<&str> {
        match self {
            RequiredLaw::Associative(op) | RequiredLaw::Commutative(op) => vec![op.name()],
            RequiredLaw::DistributesOver(ot, op) => vec![ot.name(), op.name()],
        }
    }

    /// The operator(s) the law constrains.
    pub fn ops(&self) -> Vec<&BinOp> {
        match self {
            RequiredLaw::Associative(op) | RequiredLaw::Commutative(op) => vec![op],
            RequiredLaw::DistributesOver(ot, op) => vec![ot, op],
        }
    }

    /// Check the law at one concrete assignment. Returns the first failing
    /// equation instance as `(equation, left, right)`, or `None` when the
    /// law holds there (within `rtol` on floats).
    pub fn violation(&self, vs: &[Value], rtol: f64) -> Option<(String, Value, Value)> {
        debug_assert_eq!(vs.len(), self.arity());
        let differ = |l: &Value, r: &Value| !value_close_with(l, r, rtol);
        match self {
            RequiredLaw::Associative(op) => {
                let (a, b, c) = (&vs[0], &vs[1], &vs[2]);
                let left = op.apply(&op.apply(a, b), c);
                let right = op.apply(a, &op.apply(b, c));
                differ(&left, &right).then(|| ("(a⊕b)⊕c = a⊕(b⊕c)".to_string(), left, right))
            }
            RequiredLaw::Commutative(op) => {
                let (a, b) = (&vs[0], &vs[1]);
                let left = op.apply(a, b);
                let right = op.apply(b, a);
                differ(&left, &right).then(|| ("a⊕b = b⊕a".to_string(), left, right))
            }
            RequiredLaw::DistributesOver(ot, op) => {
                let (a, b, c) = (&vs[0], &vs[1], &vs[2]);
                let l1 = ot.apply(a, &op.apply(b, c));
                let r1 = op.apply(&ot.apply(a, b), &ot.apply(a, c));
                if differ(&l1, &r1) {
                    return Some(("a⊗(b⊕c) = (a⊗b)⊕(a⊗c)".to_string(), l1, r1));
                }
                let l2 = ot.apply(&op.apply(b, c), a);
                let r2 = op.apply(&ot.apply(b, a), &ot.apply(c, a));
                differ(&l2, &r2).then(|| ("(b⊕c)⊗a = (b⊗a)⊕(c⊗a)".to_string(), l2, r2))
            }
        }
    }

    /// Does the law hold on every assignment drawn from `samples`?
    pub fn holds_on(&self, samples: &[Value]) -> bool {
        self.counterexample(samples).is_none()
    }

    /// Exhaustive search over all assignments from `samples` (default
    /// float tolerance); the first violation found is shrunk before being
    /// returned.
    pub fn counterexample(&self, samples: &[Value]) -> Option<Counterexample> {
        self.counterexample_with(samples, FLOAT_RTOL)
    }

    /// [`counterexample`](Self::counterexample) with an explicit float
    /// tolerance.
    pub fn counterexample_with(&self, samples: &[Value], rtol: f64) -> Option<Counterexample> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len();
        let arity = self.arity();
        let mut idx = vec![0usize; arity];
        loop {
            let vs: Vec<Value> = idx.iter().map(|&i| samples[i].clone()).collect();
            if self.violation(&vs, rtol).is_some() {
                return Some(self.shrink(samples, vs, rtol));
            }
            // Odometer over `arity` digits base `n`.
            let mut carry = true;
            for d in idx.iter_mut() {
                if carry {
                    *d += 1;
                    carry = *d == n;
                    if carry {
                        *d = 0;
                    }
                }
            }
            if carry {
                return None;
            }
        }
    }

    /// Greedily shrink a known-violating assignment: repeatedly replace a
    /// variable with a simpler sample value, or with another variable's
    /// value (reducing the distinct count), as long as the violation
    /// survives. Deterministic; terminates because every accepted step
    /// strictly decreases the `(distinct count, total magnitude)` score.
    pub fn shrink(&self, samples: &[Value], witness: Vec<Value>, rtol: f64) -> Counterexample {
        fn magnitude(v: &Value) -> f64 {
            match v {
                Value::Int(x) => x.abs() as f64 + if *x < 0 { 0.5 } else { 0.0 },
                Value::Float(x) => x.abs() + if *x < 0.0 { 0.5 } else { 0.0 },
                Value::Bool(b) => f64::from(*b),
                Value::Tuple(xs) => xs.iter().map(magnitude).sum(),
                Value::List(xs) => xs.iter().map(magnitude).sum(),
            }
        }
        fn score(vs: &[Value]) -> (usize, f64) {
            let mut keys: Vec<String> = vs.iter().map(|v| format!("{v:?}")).collect();
            keys.sort();
            keys.dedup();
            (keys.len(), vs.iter().map(magnitude).sum())
        }
        fn better(a: (usize, f64), b: (usize, f64)) -> bool {
            a.0 < b.0 || (a.0 == b.0 && a.1 < b.1 - 1e-12)
        }

        debug_assert!(self.violation(&witness, rtol).is_some());
        let mut pool: Vec<Value> = samples.to_vec();
        pool.sort_by(|a, b| magnitude(a).total_cmp(&magnitude(b)));
        let mut best = witness;
        loop {
            let mut improved = false;
            // Move 1: replace one variable with a pool value or with
            // another variable's value (reduces the distinct count).
            'positions: for i in 0..best.len() {
                let mut candidates: Vec<Value> = pool.clone();
                candidates.extend(best.iter().cloned());
                for c in candidates {
                    if c == best[i] {
                        continue;
                    }
                    let mut trial = best.clone();
                    trial[i] = c;
                    if self.violation(&trial, rtol).is_some() && better(score(&trial), score(&best))
                    {
                        best = trial;
                        improved = true;
                        continue 'positions;
                    }
                }
            }
            // Move 2: substitute ALL occurrences of one value at once —
            // escapes local minima like (x,x,x) where any single-position
            // change would first increase the distinct count.
            for old in best.clone() {
                for c in &pool {
                    if *c == old {
                        continue;
                    }
                    let trial: Vec<Value> = best
                        .iter()
                        .map(|v| if *v == old { c.clone() } else { v.clone() })
                        .collect();
                    if self.violation(&trial, rtol).is_some() && better(score(&trial), score(&best))
                    {
                        best = trial;
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        let (equation, left, right) = self
            .violation(&best, rtol)
            .expect("shrinking preserves the violation");
        Counterexample {
            law: self.describe(),
            values: best,
            equation,
            left,
            right,
        }
    }
}

/// The standard operator library. All declared properties are verified by
/// the randomized checkers in this module's tests.
pub mod lib {
    use super::*;

    /// [`BinOp::new`] marked as this library's (see [`BinOp::is_library`]).
    fn library(
        name: impl Into<String>,
        f: impl Fn(&Value, &Value) -> Value + Send + Sync + 'static,
    ) -> BinOp {
        BinOp {
            library: true,
            ..BinOp::new(name, f)
        }
    }

    /// Integer addition — associative, commutative.
    pub fn add() -> BinOp {
        library("add", |a, b| {
            Value::Int(a.as_int().wrapping_add(b.as_int()))
        })
        .commutative()
    }

    /// Integer multiplication — associative, commutative, distributes
    /// over [`add`] (and over itself trivially not).
    pub fn mul() -> BinOp {
        library("mul", |a, b| {
            Value::Int(a.as_int().wrapping_mul(b.as_int()))
        })
        .commutative()
        .distributes_over_op("add")
    }

    /// Integer maximum — associative, commutative, idempotent. In the
    /// (max, min) lattice, each operation distributes over the other
    /// (`max(a, min(b,c)) = min(max(a,b), max(a,c))` — pure order theory,
    /// exact on all of `i64`), so `scan(max) ; reduce(min)` windows fuse
    /// by the distributivity rules. Found by the operator auditor
    /// (`collopt-analysis`): the declaration was originally missing.
    pub fn max() -> BinOp {
        library("max", |a, b| Value::Int(a.as_int().max(b.as_int())))
            .commutative()
            .distributes_over_op("min")
    }

    /// Integer minimum — the lattice dual of [`max`]; distributes over it
    /// (see there).
    pub fn min() -> BinOp {
        library("min", |a, b| Value::Int(a.as_int().min(b.as_int())))
            .commutative()
            .distributes_over_op("max")
    }

    /// Tropical addition: `add` distributing over `max` — the max-plus
    /// semiring used in dynamic-programming workloads
    /// (`a + max(b,c) = max(a+b, a+c)`).
    pub fn add_tropical() -> BinOp {
        library("add", |a, b| {
            Value::Int(a.as_int().wrapping_add(b.as_int()))
        })
        .commutative()
        .distributes_over_op("max")
        .distributes_over_op("min")
    }

    /// Boolean AND — distributes over OR.
    pub fn and() -> BinOp {
        library("and", |a, b| Value::Bool(a.as_bool() && b.as_bool()))
            .commutative()
            .distributes_over_op("or")
    }

    /// Boolean OR — distributes over AND.
    pub fn or() -> BinOp {
        library("or", |a, b| Value::Bool(a.as_bool() || b.as_bool()))
            .commutative()
            .distributes_over_op("and")
    }

    /// Float addition (commutative; associativity up to rounding).
    pub fn fadd() -> BinOp {
        library("fadd", |a, b| Value::Float(a.as_float() + b.as_float())).commutative()
    }

    /// Float multiplication — distributes over float addition.
    pub fn fmul() -> BinOp {
        library("fmul", |a, b| Value::Float(a.as_float() * b.as_float()))
            .commutative()
            .distributes_over_op("fadd")
    }

    /// Modular addition (wrap at `modulus`) — commutative.
    pub fn add_mod(modulus: i64) -> BinOp {
        assert!(modulus > 0);
        library(format!("add_mod{modulus}"), move |a, b| {
            Value::Int((a.as_int() + b.as_int()).rem_euclid(modulus))
        })
        .commutative()
    }

    /// MPI_MAXLOC: on pairs `(value, index)`, the larger value wins; ties
    /// go to the smaller index. Associative and commutative, the standard
    /// way to locate a global maximum's owner with one allreduce.
    pub fn maxloc() -> BinOp {
        library("maxloc", |x, y| {
            let (v1, i1) = (x.proj(0).as_int(), x.proj(1).as_int());
            let (v2, i2) = (y.proj(0).as_int(), y.proj(1).as_int());
            if v1 > v2 || (v1 == v2 && i1 <= i2) {
                x.clone()
            } else {
                y.clone()
            }
        })
        .commutative()
        .with_cost(2.0)
        .with_width(2.0)
    }

    /// MPI_MINLOC: the smaller value wins; ties go to the smaller index.
    pub fn minloc() -> BinOp {
        library("minloc", |x, y| {
            let (v1, i1) = (x.proj(0).as_int(), x.proj(1).as_int());
            let (v2, i2) = (y.proj(0).as_int(), y.proj(1).as_int());
            if v1 < v2 || (v1 == v2 && i1 <= i2) {
                x.clone()
            } else {
                y.clone()
            }
        })
        .commutative()
        .with_cost(2.0)
        .with_width(2.0)
    }

    /// Greatest common divisor — associative, commutative, idempotent-ish
    /// (gcd(x,x) = x); a second non-semiring commutative operator for the
    /// rule tests.
    pub fn gcd() -> BinOp {
        fn g(a: i64, b: i64) -> i64 {
            let (mut a, mut b) = (a.abs(), b.abs());
            while b != 0 {
                let t = a % b;
                a = b;
                b = t;
            }
            a
        }
        library("gcd", |a, b| Value::Int(g(a.as_int(), b.as_int()))).commutative()
    }

    /// String-free non-commutative associative operator: 2×2 integer
    /// matrix multiplication over tuples `(a,b,c,d)`. Used by tests that
    /// must detect operand-ordering bugs.
    pub fn mat2mul() -> BinOp {
        library("mat2mul", |x, y| {
            let (a, b, c, d) = (
                x.proj(0).as_int(),
                x.proj(1).as_int(),
                x.proj(2).as_int(),
                x.proj(3).as_int(),
            );
            let (e, f, g, h) = (
                y.proj(0).as_int(),
                y.proj(1).as_int(),
                y.proj(2).as_int(),
                y.proj(3).as_int(),
            );
            Value::Tuple(vec![
                Value::Int(a * e + b * g),
                Value::Int(a * f + b * h),
                Value::Int(c * e + d * g),
                Value::Int(c * f + d * h),
            ])
        })
        .with_cost(8.0)
    }
}

#[cfg(test)]
mod tests {
    use super::lib::*;
    use super::*;

    fn int_samples() -> Vec<Value> {
        vec![
            Value::Int(-7),
            Value::Int(-1),
            Value::Int(0),
            Value::Int(1),
            Value::Int(2),
            Value::Int(5),
            Value::Int(13),
        ]
    }

    fn bool_samples() -> Vec<Value> {
        vec![Value::Bool(false), Value::Bool(true)]
    }

    #[test]
    fn declared_properties_hold_for_int_ops() {
        let samples = int_samples();
        for op in [add(), mul(), max(), min()] {
            assert!(op.check_associative(&samples), "{} assoc", op.name());
            assert!(op.check_commutative(&samples), "{} comm", op.name());
        }
    }

    #[test]
    fn mul_distributes_over_add() {
        let samples = int_samples();
        let m = mul();
        let a = add();
        assert!(m.distributes_over(&a));
        assert!(m.check_distributes_over(&a, &samples));
        // add does NOT distribute over mul.
        assert!(!a.check_distributes_over(&m, &samples));
        assert!(!a.distributes_over(&m));
    }

    #[test]
    fn tropical_add_distributes_over_max_and_min() {
        let samples = int_samples();
        let t = add_tropical();
        assert!(t.check_distributes_over(&max(), &samples));
        assert!(t.check_distributes_over(&min(), &samples));
        assert!(t.distributes_over(&max()));
        assert!(t.distributes_over(&min()));
    }

    #[test]
    fn boolean_lattice_distributes_both_ways() {
        let samples = bool_samples();
        assert!(and().check_distributes_over(&or(), &samples));
        assert!(or().check_distributes_over(&and(), &samples));
    }

    #[test]
    fn mat2mul_is_associative_but_not_commutative() {
        let samples = vec![
            Value::Tuple(vec![1.into(), 2.into(), 3.into(), 4.into()]),
            Value::Tuple(vec![0.into(), 1.into(), 1.into(), 0.into()]),
            Value::Tuple(vec![2.into(), 0.into(), 0.into(), 2.into()]),
            Value::Tuple(vec![1.into(), 1.into(), 0.into(), 1.into()]),
        ];
        let m = mat2mul();
        assert!(m.check_associative(&samples));
        assert!(!m.check_commutative(&samples));
        assert!(!m.is_commutative());
    }

    #[test]
    fn maxloc_minloc_properties() {
        let samples: Vec<Value> = [(5i64, 0i64), (5, 2), (3, 1), (9, 3), (-2, 4)]
            .iter()
            .map(|&(v, i)| Value::Tuple(vec![Value::Int(v), Value::Int(i)]))
            .collect();
        for op in [maxloc(), minloc()] {
            assert!(op.check_associative(&samples), "{}", op.name());
            assert!(op.check_commutative(&samples), "{}", op.name());
        }
        // Ties break to the smaller index in both.
        let a = Value::Tuple(vec![Value::Int(5), Value::Int(2)]);
        let b = Value::Tuple(vec![Value::Int(5), Value::Int(0)]);
        assert_eq!(maxloc().apply(&a, &b).proj(1).as_int(), 0);
        assert_eq!(minloc().apply(&a, &b).proj(1).as_int(), 0);
    }

    #[test]
    fn gcd_is_a_commutative_monoid() {
        let samples = int_samples();
        let op = gcd();
        assert!(op.check_associative(&samples));
        assert!(op.check_commutative(&samples));
        assert_eq!(op.apply(&Value::Int(12), &Value::Int(18)), Value::Int(6));
        assert_eq!(op.apply(&Value::Int(0), &Value::Int(7)), Value::Int(7));
    }

    #[test]
    fn add_mod_wraps() {
        let op = add_mod(7);
        assert_eq!(op.apply(&Value::Int(5), &Value::Int(4)), Value::Int(2));
        assert!(op.check_associative(&int_samples()));
        assert!(op.check_commutative(&int_samples()));
    }

    #[test]
    fn apply_lifts_over_blocks() {
        let op = add();
        let a = Value::int_list([1, 2, 3]);
        let b = Value::int_list([10, 20, 30]);
        assert_eq!(op.apply(&a, &b), Value::int_list([11, 22, 33]));
    }

    #[test]
    fn float_ops_are_close_not_exact() {
        let samples = vec![Value::Float(0.1), Value::Float(2.5), Value::Float(-1.25)];
        assert!(fadd().check_associative(&samples));
        assert!(fmul().check_distributes_over(&fadd(), &samples));
    }

    #[test]
    fn value_close_tolerates_rounding() {
        assert!(value_close(&Value::Float(1.0), &Value::Float(1.0 + 1e-12)));
        assert!(!value_close(&Value::Float(1.0), &Value::Float(1.001)));
        assert!(!value_close(&Value::Int(1), &Value::Float(1.0)));
    }

    #[test]
    fn debug_shows_declarations() {
        let d = format!("{:?}", mul());
        assert!(d.contains("mul") && d.contains("add"));
    }

    #[test]
    fn counterexample_found_and_shrunk_for_subtraction() {
        let sub = BinOp::new("sub", |a, b| Value::Int(a.as_int() - b.as_int()));
        let samples = int_samples();
        let cex = RequiredLaw::Associative(sub.clone())
            .counterexample(&samples)
            .expect("sub is not associative");
        // Shrinking must land on a minimal witness: at most 2 distinct
        // values, all of magnitude <= 1 (e.g. (0,0,1) or (0,1,1)).
        assert!(cex.distinct_values() <= 2, "{cex}");
        for v in &cex.values {
            assert!(v.as_int().abs() <= 1, "{cex}");
        }
        // And the reported sides really disagree under re-evaluation.
        assert_ne!(cex.left, cex.right);
        let comm = RequiredLaw::Commutative(sub)
            .counterexample(&samples)
            .expect("sub does not commute");
        assert!(comm.distinct_values() <= 2, "{comm}");
        assert!(comm.to_string().contains("commutativity of sub"));
    }

    #[test]
    fn counterexample_absent_for_true_laws() {
        let samples = int_samples();
        assert!(RequiredLaw::Associative(add())
            .counterexample(&samples)
            .is_none());
        assert!(RequiredLaw::Commutative(mul())
            .counterexample(&samples)
            .is_none());
        assert!(RequiredLaw::DistributesOver(mul(), add())
            .counterexample(&samples)
            .is_none());
    }

    #[test]
    fn false_distributivity_yields_shrunk_witness() {
        // mul does NOT distribute over max on negatives.
        let law = RequiredLaw::DistributesOver(mul(), max());
        let cex = law.counterexample(&int_samples()).expect("must fail");
        assert!(cex.distinct_values() <= 3, "{cex}");
        assert!(cex.law.contains("mul distributes over max"));
        // Witness survives re-checking at the reported assignment.
        assert!(law.violation(&cex.values, FLOAT_RTOL).is_some());
    }

    #[test]
    fn value_close_with_respects_custom_tolerance() {
        let a = Value::Float(1.0);
        let b = Value::Float(1.0 + 1e-6);
        assert!(!value_close(&a, &b));
        assert!(value_close_with(&a, &b, 1e-5));
        // The default tolerance is the documented constant.
        assert!(value_close_with(
            &Value::Float(1.0),
            &Value::Float(1.0 + 0.5 * FLOAT_RTOL),
            FLOAT_RTOL
        ));
    }

    #[test]
    fn law_metadata_is_consistent() {
        let law = RequiredLaw::DistributesOver(mul(), add());
        assert_eq!(law.arity(), 3);
        assert_eq!(law.op_names(), vec!["mul", "add"]);
        assert_eq!(RequiredLaw::Commutative(add()).arity(), 2);
        assert_eq!(
            RequiredLaw::Associative(add()).describe(),
            "associativity of add"
        );
    }
}
