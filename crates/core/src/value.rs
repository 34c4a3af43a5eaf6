//! The dynamic value domain of the rewrite layer.
//!
//! Program terms transform *distributed lists* whose elements change type
//! as auxiliary variables are introduced — `map pair` turns a block of
//! numbers into a block of pairs, `map π1` projects back (Section 2.3).
//! A dynamic [`Value`] keeps the rewrite engine simple; the collectives
//! layer underneath stays statically generic.
//!
//! A block of `m` words is a [`Value::List`] of `m` scalars; the auxiliary
//! tuples are [`Value::Tuple`]s. Tupling and projection distribute over
//! blocks: `pair` of a list is a list of pairs, matching the paper's
//! convention that the base operator acts elementwise on blocks.
//!
//! List blocks are one `Arc<[Value]>` each: building a block (a combine's
//! result, a `map`) is one allocation, and cloning a [`Value`] — which
//! every send, broadcast fan-out and input distribution does — bumps a
//! reference count instead of deep-copying `m` elements. Blocks are
//! immutable once built, so sharing is safe.

use std::fmt;
use std::sync::Arc;

/// A dynamic value: scalars, tuples (the auxiliary variables of
/// Section 2.3) and lists (blocks of `m` words).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A signed integer scalar.
    Int(i64),
    /// A floating-point scalar.
    Float(f64),
    /// A boolean scalar.
    Bool(bool),
    /// An auxiliary tuple (pair, triple, quadruple, …).
    Tuple(Vec<Value>),
    /// A block of values (one processor's `m`-word block), shared on
    /// clone. Construct via [`Value::list`].
    List(Arc<[Value]>),
}

impl Value {
    /// Shorthand for an integer scalar.
    pub fn int(v: i64) -> Value {
        Value::Int(v)
    }

    /// Shorthand for a float scalar.
    pub fn float(v: f64) -> Value {
        Value::Float(v)
    }

    /// Build a list block from its elements.
    pub fn list(vs: Vec<Value>) -> Value {
        Value::List(vs.into())
    }

    /// Build a list block from integers.
    pub fn int_list(vs: impl IntoIterator<Item = i64>) -> Value {
        Value::list(vs.into_iter().map(Value::Int).collect())
    }

    /// Build a pair.
    pub fn pair(a: Value, b: Value) -> Value {
        Value::Tuple(vec![a, b])
    }

    /// Expect an integer scalar.
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            other => panic!("expected Int, got {other}"),
        }
    }

    /// Expect a float scalar.
    pub fn as_float(&self) -> f64 {
        match self {
            Value::Float(v) => *v,
            Value::Int(v) => *v as f64,
            other => panic!("expected Float, got {other}"),
        }
    }

    /// Expect a bool scalar.
    pub fn as_bool(&self) -> bool {
        match self {
            Value::Bool(v) => *v,
            other => panic!("expected Bool, got {other}"),
        }
    }

    /// Expect a tuple and borrow its fields.
    pub fn as_tuple(&self) -> &[Value] {
        match self {
            Value::Tuple(fs) => fs,
            other => panic!("expected Tuple, got {other}"),
        }
    }

    /// Expect a list and borrow its elements.
    pub fn as_list(&self) -> &[Value] {
        match self {
            Value::List(vs) => vs,
            other => panic!("expected List, got {other}"),
        }
    }

    /// Tuple projection `π_i` (0-based). Panics on non-tuples.
    pub fn proj(&self, i: usize) -> Value {
        self.as_tuple()[i].clone()
    }

    /// Number of machine words this value occupies under the cost model:
    /// scalars are 1, tuples and lists are the sum of their parts.
    pub fn words(&self) -> u64 {
        match self {
            Value::Int(_) | Value::Float(_) | Value::Bool(_) => 1,
            Value::Tuple(fs) => fs.iter().map(Value::words).sum(),
            Value::List(vs) => vs.iter().map(Value::words).sum(),
        }
    }

    /// Block length: `m` for a list, 1 for anything scalar-like. This is
    /// the `m` of the cost formulas.
    pub fn block_len(&self) -> usize {
        match self {
            Value::List(vs) => vs.len(),
            _ => 1,
        }
    }

    /// Map a scalar→scalar function over the block structure: applied
    /// directly to scalars/tuples, elementwise to lists. This is how the
    /// paper's elementwise base operators lift to `m`-word blocks.
    pub fn map_block(&self, f: &impl Fn(&Value) -> Value) -> Value {
        match self {
            Value::List(vs) => Value::List(vs.iter().map(f).collect()),
            v => f(v),
        }
    }

    /// Zip two equally-shaped blocks with a scalar⊗scalar→scalar function.
    pub fn zip_block(&self, other: &Value, f: &impl Fn(&Value, &Value) -> Value) -> Value {
        match (self, other) {
            (Value::List(a), Value::List(b)) => {
                assert_eq!(a.len(), b.len(), "blocks must have equal length");
                Value::List(a.iter().zip(b.iter()).map(|(x, y)| f(x, y)).collect())
            }
            (a, b) => f(a, b),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Tuple(fs) => {
                write!(f, "(")?;
                for (i, x) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            Value::List(vs) => {
                write!(f, "[")?;
                for (i, x) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(Value::int(4).as_int(), 4);
        assert_eq!(Value::float(2.5).as_float(), 2.5);
        assert_eq!(Value::Int(3).as_float(), 3.0);
        assert!(Value::from(true).as_bool());
        let p = Value::pair(1.into(), 2.into());
        assert_eq!(p.proj(0), Value::Int(1));
        assert_eq!(p.proj(1), Value::Int(2));
    }

    #[test]
    fn words_counts_recursively() {
        assert_eq!(Value::int(1).words(), 1);
        assert_eq!(Value::pair(1.into(), 2.into()).words(), 2);
        let block = Value::int_list([1, 2, 3]);
        assert_eq!(block.words(), 3);
        let block_of_pairs = Value::list(vec![
            Value::pair(1.into(), 2.into()),
            Value::pair(3.into(), 4.into()),
        ]);
        assert_eq!(block_of_pairs.words(), 4);
        assert_eq!(block_of_pairs.block_len(), 2);
    }

    #[test]
    fn map_block_lifts_elementwise() {
        let double = |v: &Value| Value::Int(v.as_int() * 2);
        assert_eq!(Value::int(3).map_block(&double), Value::Int(6));
        assert_eq!(
            Value::int_list([1, 2]).map_block(&double),
            Value::int_list([2, 4])
        );
    }

    #[test]
    fn zip_block_lifts_elementwise() {
        let add = |a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int());
        assert_eq!(Value::int(3).zip_block(&Value::int(4), &add), Value::Int(7));
        assert_eq!(
            Value::int_list([1, 2]).zip_block(&Value::int_list([10, 20]), &add),
            Value::int_list([11, 22])
        );
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn zip_block_rejects_mismatched_lengths() {
        let add = |a: &Value, b: &Value| Value::Int(a.as_int() + b.as_int());
        Value::int_list([1]).zip_block(&Value::int_list([1, 2]), &add);
    }

    #[test]
    fn display_is_compact() {
        let v = Value::Tuple(vec![Value::Int(1), Value::int_list([2, 3])]);
        assert_eq!(v.to_string(), "(1,[2,3])");
    }

    #[test]
    #[should_panic(expected = "expected Int")]
    fn wrong_accessor_panics() {
        Value::float(1.0).as_int();
    }
}
