//! The atomic value model.
//!
//! SEDEX needs three kinds of atoms:
//!
//! * **constants** — ordinary typed values coming from the source instance,
//! * **SQL nulls** — which the paper interprets as *"not having a property"*
//!   (Bunge's ontology, Section 1.2); tuple trees simply drop them,
//! * **labeled nulls** — the marked/existential nulls invented by the chase in
//!   schema-mapping systems (Clio/++Spicy). Two labeled nulls with the same
//!   label denote the same unknown entity; egd application may *unify* a
//!   labeled null with a constant or with another labeled null.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use crate::types::DataType;

/// An atomic database value.
///
/// `Value` implements `Eq`/`Hash`/`Ord` so it can key hash and tree indexes.
/// Floats are compared by their bit pattern (`f64::to_bits`), which is the
/// usual trick for making them hashable; all floats produced by the workload
/// generators are well-behaved (never `NaN`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// SQL `NULL`. Under SEDEX semantics this means *the property does not
    /// exist* for the tuple, so tuple trees prune it (Section 3, Def. 3).
    Null,
    /// A labeled (marked) null: an existential placeholder produced by the
    /// chase. Equal labels denote the same unknown value.
    Labeled(u64),
    /// Boolean constant.
    Bool(bool),
    /// 64-bit integer constant.
    Int(i64),
    /// 64-bit float constant, ordered and hashed by bit pattern.
    Real(OrderedF64),
    /// Text constant. The string is shared: cloning a text value (into a
    /// target tuple, through an egd merge, into a snapshot) bumps a
    /// reference count instead of copying the bytes.
    Text(Arc<str>),
}

/// An `f64` wrapper with total order and hashing by bit pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderedF64(pub f64);

impl Eq for OrderedF64 {}

impl std::hash::Hash for OrderedF64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Value {
    /// Build a text value.
    pub fn text(s: impl Into<Arc<str>>) -> Self {
        Value::Text(s.into())
    }

    /// Build an integer value.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// Build a real value.
    pub fn real(f: f64) -> Self {
        Value::Real(OrderedF64(f))
    }

    /// Build a boolean value.
    pub fn bool(b: bool) -> Self {
        Value::Bool(b)
    }

    /// Is this an SQL null?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Is this a labeled (marked) null?
    pub fn is_labeled_null(&self) -> bool {
        matches!(self, Value::Labeled(_))
    }

    /// Is this any kind of null (SQL null or labeled null)?
    ///
    /// This is the predicate behind the *Null* bars of Figs. 9–10: the paper
    /// counts both kinds of incomplete atoms as nulls.
    pub fn is_any_null(&self) -> bool {
        matches!(self, Value::Null | Value::Labeled(_))
    }

    /// Is this a constant (neither kind of null)?
    pub fn is_constant(&self) -> bool {
        !self.is_any_null()
    }

    /// The [`DataType`] of this value; nulls type as [`DataType::Any`].
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null | Value::Labeled(_) => DataType::Any,
            Value::Bool(_) => DataType::Bool,
            Value::Int(_) => DataType::Int,
            Value::Real(_) => DataType::Real,
            Value::Text(_) => DataType::Text,
        }
    }

    /// Render the value the way the experiment harness and the script
    /// pretty-printer display it.
    pub fn render(&self) -> Cow<'_, str> {
        match self {
            Value::Null => Cow::Borrowed("NULL"),
            Value::Labeled(l) => Cow::Owned(format!("N{l}")),
            Value::Bool(b) => Cow::Owned(b.to_string()),
            Value::Int(i) => Cow::Owned(i.to_string()),
            Value::Real(f) => Cow::Owned(f.0.to_string()),
            Value::Text(s) => Cow::Borrowed(s),
        }
    }

    /// Merge two values under egd semantics, preferring information.
    ///
    /// Returns `Some(merged)` when the two values are *compatible*:
    ///
    /// * equal values merge to themselves,
    /// * any null merges with anything, yielding the more informative side
    ///   (constant ≻ labeled null ≻ SQL null),
    /// * two distinct constants are incompatible (`None`) — in chase terms
    ///   the egd *fails*.
    pub fn unify(&self, other: &Value) -> Option<Value> {
        match (self, other) {
            (a, b) if a == b => Some(a.clone()),
            (Value::Null, b) => Some(b.clone()),
            (a, Value::Null) => Some(a.clone()),
            (Value::Labeled(_), b) if b.is_constant() => Some(b.clone()),
            (a, Value::Labeled(_)) if a.is_constant() => Some(a.clone()),
            // Two distinct labeled nulls: keep the smaller label as canonical.
            (Value::Labeled(a), Value::Labeled(b)) => Some(Value::Labeled(*a.min(b))),
            _ => None,
        }
    }

    /// How much information the value carries, for [`Value::unify`]-style
    /// preference ordering: constants (2) ≻ labeled nulls (1) ≻ nulls (0).
    pub fn information(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Labeled(_) => 1,
            _ => 2,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v.into())
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::real(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_classification() {
        assert!(Value::Null.is_null());
        assert!(Value::Null.is_any_null());
        assert!(!Value::Null.is_labeled_null());
        assert!(Value::Labeled(3).is_any_null());
        assert!(Value::Labeled(3).is_labeled_null());
        assert!(!Value::Labeled(3).is_null());
        assert!(Value::int(1).is_constant());
        assert!(!Value::int(1).is_any_null());
    }

    #[test]
    fn data_types() {
        assert_eq!(Value::int(4).data_type(), DataType::Int);
        assert_eq!(Value::text("x").data_type(), DataType::Text);
        assert_eq!(Value::real(1.5).data_type(), DataType::Real);
        assert_eq!(Value::bool(true).data_type(), DataType::Bool);
        assert_eq!(Value::Null.data_type(), DataType::Any);
        assert_eq!(Value::Labeled(0).data_type(), DataType::Any);
    }

    #[test]
    fn unify_prefers_information() {
        let c = Value::int(7);
        let l = Value::Labeled(9);
        let n = Value::Null;
        assert_eq!(c.unify(&c), Some(c.clone()));
        assert_eq!(n.unify(&c), Some(c.clone()));
        assert_eq!(c.unify(&n), Some(c.clone()));
        assert_eq!(l.unify(&c), Some(c.clone()));
        assert_eq!(c.unify(&l), Some(c.clone()));
        assert_eq!(l.unify(&n), Some(l.clone()));
        assert_eq!(
            Value::Labeled(4).unify(&Value::Labeled(2)),
            Some(Value::Labeled(2))
        );
    }

    #[test]
    fn unify_rejects_conflicting_constants() {
        assert_eq!(Value::int(1).unify(&Value::int(2)), None);
        assert_eq!(Value::text("a").unify(&Value::int(1)), None);
    }

    #[test]
    fn float_ordering_and_hash() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(Value::real(1.0));
        assert!(s.contains(&Value::real(1.0)));
        assert!(!s.contains(&Value::real(2.0)));
        assert!(Value::real(1.0) < Value::real(2.0));
    }

    #[test]
    fn render_forms() {
        assert_eq!(Value::Null.render(), "NULL");
        assert_eq!(Value::Labeled(12).render(), "N12");
        assert_eq!(Value::int(-3).render(), "-3");
        assert_eq!(Value::text("hi").render(), "hi");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i64), Value::int(3));
        assert_eq!(Value::from("a"), Value::text("a"));
        assert_eq!(Value::from(true), Value::bool(true));
        assert_eq!(Value::from(2.5), Value::real(2.5));
    }
}
