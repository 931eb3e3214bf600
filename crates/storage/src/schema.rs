//! Relation schemas and the whole-database catalog.
//!
//! A relational schema in the paper is a finite set `R = {r1, ..., rk}` of
//! relations of fixed arity, each with an optional primary key and a set of
//! foreign keys. Foreign keys are what turn a flat schema into the *nested*
//! view the tree representation of Section 3 builds on: an edge from property
//! `p1` to `p2` exists when `p1` (a key) uniquely identifies `p2`.

use std::collections::HashMap;
use std::fmt;

use crate::error::StorageError;
use crate::types::DataType;
use crate::Result;

/// A column of a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column (property) name, unique within the relation.
    pub name: String,
    /// Declared type.
    pub dtype: DataType,
    /// Whether SQL nulls are permitted. Source relations in SEDEX may carry
    /// nulls (interpreted as "property does not exist"); key columns are
    /// implicitly non-nullable.
    pub nullable: bool,
}

impl Column {
    /// A nullable column of the given type.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Column {
            name: name.into(),
            dtype,
            nullable: true,
        }
    }

    /// An untyped nullable column — the common case in generated scenarios,
    /// where values are synthetic strings.
    pub fn any(name: impl Into<String>) -> Self {
        Column::new(name, DataType::Any)
    }

    /// Make the column non-nullable.
    pub fn not_null(mut self) -> Self {
        self.nullable = false;
        self
    }
}

/// A foreign key: `columns` of the owning relation reference `ref_columns`
/// (a key) of `ref_relation`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Referencing column indexes in the owning relation.
    pub columns: Vec<usize>,
    /// Referenced relation name.
    pub ref_relation: String,
    /// Referenced column indexes in `ref_relation`.
    pub ref_columns: Vec<usize>,
}

/// Schema of a single relation.
///
/// ```
/// use sedex_storage::{RelationSchema, Schema};
/// let dep = RelationSchema::with_any_columns("Dep", &["dname", "building"])
///     .primary_key(&["dname"]).unwrap();
/// let student = RelationSchema::with_any_columns("Student", &["sname", "dep"])
///     .primary_key(&["sname"]).unwrap()
///     .foreign_key(&["dep"], "Dep").unwrap();
/// let schema = Schema::from_relations(vec![dep, student]).unwrap();
/// assert_eq!(schema.relation("Student").unwrap().foreign_keys.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationSchema {
    /// Relation name, unique within the [`Schema`].
    pub name: String,
    /// Ordered columns.
    pub columns: Vec<Column>,
    /// Primary-key column indexes. Empty means *no primary key* — the
    /// relation tree then gets a dummy `*` root (Def. 1). A multi-column key
    /// also yields a dummy root.
    pub primary_key: Vec<usize>,
    /// Additional unique constraints (each a set of column indexes).
    pub unique: Vec<Vec<usize>>,
    /// Foreign keys into other relations.
    pub foreign_keys: Vec<ForeignKey>,
}

impl RelationSchema {
    /// Start building a relation schema with the given name and columns.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Self {
        RelationSchema {
            name: name.into(),
            columns,
            primary_key: Vec::new(),
            unique: Vec::new(),
            foreign_keys: Vec::new(),
        }
    }

    /// Convenience: a relation whose columns are all untyped (`Any`).
    pub fn with_any_columns<S: AsRef<str>>(name: impl Into<String>, cols: &[S]) -> Self {
        RelationSchema::new(name, cols.iter().map(|c| Column::any(c.as_ref())).collect())
    }

    /// Declare the primary key by column names.
    pub fn primary_key<S: AsRef<str>>(mut self, cols: &[S]) -> Result<Self> {
        let mut idxs = Vec::with_capacity(cols.len());
        for c in cols {
            idxs.push(self.column_index(c.as_ref()).ok_or_else(|| {
                StorageError::UnknownColumn {
                    relation: self.name.clone(),
                    column: c.as_ref().to_owned(),
                }
            })?);
        }
        for &i in &idxs {
            self.columns[i].nullable = false;
        }
        self.primary_key = idxs;
        Ok(self)
    }

    /// Declare a unique constraint by column names.
    pub fn unique_on<S: AsRef<str>>(mut self, cols: &[S]) -> Result<Self> {
        let mut idxs = Vec::with_capacity(cols.len());
        for c in cols {
            idxs.push(self.column_index(c.as_ref()).ok_or_else(|| {
                StorageError::UnknownColumn {
                    relation: self.name.clone(),
                    column: c.as_ref().to_owned(),
                }
            })?);
        }
        self.unique.push(idxs);
        Ok(self)
    }

    /// Declare a foreign key by column names. The referenced columns default
    /// to the referenced relation's primary key and are resolved when the
    /// relation is added to a [`Schema`]; use [`Schema::add_foreign_key`] for
    /// explicit referenced columns.
    pub fn foreign_key<S: AsRef<str>>(
        mut self,
        cols: &[S],
        ref_relation: impl Into<String>,
    ) -> Result<Self> {
        let mut idxs = Vec::with_capacity(cols.len());
        for c in cols {
            idxs.push(self.column_index(c.as_ref()).ok_or_else(|| {
                StorageError::UnknownColumn {
                    relation: self.name.clone(),
                    column: c.as_ref().to_owned(),
                }
            })?);
        }
        self.foreign_keys.push(ForeignKey {
            columns: idxs,
            ref_relation: ref_relation.into(),
            // Resolved against the referenced relation's PK by Schema::validate.
            ref_columns: Vec::new(),
        });
        Ok(self)
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of the named column, if any.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Column names in order.
    pub fn column_names(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|c| c.name.as_str())
    }

    /// Whether the relation has a *single-column* primary key — the case in
    /// which the relation tree roots at that key rather than at a dummy node.
    pub fn single_column_key(&self) -> Option<usize> {
        match self.primary_key.as_slice() {
            [one] => Some(*one),
            _ => None,
        }
    }

    /// Whether the relation declares any primary key (of any width).
    pub fn has_primary_key(&self) -> bool {
        !self.primary_key.is_empty()
    }
}

impl fmt::Display for RelationSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", c.name)?;
            if self.primary_key.contains(&i) {
                write!(f, "*")?;
            }
        }
        write!(f, ")")
    }
}

/// A database schema: an ordered catalog of relation schemas.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schema {
    relations: Vec<RelationSchema>,
    by_name: HashMap<String, usize>,
}

impl Schema {
    /// An empty schema.
    pub fn new() -> Self {
        Schema::default()
    }

    /// Build a schema from relation schemas, validating foreign keys.
    pub fn from_relations(rels: Vec<RelationSchema>) -> Result<Self> {
        let mut s = Schema::new();
        for r in rels {
            s.add_relation(r)?;
        }
        s.validate()?;
        Ok(s)
    }

    /// Add a relation schema. Foreign keys are validated lazily by
    /// [`Schema::validate`] so relations may be added in any order.
    pub fn add_relation(&mut self, rel: RelationSchema) -> Result<()> {
        if self.by_name.contains_key(&rel.name) {
            return Err(StorageError::DuplicateRelation(rel.name));
        }
        self.by_name.insert(rel.name.clone(), self.relations.len());
        self.relations.push(rel);
        Ok(())
    }

    /// Resolve foreign keys (defaulting unreferenced `ref_columns` to the
    /// target's primary key) and check that every reference is well-formed.
    pub fn validate(&mut self) -> Result<()> {
        // Collect the resolution targets first to appease the borrow checker.
        let pk_of: HashMap<String, Vec<usize>> = self
            .relations
            .iter()
            .map(|r| (r.name.clone(), r.primary_key.clone()))
            .collect();
        for rel in &mut self.relations {
            for fk in &mut rel.foreign_keys {
                let target_pk = pk_of.get(&fk.ref_relation).ok_or_else(|| {
                    StorageError::InvalidForeignKey(format!(
                        "{} references unknown relation {}",
                        rel.name, fk.ref_relation
                    ))
                })?;
                if fk.ref_columns.is_empty() {
                    fk.ref_columns = target_pk.clone();
                }
                if fk.ref_columns.is_empty() {
                    return Err(StorageError::InvalidForeignKey(format!(
                        "{} references {} which has no primary key",
                        rel.name, fk.ref_relation
                    )));
                }
                if fk.ref_columns.len() != fk.columns.len() {
                    return Err(StorageError::InvalidForeignKey(format!(
                        "{} -> {}: column count mismatch ({} vs {})",
                        rel.name,
                        fk.ref_relation,
                        fk.columns.len(),
                        fk.ref_columns.len()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Look up a relation schema by name.
    pub fn relation(&self, name: &str) -> Option<&RelationSchema> {
        self.relation_index(name).map(|i| &self.relations[i])
    }

    /// The position of the named relation in [`Schema::relations`] — the
    /// index an [`crate::Instance`] stores the relation's rows under.
    pub fn relation_index(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Like [`Schema::relation_index`], erroring when the relation is
    /// missing.
    pub fn relation_index_or_err(&self, name: &str) -> Result<usize> {
        self.relation_index(name)
            .ok_or_else(|| StorageError::UnknownRelation(name.to_owned()))
    }

    /// Look up a relation schema by name, erroring when missing.
    pub fn relation_or_err(&self, name: &str) -> Result<&RelationSchema> {
        self.relation_index_or_err(name).map(|i| &self.relations[i])
    }

    /// All relation schemas in insertion order.
    pub fn relations(&self) -> &[RelationSchema] {
        &self.relations
    }

    /// Relation names in insertion order.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.relations.iter().map(|r| r.name.as_str())
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether the schema has no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Add an explicit foreign key after relations exist.
    pub fn add_foreign_key(
        &mut self,
        relation: &str,
        cols: &[&str],
        ref_relation: &str,
        ref_cols: &[&str],
    ) -> Result<()> {
        let ref_idx: Vec<usize> = {
            let r = self.relation_or_err(ref_relation)?;
            ref_cols
                .iter()
                .map(|c| {
                    r.column_index(c)
                        .ok_or_else(|| StorageError::UnknownColumn {
                            relation: ref_relation.to_owned(),
                            column: (*c).to_owned(),
                        })
                })
                .collect::<Result<_>>()?
        };
        let idx = self.relation_index_or_err(relation)?;
        let rel = &mut self.relations[idx];
        let cols_idx: Vec<usize> = cols
            .iter()
            .map(|c| {
                rel.column_index(c)
                    .ok_or_else(|| StorageError::UnknownColumn {
                        relation: relation.to_owned(),
                        column: (*c).to_owned(),
                    })
            })
            .collect::<Result<_>>()?;
        if cols_idx.len() != ref_idx.len() {
            return Err(StorageError::InvalidForeignKey(format!(
                "{relation} -> {ref_relation}: column count mismatch"
            )));
        }
        rel.foreign_keys.push(ForeignKey {
            columns: cols_idx,
            ref_relation: ref_relation.to_owned(),
            ref_columns: ref_idx,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn student_schema() -> Schema {
        // The running example of Fig. 2 (source side).
        let student =
            RelationSchema::with_any_columns("Student", &["sname", "program", "dep", "supervisor"])
                .primary_key(&["sname"])
                .unwrap()
                .foreign_key(&["dep"], "Dep")
                .unwrap()
                .foreign_key(&["supervisor"], "Prof")
                .unwrap();
        let prof = RelationSchema::with_any_columns("Prof", &["pname", "degree", "profdep"])
            .primary_key(&["pname"])
            .unwrap()
            .foreign_key(&["profdep"], "Dep")
            .unwrap();
        let dep = RelationSchema::with_any_columns("Dep", &["dname", "building"])
            .primary_key(&["dname"])
            .unwrap();
        let reg = RelationSchema::with_any_columns("Registration", &["sname", "course", "regdate"])
            .foreign_key(&["sname"], "Student")
            .unwrap();
        Schema::from_relations(vec![student, prof, dep, reg]).unwrap()
    }

    #[test]
    fn builds_and_resolves_fks() {
        let s = student_schema();
        assert_eq!(s.len(), 4);
        let student = s.relation("Student").unwrap();
        assert_eq!(student.foreign_keys.len(), 2);
        // ref_columns resolved to Dep's PK (index 0).
        assert_eq!(student.foreign_keys[0].ref_columns, vec![0]);
        assert_eq!(student.single_column_key(), Some(0));
        let reg = s.relation("Registration").unwrap();
        assert!(!reg.has_primary_key());
        assert_eq!(reg.single_column_key(), None);
    }

    #[test]
    fn rejects_duplicate_relation() {
        let mut s = Schema::new();
        s.add_relation(RelationSchema::with_any_columns("R", &["a"]))
            .unwrap();
        let err = s
            .add_relation(RelationSchema::with_any_columns("R", &["b"]))
            .unwrap_err();
        assert_eq!(err, StorageError::DuplicateRelation("R".into()));
    }

    #[test]
    fn rejects_fk_to_unknown_relation() {
        let r = RelationSchema::with_any_columns("R", &["a", "b"])
            .foreign_key(&["b"], "Nope")
            .unwrap();
        let err = Schema::from_relations(vec![r]).unwrap_err();
        assert!(matches!(err, StorageError::InvalidForeignKey(_)));
    }

    #[test]
    fn rejects_fk_to_keyless_relation() {
        let r = RelationSchema::with_any_columns("R", &["a"])
            .foreign_key(&["a"], "S")
            .unwrap();
        let s = RelationSchema::with_any_columns("S", &["x"]);
        let err = Schema::from_relations(vec![r, s]).unwrap_err();
        assert!(matches!(err, StorageError::InvalidForeignKey(_)));
    }

    #[test]
    fn pk_columns_become_non_nullable() {
        let r = RelationSchema::with_any_columns("R", &["a", "b"])
            .primary_key(&["a"])
            .unwrap();
        assert!(!r.columns[0].nullable);
        assert!(r.columns[1].nullable);
    }

    #[test]
    fn unknown_pk_column_is_an_error() {
        let err = RelationSchema::with_any_columns("R", &["a"])
            .primary_key(&["zz"])
            .unwrap_err();
        assert!(matches!(err, StorageError::UnknownColumn { .. }));
    }

    #[test]
    fn explicit_fk_resolution() {
        let mut s = Schema::new();
        s.add_relation(
            RelationSchema::with_any_columns("A", &["x", "y"])
                .primary_key(&["x"])
                .unwrap(),
        )
        .unwrap();
        s.add_relation(
            RelationSchema::with_any_columns("B", &["k", "ax"])
                .primary_key(&["k"])
                .unwrap(),
        )
        .unwrap();
        s.add_foreign_key("B", &["ax"], "A", &["x"]).unwrap();
        let b = s.relation("B").unwrap();
        assert_eq!(b.foreign_keys[0].columns, vec![1]);
        assert_eq!(b.foreign_keys[0].ref_columns, vec![0]);
    }

    #[test]
    fn display_marks_key_columns() {
        let s = student_schema();
        let d = s.relation("Dep").unwrap().to_string();
        assert_eq!(d, "Dep(dname*, building)");
    }
}
