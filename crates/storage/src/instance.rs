//! Whole-database instances with constraint-checked inserts, plus cheap
//! point-in-time snapshots for MVCC readers.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::relation::RelationInstance;
use crate::rows::Rows;
use crate::schema::{ForeignKey, Schema};
use crate::stats::InstanceStats;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;

/// How inserts behave when a tuple conflicts on a primary key or unique
/// constraint with an existing, *different* tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictPolicy {
    /// Fail the insert with
    /// [`StorageError::KeyViolation`](crate::StorageError::KeyViolation).
    Reject,
    /// Silently keep the existing tuple (first writer wins).
    Skip,
    /// Unify the new tuple into the existing one, egd-style: constants beat
    /// labeled nulls beat SQL nulls; two distinct constants fail with
    /// [`StorageError::EgdFailure`](crate::StorageError::EgdFailure). This
    /// is how SEDEX applies target egds when running scripts (Section
    /// 4.4.3).
    Merge,
    /// Ignore key constraints entirely (still set semantics on identical
    /// tuples). This is the Clio / universal-solution behaviour: uncorrelated
    /// mappings may materialise the same entity several times.
    Allow,
}

/// What an insert did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// A new row was appended.
    Inserted(crate::relation::RowId),
    /// The identical tuple was already present.
    Duplicate(crate::relation::RowId),
    /// A key conflict was resolved by keeping the existing row unchanged.
    Skipped(crate::relation::RowId),
    /// A key conflict was resolved by merging into the existing row.
    Merged(crate::relation::RowId),
}

impl InsertOutcome {
    /// Whether the insert added a new row.
    pub fn is_inserted(&self) -> bool {
        matches!(self, InsertOutcome::Inserted(_))
    }
}

/// An instance of a whole [`Schema`]: one [`RelationInstance`] per relation,
/// stored in schema order — relation `i` of [`Schema::relations`] lives at
/// index `i`, so a caller that resolved a name once through
/// [`Schema::relation_index`] inserts without hashing it again
/// ([`Instance::insert_at`]).
///
/// Every mutating accessor bumps a monotonically increasing *epoch*, and
/// [`Instance::snapshot`] captures an epoch-stamped [`InstanceSnapshot`]
/// whose row sets share storage with the live instance (chunked
/// copy-on-write, see [`crate::rows::Rows`]). Two snapshots with the same
/// epoch are guaranteed identical; a snapshot never changes after capture.
#[derive(Debug, Clone)]
pub struct Instance {
    schema: Arc<Schema>,
    /// In schema order.
    relations: Vec<RelationInstance>,
    /// Bumped on every mutating access, including ones that end up
    /// changing nothing — over-counting is safe, the epoch only promises
    /// "same epoch ⇒ same data".
    epoch: u64,
}

impl Instance {
    /// An empty instance of the given schema.
    pub fn new(schema: Schema) -> Self {
        let relations = schema
            .relations()
            .iter()
            .map(|r| RelationInstance::new(r.clone()))
            .collect();
        Instance {
            schema: Arc::new(schema),
            relations,
            epoch: 0,
        }
    }

    /// The instance's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The schema as a shared handle, for a caller that keeps it beyond a
    /// borrow of the instance.
    pub fn shared_schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// The mutation epoch: bumped by every mutating accessor. Readers use
    /// it to tell snapshots apart without comparing data.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Capture a consistent point-in-time snapshot. Sealed row chunks and
    /// each relation's tail tuples (< 256) are shared with the live
    /// instance by `Arc` bumps, no tuple is copied — the capture cost is
    /// independent of instance size in the steady state. Index structures
    /// are *not* captured: snapshot readers render and count, they don't
    /// run constraint checks.
    pub fn snapshot(&self) -> InstanceSnapshot {
        InstanceSnapshot {
            schema: Arc::clone(&self.schema),
            epoch: self.epoch,
            relations: self
                .relations
                .iter()
                .map(RelationInstance::rows_snapshot)
                .collect(),
        }
    }

    /// The instance of the named relation.
    pub fn relation(&self, name: &str) -> Option<&RelationInstance> {
        self.schema.relation_index(name).map(|i| &self.relations[i])
    }

    /// The instance of the named relation, erroring when missing.
    pub fn relation_or_err(&self, name: &str) -> Result<&RelationInstance> {
        Ok(&self.relations[self.schema.relation_index_or_err(name)?])
    }

    /// The relation at schema position `idx` (see [`Schema::relation_index`])
    /// — [`Instance::relation`] without the name lookup. Panics when out of
    /// range.
    pub fn relation_at(&self, idx: usize) -> &RelationInstance {
        &self.relations[idx]
    }

    /// Mutable access to the named relation instance (bumps the epoch).
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut RelationInstance> {
        let idx = self.schema.relation_index_or_err(name)?;
        self.epoch += 1;
        Ok(&mut self.relations[idx])
    }

    /// Iterate `(name, relation_instance)` in schema order.
    pub fn relations(&self) -> impl Iterator<Item = (&str, &RelationInstance)> {
        self.relations.iter().map(|r| (r.schema().name.as_str(), r))
    }

    /// Insert a tuple into the named relation.
    pub fn insert(
        &mut self,
        relation: &str,
        tuple: Tuple,
        policy: ConflictPolicy,
    ) -> Result<InsertOutcome> {
        self.relation_mut(relation)?.insert(tuple, policy)
    }

    /// Insert a tuple into the relation at schema position `idx` (see
    /// [`Schema::relation_index`]) — [`Instance::insert`] without the name
    /// lookup, for callers that resolved the relation once. Panics when
    /// out of range.
    pub fn insert_at(
        &mut self,
        idx: usize,
        tuple: Tuple,
        policy: ConflictPolicy,
    ) -> Result<InsertOutcome> {
        self.epoch += 1;
        self.relations[idx].insert(tuple, policy)
    }

    /// Insert many tuples with one policy; returns how many new rows landed.
    pub fn insert_all<I>(
        &mut self,
        relation: &str,
        tuples: I,
        policy: ConflictPolicy,
    ) -> Result<usize>
    where
        I: IntoIterator<Item = Tuple>,
    {
        let rel = self.relation_mut(relation)?;
        let mut added = 0;
        for t in tuples {
            if rel.insert(t, policy)?.is_inserted() {
                added += 1;
            }
        }
        Ok(added)
    }

    /// Dereference a foreign key of `relation` for the given tuple: find the
    /// tuple in the referenced relation whose referenced key columns equal
    /// the FK projection. Returns `None` when the FK projection contains any
    /// null (the property "does not exist") or no referenced tuple matches
    /// (dangling reference).
    pub fn deref_fk<'a>(
        &'a self,
        relation: &str,
        fk_idx: usize,
        tuple: &Tuple,
    ) -> Option<(&'a str, &'a Tuple)> {
        let fk = self.schema.relation(relation)?.foreign_keys.get(fk_idx)?;
        let (target, id) = self.follow_fk(fk, tuple)?;
        Some((fk.ref_relation.as_str(), &target.rows()[id as usize]))
    }

    /// Like [`Instance::deref_fk`], but returns the referenced row's id so
    /// callers can mark it as *seen* (Section 4.2 of the paper).
    pub fn deref_fk_row(
        &self,
        relation: &str,
        fk_idx: usize,
        tuple: &Tuple,
    ) -> Option<(&str, crate::relation::RowId)> {
        let fk = self.schema.relation(relation)?.foreign_keys.get(fk_idx)?;
        let (_, id) = self.follow_fk(fk, tuple)?;
        Some((fk.ref_relation.as_str(), id))
    }

    /// Follow foreign key `fk` from `tuple`: the referenced relation and the
    /// lowest row id whose referenced columns equal the tuple's FK columns.
    /// The key is read in place, never projected into a fresh tuple; a
    /// primary-key reference probes the key index, any other one scans.
    /// `None` for a null FK value or a dangling reference.
    pub fn follow_fk(
        &self,
        fk: &ForeignKey,
        tuple: &Tuple,
    ) -> Option<(&RelationInstance, crate::relation::RowId)> {
        let target = self.schema.relation_index(&fk.ref_relation)?;
        self.follow_fk_at(target, fk, tuple)
    }

    /// [`Instance::follow_fk`] for a caller that resolved `fk`'s referenced
    /// relation to its schema position `target` once. Panics when out of
    /// range.
    pub fn follow_fk_at(
        &self,
        target: usize,
        fk: &ForeignKey,
        tuple: &Tuple,
    ) -> Option<(&RelationInstance, crate::relation::RowId)> {
        let target = &self.relations[target];
        let id = target.find_referenced(&fk.ref_columns, tuple, &fk.columns)?;
        Some((target, id))
    }

    /// Total number of tuples across relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(RelationInstance::len).sum()
    }

    /// Instance statistics: the paper's quality measure (atoms, split into
    /// constants and nulls), plus tuple counts.
    pub fn stats(&self) -> InstanceStats {
        let mut s = InstanceStats::default();
        for r in &self.relations {
            s.tuples += r.len();
            s.constants += r.constants();
            s.nulls += r.nulls();
        }
        s
    }

    /// Apply a labeled-null substitution across all relations. Returns the
    /// total number of replaced values. Bumps the epoch.
    pub fn substitute_labeled(&mut self, subst: &HashMap<u64, Value>) -> usize {
        if subst.is_empty() {
            return 0;
        }
        self.epoch += 1;
        self.relations
            .iter_mut()
            .map(|r| r.substitute_labeled(subst))
            .sum()
    }
}

/// A consistent, immutable point-in-time view of an [`Instance`]: the
/// schema, the epoch at capture, and every relation's rows (storage shared
/// with the live instance via chunked copy-on-write). This is what MVCC
/// readers render from — no locks, no indexes, no later mutation visible.
#[derive(Debug, Clone)]
pub struct InstanceSnapshot {
    schema: Arc<Schema>,
    epoch: u64,
    /// In schema order, like [`Instance`]'s relations.
    relations: Vec<Rows>,
}

impl InstanceSnapshot {
    /// The schema the snapshot was captured under.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The live instance's [`Instance::epoch`] at capture time.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The captured rows of the named relation.
    pub fn relation(&self, name: &str) -> Option<&Rows> {
        self.schema.relation_index(name).map(|i| &self.relations[i])
    }

    /// Iterate `(name, rows)` in schema order.
    pub fn relations(&self) -> impl Iterator<Item = (&str, &Rows)> {
        self.schema.relation_names().zip(&self.relations)
    }

    /// Total number of tuples across relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(Rows::len).sum()
    }

    /// Instance statistics at capture time — same measure as
    /// [`Instance::stats`], computed by the reader so the capturing writer
    /// never pays the O(n) walk.
    pub fn stats(&self) -> InstanceStats {
        let mut s = InstanceStats::default();
        for rows in &self.relations {
            s.tuples += rows.len();
            for t in rows.iter() {
                s.constants += t.constants();
                s.nulls += t.nulls();
            }
        }
        s
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, rel) in self.relations() {
            writeln!(f, "{name} ({} tuples)", rel.len())?;
            for t in rel.iter() {
                writeln!(f, "  {t}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;
    use crate::tuple;

    fn two_rel_schema() -> Schema {
        let a = RelationSchema::with_any_columns("A", &["id", "b_ref"])
            .primary_key(&["id"])
            .unwrap()
            .foreign_key(&["b_ref"], "B")
            .unwrap();
        let b = RelationSchema::with_any_columns("B", &["bid", "val"])
            .primary_key(&["bid"])
            .unwrap();
        Schema::from_relations(vec![a, b]).unwrap()
    }

    #[test]
    fn insert_and_lookup() {
        let mut inst = Instance::new(two_rel_schema());
        inst.insert("B", tuple!["b1", "v"], ConflictPolicy::Reject)
            .unwrap();
        inst.insert("A", tuple!["a1", "b1"], ConflictPolicy::Reject)
            .unwrap();
        assert_eq!(inst.total_tuples(), 2);
        assert!(inst
            .relation("A")
            .unwrap()
            .lookup_pk(&[Value::text("a1")])
            .is_some());
    }

    #[test]
    fn insert_at_addresses_relations_by_schema_position() {
        let mut inst = Instance::new(two_rel_schema());
        let b = inst.schema().relation_index("B").unwrap();
        assert_eq!(b, 1);
        assert!(inst.schema().relation_index("Zzz").is_none());
        let epoch = inst.epoch();
        inst.insert_at(b, tuple!["b1", "v"], ConflictPolicy::Reject)
            .unwrap();
        assert!(inst.epoch() > epoch);
        assert_eq!(inst.relation("B").unwrap().len(), 1);
        assert_eq!(inst.relation("A").unwrap().len(), 0);
        let names: Vec<&str> = inst.relations().map(|(n, _)| n).collect();
        assert_eq!(names, ["A", "B"]);
    }

    #[test]
    fn deref_fk_follows_reference() {
        let mut inst = Instance::new(two_rel_schema());
        inst.insert("B", tuple!["b1", "v"], ConflictPolicy::Reject)
            .unwrap();
        inst.insert("A", tuple!["a1", "b1"], ConflictPolicy::Reject)
            .unwrap();
        let a_tuple = tuple!["a1", "b1"];
        let (rel, t) = inst.deref_fk("A", 0, &a_tuple).unwrap();
        assert_eq!(rel, "B");
        assert_eq!(t, &tuple!["b1", "v"]);
    }

    #[test]
    fn deref_fk_null_means_nonexistent() {
        let mut inst = Instance::new(two_rel_schema());
        inst.insert("B", tuple!["b1", "v"], ConflictPolicy::Reject)
            .unwrap();
        let a_tuple = tuple!["a2", Value::Null];
        assert!(inst.deref_fk("A", 0, &a_tuple).is_none());
    }

    #[test]
    fn deref_fk_dangling_reference() {
        let inst = Instance::new(two_rel_schema());
        let a_tuple = tuple!["a1", "missing"];
        assert!(inst.deref_fk("A", 0, &a_tuple).is_none());
    }

    #[test]
    fn deref_fk_to_non_key_columns_takes_lowest_matching_row() {
        let mut schema = two_rel_schema();
        schema.add_foreign_key("A", &["id"], "B", &["val"]).unwrap();
        let mut inst = Instance::new(schema);
        for t in [tuple!["b1", "x"], tuple!["b2", "a1"], tuple!["b3", "a1"]] {
            inst.insert("B", t, ConflictPolicy::Reject).unwrap();
        }
        let a_tuple = tuple!["a1", Value::Null];
        assert_eq!(inst.deref_fk_row("A", 1, &a_tuple), Some(("B", 1)));
        assert_eq!(
            inst.deref_fk("A", 1, &a_tuple).unwrap().1,
            &tuple!["b2", "a1"]
        );
        assert!(inst.deref_fk_row("A", 1, &tuple!["zz", "b1"]).is_none());
    }

    #[test]
    fn stats_count_atoms() {
        let mut inst = Instance::new(two_rel_schema());
        inst.insert("B", tuple!["b1", Value::Null], ConflictPolicy::Reject)
            .unwrap();
        inst.insert("A", tuple!["a1", "b1"], ConflictPolicy::Reject)
            .unwrap();
        let s = inst.stats();
        assert_eq!(s.tuples, 2);
        assert_eq!(s.constants, 3);
        assert_eq!(s.nulls, 1);
        assert_eq!(s.atoms(), 4);
    }

    #[test]
    fn unknown_relation_errors() {
        let mut inst = Instance::new(two_rel_schema());
        assert!(inst
            .insert("Zzz", tuple!["x"], ConflictPolicy::Allow)
            .is_err());
        assert!(inst.relation_or_err("Zzz").is_err());
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let mut inst = Instance::new(two_rel_schema());
        inst.insert("B", tuple!["b1", "v"], ConflictPolicy::Reject)
            .unwrap();
        let snap = inst.snapshot();
        let epoch_at_capture = snap.epoch();
        inst.insert("B", tuple!["b2", "w"], ConflictPolicy::Reject)
            .unwrap();
        inst.insert("A", tuple!["a1", "b1"], ConflictPolicy::Reject)
            .unwrap();
        // The snapshot still sees exactly the pre-write state...
        assert_eq!(snap.total_tuples(), 1);
        assert_eq!(snap.relation("B").unwrap().len(), 1);
        assert_eq!(snap.relation("A").unwrap().len(), 0);
        assert_eq!(snap.stats().tuples, 1);
        // ...while the live instance moved on, bumping its epoch.
        assert_eq!(inst.total_tuples(), 3);
        assert!(inst.epoch() > epoch_at_capture);
        let snap2 = inst.snapshot();
        assert_eq!(snap2.total_tuples(), 3);
        assert_eq!(snap2.stats(), inst.stats());
    }

    #[test]
    fn snapshot_relations_iterate_in_schema_order() {
        let mut inst = Instance::new(two_rel_schema());
        inst.insert("B", tuple!["b1", "v"], ConflictPolicy::Reject)
            .unwrap();
        let snap = inst.snapshot();
        let names: Vec<&str> = snap.relations().map(|(n, _)| n).collect();
        let live: Vec<&str> = inst.relations().map(|(n, _)| n).collect();
        assert_eq!(names, live);
    }

    #[test]
    fn substitution_across_relations() {
        let mut inst = Instance::new(two_rel_schema());
        inst.insert("B", tuple!["b1", Value::Labeled(5)], ConflictPolicy::Allow)
            .unwrap();
        let mut sub = HashMap::new();
        sub.insert(5u64, Value::text("resolved"));
        assert_eq!(inst.substitute_labeled(&sub), 1);
        assert_eq!(
            inst.relation("B").unwrap().row(0).unwrap(),
            &tuple!["b1", "resolved"]
        );
    }
}
