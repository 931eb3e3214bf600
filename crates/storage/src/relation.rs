//! Relation instances: tuple sets with hash indexes on keys.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

use crate::error::StorageError;
use crate::instance::{ConflictPolicy, InsertOutcome};
use crate::rows::Rows;
use crate::schema::RelationSchema;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;

/// Identifier of a row inside one relation instance.
pub type RowId = u32;

/// Hash a length prefix, then each value. Every index insert, removal and
/// probe goes through this one function — whole tuples for `row_set`, key
/// columns read in place for the key indexes, a caller's key slice for
/// [`RelationInstance::lookup_pk_id`] — so probes and indexes agree by
/// construction. `keys` is the relation's randomly keyed SipHash.
fn hash_values<'a>(keys: &RandomState, vals: impl ExactSizeIterator<Item = &'a Value>) -> u64 {
    let mut h = keys.build_hasher();
    h.write_usize(vals.len());
    for v in vals {
        v.hash(&mut h);
    }
    let h = h.finish();
    // Tests narrow the hash to force bucket collisions.
    #[cfg(test)]
    let h = h & tests::HASH_MASK.with(std::cell::Cell::get);
    h
}

/// [`hash_values`] of a whole tuple: its `row_set` hash.
fn tuple_hash(keys: &RandomState, t: &Tuple) -> u64 {
    hash_values(keys, t.values().iter())
}

/// The hasher of the index maps. Their keys are [`hash_values`] outputs,
/// already SipHash digests under random keys, so the map uses them as
/// they are instead of hashing them a second time; values sent by
/// clients cannot be chosen to collide in it.
#[derive(Default)]
struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("index maps are keyed by u64 only")
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// A hash index: [`hash_values`] digest → the ids of the rows with that
/// digest, ascending.
type HashIndex = HashMap<u64, Vec<RowId>, BuildHasherDefault<IdentityHasher>>;

/// The key columns `cols` of `t`, in key order, without copying them.
fn key_of<'a>(t: &'a Tuple, cols: &'a [usize]) -> impl ExactSizeIterator<Item = &'a Value> + Clone {
    cols.iter().map(move |&c| &t.values()[c])
}

/// Add `id` to (or remove it from) the bucket under `h`. Buckets hold ids
/// in ascending order — the order a full rebuild produces — so a lookup
/// finds the same row however the index got there; emptied buckets are
/// dropped.
fn update_bucket(index: &mut HashIndex, h: u64, id: RowId, add: bool) {
    if add {
        let bucket = index.entry(h).or_default();
        if let Err(pos) = bucket.binary_search(&id) {
            bucket.insert(pos, id);
        }
    } else if let Entry::Occupied(mut e) = index.entry(h) {
        if let Ok(pos) = e.get().binary_search(&id) {
            e.get_mut().remove(pos);
        }
        if e.get().is_empty() {
            e.remove();
        }
    }
}

/// An instance of one relation: a *set* of tuples (duplicates collapse, as in
/// the standard data-exchange setting) plus hash indexes on the primary key
/// and on each declared unique constraint.
///
/// Rows live in a chunked copy-on-write [`Rows`] store, so a point-in-time
/// copy of the row set ([`RelationInstance::rows_snapshot`]) is cheap —
/// sealed chunks and tail tuples are shared by `Arc`, no tuple is copied.
/// The hash indexes are never shared with snapshots: readers only need
/// rows.
#[derive(Debug, Clone)]
pub struct RelationInstance {
    schema: RelationSchema,
    rows: Rows,
    /// The random SipHash keys of every index digest ([`hash_values`]).
    digest_keys: RandomState,
    /// Set-semantics index: tuple hash → row ids with that hash.
    row_set: HashIndex,
    /// Primary-key index: key-projection hash → row ids (usually one).
    pk_index: HashIndex,
    /// One index per `schema.unique` constraint.
    unique_indexes: Vec<HashIndex>,
}

impl RelationInstance {
    /// An empty instance of the given relation schema.
    pub fn new(schema: RelationSchema) -> Self {
        let unique_indexes = schema.unique.iter().map(|_| HashIndex::default()).collect();
        RelationInstance {
            schema,
            rows: Rows::new(),
            digest_keys: RandomState::new(),
            row_set: HashIndex::default(),
            pk_index: HashIndex::default(),
            unique_indexes,
        }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the instance is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterate over the tuples.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.rows.iter()
    }

    /// Tuple by row id.
    pub fn row(&self, id: RowId) -> Option<&Tuple> {
        self.rows.get(id as usize)
    }

    /// The chunked row store, in insertion order.
    pub fn rows(&self) -> &Rows {
        &self.rows
    }

    /// A deep copy of all tuples.
    pub fn to_vec(&self) -> Vec<Tuple> {
        self.rows.to_vec()
    }

    /// A point-in-time copy of the row set: sealed chunks and tail tuples
    /// are shared, no tuple is copied. Later mutations of this instance are
    /// invisible to the returned [`Rows`] — the capture primitive behind
    /// [`crate::instance::Instance::snapshot`].
    pub fn rows_snapshot(&self) -> Rows {
        self.rows.clone()
    }

    fn type_check(&self, tuple: &Tuple) -> Result<()> {
        if tuple.arity() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                relation: self.schema.name.clone(),
                expected: self.schema.arity(),
                got: tuple.arity(),
            });
        }
        for (v, col) in tuple.values().iter().zip(&self.schema.columns) {
            if v.is_null() && !col.nullable {
                return Err(StorageError::NullViolation {
                    relation: self.schema.name.clone(),
                    column: col.name.clone(),
                });
            }
            if !col.dtype.accepts(v.data_type()) {
                return Err(StorageError::TypeMismatch {
                    relation: self.schema.name.clone(),
                    column: col.name.clone(),
                    expected: col.dtype,
                    got: v.data_type(),
                });
            }
        }
        Ok(())
    }

    /// The row equal to `tuple`, whose [`tuple_hash`] is `h`.
    fn find_exact(&self, tuple: &Tuple, h: u64) -> Option<RowId> {
        self.row_set
            .get(&h)?
            .iter()
            .copied()
            .find(|&id| self.rows.get(id as usize) == Some(tuple))
    }

    /// Find the lowest row id whose projection on `key_cols` equals `key`
    /// (the key values, in key order) through `index`, one of this
    /// relation's key indexes. Keys containing nulls never match.
    fn find_by_key<'a>(
        &self,
        index: &HashIndex,
        key_cols: &[usize],
        key: impl ExactSizeIterator<Item = &'a Value> + Clone,
    ) -> Option<RowId> {
        if key.clone().any(Value::is_any_null) {
            return None;
        }
        index
            .get(&hash_values(&self.digest_keys, key.clone()))?
            .iter()
            .copied()
            .find(|&id| {
                let vals = self.rows[id as usize].values();
                key_cols
                    .iter()
                    .zip(key.clone())
                    .all(|(&c, v)| &vals[c] == v)
            })
    }

    /// Look up a row by its full primary-key value.
    pub fn lookup_pk(&self, key_vals: &[Value]) -> Option<&Tuple> {
        self.lookup_pk_id(key_vals)
            .map(|id| &self.rows[id as usize])
    }

    /// Like [`RelationInstance::lookup_pk`], returning the row id.
    pub fn lookup_pk_id(&self, key_vals: &[Value]) -> Option<RowId> {
        if self.schema.primary_key.is_empty() {
            return None;
        }
        self.find_by_key(&self.pk_index, &self.schema.primary_key, key_vals.iter())
    }

    /// The lowest row id whose columns `cols` equal `tuple`'s columns
    /// `tuple_cols`, pairwise — a foreign key's referenced and referencing
    /// columns. The key is compared in place: through the primary-key index
    /// when `cols` is the primary key, else by a scan. Keys containing nulls
    /// never match.
    pub(crate) fn find_referenced(
        &self,
        cols: &[usize],
        tuple: &Tuple,
        tuple_cols: &[usize],
    ) -> Option<RowId> {
        let key = key_of(tuple, tuple_cols);
        if !cols.is_empty() && cols == self.schema.primary_key.as_slice() {
            return self.find_by_key(&self.pk_index, cols, key);
        }
        if key.clone().any(Value::is_any_null) {
            return None;
        }
        self.rows
            .iter()
            .position(|t| {
                cols.iter()
                    .zip(key.clone())
                    .all(|(&c, v)| &t.values()[c] == v)
            })
            .map(|id| id as RowId)
    }

    /// Look up rows by arbitrary columns with a linear scan. Used for
    /// foreign keys that do not target the primary key and for chase joins;
    /// generated scenarios keep these relations small.
    pub fn scan_eq(&self, cols: &[usize], vals: &[Value]) -> Vec<&Tuple> {
        if vals.iter().any(|v| v.is_any_null()) {
            return Vec::new();
        }
        self.rows
            .iter()
            .filter(|t| cols.iter().zip(vals).all(|(&c, v)| &t.values()[c] == v))
            .collect()
    }

    /// Add row `id` to (`add`) or remove it from every index, under the
    /// hashes of its current values; `row_hash` is the row's
    /// [`tuple_hash`], which the caller already has. Keys containing nulls
    /// are not indexed.
    fn update_indexes(&mut self, id: RowId, row_hash: u64, add: bool) {
        let t = &self.rows[id as usize];
        update_bucket(&mut self.row_set, row_hash, id, add);
        let pk = &self.schema.primary_key;
        if !pk.is_empty() && !t.key_has_null(pk) {
            let h = hash_values(&self.digest_keys, key_of(t, pk));
            update_bucket(&mut self.pk_index, h, id, add);
        }
        for (u, idxmap) in self.schema.unique.iter().zip(&mut self.unique_indexes) {
            if !t.key_has_null(u) {
                update_bucket(
                    idxmap,
                    hash_values(&self.digest_keys, key_of(t, u)),
                    id,
                    add,
                );
            }
        }
    }

    /// Insert a tuple under the given conflict policy.
    ///
    /// * Exact duplicates always collapse (set semantics) and report
    ///   [`InsertOutcome::Duplicate`].
    /// * When the relation has a primary key (or unique constraints) and a
    ///   different tuple with the same key exists, the policy decides:
    ///   [`ConflictPolicy::Reject`] errors, [`ConflictPolicy::Skip`] drops the
    ///   new tuple, [`ConflictPolicy::Merge`] unifies the two tuples column by
    ///   column (egd semantics — constants win over nulls; two distinct
    ///   constants make the merge fail with [`StorageError::EgdFailure`]), and
    ///   [`ConflictPolicy::Allow`] keeps both tuples (no egd enforcement, the
    ///   Clio/universal-solution behaviour).
    pub fn insert(&mut self, tuple: Tuple, policy: ConflictPolicy) -> Result<InsertOutcome> {
        self.type_check(&tuple)?;
        // One tuple hash serves the duplicate probe and the row-set index.
        let h = tuple_hash(&self.digest_keys, &tuple);
        if let Some(id) = self.find_exact(&tuple, h) {
            return Ok(InsertOutcome::Duplicate(id));
        }
        if policy != ConflictPolicy::Allow {
            // Gather key conflicts: PK first, then unique constraints.
            let pk = &self.schema.primary_key;
            let conflict = if pk.is_empty() {
                None
            } else {
                self.find_by_key(&self.pk_index, pk, key_of(&tuple, pk))
            }
            .or_else(|| {
                self.schema
                    .unique
                    .iter()
                    .zip(&self.unique_indexes)
                    .find_map(|(u, idxmap)| self.find_by_key(idxmap, u, key_of(&tuple, u)))
            });
            if let Some(id) = conflict {
                return match policy {
                    ConflictPolicy::Reject => Err(StorageError::KeyViolation {
                        relation: self.schema.name.clone(),
                        key: tuple
                            .project(&self.schema.primary_key)
                            .iter()
                            .map(|v| v.render().into_owned())
                            .collect::<Vec<_>>()
                            .join(","),
                    }),
                    ConflictPolicy::Skip => Ok(InsertOutcome::Skipped(id)),
                    ConflictPolicy::Merge => self.merge_into(id, &tuple),
                    ConflictPolicy::Allow => unreachable!(),
                };
            }
        }
        let id = self.rows.len() as RowId;
        self.rows.push(tuple);
        self.update_indexes(id, h, true);
        Ok(InsertOutcome::Inserted(id))
    }

    /// Merge `tuple` into the existing row `id`, unifying column-wise.
    fn merge_into(&mut self, id: RowId, tuple: &Tuple) -> Result<InsertOutcome> {
        let existing = &self.rows[id as usize];
        let mut merged_vals = Vec::with_capacity(existing.arity());
        for (i, (old, new)) in existing.values().iter().zip(tuple.values()).enumerate() {
            match old.unify(new) {
                Some(v) => merged_vals.push(v),
                None => {
                    return Err(StorageError::EgdFailure {
                        relation: self.schema.name.clone(),
                        column: self.schema.columns[i].name.clone(),
                        left: old.render().into_owned(),
                        right: new.render().into_owned(),
                    })
                }
            }
        }
        let merged = Tuple::new(merged_vals);
        if merged != self.rows[id as usize] {
            self.replace_row(id, merged);
        }
        Ok(InsertOutcome::Merged(id))
    }

    /// Replace a row in place: un-index the old tuple, store the new one and
    /// index it under the same id — no other row is touched, so a merge
    /// costs the same in a relation of any size. When a snapshot shares the
    /// row's chunk, only that one chunk is copied.
    pub fn replace_row(&mut self, id: RowId, tuple: Tuple) {
        let old = tuple_hash(&self.digest_keys, &self.rows[id as usize]);
        self.update_indexes(id, old, false);
        let h = tuple_hash(&self.digest_keys, &tuple);
        self.rows.set(id as usize, tuple);
        self.update_indexes(id, h, true);
    }

    /// Replace the whole row set (collapsing exact duplicates) and rebuild
    /// indexes. No constraint checking — used by egd application and core
    /// minimisation, which construct already-consistent row sets.
    pub fn set_rows(&mut self, rows: Vec<Tuple>) {
        self.rows = Rows::from_vec(rows);
        self.dedup_rows();
    }

    /// Remove the rows at the given ids (ids refer to the pre-removal
    /// numbering) and rebuild indexes. Used by core minimisation. The
    /// rebuild is wholesale because removal renumbers every later row, so
    /// every bucket holding one of them changes anyway.
    pub fn remove_rows(&mut self, ids: &[RowId]) {
        if ids.is_empty() {
            return;
        }
        let mut dead = vec![false; self.rows.len()];
        for &id in ids {
            if (id as usize) < dead.len() {
                dead[id as usize] = true;
            }
        }
        let old = std::mem::take(&mut self.rows).into_vec();
        let mut keep = Vec::with_capacity(old.len() - ids.len().min(old.len()));
        for (i, t) in old.into_iter().enumerate() {
            if !dead[i] {
                keep.push(t);
            }
        }
        self.rows = Rows::from_vec(keep);
        self.rebuild_indexes();
    }

    /// Apply a labeled-null substitution to every value, then rebuild
    /// indexes and re-collapse duplicates. Returns the number of values
    /// changed. Chunks containing no substituted label are left shared
    /// with any live snapshot.
    pub fn substitute_labeled(&mut self, subst: &HashMap<u64, Value>) -> usize {
        let changed = self.rows.for_each_mut_where(
            |t| {
                t.values()
                    .iter()
                    .any(|v| matches!(v, Value::Labeled(l) if subst.contains_key(l)))
            },
            |t| {
                let mut n = 0;
                for v in t.values_mut() {
                    if let Value::Labeled(l) = v {
                        if let Some(rep) = subst.get(l) {
                            *v = rep.clone();
                            n += 1;
                        }
                    }
                }
                n
            },
        );
        if changed > 0 {
            self.dedup_rows();
        }
        changed
    }

    /// Collapse exact duplicates and rebuild the indexes wholesale: like
    /// [`RelationInstance::remove_rows`], dropping rows renumbers the rest.
    fn dedup_rows(&mut self) {
        let mut seen: HashMap<u64, Vec<Tuple>> = HashMap::new();
        let mut keep = Vec::with_capacity(self.rows.len());
        for t in std::mem::take(&mut self.rows).into_vec() {
            let bucket = seen.entry(tuple_hash(&self.digest_keys, &t)).or_default();
            if !bucket.iter().any(|u| u == &t) {
                bucket.push(t.clone());
                keep.push(t);
            }
        }
        self.rows = Rows::from_vec(keep);
        self.rebuild_indexes();
    }

    fn rebuild_indexes(&mut self) {
        self.row_set.clear();
        self.pk_index.clear();
        for m in &mut self.unique_indexes {
            m.clear();
        }
        for id in 0..self.rows.len() as RowId {
            let h = tuple_hash(&self.digest_keys, &self.rows[id as usize]);
            self.update_indexes(id, h, true);
        }
    }

    /// Count of constant atoms across all tuples.
    pub fn constants(&self) -> usize {
        self.rows.iter().map(Tuple::constants).sum()
    }

    /// Count of null atoms (SQL + labeled) across all tuples.
    pub fn nulls(&self) -> usize {
        self.rows.iter().map(Tuple::nulls).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    thread_local! {
        /// ANDed into every [`hash_values`] output on this thread: a test
        /// narrows it to put distinct rows and keys under one index hash.
        pub(super) static HASH_MASK: std::cell::Cell<u64> = const { std::cell::Cell::new(u64::MAX) };
    }

    fn keyed_rel() -> RelationInstance {
        RelationInstance::new(
            RelationSchema::with_any_columns("R", &["id", "a", "b"])
                .primary_key(&["id"])
                .unwrap(),
        )
    }

    #[test]
    fn set_semantics_collapse_exact_duplicates() {
        let mut r = RelationInstance::new(RelationSchema::with_any_columns("R", &["a"]));
        assert!(matches!(
            r.insert(tuple!["x"], ConflictPolicy::Allow).unwrap(),
            InsertOutcome::Inserted(0)
        ));
        assert!(matches!(
            r.insert(tuple!["x"], ConflictPolicy::Allow).unwrap(),
            InsertOutcome::Duplicate(0)
        ));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn reject_policy_errors_on_key_conflict() {
        let mut r = keyed_rel();
        r.insert(tuple!["k", "a", "b"], ConflictPolicy::Reject)
            .unwrap();
        let err = r
            .insert(tuple!["k", "c", "d"], ConflictPolicy::Reject)
            .unwrap_err();
        assert!(matches!(err, StorageError::KeyViolation { .. }));
    }

    #[test]
    fn skip_policy_drops_conflicting_tuple() {
        let mut r = keyed_rel();
        r.insert(tuple!["k", "a", "b"], ConflictPolicy::Skip)
            .unwrap();
        let out = r
            .insert(tuple!["k", "c", "d"], ConflictPolicy::Skip)
            .unwrap();
        assert!(matches!(out, InsertOutcome::Skipped(0)));
        assert_eq!(r.len(), 1);
        assert_eq!(r.row(0).unwrap(), &tuple!["k", "a", "b"]);
    }

    #[test]
    fn merge_policy_unifies_nulls_with_constants() {
        let mut r = keyed_rel();
        r.insert(tuple!["k", Value::Null, "b"], ConflictPolicy::Merge)
            .unwrap();
        let out = r
            .insert(tuple!["k", "a", Value::Labeled(7)], ConflictPolicy::Merge)
            .unwrap();
        assert!(matches!(out, InsertOutcome::Merged(0)));
        assert_eq!(r.len(), 1);
        assert_eq!(r.row(0).unwrap(), &tuple!["k", "a", "b"]);
    }

    #[test]
    fn merge_policy_fails_on_conflicting_constants() {
        let mut r = keyed_rel();
        r.insert(tuple!["k", "a", "b"], ConflictPolicy::Merge)
            .unwrap();
        let err = r
            .insert(tuple!["k", "DIFFERENT", "b"], ConflictPolicy::Merge)
            .unwrap_err();
        assert!(matches!(err, StorageError::EgdFailure { .. }));
    }

    #[test]
    fn allow_policy_keeps_key_conflicts() {
        let mut r = keyed_rel();
        r.insert(tuple!["k", "a", "b"], ConflictPolicy::Allow)
            .unwrap();
        r.insert(tuple!["k", "c", "d"], ConflictPolicy::Allow)
            .unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn null_keys_do_not_conflict() {
        // PK column is non-nullable after primary_key(); use a keyless unique instead.
        let mut r2 = RelationInstance::new(
            RelationSchema::with_any_columns("S", &["u", "v"])
                .unique_on(&["u"])
                .unwrap(),
        );
        r2.insert(tuple![Value::Null, "a"], ConflictPolicy::Merge)
            .unwrap();
        r2.insert(tuple![Value::Null, "b"], ConflictPolicy::Merge)
            .unwrap();
        assert_eq!(r2.len(), 2);
    }

    #[test]
    fn pk_lookup() {
        let mut r = keyed_rel();
        r.insert(tuple!["k1", "a", "b"], ConflictPolicy::Reject)
            .unwrap();
        r.insert(tuple!["k2", "c", "d"], ConflictPolicy::Reject)
            .unwrap();
        assert_eq!(
            r.lookup_pk(&[Value::text("k2")]).unwrap(),
            &tuple!["k2", "c", "d"]
        );
        assert!(r.lookup_pk(&[Value::text("zz")]).is_none());
        assert!(r.lookup_pk(&[Value::Null]).is_none());
    }

    #[test]
    fn scan_eq_matches() {
        let mut r = keyed_rel();
        r.insert(tuple!["k1", "a", "b"], ConflictPolicy::Reject)
            .unwrap();
        r.insert(tuple!["k2", "a", "d"], ConflictPolicy::Reject)
            .unwrap();
        assert_eq!(r.scan_eq(&[1], &[Value::text("a")]).len(), 2);
        assert_eq!(r.scan_eq(&[2], &[Value::text("d")]).len(), 1);
        assert!(r.scan_eq(&[1], &[Value::Null]).is_empty());
    }

    #[test]
    fn substitution_unifies_and_dedups() {
        let mut r = RelationInstance::new(RelationSchema::with_any_columns("R", &["a", "b"]));
        r.insert(tuple!["x", Value::Labeled(1)], ConflictPolicy::Allow)
            .unwrap();
        r.insert(tuple!["x", "v"], ConflictPolicy::Allow).unwrap();
        let mut subst = HashMap::new();
        subst.insert(1u64, Value::text("v"));
        let changed = r.substitute_labeled(&subst);
        assert_eq!(changed, 1);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn remove_rows_compacts_and_reindexes() {
        let mut r = keyed_rel();
        r.insert(tuple!["k1", "a", "b"], ConflictPolicy::Reject)
            .unwrap();
        r.insert(tuple!["k2", "c", "d"], ConflictPolicy::Reject)
            .unwrap();
        r.insert(tuple!["k3", "e", "f"], ConflictPolicy::Reject)
            .unwrap();
        r.remove_rows(&[1]);
        assert_eq!(r.len(), 2);
        assert!(r.lookup_pk(&[Value::text("k2")]).is_none());
        assert!(r.lookup_pk(&[Value::text("k3")]).is_some());
    }

    #[test]
    fn type_and_arity_checks() {
        let mut r = RelationInstance::new(RelationSchema::new(
            "T",
            vec![
                crate::Column::new("i", crate::DataType::Int),
                crate::Column::new("s", crate::DataType::Text).not_null(),
            ],
        ));
        assert!(matches!(
            r.insert(tuple![1i64], ConflictPolicy::Allow).unwrap_err(),
            StorageError::ArityMismatch { .. }
        ));
        assert!(matches!(
            r.insert(tuple!["no", "s"], ConflictPolicy::Allow)
                .unwrap_err(),
            StorageError::TypeMismatch { .. }
        ));
        assert!(matches!(
            r.insert(tuple![1i64, Value::Null], ConflictPolicy::Allow)
                .unwrap_err(),
            StorageError::NullViolation { .. }
        ));
        r.insert(tuple![1i64, "ok"], ConflictPolicy::Allow).unwrap();
    }

    /// The incrementally maintained indexes equal a clone's after a full
    /// rebuild — same buckets, same (ascending) id order, no empty buckets.
    fn assert_indexes_match_rebuild(r: &RelationInstance, ctx: &str) {
        let mut fresh = r.clone();
        fresh.rebuild_indexes();
        assert_eq!(r.row_set, fresh.row_set, "row_set, {ctx}");
        assert_eq!(r.pk_index, fresh.pk_index, "pk_index, {ctx}");
        assert_eq!(r.unique_indexes, fresh.unique_indexes, "unique, {ctx}");
        let mut buckets = r.row_set.values().chain(r.pk_index.values());
        assert!(buckets.all(|b| !b.is_empty()), "empty bucket, {ctx}");
        let mut buckets = r.unique_indexes.iter().flat_map(|m| m.values());
        assert!(buckets.all(|b| !b.is_empty()), "empty bucket, {ctx}");
    }

    #[test]
    fn incremental_indexes_match_a_full_rebuild() {
        random_ops_match_rebuild();
    }

    #[test]
    fn incremental_indexes_match_a_full_rebuild_under_hash_collisions() {
        // Two hash bits: distinct rows and keys share buckets all the time.
        HASH_MASK.with(|m| m.set(0b11));
        random_ops_match_rebuild();
        HASH_MASK.with(|m| m.set(u64::MAX));
    }

    #[test]
    fn index_digests_are_keyed_per_relation() {
        // Clients choose values, so they must not be able to predict the
        // digests the identity-hashed index maps are keyed by.
        let (a, b) = (keyed_rel(), keyed_rel());
        let t = tuple!["k", "a", "b"];
        assert_ne!(
            tuple_hash(&a.digest_keys, &t),
            tuple_hash(&b.digest_keys, &t)
        );
        assert_eq!(
            tuple_hash(&a.digest_keys, &t),
            tuple_hash(&a.clone().digest_keys, &t)
        );
    }

    #[test]
    fn colliding_rows_keep_ascending_buckets_through_add_and_remove() {
        // Every row and every key hashes to 0: one bucket per index.
        HASH_MASK.with(|m| m.set(0));
        let mut r = keyed_rel();
        let ins = |r: &mut RelationInstance, t| r.insert(t, ConflictPolicy::Merge).unwrap();
        assert_eq!(
            ins(&mut r, tuple!["k2", "a", Value::Null]),
            InsertOutcome::Inserted(0)
        );
        // Same hash, different tuple and key: a new row, not a duplicate.
        assert_eq!(
            ins(&mut r, tuple!["k1", "b", "c"]),
            InsertOutcome::Inserted(1)
        );
        assert_eq!(r.row_set[&0], vec![0, 1]);
        assert_eq!(r.pk_index[&0], vec![0, 1]);
        assert_eq!(
            ins(&mut r, tuple!["k1", "b", "c"]),
            InsertOutcome::Duplicate(1)
        );
        // The merge finds row 0 by comparing key values, not by hash, and
        // re-files it: removed, then re-added in ascending position.
        assert_eq!(
            ins(&mut r, tuple!["k2", "a", "z"]),
            InsertOutcome::Merged(0)
        );
        assert_eq!(r.row(0).unwrap(), &tuple!["k2", "a", "z"]);
        assert_eq!(r.row_set[&0], vec![0, 1]);
        assert_eq!(r.pk_index[&0], vec![0, 1]);
        r.replace_row(1, tuple!["k3", "d", "e"]);
        assert_eq!(r.row_set[&0], vec![0, 1]);
        assert_eq!(r.lookup_pk_id(&[Value::text("k3")]), Some(1));
        assert_eq!(r.lookup_pk_id(&[Value::text("k1")]), None);
        assert_eq!(r.lookup_pk_id(&[Value::text("k2")]), Some(0));
        assert_indexes_match_rebuild(&r, "all hashes 0");
        HASH_MASK.with(|m| m.set(u64::MAX));
    }

    /// Seeded random inserts under every policy plus row replacements,
    /// checking the indexes against a full rebuild after each step.
    fn random_ops_match_rebuild() {
        // SplitMix64: a seeded stream over a narrow domain, so keys collide.
        fn next(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        for seed in 0..64u64 {
            let mut rng = seed;
            let mut r = RelationInstance::new(
                RelationSchema::with_any_columns("R", &["id", "u", "a", "b"])
                    .primary_key(&["id"])
                    .unwrap()
                    .unique_on(&["u"])
                    .unwrap(),
            );
            for step in 0..80 {
                let val = |x: u64| match x {
                    0 => Value::Null,
                    1 => Value::Labeled(1),
                    x => Value::int(x as i64),
                };
                let t = Tuple::new(vec![
                    Value::int((next(&mut rng) % 6) as i64),
                    val(next(&mut rng) % 6),
                    val(next(&mut rng) % 4),
                    val(next(&mut rng) % 4),
                ]);
                match next(&mut rng) % 4 {
                    // Egd failures leave the relation unchanged.
                    0 => {
                        let _ = r.insert(t, ConflictPolicy::Merge);
                    }
                    1 => {
                        r.insert(t, ConflictPolicy::Allow).unwrap();
                    }
                    2 => {
                        r.insert(t, ConflictPolicy::Skip).unwrap();
                    }
                    _ if !r.is_empty() => {
                        let id = (next(&mut rng) % r.len() as u64) as RowId;
                        r.replace_row(id, t);
                    }
                    _ => {}
                }
                assert_indexes_match_rebuild(&r, &format!("seed {seed} step {step}"));
            }
        }
    }

    #[test]
    fn atom_counts() {
        let mut r = RelationInstance::new(RelationSchema::with_any_columns("R", &["a", "b"]));
        r.insert(tuple!["x", Value::Null], ConflictPolicy::Allow)
            .unwrap();
        r.insert(tuple![Value::Labeled(1), "y"], ConflictPolicy::Allow)
            .unwrap();
        assert_eq!(r.constants(), 2);
        assert_eq!(r.nulls(), 2);
    }
}
