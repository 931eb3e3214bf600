//! Seen-tuple marking (Section 4.2).
//!
//! While a tuple tree is built, every referenced tuple is *marked as seen*;
//! when the referenced tuple's own relation comes up for processing, seen
//! tuples are skipped — their information already reached the target through
//! the referencing entity. This is the mechanism (together with the
//! descending-height processing order) that prevents a referenced entity
//! from being materialized twice and fragmenting.

use std::collections::HashMap;

use sedex_storage::relation::RowId;
use sedex_storage::{Instance, Schema};
use sedex_treerep::SeenRef;

/// Per-relation bitmaps of seen rows, addressed by relation name or by
/// slot. After [`SeenSet::for_instance`] or [`SeenSet::import_for`], the
/// slot of a relation is its schema position — how the engine addresses
/// it, with the `(schema position, row)` pairs a shape walk visits.
#[derive(Debug, Clone, Default)]
pub struct SeenSet {
    slots: HashMap<String, usize>,
    bits: Vec<Vec<bool>>,
    count: usize,
}

impl SeenSet {
    /// A seen-set sized for the given source instance.
    pub fn for_instance(instance: &Instance) -> Self {
        let mut set = SeenSet::default();
        for (name, rel) in instance.relations() {
            let slot = set.slot(name);
            set.bits[slot].resize(rel.len(), false);
        }
        set
    }

    /// The slot of `relation`, added when new.
    fn slot(&mut self, relation: &str) -> usize {
        if let Some(&slot) = self.slots.get(relation) {
            return slot;
        }
        let slot = self.bits.len();
        self.slots.insert(relation.to_owned(), slot);
        self.bits.push(Vec::new());
        slot
    }

    /// Grow a relation's bitmap to cover at least `rows` rows (used by the
    /// streaming session, where the source grows after construction).
    pub fn ensure_capacity(&mut self, relation: &str, rows: usize) {
        let slot = self.slot(relation);
        let bits = &mut self.bits[slot];
        if bits.len() < rows {
            bits.resize(rows, false);
        }
    }

    /// Mark one row; returns `true` when it was newly marked.
    pub fn mark(&mut self, relation: &str, row: RowId) -> bool {
        match self.slots.get(relation) {
            Some(&slot) => self.mark_at(slot, row),
            None => false,
        }
    }

    /// [`SeenSet::mark`] by slot.
    pub fn mark_at(&mut self, slot: usize, row: RowId) -> bool {
        match self
            .bits
            .get_mut(slot)
            .and_then(|b| b.get_mut(row as usize))
        {
            Some(bit) if !*bit => {
                *bit = true;
                self.count += 1;
                true
            }
            _ => false,
        }
    }

    /// Mark every reference visited by a tuple-tree build.
    pub fn mark_all(&mut self, refs: &[SeenRef]) {
        for r in refs {
            self.mark(r.relation, r.row);
        }
    }

    /// Mark every `(slot, row)` a shape walk visited.
    pub fn mark_all_at(&mut self, refs: &[(usize, RowId)]) {
        for &(slot, row) in refs {
            self.mark_at(slot, row);
        }
    }

    /// Whether a row has been seen.
    pub fn is_seen(&self, relation: &str, row: RowId) -> bool {
        self.slots
            .get(relation)
            .is_some_and(|&slot| self.is_seen_at(slot, row))
    }

    /// [`SeenSet::is_seen`] by slot.
    pub fn is_seen_at(&self, slot: usize, row: RowId) -> bool {
        self.bits
            .get(slot)
            .and_then(|bits| bits.get(row as usize))
            .copied()
            .unwrap_or(false)
    }

    /// Total marked rows.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether nothing is marked.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Export per-relation bitmaps, sorted by relation name (a stable layout
    /// for durability snapshots).
    pub fn export(&self) -> Vec<(String, Vec<bool>)> {
        let mut out: Vec<(String, Vec<bool>)> = self
            .slots
            .iter()
            .map(|(name, &slot)| (name.clone(), self.bits[slot].clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Rebuild a seen-set from exported bitmaps (the marked-row count is
    /// recomputed).
    pub fn import(entries: Vec<(String, Vec<bool>)>) -> Self {
        SeenSet::import_for(&Schema::new(), entries)
    }

    /// [`SeenSet::import`] with the relations of `schema` at their schema
    /// positions as slots.
    pub fn import_for(schema: &Schema, entries: Vec<(String, Vec<bool>)>) -> Self {
        let mut set = SeenSet::default();
        for name in schema.relation_names() {
            set.slot(name);
        }
        for (name, bits) in entries {
            let slot = set.slot(&name);
            set.count += bits.iter().filter(|&&b| b).count();
            set.bits[slot] = bits;
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedex_storage::{ConflictPolicy, RelationSchema, Schema};

    fn instance() -> Instance {
        let r = RelationSchema::with_any_columns("R", &["a"]);
        let schema = Schema::from_relations(vec![r]).unwrap();
        let mut inst = Instance::new(schema);
        for i in 0..3 {
            inst.insert(
                "R",
                sedex_storage::tuple![format!("v{i}")],
                ConflictPolicy::Allow,
            )
            .unwrap();
        }
        inst
    }

    #[test]
    fn mark_and_query() {
        let mut s = SeenSet::for_instance(&instance());
        assert!(!s.is_seen("R", 1));
        assert!(s.mark("R", 1));
        assert!(s.is_seen("R", 1));
        assert!(!s.mark("R", 1)); // second mark is a no-op
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn unknown_relation_or_row_is_ignored() {
        let mut s = SeenSet::for_instance(&instance());
        assert!(!s.mark("Nope", 0));
        assert!(!s.mark("R", 99));
        assert!(!s.is_seen("Nope", 0));
        assert!(s.is_empty());
    }

    #[test]
    fn slots_are_schema_positions() {
        let r = RelationSchema::with_any_columns("R", &["a"]);
        let q = RelationSchema::with_any_columns("Q", &["b"]);
        let schema = Schema::from_relations(vec![r, q]).unwrap();
        let mut s = SeenSet::for_instance(&Instance::new(schema.clone()));
        s.ensure_capacity("Q", 2);
        assert!(s.mark_at(1, 1));
        assert!(s.is_seen("Q", 1));
        // An export lists relations by name; importing it for the schema
        // puts them back at their schema positions.
        let ex = s.export();
        assert_eq!(ex[0].0, "Q");
        let back = SeenSet::import_for(&schema, ex);
        assert!(back.is_seen_at(1, 1));
        assert!(!back.is_seen_at(0, 1));
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn mark_all_batches() {
        let mut s = SeenSet::for_instance(&instance());
        s.mark_all(&[
            SeenRef {
                relation: "R",
                row: 0,
            },
            SeenRef {
                relation: "R",
                row: 2,
            },
        ]);
        assert_eq!(s.len(), 2);
        assert!(s.is_seen("R", 0));
        assert!(!s.is_seen("R", 1));
    }
}
