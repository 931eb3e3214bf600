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
use sedex_storage::Instance;
use sedex_treerep::SeenRef;

/// Per-relation bitmaps of seen rows.
#[derive(Debug, Clone, Default)]
pub struct SeenSet {
    map: HashMap<String, Vec<bool>>,
    count: usize,
}

impl SeenSet {
    /// A seen-set sized for the given source instance.
    pub fn for_instance(instance: &Instance) -> Self {
        let map = instance
            .relations()
            .map(|(name, rel)| (name.to_owned(), vec![false; rel.len()]))
            .collect();
        SeenSet { map, count: 0 }
    }

    /// Grow a relation's bitmap to cover at least `rows` rows (used by the
    /// streaming session, where the source grows after construction).
    pub fn ensure_capacity(&mut self, relation: &str, rows: usize) {
        let bits = match self.map.get_mut(relation) {
            Some(bits) => bits,
            None => self.map.entry(relation.to_owned()).or_default(),
        };
        if bits.len() < rows {
            bits.resize(rows, false);
        }
    }

    /// Mark one row; returns `true` when it was newly marked.
    pub fn mark(&mut self, relation: &str, row: RowId) -> bool {
        match self.map.get_mut(relation) {
            Some(bits) if (row as usize) < bits.len() && !bits[row as usize] => {
                bits[row as usize] = true;
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

    /// Whether a row has been seen.
    pub fn is_seen(&self, relation: &str, row: RowId) -> bool {
        self.map
            .get(relation)
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
            .map
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Rebuild a seen-set from exported bitmaps (the marked-row count is
    /// recomputed).
    pub fn import(entries: Vec<(String, Vec<bool>)>) -> Self {
        let count = entries
            .iter()
            .map(|(_, bits)| bits.iter().filter(|&&b| b).count())
            .sum();
        SeenSet {
            map: entries.into_iter().collect(),
            count,
        }
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
