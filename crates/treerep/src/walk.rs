//! The one traversal behind tuple trees and shape walks (Def. 3).
//!
//! [`walk`] visits one tuple and every tuple it (transitively) references
//! through foreign keys, in the order a tuple tree lays them out, and
//! reports each node to a [`Sink`] twice: when it opens (preorder) and when
//! it closes (postorder). Every rule of Def. 3 lives here and nowhere else:
//! null pruning, the root key, foreign-key order, cycle prevention, visited
//! deduplication and `max_depth`. [`crate::tuple_tree`] hangs the nodes
//! into a tree; [`crate::ShapeCatalog::walk`] writes only the shape ids and
//! the slot values, with no tree at all.

use sedex_storage::relation::RowId;
use sedex_storage::{Instance, RelationSchema, Schema, Tuple, Value};

use crate::relation_tree::TreeConfig;

/// The slot value of a dummy root: an SQL null. Tuple trees and shape
/// walks both hand out this one static, so their slots are equal by
/// address.
pub static NULL_SLOT: Value = Value::Null;

/// Every foreign key of a schema resolved to its referenced relation's
/// schema position, once — a walk follows references without probing a
/// relation name.
#[derive(Debug, Clone)]
pub(crate) struct Links {
    /// Where relation `r`'s foreign keys start in `targets`.
    base: Vec<usize>,
    /// `None` for a reference to a relation the schema does not have,
    /// which a walk treats as dangling.
    targets: Vec<Option<usize>>,
}

impl Links {
    pub(crate) fn new(schema: &Schema) -> Self {
        let mut base = Vec::with_capacity(schema.len());
        let mut targets = Vec::new();
        for rel in schema.relations() {
            base.push(targets.len());
            targets.extend(
                rel.foreign_keys
                    .iter()
                    .map(|fk| schema.relation_index(&fk.ref_relation)),
            );
        }
        Links { base, targets }
    }

    /// The referenced relation of relation `rel`'s `fk`-th foreign key.
    fn target(&self, rel: usize, fk: usize) -> Option<usize> {
        self.targets[self.base[rel] + fk]
    }
}

/// A node of a walk: column `col` of a tuple of relation `rel`, or the
/// dummy root of a relation without a single-column key.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node<'a> {
    /// Schema position of the node's relation.
    pub rel: usize,
    pub schema: &'a RelationSchema,
    /// `None` for the dummy root.
    pub col: Option<usize>,
    /// The column's value; [`NULL_SLOT`] for the dummy root.
    pub value: &'a Value,
}

/// What a walk reports to.
pub(crate) trait Sink<'a> {
    /// A node opens, under the innermost node still open (preorder).
    fn open(&mut self, node: Node<'a>);
    /// The innermost open node closes (postorder).
    fn close(&mut self, node: Node<'a>);
}

/// The tuples from the root down to the node being expanded, linked
/// through the call stack, for cycle prevention.
struct Path<'p> {
    rel: usize,
    row: RowId,
    up: Option<&'p Path<'p>>,
}

impl Path<'_> {
    fn contains(&self, rel: usize, row: RowId) -> bool {
        let mut at = Some(self);
        while let Some(p) = at {
            if p.rel == rel && p.row == row {
                return true;
            }
            at = p.up;
        }
        false
    }
}

/// Walk row `row` of relation `rel` (its tuple `tuple`) in `instance`,
/// reporting every node to `sink`. Each referenced tuple reached is
/// appended to `visited` once, in first-visit order (the root tuple is
/// not).
#[allow(clippy::too_many_arguments)]
pub(crate) fn walk<'a>(
    links: &Links,
    instance: &'a Instance,
    config: &TreeConfig,
    rel: usize,
    row: RowId,
    tuple: &'a Tuple,
    visited: &mut Vec<(usize, RowId)>,
    sink: &mut impl Sink<'a>,
) {
    let schema = &instance.schema().relations()[rel];
    let root_key = schema.single_column_key();
    let node = |col: Option<usize>| Node {
        rel,
        schema,
        col,
        value: col.map_or(&NULL_SLOT, |c| &tuple.values()[c]),
    };
    let mut w = Walker {
        links,
        instance,
        config,
        visited_from: visited.len(),
        visited,
        sink,
    };
    let path = Path { rel, row, up: None };
    let root = node(root_key);
    w.sink.open(root);
    for i in 0..schema.columns.len() {
        if root_key == Some(i) || w.pruned(&tuple.values()[i]) {
            continue; // "not having a property is not a property"
        }
        let child = node(Some(i));
        w.sink.open(child);
        w.expand(rel, tuple, i, 2, &path);
        w.sink.close(child);
    }
    if let Some(k) = root_key {
        w.expand(rel, tuple, k, 1, &path);
    }
    w.sink.close(root);
}

struct Walker<'a, 'w, S> {
    links: &'w Links,
    instance: &'a Instance,
    config: &'w TreeConfig,
    visited: &'w mut Vec<(usize, RowId)>,
    /// Where this walk's visited rows start in `visited`.
    visited_from: usize,
    sink: &'w mut S,
}

impl<'a, S: Sink<'a>> Walker<'a, '_, S> {
    fn pruned(&self, v: &Value) -> bool {
        v.is_null() && self.config.prune_nulls
    }

    /// If column `col` of `tuple` (a tuple of relation `rel`) starts
    /// foreign keys, dereference them and report the referenced tuples'
    /// non-key properties under the open node.
    fn expand(&mut self, rel: usize, tuple: &'a Tuple, col: usize, depth: usize, path: &Path) {
        if depth >= self.config.max_depth {
            return;
        }
        let relations = self.instance.schema().relations();
        for (f, fk) in relations[rel].foreign_keys.iter().enumerate() {
            if fk.columns.first() != Some(&col) {
                continue;
            }
            let Some(target) = self.links.target(rel, f) else {
                continue;
            };
            let Some((ref_inst, ref_row)) = self.instance.follow_fk_at(target, fk, tuple) else {
                continue; // null FK ("nonexistent") or dangling reference
            };
            if path.contains(target, ref_row) {
                continue; // cycle in the data graph
            }
            if !self.visited[self.visited_from..].contains(&(target, ref_row)) {
                self.visited.push((target, ref_row));
            }
            let ref_schema = &relations[target];
            let ref_tuple = &ref_inst.rows()[ref_row as usize];
            let here = Path {
                rel: target,
                row: ref_row,
                up: Some(path),
            };
            for j in 0..ref_schema.columns.len() {
                // The referenced key is the open node itself.
                if fk.ref_columns.contains(&j) || self.pruned(&ref_tuple.values()[j]) {
                    continue;
                }
                let child = Node {
                    rel: target,
                    schema: ref_schema,
                    col: Some(j),
                    value: &ref_tuple.values()[j],
                };
                self.sink.open(child);
                self.expand(target, ref_tuple, j, depth + 1, &here);
                self.sink.close(child);
            }
        }
    }
}
