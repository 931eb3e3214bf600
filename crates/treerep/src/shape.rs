//! Shape keys for the script repository (Section 4.4.2).
//!
//! The script repository is "a hash table where the key is the string
//! representation of the post order traversal of the relation tree of the
//! input tuple tree". Two tuple trees with the same key have identical
//! structure and property names, so the script generated for one can be
//! replayed for the other by substituting values.
//!
//! The shape depends only on which columns are non-null along the
//! foreign-key walk, which references dangle, and where the walk revisits
//! a tuple or stops at `max_depth` — not on the values. So the shape can
//! be read without building the tree: a [`ShapeCatalog`], compiled once
//! from the source schema, walks a tuple into reused [`Shapes`] buffers as
//! integer ids (the key) plus the slot values and visited rows a script
//! run and seen-marking need. [`ShapeCatalog::repository_key`] renders
//! ids as the `String` key [`repository_key`] writes from a tree.

use std::collections::HashMap;

use sedex_pqgram::{NodeId, PqLabel, Tree};
use sedex_storage::relation::RowId;
use sedex_storage::{Instance, Schema, StorageError, Tuple, Value};

use crate::relation_tree::TreeConfig;
use crate::tuple_tree::{build, TupleTree};
use crate::walk::{walk, Links, Node, Sink};
use crate::SchemaLabel;

/// The post-order label string of a (reduced) relation tree — the primary
/// script-repository key.
///
/// For the first Student tuple of the running example this is
/// `"program building dep degree building profdep supervisor sname"`,
/// exactly as printed in Section 4.4.2. A dummy root contributes `*`.
pub fn post_order_key(tree: &Tree<SchemaLabel>) -> String {
    let mut s = String::with_capacity(tree.len() * 8);
    write_post_order(tree, tree.root(), &|l: &String| l, &mut s);
    s
}

/// The post-order shape key of a tuple tree, computed directly — equal to
/// `post_order_key(&reduce_to_relation_tree(tt))` without materializing
/// the reduced tree.
pub fn tuple_shape_key(tt: &TupleTree<'_>) -> String {
    let mut s = String::with_capacity(tt.tree.len() * 8);
    write_tuple_shape(tt, &mut s);
    s
}

/// The script-repository key of a tuple tree: its relation, `|`, then its
/// shape key — one string, written in one pass. This is the hot path of
/// the engine: one call per source tuple.
pub fn repository_key(tt: &TupleTree<'_>) -> String {
    let mut s = String::with_capacity(tt.relation.len() + 1 + tt.tree.len() * 8);
    s.push_str(tt.relation);
    s.push('|');
    write_tuple_shape(tt, &mut s);
    s
}

fn write_tuple_shape(tt: &TupleTree<'_>, out: &mut String) {
    write_post_order(&tt.tree, tt.tree.root(), &|n| n.prop, out);
}

/// Append the labels of the subtree at `id` in post-order, separated by
/// single spaces; `name` reads a real label, a dummy writes `*`.
fn write_post_order<L>(
    tree: &Tree<PqLabel<L>>,
    id: NodeId,
    name: &impl Fn(&L) -> &str,
    out: &mut String,
) {
    for &c in tree.children(id) {
        write_post_order(tree, c, name, out);
        out.push(' ');
    }
    out.push_str(match tree.label(id) {
        PqLabel::Dummy => "*",
        PqLabel::Label(l) => name(l),
    });
}

/// The shape id of a dummy root, which [`repository_key`] writes as `*`.
pub const STAR: u32 = 0;

/// What a shape walk reads from a source schema, resolved once: every
/// foreign key's referenced relation and every column's name id. It holds
/// no names: the schema it was compiled from has them.
///
/// A shape is a relation id (its schema position) followed by one id per
/// node in post-order. Column *names* are interned, not `(relation,
/// column)` pairs, so two shapes' ids are equal exactly when their
/// [`repository_key`] strings are (for names without spaces, other than
/// `*`).
#[derive(Debug, Clone)]
pub struct ShapeCatalog {
    links: Links,
    /// Where relation `r`'s columns start in `col_ids`.
    col_base: Vec<usize>,
    col_ids: Vec<u32>,
    /// The `(relation, column)` whose name id `i + 1` stands for.
    names: Vec<(usize, usize)>,
}

impl ShapeCatalog {
    /// Compile `schema`, the schema of the instances this catalog walks.
    pub fn new(schema: &Schema) -> Self {
        let columns = schema.relations().iter().map(|r| r.columns.len()).sum();
        let mut ids: HashMap<&str, u32> = HashMap::with_capacity(columns);
        let mut names = Vec::with_capacity(columns);
        let mut col_base = Vec::with_capacity(schema.len());
        let mut col_ids = Vec::with_capacity(columns);
        for (r, rel) in schema.relations().iter().enumerate() {
            col_base.push(col_ids.len());
            for (c, col) in rel.columns.iter().enumerate() {
                let next = names.len() as u32 + 1;
                let id = *ids.entry(col.name.as_str()).or_insert(next);
                if id == next {
                    names.push((r, c));
                }
                col_ids.push(id);
            }
        }
        ShapeCatalog {
            links: Links::new(schema),
            col_base,
            col_ids,
            names,
        }
    }

    /// Walk row `row` of relation `rel` (a schema position) in `instance`
    /// and append its shape, slot values and visited rows to `out`.
    pub fn walk<'a>(
        &self,
        instance: &'a Instance,
        rel: usize,
        row: RowId,
        config: &TreeConfig,
        out: &mut Shapes<'a>,
    ) -> Result<(), StorageError> {
        let tuple = self.row(instance, rel, row)?;
        out.ids.push(rel as u32);
        let mut sink = ShapeSink {
            catalog: self,
            ids: &mut out.ids,
            slots: &mut out.slots,
        };
        walk(
            &self.links,
            instance,
            config,
            rel,
            row,
            tuple,
            &mut out.visited,
            &mut sink,
        );
        out.ends
            .push((row, out.ids.len(), out.slots.len(), out.visited.len()));
        Ok(())
    }

    /// The tuple tree of row `row` of relation `rel` — the same walk as
    /// [`ShapeCatalog::walk`], hung into a tree.
    pub fn tuple_tree<'a>(
        &self,
        instance: &'a Instance,
        rel: usize,
        row: RowId,
        config: &TreeConfig,
    ) -> Result<TupleTree<'a>, StorageError> {
        let tuple = self.row(instance, rel, row)?;
        Ok(build(&self.links, instance, config, rel, row, tuple))
    }

    fn row<'a>(
        &self,
        instance: &'a Instance,
        rel: usize,
        row: RowId,
    ) -> Result<&'a Tuple, StorageError> {
        instance.relation_at(rel).row(row).ok_or_else(|| {
            let name = &instance.schema().relations()[rel].name;
            StorageError::UnknownRelation(format!("{name}[row {row}]"))
        })
    }

    /// The [`repository_key`] of the tuple tree a shape's `ids` describe;
    /// `schema` is the one this catalog was compiled from.
    pub fn repository_key(&self, schema: &Schema, ids: &[u32]) -> String {
        let relations = schema.relations();
        let (rel, nodes) = ids.split_first().expect("a shape starts with its relation");
        let rel = &relations[*rel as usize].name;
        let mut s = String::with_capacity(rel.len() + 1 + nodes.len() * 8);
        s.push_str(rel);
        s.push('|');
        for (i, &id) in nodes.iter().enumerate() {
            if i > 0 {
                s.push(' ');
            }
            s.push_str(match id {
                STAR => "*",
                _ => {
                    let (r, c) = self.names[id as usize - 1];
                    &relations[r].columns[c].name
                }
            });
        }
        s
    }
}

/// Writes a node's slot value when it opens and its name id when it closes.
struct ShapeSink<'c, 'o, 'a> {
    catalog: &'c ShapeCatalog,
    ids: &'o mut Vec<u32>,
    slots: &'o mut Vec<&'a Value>,
}

impl<'a> Sink<'a> for ShapeSink<'_, '_, 'a> {
    fn open(&mut self, n: Node<'a>) {
        self.slots.push(n.value);
    }

    fn close(&mut self, n: Node<'a>) {
        let c = &self.catalog;
        self.ids
            .push(n.col.map_or(STAR, |col| c.col_ids[c.col_base[n.rel] + col]));
    }
}

/// Shape walks appended into flat buffers that a caller clears and reuses:
/// per walked tuple its shape ids, its slot values (preorder, like
/// `slot_values` of its tree) and the rows it visited (schema position,
/// row), each once in first-visit order.
#[derive(Debug, Default)]
pub struct Shapes<'a> {
    ids: Vec<u32>,
    slots: Vec<&'a Value>,
    visited: Vec<(usize, RowId)>,
    /// Per walked tuple: its row and where its ids, slots and visited rows
    /// end.
    ends: Vec<(RowId, usize, usize, usize)>,
}

/// One walked tuple, borrowed from [`Shapes`].
#[derive(Debug, Clone, Copy)]
pub struct Shape<'s, 'a> {
    /// Schema position of the tuple's relation (also `ids[0]`).
    pub relation: usize,
    /// The tuple's row.
    pub row: RowId,
    /// Relation id, then one name id per node in post-order.
    pub ids: &'s [u32],
    /// Slot values in preorder.
    pub slots: &'s [&'a Value],
    /// Referenced rows reached, as `(schema position, row)`.
    pub visited: &'s [(usize, RowId)],
}

impl<'a> Shapes<'a> {
    /// These buffers, emptied, for walks of another instance: a caller
    /// that keeps them between walks stores them as `Shapes<'static>`.
    pub fn recycle<'b>(mut self) -> Shapes<'b> {
        self.clear();
        Shapes {
            ids: self.ids,
            // Collecting an emptied vector into one of a same-sized type
            // reuses its allocation.
            slots: self.slots.into_iter().map(|_| unreachable!()).collect(),
            visited: self.visited,
            ends: self.ends,
        }
    }

    /// Forget every walk, keeping the buffers.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.slots.clear();
        self.visited.clear();
        self.ends.clear();
    }

    /// Number of walks held.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no walk is held.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The `i`-th walk.
    pub fn get(&self, i: usize) -> Shape<'_, 'a> {
        let (row, ids, slots, visited) = self.ends[i];
        let (i0, s0, v0) = match i.checked_sub(1) {
            Some(p) => {
                let (_, i0, s0, v0) = self.ends[p];
                (i0, s0, v0)
            }
            None => (0, 0, 0),
        };
        Shape {
            relation: self.ids[i0] as usize,
            row,
            ids: &self.ids[i0..ids],
            slots: &self.slots[s0..slots],
            visited: &self.visited[v0..visited],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::reduce_to_relation_tree;
    use crate::relation_tree::TreeConfig;
    use crate::tuple_tree::tuple_tree;
    use sedex_pqgram::PqLabel;
    use sedex_storage::{ConflictPolicy, Instance, RelationSchema, Schema};

    fn university() -> Instance {
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
        let schema = Schema::from_relations(vec![student, prof, dep]).unwrap();
        let mut inst = Instance::new(schema);
        let p = ConflictPolicy::Reject;
        inst.insert("Dep", sedex_storage::tuple!["d1", "b1"], p)
            .unwrap();
        inst.insert("Prof", sedex_storage::tuple!["prof1", "deg1", "d1"], p)
            .unwrap();
        inst.insert(
            "Student",
            sedex_storage::tuple!["s1", "p1", "d1", "prof1"],
            p,
        )
        .unwrap();
        inst
    }

    #[test]
    fn paper_post_order_key_for_first_student() {
        // Section 4.4.2: "program building dep degree building profdep
        // supervisor sname".
        let inst = university();
        let tt = tuple_tree(&inst, "Student", 0, &TreeConfig::default()).unwrap();
        let rt = reduce_to_relation_tree(&tt);
        assert_eq!(
            post_order_key(&rt),
            "program building dep degree building profdep supervisor sname"
        );
        // The direct tuple-tree key agrees with the reduce-then-key path.
        assert_eq!(tuple_shape_key(&tt), post_order_key(&rt));
        assert_eq!(
            repository_key(&tt),
            "Student|program building dep degree building profdep supervisor sname"
        );
    }

    #[test]
    fn shape_walk_renders_the_paper_key_without_a_tree() {
        let inst = university();
        let catalog = ShapeCatalog::new(inst.schema());
        let cfg = TreeConfig::default();
        let student = inst.schema().relation_index("Student").unwrap();
        let mut shapes = Shapes::default();
        catalog.walk(&inst, student, 0, &cfg, &mut shapes).unwrap();
        let walk = shapes.get(0);
        assert_eq!(
            catalog.repository_key(inst.schema(), walk.ids),
            "Student|program building dep degree building profdep supervisor sname"
        );
        let tt = tuple_tree(&inst, "Student", 0, &cfg).unwrap();
        let values: Vec<&sedex_storage::Value> = tt.nodes().map(|n| n.value).collect();
        assert_eq!(walk.slots, values.as_slice());
        let visited: Vec<_> = tt
            .visited
            .iter()
            .map(|v| (inst.schema().relation_index(v.relation).unwrap(), v.row))
            .collect();
        assert_eq!(walk.visited, visited.as_slice());
        // `building` appears twice in the key, under one name id.
        assert_eq!(walk.ids[2], walk.ids[5]);
    }

    #[test]
    fn same_shape_same_key_different_values() {
        let mut inst = university();
        inst.insert(
            "Dep",
            sedex_storage::tuple!["d9", "b9"],
            ConflictPolicy::Reject,
        )
        .unwrap();
        inst.insert(
            "Prof",
            sedex_storage::tuple!["prof9", "deg9", "d9"],
            ConflictPolicy::Reject,
        )
        .unwrap();
        inst.insert(
            "Student",
            sedex_storage::tuple!["s9", "p9", "d9", "prof9"],
            ConflictPolicy::Reject,
        )
        .unwrap();
        let cfg = TreeConfig::default();
        let k1 = post_order_key(&reduce_to_relation_tree(
            &tuple_tree(&inst, "Student", 0, &cfg).unwrap(),
        ));
        let k2 = post_order_key(&reduce_to_relation_tree(
            &tuple_tree(&inst, "Student", 1, &cfg).unwrap(),
        ));
        assert_eq!(k1, k2);
    }

    #[test]
    fn null_pruning_changes_key() {
        let mut inst = university();
        inst.insert(
            "Student",
            sedex_storage::tuple!["s2", "p2", "d1", sedex_storage::Value::Null],
            ConflictPolicy::Reject,
        )
        .unwrap();
        let cfg = TreeConfig::default();
        let k_full = post_order_key(&reduce_to_relation_tree(
            &tuple_tree(&inst, "Student", 0, &cfg).unwrap(),
        ));
        let k_null = post_order_key(&reduce_to_relation_tree(
            &tuple_tree(&inst, "Student", 1, &cfg).unwrap(),
        ));
        assert_ne!(k_full, k_null);
        assert_eq!(k_null, "program building dep sname");
    }

    #[test]
    fn dummy_root_renders_star() {
        let mut t: Tree<SchemaLabel> = Tree::new(PqLabel::Dummy);
        t.add_child(0, PqLabel::Label("a".into()));
        assert_eq!(post_order_key(&t), "a *");
    }
}
