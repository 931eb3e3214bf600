//! Tuple trees (Def. 3) — the data-level tree of one tuple.
//!
//! Nodes are `(property : value)` pairs of the tuple and of every tuple it
//! (transitively) references through foreign keys. Properties whose value is
//! an SQL null are dropped: under the paper's Bunge-inspired semantics a
//! null means the entity *does not have* that property, so no node (and no
//! downstream expansion) is created — this is what lets the `Match` function
//! disambiguate generalization scenarios (Section 4.5).

use std::fmt;

use sedex_pqgram::{NodeId, PqLabel, Tree};
use sedex_storage::relation::RowId;
use sedex_storage::{Instance, StorageError, Tuple, Value};

use crate::relation_tree::TreeConfig;
use crate::walk::{walk, Links, Node, Sink};

/// A node of a tuple tree: a `(property : value)` pair, borrowed from the
/// instance the tree was built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleNode<'a> {
    /// Property (column) name.
    pub prop: &'a str,
    /// The property's value (never an SQL null when `prune_nulls` is on).
    pub value: &'a Value,
    /// The relation this property belongs to — needed to resolve
    /// relation-qualified correspondences during matching and translation.
    pub relation: &'a str,
}

impl fmt::Display for TupleNode<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.prop, self.value)
    }
}

/// A reference to a tuple visited while building a tuple tree — used by the
/// engine to mark tuples as *seen* so they are not re-processed when their
/// own relation's turn comes (Section 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeenRef<'a> {
    /// Relation of the visited tuple.
    pub relation: &'a str,
    /// Row id of the visited tuple within that relation's instance.
    pub row: RowId,
}

/// A tuple tree plus the set of referenced tuples visited while building it.
///
/// The tree borrows every name and value from the [`Instance`] (and its
/// schema) it was built from: building it copies no string or value, and
/// the instance cannot change while the tree is alive.
#[derive(Debug, Clone)]
pub struct TupleTree<'a> {
    /// The relation the root tuple belongs to.
    pub relation: &'a str,
    /// The tree; the root may be a dummy when the relation has no
    /// single-column key. Nodes are added depth-first, so a node's id is
    /// its preorder index.
    pub tree: Tree<PqLabel<TupleNode<'a>>>,
    /// Every *referenced* tuple reached through foreign keys (the root tuple
    /// itself is not included), each once, in first-visit order.
    pub visited: Vec<SeenRef<'a>>,
}

impl<'a> TupleTree<'a> {
    /// Tree height in nodes.
    pub fn height(&self) -> usize {
        self.tree.height()
    }

    /// Iterate all `(property, value)` pairs of the tree (excluding the
    /// dummy root, if any).
    pub fn nodes(&self) -> impl Iterator<Item = &TupleNode<'a>> {
        self.tree.labels().filter_map(|(_, l)| match l {
            PqLabel::Label(n) => Some(n),
            PqLabel::Dummy => None,
        })
    }
}

/// Build the tuple tree of row `row` of `relation` in `instance` (Def. 3).
pub fn tuple_tree<'a>(
    instance: &'a Instance,
    relation: &str,
    row: RowId,
    config: &TreeConfig,
) -> Result<TupleTree<'a>, StorageError> {
    let rel_inst = instance.relation_or_err(relation)?;
    let tuple = rel_inst
        .row(row)
        .ok_or_else(|| StorageError::UnknownRelation(format!("{relation}[row {row}]")))?;
    tuple_tree_of(instance, relation, row, tuple, config)
}

/// Build the tuple tree of an explicit tuple (which must conform to
/// `relation`'s schema). `row` is used only for cycle prevention bookkeeping.
pub fn tuple_tree_of<'a>(
    instance: &'a Instance,
    relation: &str,
    row: RowId,
    tuple: &'a Tuple,
    config: &TreeConfig,
) -> Result<TupleTree<'a>, StorageError> {
    let rel = instance.schema().relation_index_or_err(relation)?;
    let links = Links::new(instance.schema());
    Ok(build(&links, instance, config, rel, row, tuple))
}

/// The tree of one walk: [`walk`] with a tree-building sink.
pub(crate) fn build<'a>(
    links: &Links,
    instance: &'a Instance,
    config: &TreeConfig,
    rel: usize,
    row: RowId,
    tuple: &'a Tuple,
) -> TupleTree<'a> {
    let mut sink = TreeSink::default();
    let mut visited = Vec::new();
    walk(
        links,
        instance,
        config,
        rel,
        row,
        tuple,
        &mut visited,
        &mut sink,
    );
    let relations = instance.schema().relations();
    TupleTree {
        relation: &relations[rel].name,
        tree: sink.tree.expect("a walk opens its root"),
        visited: visited
            .into_iter()
            .map(|(r, row)| SeenRef {
                relation: &relations[r].name,
                row,
            })
            .collect(),
    }
}

/// Hangs each opened node under the innermost open one.
#[derive(Default)]
struct TreeSink<'a> {
    tree: Option<Tree<PqLabel<TupleNode<'a>>>>,
    /// The open nodes, root first.
    open: Vec<NodeId>,
}

impl<'a> Sink<'a> for TreeSink<'a> {
    fn open(&mut self, n: Node<'a>) {
        let label = n.col.map_or(PqLabel::Dummy, |c| {
            PqLabel::Label(TupleNode {
                prop: &n.schema.columns[c].name,
                value: n.value,
                relation: &n.schema.name,
            })
        });
        let id = match (&mut self.tree, self.open.last()) {
            (Some(tree), Some(&parent)) => tree.add_child(parent, label),
            _ => {
                let tree = Tree::new(label);
                let root = tree.root();
                self.tree = Some(tree);
                root
            }
        };
        self.open.push(id);
    }

    fn close(&mut self, _: Node<'a>) {
        self.open.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedex_storage::{ConflictPolicy, RelationSchema, Schema};

    /// The source schema and instance of Figs. 2–3.
    pub(crate) fn university() -> Instance {
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
        let schema = Schema::from_relations(vec![student, prof, dep, reg]).unwrap();
        let mut inst = Instance::new(schema);
        let p = ConflictPolicy::Reject;
        inst.insert("Dep", sedex_storage::tuple!["d1", "b1"], p)
            .unwrap();
        inst.insert("Dep", sedex_storage::tuple!["d2", "b2"], p)
            .unwrap();
        inst.insert("Prof", sedex_storage::tuple!["prof1", "deg1", "d1"], p)
            .unwrap();
        inst.insert("Prof", sedex_storage::tuple!["prof2", "deg2", "d2"], p)
            .unwrap();
        inst.insert(
            "Student",
            sedex_storage::tuple!["s1", "p1", "d1", "prof1"],
            p,
        )
        .unwrap();
        inst.insert(
            "Student",
            sedex_storage::tuple!["s2", "p2", "d2", Value::Null],
            p,
        )
        .unwrap();
        inst.insert("Registration", sedex_storage::tuple!["s1", "c1", "dt1"], p)
            .unwrap();
        inst
    }

    fn node_strings(tt: &TupleTree) -> Vec<String> {
        tt.tree
            .preorder()
            .into_iter()
            .map(|i| tt.tree.label(i).to_string())
            .collect()
    }

    #[test]
    fn fig5_first_student_tuple_tree() {
        // t1 = (s1, p1, d1, prof1): full expansion through Prof and Dep.
        let inst = university();
        let tt = tuple_tree(&inst, "Student", 0, &TreeConfig::default()).unwrap();
        let nodes = node_strings(&tt);
        assert_eq!(
            nodes,
            vec![
                "sname:s1",
                "program:p1",
                "dep:d1",
                "building:b1",
                "supervisor:prof1",
                "degree:deg1",
                "profdep:d1",
                "building:b1",
            ]
        );
        assert_eq!(tt.height(), 4);
    }

    #[test]
    fn fig5_second_student_tuple_tree_prunes_null_supervisor() {
        // t2 = (s2, p2, d2, null): "since supervisor is null, the tuple tree
        // is not extended from this property".
        let inst = university();
        let tt = tuple_tree(&inst, "Student", 1, &TreeConfig::default()).unwrap();
        let nodes = node_strings(&tt);
        assert_eq!(
            nodes,
            vec!["sname:s2", "program:p2", "dep:d2", "building:b2"]
        );
        assert_eq!(tt.height(), 3);
    }

    #[test]
    fn prune_nulls_off_keeps_null_nodes() {
        let inst = university();
        let cfg = TreeConfig {
            prune_nulls: false,
            ..TreeConfig::default()
        };
        let tt = tuple_tree(&inst, "Student", 1, &cfg).unwrap();
        assert!(node_strings(&tt).contains(&"supervisor:NULL".to_string()));
    }

    #[test]
    fn registration_tuple_tree_has_dummy_root() {
        let inst = university();
        let tt = tuple_tree(&inst, "Registration", 0, &TreeConfig::default()).unwrap();
        let t = &tt.tree;
        assert_eq!(t.label(t.root()).to_string(), "*");
        // Root children: sname:s1 (expanded), course:c1, regdate:dt1.
        let kids: Vec<_> = t
            .children(t.root())
            .iter()
            .map(|&i| t.label(i).to_string())
            .collect();
        assert_eq!(kids, vec!["sname:s1", "course:c1", "regdate:dt1"]);
        assert_eq!(tt.height(), 5);
    }

    #[test]
    fn visited_marks_referenced_tuples_once() {
        // Processing Student t1 marks prof1 and d1 (d1 only once, even
        // though it is reached via both dep and profdep) — Section 4.2.
        let inst = university();
        let tt = tuple_tree(&inst, "Student", 0, &TreeConfig::default()).unwrap();
        let mut v: Vec<(&str, RowId)> = tt.visited.iter().map(|s| (s.relation, s.row)).collect();
        v.sort();
        assert_eq!(v, vec![("Dep", 0), ("Prof", 0)]);
    }

    #[test]
    fn dangling_fk_is_a_leaf() {
        let inst = {
            let mut i = university();
            i.insert(
                "Student",
                sedex_storage::tuple!["s3", "p3", "dMISSING", Value::Null],
                ConflictPolicy::Reject,
            )
            .unwrap();
            i
        };
        let tt = tuple_tree(&inst, "Student", 2, &TreeConfig::default()).unwrap();
        let nodes = node_strings(&tt);
        assert_eq!(nodes, vec!["sname:s3", "program:p3", "dep:dMISSING"]);
        assert!(tt.visited.is_empty());
    }

    #[test]
    fn data_cycles_terminate() {
        // Emp(id, boss) with a 2-cycle: e1 ↔ e2.
        let emp = RelationSchema::with_any_columns("Emp", &["id", "boss"])
            .primary_key(&["id"])
            .unwrap()
            .foreign_key(&["boss"], "Emp")
            .unwrap();
        let schema = Schema::from_relations(vec![emp]).unwrap();
        let mut inst = Instance::new(schema);
        inst.insert(
            "Emp",
            sedex_storage::tuple!["e1", "e2"],
            ConflictPolicy::Reject,
        )
        .unwrap();
        inst.insert(
            "Emp",
            sedex_storage::tuple!["e2", "e1"],
            ConflictPolicy::Reject,
        )
        .unwrap();
        let tt = tuple_tree(&inst, "Emp", 0, &TreeConfig::default()).unwrap();
        // id:e1 → boss:e2 → boss:e1 (stops: e1 on path).
        assert!(tt.tree.len() <= 4);
        assert!(tt.height() >= 2);
    }

    #[test]
    fn nodes_iterator_skips_dummy_root() {
        let inst = university();
        let tt = tuple_tree(&inst, "Registration", 0, &TreeConfig::default()).unwrap();
        assert_eq!(tt.nodes().count(), tt.tree.len() - 1);
    }
}
