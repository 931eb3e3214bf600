//! Shape keys for the script repository (Section 4.4.2).
//!
//! The script repository is "a hash table where the key is the string
//! representation of the post order traversal of the relation tree of the
//! input tuple tree". Two tuple trees with the same key have identical
//! structure and property names, so the script generated for one can be
//! replayed for the other by substituting values.

use sedex_pqgram::{NodeId, PqLabel, Tree};

use crate::tuple_tree::TupleTree;
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
