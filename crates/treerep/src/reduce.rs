//! The reduction `RT(Tt)`: tuple tree → relation tree.
//!
//! "A relation tree of a tuple tree can be considered as a schema-level
//! representation of a tuple tree … achieved through replacing
//! `(property : value)` with `property`" (Section 3). The `Match` function
//! compares `RT(Tt)` against the target's relation trees.

use sedex_pqgram::{PqLabel, Tree};

use crate::tuple_tree::{TupleNode, TupleTree};
use crate::SchemaLabel;

/// Reduce a tuple tree to its schema-level relation tree.
pub fn reduce_to_relation_tree(tt: &TupleTree) -> Tree<SchemaLabel> {
    reduce_tree(&tt.tree)
}

/// Reduce a raw tuple-node tree to schema labels.
pub fn reduce_tree(tree: &Tree<PqLabel<TupleNode<'_>>>) -> Tree<SchemaLabel> {
    tree.map_labels(|l| match l {
        PqLabel::Dummy => PqLabel::Dummy,
        PqLabel::Label(n) => PqLabel::Label(n.prop.to_owned()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation_tree::TreeConfig;
    use crate::tuple_tree::tuple_tree;
    use sedex_storage::{ConflictPolicy, Instance, RelationSchema, Schema};

    fn mini_instance() -> Instance {
        let a = RelationSchema::with_any_columns("A", &["id", "x", "b_ref"])
            .primary_key(&["id"])
            .unwrap()
            .foreign_key(&["b_ref"], "B")
            .unwrap();
        let b = RelationSchema::with_any_columns("B", &["bid", "y"])
            .primary_key(&["bid"])
            .unwrap();
        let schema = Schema::from_relations(vec![a, b]).unwrap();
        let mut inst = Instance::new(schema);
        inst.insert(
            "B",
            sedex_storage::tuple!["b1", "v"],
            ConflictPolicy::Reject,
        )
        .unwrap();
        inst.insert(
            "A",
            sedex_storage::tuple!["a1", "xv", "b1"],
            ConflictPolicy::Reject,
        )
        .unwrap();
        inst
    }

    #[test]
    fn reduction_strips_values() {
        let inst = mini_instance();
        let tt = tuple_tree(&inst, "A", 0, &TreeConfig::default()).unwrap();
        let rt = reduce_to_relation_tree(&tt);
        let labels: Vec<String> = rt
            .preorder()
            .into_iter()
            .map(|i| rt.label(i).to_string())
            .collect();
        assert_eq!(labels, vec!["id", "x", "b_ref", "y"]);
    }

    #[test]
    fn reduction_preserves_shape_and_dummies() {
        let inst = mini_instance();
        let tt = tuple_tree(&inst, "A", 0, &TreeConfig::default()).unwrap();
        let rt = reduce_to_relation_tree(&tt);
        assert_eq!(rt.len(), tt.tree.len());
        assert_eq!(rt.height(), tt.tree.height());
    }
}
