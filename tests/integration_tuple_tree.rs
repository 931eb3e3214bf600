//! Differential oracle for tuple trees (Def. 3): the borrowed `tuple_tree`
//! must produce exactly what the owned version it replaced produced — the same
//! preorder `(relation, prop, value)` labels under the same parents, the
//! same `visited` references in the same order, the same shape and
//! repository keys and the same slot values — for every row of the
//! evaluation's scenarios, under several tree configurations.
//!
//! The tree-free shape walk (`ShapeCatalog::walk`) must agree with the
//! tree on the same rows: the same slot values at the same addresses, the
//! same visited rows in the same order, and shape ids that are equal
//! exactly when the trees' repository keys are.

use std::collections::HashMap;

use sedex::core::translate::slot_values;
use sedex::scenarios::ibench::{stb, IbenchConfig};
use sedex::scenarios::{ambiguity, stbench, university, GenRule, Scenario};
use sedex::storage::{ConflictPolicy, Instance, RelationSchema, Schema, Value};
use sedex::treerep::{
    post_order_key, reduce_to_relation_tree, repository_key, tuple_shape_key, tuple_tree, Shape,
    ShapeCatalog, Shapes, TreeConfig, TupleTree,
};

/// `tuple_tree` as it was first written: every node owns its
/// relation name, column name and value, referenced tuples are cloned, and
/// visited references are deduplicated through a `HashSet`.
mod reference {
    use std::collections::HashSet;

    use sedex::pqgram::{PqLabel, Tree};
    use sedex::storage::relation::RowId;
    use sedex::storage::{Instance, Tuple, Value};
    use sedex::treerep::TreeConfig;

    #[derive(Debug, Clone, PartialEq)]
    pub struct Node {
        pub prop: String,
        pub value: Value,
        pub relation: String,
    }

    pub struct OwnedTree {
        pub tree: Tree<PqLabel<Node>>,
        pub visited: Vec<(String, RowId)>,
    }

    pub fn tuple_tree(
        instance: &Instance,
        relation: &str,
        row: RowId,
        config: &TreeConfig,
    ) -> OwnedTree {
        let tuple = instance.relation(relation).unwrap().row(row).unwrap();
        let schema = instance.schema().relation(relation).unwrap();
        let root_key = schema.single_column_key();
        let mut tree = match root_key {
            Some(k) => Tree::new(PqLabel::Label(Node {
                prop: schema.columns[k].name.clone(),
                value: tuple.values()[k].clone(),
                relation: relation.to_owned(),
            })),
            None => Tree::new(PqLabel::Dummy),
        };
        let root = tree.root();
        let mut ctx = Ctx {
            instance,
            config,
            visited_set: HashSet::new(),
            visited: Vec::new(),
        };
        let mut path = vec![(relation.to_owned(), row)];
        for (i, col) in schema.columns.iter().enumerate() {
            if root_key == Some(i) {
                continue;
            }
            let v = &tuple.values()[i];
            if v.is_null() && config.prune_nulls {
                continue;
            }
            let node = tree.add_child(
                root,
                PqLabel::Label(Node {
                    prop: col.name.clone(),
                    value: v.clone(),
                    relation: relation.to_owned(),
                }),
            );
            ctx.expand(relation, tuple, i, &mut tree, node, &mut path, 2);
        }
        if let Some(k) = root_key {
            ctx.expand(relation, tuple, k, &mut tree, root, &mut path, 1);
        }
        OwnedTree {
            tree,
            visited: ctx.visited,
        }
    }

    struct Ctx<'a> {
        instance: &'a Instance,
        config: &'a TreeConfig,
        visited_set: HashSet<(String, RowId)>,
        visited: Vec<(String, RowId)>,
    }

    impl Ctx<'_> {
        #[allow(clippy::too_many_arguments)]
        fn expand(
            &mut self,
            relation: &str,
            tuple: &Tuple,
            col: usize,
            tree: &mut Tree<PqLabel<Node>>,
            node: usize,
            path: &mut Vec<(String, RowId)>,
            depth: usize,
        ) {
            if depth >= self.config.max_depth {
                return;
            }
            let schema = self.instance.schema().relation(relation).unwrap();
            for (fk_idx, fk) in schema.foreign_keys.iter().enumerate() {
                if fk.columns.first() != Some(&col) {
                    continue;
                }
                let Some((ref_rel, ref_row)) = self.instance.deref_fk_row(relation, fk_idx, tuple)
                else {
                    continue;
                };
                let ref_rel = ref_rel.to_owned();
                if path.iter().any(|(r, id)| r == &ref_rel && *id == ref_row) {
                    continue;
                }
                let seen = (ref_rel.clone(), ref_row);
                if self.visited_set.insert(seen.clone()) {
                    self.visited.push(seen);
                }
                let target_schema = self.instance.schema().relation(&ref_rel).unwrap();
                let ref_tuple = self
                    .instance
                    .relation(&ref_rel)
                    .unwrap()
                    .row(ref_row)
                    .unwrap()
                    .clone();
                path.push((ref_rel.clone(), ref_row));
                for (j, tcol) in target_schema.columns.iter().enumerate() {
                    if fk.ref_columns.contains(&j) {
                        continue;
                    }
                    let v = &ref_tuple.values()[j];
                    if v.is_null() && self.config.prune_nulls {
                        continue;
                    }
                    let child = tree.add_child(
                        node,
                        PqLabel::Label(Node {
                            prop: tcol.name.clone(),
                            value: v.clone(),
                            relation: ref_rel.clone(),
                        }),
                    );
                    self.expand(&ref_rel, &ref_tuple, j, tree, child, path, depth + 1);
                }
                path.pop();
            }
        }
    }

    /// The shape key as first written: a post-order id vector, then labels.
    pub fn shape_key(t: &OwnedTree) -> String {
        t.tree
            .postorder()
            .into_iter()
            .map(|id| match t.tree.label(id) {
                PqLabel::Dummy => "*".to_owned(),
                PqLabel::Label(n) => n.prop.clone(),
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Slot values as first written: preorder, owned, dummy → SQL null.
    pub fn slot_values(t: &OwnedTree) -> Vec<Value> {
        t.tree
            .preorder()
            .into_iter()
            .map(|id| match t.tree.label(id) {
                PqLabel::Label(n) => n.value.clone(),
                PqLabel::Dummy => Value::Null,
            })
            .collect()
    }
}

/// A node's label in preorder position: `None` for the dummy root, with
/// the preorder index of its parent.
type Label = (Option<(String, String, Value)>, Option<usize>);

fn preorder_labels<L>(
    tree: &sedex::pqgram::Tree<sedex::pqgram::PqLabel<L>>,
    fields: impl Fn(&L) -> (String, String, Value),
) -> Vec<Label> {
    use sedex::pqgram::PqLabel;
    let order = tree.preorder();
    let mut pos = vec![0; tree.len()];
    for (i, &id) in order.iter().enumerate() {
        pos[id] = i;
    }
    order
        .iter()
        .map(|&id| {
            let label = match tree.label(id) {
                PqLabel::Dummy => None,
                PqLabel::Label(l) => Some(fields(l)),
            };
            (label, tree.parent(id).map(|p| pos[p]))
        })
        .collect()
}

/// Shape ids and repository keys met so far under one config, each mapped
/// to the other: ids must be equal exactly when keys are.
#[derive(Default)]
struct Keys {
    by_ids: HashMap<Vec<u32>, String>,
    by_key: HashMap<String, Vec<u32>>,
}

/// Assert the borrowed and the reference `tuple_tree` agree on one row,
/// and that `walk`, the row's shape walk, agrees with the tree.
fn assert_same(
    what: &str,
    inst: &Instance,
    rel: &str,
    row: u32,
    cfg: &TreeConfig,
    walk: &Shape<'_, '_>,
    keys: &mut Keys,
) {
    let got: TupleTree<'_> = tuple_tree(inst, rel, row, cfg).unwrap();
    let want = reference::tuple_tree(inst, rel, row, cfg);
    let ctx = format!("{what}, {rel}[{row}], {cfg:?}");

    let got_labels = preorder_labels(&got.tree, |n| {
        (n.relation.to_owned(), n.prop.to_owned(), n.value.clone())
    });
    let want_labels = preorder_labels(&want.tree, |n| {
        (n.relation.clone(), n.prop.clone(), n.value.clone())
    });
    assert_eq!(got_labels, want_labels, "{ctx}: preorder labels");

    let got_visited: Vec<(String, u32)> = got
        .visited
        .iter()
        .map(|s| (s.relation.to_owned(), s.row))
        .collect();
    assert_eq!(got_visited, want.visited, "{ctx}: visited");

    let key = reference::shape_key(&want);
    assert_eq!(tuple_shape_key(&got), key, "{ctx}: shape key");
    assert_eq!(
        post_order_key(&reduce_to_relation_tree(&got)),
        key,
        "{ctx}: reduced key"
    );
    assert_eq!(
        repository_key(&got),
        format!("{rel}|{key}"),
        "{ctx}: repository key"
    );

    let got_slots: Vec<Value> = slot_values(&got).into_iter().cloned().collect();
    assert_eq!(
        got_slots,
        reference::slot_values(&want),
        "{ctx}: slot values"
    );

    // The shape walk against the tree.
    let rel_idx = inst.schema().relation_index(rel).unwrap();
    assert_eq!(
        (walk.relation, walk.row),
        (rel_idx, row),
        "{ctx}: walked row"
    );
    let tree_slots = slot_values(&got);
    assert_eq!(walk.slots.len(), tree_slots.len(), "{ctx}: walk slot count");
    for (i, (&w, &t)) in walk.slots.iter().zip(&tree_slots).enumerate() {
        assert!(
            std::ptr::eq(w, t),
            "{ctx}: walk slot {i} at another address"
        );
    }
    let walk_visited: Vec<(String, u32)> = walk
        .visited
        .iter()
        .map(|&(r, row)| (inst.schema().relations()[r].name.clone(), row))
        .collect();
    assert_eq!(walk_visited, want.visited, "{ctx}: walk visited");
    let key = repository_key(&got);
    let ids = walk.ids.to_vec();
    let same_key = keys
        .by_ids
        .entry(ids.clone())
        .or_insert_with(|| key.clone());
    assert_eq!(*same_key, key, "{ctx}: equal ids {ids:?}, different keys");
    let same_ids = keys
        .by_key
        .entry(key.clone())
        .or_insert_with(|| ids.clone());
    assert_eq!(*same_ids, ids, "{ctx}: equal key {key}, different ids");
}

/// Compare every row of every relation of `inst` under every config. Each
/// config's walks go into one buffer, read back after all rows are walked.
fn assert_all_rows(what: &str, inst: &Instance, configs: &[TreeConfig]) -> usize {
    let catalog = ShapeCatalog::new(inst.schema());
    let mut checked = 0;
    for cfg in configs {
        let mut shapes = Shapes::default();
        let mut rows = Vec::new();
        for (r, rel) in inst.schema().relations().iter().enumerate() {
            for row in 0..inst.relation_at(r).len() as u32 {
                catalog.walk(inst, r, row, cfg, &mut shapes).unwrap();
                rows.push((rel.name.as_str(), row));
            }
        }
        let mut keys = Keys::default();
        for (i, &(rel, row)) in rows.iter().enumerate() {
            let walk = shapes.get(i);
            assert_same(what, inst, rel, row, cfg, &walk, &mut keys);
            assert_eq!(
                catalog.repository_key(inst.schema(), walk.ids),
                keys.by_ids[walk.ids],
                "{what}, {rel}[{row}], {cfg:?}: key rendered from ids"
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "{what}: no rows");
    checked
}

fn configs() -> Vec<TreeConfig> {
    let full = TreeConfig::default();
    vec![
        full,
        TreeConfig {
            prune_nulls: false,
            ..full
        },
        TreeConfig {
            max_depth: 2,
            ..full
        },
        TreeConfig {
            max_depth: 3,
            prune_nulls: false,
        },
    ]
}

/// The university source of Fig. 3 plus an `Emp(id, boss → Emp, dep →
/// Dep)` relation holding a two-cycle, a self-loop and a dangling boss,
/// and a student whose department does not exist.
fn university_with_cycles() -> Instance {
    let fig3 = university::fig3_instance().unwrap();
    let emp = RelationSchema::with_any_columns("Emp", &["id", "boss", "edep"])
        .primary_key(&["id"])
        .unwrap()
        .foreign_key(&["boss"], "Emp")
        .unwrap()
        .foreign_key(&["edep"], "Dep")
        .unwrap();
    let mut rels = fig3.schema().relations().to_vec();
    rels.push(emp);
    let mut inst = Instance::new(Schema::from_relations(rels).unwrap());
    let p = ConflictPolicy::Reject;
    for (name, rel) in fig3.relations() {
        for t in rel.iter() {
            inst.insert(name, t.clone(), p).unwrap();
        }
    }
    let rows = [
        sedex::storage::tuple!["e1", "e2", "d1"],
        sedex::storage::tuple!["e2", "e1", "d2"],
        sedex::storage::tuple!["e3", "e3", Value::Null],
        sedex::storage::tuple!["e4", "eMISSING", "d1"],
    ];
    for t in rows {
        inst.insert("Emp", t, p).unwrap();
    }
    inst.insert(
        "Student",
        sedex::storage::tuple!["s9", "p9", "dMISSING", "prof2"],
        p,
    )
    .unwrap();
    inst
}

#[test]
fn university_with_cycles_and_dangling_fks_agrees() {
    let inst = university_with_cycles();
    assert_all_rows("university + cycles", &inst, &configs());
}

/// STB with every nullable non-key source column null half the time.
fn stb_with_nulls() -> Scenario {
    let mut sc = stb(&IbenchConfig::default());
    for rel in sc.source.relations() {
        for (j, col) in rel.columns.iter().enumerate() {
            if col.nullable && !rel.primary_key.contains(&j) {
                sc.rules.push(GenRule::NullRate {
                    relation: rel.name.clone(),
                    column: col.name.clone(),
                    rate: 0.5,
                });
            }
        }
    }
    sc
}

#[test]
fn stb_with_nulls_agrees() {
    let sc = stb_with_nulls();
    for seed in [3, 11] {
        let inst = sc.populate(4, seed).unwrap();
        assert_all_rows("STB, 50% nulls", &inst, &configs());
    }
}

#[test]
fn amb_agrees() {
    let sc = ambiguity::amb(&IbenchConfig::default(), 4);
    let inst = sc.populate(4, 7).unwrap();
    assert_all_rows("AMB", &inst, &configs());
}

#[test]
fn stbenchmark_basic_scenarios_agree() {
    for kind in stbench::BasicKind::all() {
        let sc = stbench::basic(kind);
        let inst = sc.populate(5, 1).unwrap();
        assert_all_rows(kind.name(), &inst, &configs());
    }
}
