//! Tuple-tree translation — Algorithm 1 (Section 4.4.1).
//!
//! Given a source tuple tree `Tx`, the matching target relation tree `Tr`
//! and the correspondences Σ, produce the target tuple tree `Ty`: walk `Tr`,
//! fill each property that has a corresponding source node with that node's
//! value, and remove target nodes for which no corresponding source property
//! exists. Every translated node remembers the *source preorder index* it
//! took its value from, so the generated script can be replayed for any
//! other tuple tree of the same shape by substituting that tuple's values.
//!
//! Target **key** properties without a correspondence are not removed when
//! source data flows through them (a surrogate key — STBenchmark's SK/NE
//! primitives, or the linking key of a vertical partition): they become
//! [`SlotRef::Fresh`] slots that mint a labeled null per script run.

use sedex_mapping::Correspondences;
use sedex_pqgram::{PqLabel, Tree};
use sedex_storage::Value;
use sedex_treerep::relation_tree::NodeMeta;
use sedex_treerep::{RelationTree, TupleTree, NULL_SLOT};

use crate::script::SlotRef;

/// A node of a translated (target-side) tuple tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TranslatedNode {
    /// Target property name.
    pub prop: String,
    /// The value carried over from the source (a labeled-null placeholder
    /// for surrogate keys).
    pub value: Value,
    /// Where the script takes this value from: a source tuple-tree slot, or
    /// a per-run fresh surrogate.
    pub src: SlotRef,
}

impl std::fmt::Display for TranslatedNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.prop, self.value)
    }
}

/// The translated tuple tree `Ty`, with per-node metadata copied from the
/// target relation tree (owners and FK expansion targets) for script
/// generation.
#[derive(Debug, Clone)]
pub struct TranslatedTree {
    /// The target relation the tuple was matched to.
    pub relation: String,
    /// The tree; the root is dummy iff the matched relation tree's root is.
    pub tree: Tree<PqLabel<TranslatedNode>>,
    /// Metadata parallel to `tree`'s node ids.
    pub meta: Vec<NodeMeta>,
}

impl TranslatedTree {
    /// Number of real (non-dummy) nodes carrying a *source* value (surrogate
    /// keys excluded) — i.e. source properties that will reach the target.
    pub fn assigned(&self) -> usize {
        self.tree
            .labels()
            .filter(|(_, l)| {
                matches!(
                    l,
                    PqLabel::Label(TranslatedNode {
                        src: SlotRef::Src(_),
                        ..
                    })
                )
            })
            .count()
    }
}

/// Intermediate recursive node used while deciding what survives.
struct Draft {
    prop: String,
    value: Value,
    src: SlotRef,
    meta: NodeMeta,
    children: Vec<Draft>,
}

/// Run Algorithm 1: translate source tuple tree `tx` into the shape of the
/// target relation tree `tr` under Σ.
pub fn translate(tx: &TupleTree, tr: &RelationTree, sigma: &Correspondences) -> TranslatedTree {
    let src_order = tx.tree.preorder();
    let mut used = vec![false; src_order.len()];
    let mut fresh_ids: u32 = 0;

    let troot = tr.tree.root();
    let empty = |tr: &RelationTree| TranslatedTree {
        relation: tr.relation.clone(),
        tree: Tree::new(PqLabel::Dummy),
        meta: vec![NodeMeta {
            owner: None,
            expands_to: Vec::new(),
        }],
    };

    match tr.tree.label(troot) {
        PqLabel::Dummy => {
            // Keyless root: build each child subtree under a dummy root.
            let mut out = Tree::new(PqLabel::Dummy);
            let mut meta = vec![tr.meta[troot].clone()];
            let kids: Vec<Draft> = tr
                .tree
                .children(troot)
                .iter()
                .filter_map(|&c| {
                    build_draft(tx, tr, sigma, c, &src_order, &mut used, &mut fresh_ids)
                })
                .collect();
            if kids.is_empty() {
                return empty(tr);
            }
            let root = out.root();
            for d in kids {
                materialize(d, &mut out, root, &mut meta);
            }
            TranslatedTree {
                relation: tr.relation.clone(),
                tree: out,
                meta,
            }
        }
        PqLabel::Label(_) => {
            match build_draft(tx, tr, sigma, troot, &src_order, &mut used, &mut fresh_ids) {
                Some(d) => {
                    let mut out = Tree::new(PqLabel::Label(TranslatedNode {
                        prop: d.prop.clone(),
                        value: d.value.clone(),
                        src: d.src,
                    }));
                    let mut meta = vec![d.meta.clone()];
                    let root = out.root();
                    for c in d.children {
                        materialize(c, &mut out, root, &mut meta);
                    }
                    TranslatedTree {
                        relation: tr.relation.clone(),
                        tree: out,
                        meta,
                    }
                }
                None => empty(tr),
            }
        }
    }
}

/// Build the draft subtree for target node `t_node`. Returns `None` when the
/// node has no corresponding source property and no surviving descendant —
/// Algorithm 1's "remove nodes for which there is no corresponding property
/// in the source".
fn build_draft(
    tx: &TupleTree,
    tr: &RelationTree,
    sigma: &Correspondences,
    t_node: usize,
    src_order: &[usize],
    used: &mut [bool],
    fresh_ids: &mut u32,
) -> Option<Draft> {
    let PqLabel::Label(prop) = tr.tree.label(t_node) else {
        return None;
    };
    let assignment = find_source(tx, sigma, tr, t_node, prop, src_order, used);
    let children: Vec<Draft> = tr
        .tree
        .children(t_node)
        .iter()
        .filter_map(|&c| build_draft(tx, tr, sigma, c, src_order, used, fresh_ids))
        .collect();
    match assignment {
        Some((slot, value)) => Some(Draft {
            prop: prop.clone(),
            value,
            src: SlotRef::Src(slot),
            meta: tr.meta[t_node].clone(),
            children,
        }),
        None if !children.is_empty() && !tr.meta[t_node].expands_to.is_empty() => {
            // An unmatched key/link property with surviving descendants:
            // surrogate (fresh labeled null per script run).
            let id = *fresh_ids;
            *fresh_ids += 1;
            Some(Draft {
                prop: prop.clone(),
                value: Value::Labeled(u64::MAX),
                src: SlotRef::Fresh(id),
                meta: tr.meta[t_node].clone(),
                children,
            })
        }
        None => None,
    }
}

/// Materialize a draft subtree into the arena tree.
fn materialize(
    d: Draft,
    out: &mut Tree<PqLabel<TranslatedNode>>,
    parent: usize,
    meta: &mut Vec<NodeMeta>,
) {
    let id = out.add_child(
        parent,
        PqLabel::Label(TranslatedNode {
            prop: d.prop,
            value: d.value,
            src: d.src,
        }),
    );
    meta.push(d.meta);
    debug_assert_eq!(meta.len(), out.len());
    for c in d.children {
        materialize(c, out, id, meta);
    }
}

/// Find an unused source node whose property corresponds to target property
/// `prop` (scoped by the target node's owning relation when the
/// correspondence is qualified). Marks the node used and returns its
/// preorder slot and value.
fn find_source(
    tx: &TupleTree,
    sigma: &Correspondences,
    tr: &RelationTree,
    t_node: usize,
    prop: &str,
    src_order: &[usize],
    used: &mut [bool],
) -> Option<(usize, Value)> {
    let owner = tr.meta[t_node].owner.as_deref();
    for (slot, &arena_id) in src_order.iter().enumerate() {
        if used[slot] {
            continue;
        }
        let PqLabel::Label(n) = tx.tree.label(arena_id) else {
            continue;
        };
        let hit = match owner {
            Some(owner_rel) => sigma
                .target_in_relation(Some(n.relation), n.prop, owner_rel, |c| c == prop)
                .map(|t| t == prop)
                .unwrap_or(false),
            None => sigma.target_label(Some(n.relation), n.prop) == Some(prop),
        };
        if hit {
            used[slot] = true;
            return Some((slot, n.value.clone()));
        }
    }
    None
}

/// The preorder value vector of a source tuple tree — the substitution data
/// a reused script consumes, borrowed from the tree's instance (a script
/// run clones only the values its statements assign). Dummy nodes
/// contribute [`NULL_SLOT`] (never referenced by any slot).
pub fn slot_values<'a>(tx: &TupleTree<'a>) -> Vec<&'a Value> {
    // Tuple-tree node ids are preorder indexes: arena order is slot order.
    tx.tree
        .labels()
        .map(|(_, l)| match l {
            PqLabel::Label(n) => n.value,
            PqLabel::Dummy => &NULL_SLOT,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedex_storage::{ConflictPolicy, Instance, RelationSchema, Schema};
    use sedex_treerep::{relation_tree, tuple_tree, TreeConfig};

    fn university_source() -> Instance {
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
        inst.insert("Prof", sedex_storage::tuple!["prof1", "deg1", "d1"], p)
            .unwrap();
        inst.insert(
            "Student",
            sedex_storage::tuple!["s1", "p1", "d1", "prof1"],
            p,
        )
        .unwrap();
        inst.insert("Registration", sedex_storage::tuple!["s1", "c1", "dt1"], p)
            .unwrap();
        inst
    }

    fn target_schema() -> Schema {
        let stu =
            RelationSchema::with_any_columns("Stu", &["student", "prog", "dpt", "supervisor"])
                .primary_key(&["student"])
                .unwrap();
        let course = RelationSchema::with_any_columns("Course", &["cname", "credit"])
            .primary_key(&["cname"])
            .unwrap();
        let reg = RelationSchema::with_any_columns("Reg", &["student", "cname", "date"])
            .foreign_key(&["student"], "Stu")
            .unwrap()
            .foreign_key(&["cname"], "Course")
            .unwrap();
        Schema::from_relations(vec![stu, course, reg]).unwrap()
    }

    fn paper_sigma() -> Correspondences {
        Correspondences::from_name_pairs([
            ("sname", "student"),
            ("course", "cname"),
            ("regdate", "date"),
            ("program", "prog"),
            ("dep", "dpt"),
        ])
    }

    #[test]
    fn fig8_translation_of_registration_tuple() {
        // Algorithm 1 on the first Registration tuple against TReg yields
        // exactly the tree of Fig. 8: * → student:s1(prog:p1, dpt:d1),
        // cname:c1, date:dt1.
        let inst = university_source();
        let tgt = target_schema();
        let cfg = TreeConfig::default();
        let tx = tuple_tree(&inst, "Registration", 0, &cfg).unwrap();
        let tr = relation_tree(&tgt, "Reg", &cfg).unwrap();
        let ty = translate(&tx, &tr, &paper_sigma());
        let rendered: Vec<String> = ty
            .tree
            .preorder()
            .into_iter()
            .map(|i| ty.tree.label(i).to_string())
            .collect();
        assert_eq!(
            rendered,
            vec![
                "*",
                "student:s1",
                "prog:p1",
                "dpt:d1",
                "cname:c1",
                "date:dt1"
            ]
        );
    }

    #[test]
    fn unsound_properties_never_appear() {
        // Every source-valued property in Ty must have a correspondent in Tx
        // — the "expected solution" soundness argument of Section 4.4.
        let inst = university_source();
        let tgt = target_schema();
        let cfg = TreeConfig::default();
        let tx = tuple_tree(&inst, "Student", 0, &cfg).unwrap();
        let tr = relation_tree(&tgt, "Stu", &cfg).unwrap();
        let ty = translate(&tx, &tr, &paper_sigma());
        for (_, l) in ty.tree.labels() {
            if let PqLabel::Label(n) = l {
                if let SlotRef::Src(_) = n.src {
                    assert!(
                        tx.nodes().any(|sn| *sn.value == n.value),
                        "unsound value {:?}",
                        n
                    );
                }
            }
        }
        // supervisor has no correspondence: it must not be assigned.
        assert!(ty
            .tree
            .labels()
            .all(|(_, l)| !l.to_string().starts_with("supervisor")));
    }

    #[test]
    fn fully_unmatched_tuple_yields_empty_tree() {
        let inst = university_source();
        let tgt = target_schema();
        let cfg = TreeConfig::default();
        // Dep tuple: dname/building have no correspondences at all.
        let tx = tuple_tree(&inst, "Dep", 0, &cfg).unwrap();
        let tr = relation_tree(&tgt, "Stu", &cfg).unwrap();
        let ty = translate(&tx, &tr, &paper_sigma());
        assert_eq!(ty.assigned(), 0);
        assert_eq!(ty.tree.len(), 1);
    }

    #[test]
    fn surrogate_root_for_unmatched_target_key() {
        // STBenchmark SK: source R(a,b) → target T(sk, a2, b2), sk has no
        // correspondence: the root becomes a Fresh slot, data still flows.
        let r = RelationSchema::with_any_columns("R", &["a", "b"]);
        let src_schema = Schema::from_relations(vec![r]).unwrap();
        let mut inst = Instance::new(src_schema);
        inst.insert(
            "R",
            sedex_storage::tuple!["v1", "v2"],
            ConflictPolicy::Allow,
        )
        .unwrap();
        let t = RelationSchema::with_any_columns("T", &["sk", "a2", "b2"])
            .primary_key(&["sk"])
            .unwrap();
        let tgt = Schema::from_relations(vec![t]).unwrap();
        let sigma = Correspondences::from_name_pairs([("a", "a2"), ("b", "b2")]);
        let cfg = TreeConfig::default();
        let tx = tuple_tree(&inst, "R", 0, &cfg).unwrap();
        let tr = relation_tree(&tgt, "T", &cfg).unwrap();
        let ty = translate(&tx, &tr, &sigma);
        assert_eq!(ty.assigned(), 2);
        let root_label = ty.tree.label(ty.tree.root());
        assert!(matches!(
            root_label,
            PqLabel::Label(TranslatedNode {
                src: SlotRef::Fresh(_),
                ..
            })
        ));
    }

    #[test]
    fn mid_tree_surrogate_link_survives() {
        // Nesting (NE): target Parent(pk, a2) ← Child(ck, pfk, b2), where
        // the link pfk has no source correspondence. The Child tree is
        // ck → {pfk → a2, b2}; translating a flat source must keep pfk as a
        // Fresh node because a2 flows through it.
        let f = RelationSchema::with_any_columns("F", &["k", "a", "b"])
            .primary_key(&["k"])
            .unwrap();
        let src_schema = Schema::from_relations(vec![f]).unwrap();
        let mut inst = Instance::new(src_schema);
        inst.insert(
            "F",
            sedex_storage::tuple!["k1", "av", "bv"],
            ConflictPolicy::Reject,
        )
        .unwrap();
        let parent = RelationSchema::with_any_columns("Parent", &["pk", "a2"])
            .primary_key(&["pk"])
            .unwrap();
        let child = RelationSchema::with_any_columns("Child", &["ck", "pfk", "b2"])
            .primary_key(&["ck"])
            .unwrap()
            .foreign_key(&["pfk"], "Parent")
            .unwrap();
        let tgt = Schema::from_relations(vec![parent, child]).unwrap();
        let sigma = Correspondences::from_name_pairs([("k", "ck"), ("a", "a2"), ("b", "b2")]);
        let cfg = TreeConfig::default();
        let tx = tuple_tree(&inst, "F", 0, &cfg).unwrap();
        let tr = relation_tree(&tgt, "Child", &cfg).unwrap();
        let ty = translate(&tx, &tr, &sigma);
        let labels: Vec<String> = ty
            .tree
            .preorder()
            .into_iter()
            .map(|i| ty.tree.label(i).to_string())
            .collect();
        // ck:k1, pfk:<surrogate>, a2:av, b2:bv all present.
        assert_eq!(labels.len(), 4, "{labels:?}");
        assert!(labels[0].starts_with("ck:k1"));
        assert!(labels.iter().any(|l| l.starts_with("a2:av")));
        assert!(labels.iter().any(|l| l.starts_with("b2:bv")));
        // Two distinct Fresh ids never collide.
        assert_eq!(ty.assigned(), 3);
    }

    #[test]
    fn slots_reference_source_preorder() {
        let inst = university_source();
        let tgt = target_schema();
        let cfg = TreeConfig::default();
        let tx = tuple_tree(&inst, "Registration", 0, &cfg).unwrap();
        let tr = relation_tree(&tgt, "Reg", &cfg).unwrap();
        let ty = translate(&tx, &tr, &paper_sigma());
        let values = slot_values(&tx);
        for (_, l) in ty.tree.labels() {
            if let PqLabel::Label(n) = l {
                let SlotRef::Src(slot) = n.src else {
                    panic!("unexpected surrogate in fully-matched tree");
                };
                assert_eq!(*values[slot], n.value, "slot {slot} mismatch");
            }
        }
    }

    #[test]
    fn duplicate_properties_assign_distinct_source_nodes() {
        let s = RelationSchema::with_any_columns("S", &["a", "b"]);
        let source = Schema::from_relations(vec![s]).unwrap();
        let mut inst = Instance::new(source);
        inst.insert(
            "S",
            sedex_storage::tuple!["v1", "v2"],
            ConflictPolicy::Allow,
        )
        .unwrap();
        let t = RelationSchema::with_any_columns("T", &["x", "y"]);
        let tgt = Schema::from_relations(vec![t]).unwrap();
        let mut sigma = Correspondences::new();
        sigma.add_names("a", "x");
        sigma.add_names("b", "x"); // both source columns map to x
        sigma.add_names("b", "y");
        let cfg = TreeConfig::default();
        let tx = tuple_tree(&inst, "S", 0, &cfg).unwrap();
        let tr = relation_tree(&tgt, "T", &cfg).unwrap();
        let ty = translate(&tx, &tr, &sigma);
        // x gets a (first source node), y gets b; b is NOT reused for x.
        let labels: Vec<String> = ty
            .tree
            .preorder()
            .into_iter()
            .map(|i| ty.tree.label(i).to_string())
            .collect();
        assert_eq!(labels, vec!["*", "x:v1", "y:v2"]);
    }
}
