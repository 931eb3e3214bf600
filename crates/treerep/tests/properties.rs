//! Property tests for tree representation: random star-schema instances,
//! null-pruning monotonicity, seen-marking soundness and shape key
//! stability.
//!
//! Deterministic: cases are generated from seeded SplitMix64 streams, so
//! every run exercises the same (broad) input set with no external
//! property-testing dependency.

use sedex_storage::{ConflictPolicy, Instance, RelationSchema, Schema, Tuple, Value};
use sedex_treerep::{
    post_order_key, reduce_to_relation_tree, relation_tree, tuple_tree, SchemaForest, TreeConfig,
};

/// SplitMix64 — tiny, seedable, good enough to diversify test inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn mask(&mut self) -> Vec<bool> {
        let n = 1 + self.below(11);
        (0..n).map(|_| self.next() & 1 == 1).collect()
    }
}

/// A two-level star schema: Fact(k, d1..dn → Dim_i, m) with random nulls.
fn star_instance(dims: usize, rows: usize, null_mask: &[bool]) -> Instance {
    let mut rels = Vec::new();
    let mut fact_cols = vec!["k".to_string()];
    for d in 0..dims {
        fact_cols.push(format!("d{d}"));
    }
    fact_cols.push("m".into());
    let mut fact = RelationSchema::with_any_columns("Fact", &fact_cols)
        .primary_key(&["k"])
        .unwrap();
    for d in 0..dims {
        fact = fact
            .foreign_key(&[&format!("d{d}")], format!("Dim{d}"))
            .unwrap();
    }
    rels.push(fact);
    for d in 0..dims {
        rels.push(
            RelationSchema::with_any_columns(
                format!("Dim{d}"),
                &[format!("dk{d}"), format!("dv{d}")],
            )
            .primary_key(&[&format!("dk{d}")])
            .unwrap(),
        );
    }
    let schema = Schema::from_relations(rels).unwrap();
    let mut inst = Instance::new(schema);
    for d in 0..dims {
        for r in 0..rows {
            inst.insert(
                &format!("Dim{d}"),
                Tuple::of([format!("dim{d}-{r}"), format!("val{d}-{r}")]),
                ConflictPolicy::Reject,
            )
            .unwrap();
        }
    }
    for r in 0..rows {
        let mut vals = vec![Value::text(format!("fact{r}"))];
        for d in 0..dims {
            let null = null_mask
                .get((r * dims + d) % null_mask.len().max(1))
                .copied()
                .unwrap_or(false);
            vals.push(if null {
                Value::Null
            } else {
                Value::text(format!("dim{d}-{}", r % rows))
            });
        }
        vals.push(Value::text(format!("m{r}")));
        inst.insert("Fact", Tuple::new(vals), ConflictPolicy::Reject)
            .unwrap();
    }
    inst
}

/// Tuple trees never contain SQL nulls when pruning is on, and never
/// contain MORE nodes than with pruning off.
#[test]
fn null_pruning_monotone() {
    for seed in 0..16u64 {
        let mut rng = Rng(seed);
        let dims = 1 + rng.below(3);
        let rows = 1 + rng.below(5);
        let mask = rng.mask();
        let inst = star_instance(dims, rows, &mask);
        let pruned_cfg = TreeConfig::default();
        let full_cfg = TreeConfig {
            prune_nulls: false,
            ..TreeConfig::default()
        };
        for r in 0..rows as u32 {
            let pruned = tuple_tree(&inst, "Fact", r, &pruned_cfg).unwrap();
            let full = tuple_tree(&inst, "Fact", r, &full_cfg).unwrap();
            assert!(pruned.tree.len() <= full.tree.len(), "seed {seed}");
            for n in pruned.nodes() {
                assert!(!n.value.is_null(), "seed {seed}");
            }
        }
    }
}

/// Every visited reference points at a live row of the named relation.
#[test]
fn visited_refs_are_valid() {
    for seed in 0..16u64 {
        let mut rng = Rng(seed ^ 0xA5A5);
        let dims = 1 + rng.below(3);
        let rows = 1 + rng.below(5);
        let mask = rng.mask();
        let inst = star_instance(dims, rows, &mask);
        for r in 0..rows as u32 {
            let tt = tuple_tree(&inst, "Fact", r, &TreeConfig::default()).unwrap();
            for v in &tt.visited {
                let rel = inst.relation(v.relation).expect("relation exists");
                assert!(rel.row(v.row).is_some(), "seed {seed}");
            }
        }
    }
}

/// Shape keys: equal for same-null-pattern rows, different when the null
/// pattern differs (some FK present vs absent).
#[test]
fn shape_key_reflects_structure() {
    for seed in 0..12u64 {
        let mut rng = Rng(seed ^ 0x5A5A);
        let dims = 1 + rng.below(2);
        let rows = 2 + rng.below(3);
        let all_present = star_instance(dims, rows, &[false]);
        let cfg = TreeConfig::default();
        let keys: Vec<String> = (0..rows as u32)
            .map(|r| {
                let tt = tuple_tree(&all_present, "Fact", r, &cfg).unwrap();
                post_order_key(&reduce_to_relation_tree(&tt))
            })
            .collect();
        for k in &keys {
            assert_eq!(k, &keys[0], "seed {seed}");
        }
        let some_null = star_instance(dims, rows, &[true]);
        let tt = tuple_tree(&some_null, "Fact", 0, &cfg).unwrap();
        let null_key = post_order_key(&reduce_to_relation_tree(&tt));
        assert_ne!(&null_key, &keys[0], "seed {seed}");
    }
}

/// Relation-tree height bounds tuple-tree height (a tuple tree can only
/// prune, never extend, relative to its schema tree).
#[test]
fn tuple_tree_height_bounded_by_relation_tree() {
    for seed in 0..16u64 {
        let mut rng = Rng(seed ^ 0xC3C3);
        let dims = 1 + rng.below(3);
        let rows = 1 + rng.below(4);
        let inst = star_instance(dims, rows, &[false]);
        let cfg = TreeConfig::default();
        let rt = relation_tree(inst.schema(), "Fact", &cfg).unwrap();
        for r in 0..rows as u32 {
            let tt = tuple_tree(&inst, "Fact", r, &cfg).unwrap();
            assert!(tt.height() <= rt.height(), "seed {seed}");
            assert!(tt.tree.len() <= rt.tree.len(), "seed {seed}");
        }
    }
}

/// Forest processing order is a permutation of the schema's relations, in
/// non-increasing height order.
#[test]
fn forest_order_sound() {
    for dims in 1usize..5 {
        let inst = star_instance(dims, 1, &[false]);
        let forest = SchemaForest::new(inst.schema(), &TreeConfig::default()).unwrap();
        let order = forest.processing_order();
        assert_eq!(order.len(), inst.schema().len());
        let heights: Vec<usize> = order
            .iter()
            .map(|r| forest.tree(r).unwrap().height())
            .collect();
        assert!(heights.windows(2).all(|w| w[0] >= w[1]));
        // Fact (the referencing relation) always comes first.
        assert_eq!(order[0], "Fact");
    }
}
