//! Property tests for the storage substrate: insert-policy laws, index
//! consistency and substitution behaviour under randomized workloads.
//!
//! Deterministic: workloads are generated from seeded SplitMix64 streams,
//! so every run exercises the same (broad) input set with no external
//! property-testing dependency.

use sedex_storage::{
    ConflictPolicy, InsertOutcome, Instance, RelationSchema, Schema, Tuple, Value,
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
}

fn keyed_instance() -> Instance {
    let r = RelationSchema::with_any_columns("R", &["k", "a", "b"])
        .primary_key(&["k"])
        .unwrap();
    Instance::new(Schema::from_relations(vec![r]).unwrap())
}

/// Random small tuples over a narrow domain so keys collide often.
fn gen_tuple(rng: &mut Rng) -> Tuple {
    let v = |x: usize| {
        if x == 0 {
            Value::Null
        } else {
            Value::int(x as i64)
        }
    };
    Tuple::new(vec![
        Value::int(rng.below(6) as i64),
        v(rng.below(4)),
        v(rng.below(4)),
    ])
}

fn gen_workload(seed: u64, max: usize) -> Vec<Tuple> {
    let mut rng = Rng(seed);
    let n = 1 + rng.below(max);
    (0..n).map(|_| gen_tuple(&mut rng)).collect()
}

/// Under Skip, the first tuple for each key wins and the relation size
/// equals the number of distinct keys ever inserted.
#[test]
fn skip_policy_first_writer_wins() {
    for seed in 0..32u64 {
        let tuples = gen_workload(seed, 60);
        let mut inst = keyed_instance();
        let mut first_for_key = std::collections::HashMap::new();
        for t in &tuples {
            let k = t.values()[0].clone();
            first_for_key.entry(k).or_insert_with(|| t.clone());
            inst.insert("R", t.clone(), ConflictPolicy::Skip).unwrap();
        }
        let rel = inst.relation("R").unwrap();
        assert_eq!(rel.len(), first_for_key.len(), "seed {seed}");
        for t in rel.iter() {
            let k = &t.values()[0];
            assert_eq!(t, &first_for_key[k], "seed {seed}");
        }
    }
}

/// Under Merge, every key holds at most one row and each row keeps at
/// least its key constant.
#[test]
fn merge_policy_accumulates_information() {
    for seed in 0..32u64 {
        let tuples = gen_workload(seed, 60);
        let mut inst = keyed_instance();
        for t in &tuples {
            // Ignore egd failures: conflicting constants keep the old value.
            let _ = inst.insert("R", t.clone(), ConflictPolicy::Merge);
        }
        let rel = inst.relation("R").unwrap();
        // No two rows share a key.
        let mut keys = std::collections::HashSet::new();
        for t in rel.iter() {
            assert!(keys.insert(t.values()[0].clone()), "seed {seed}");
        }
        for t in rel.iter() {
            assert!(t.constants() >= 1, "seed {seed}"); // at least the key
        }
    }
}

/// Set semantics: inserting the same multiset twice changes nothing.
#[test]
fn allow_policy_idempotent_on_replay() {
    for seed in 0..32u64 {
        let tuples = gen_workload(seed, 40);
        let r = RelationSchema::with_any_columns("S", &["k", "a", "b"]);
        let schema = Schema::from_relations(vec![r]).unwrap();
        let mut inst = Instance::new(schema);
        for t in &tuples {
            inst.insert("S", t.clone(), ConflictPolicy::Allow).unwrap();
        }
        let after_first = inst.relation("S").unwrap().len();
        for t in &tuples {
            let out = inst.insert("S", t.clone(), ConflictPolicy::Allow).unwrap();
            assert!(matches!(out, InsertOutcome::Duplicate(_)), "seed {seed}");
        }
        assert_eq!(
            inst.relation("S").unwrap().len(),
            after_first,
            "seed {seed}"
        );
    }
}

/// PK lookups agree with a linear scan after arbitrary insert sequences,
/// in a relation that also carries a unique constraint; re-inserting any
/// stored row reports the lowest id among equal rows. Allow keeps
/// key-mates, so PK buckets hold several rows and the scan's first hit is
/// the one the index must return.
#[test]
fn pk_index_consistent_with_scan() {
    let r = RelationSchema::with_any_columns("R", &["k", "a", "b"])
        .primary_key(&["k"])
        .unwrap()
        .unique_on(&["b"])
        .unwrap();
    let schema = Schema::from_relations(vec![r]).unwrap();
    for policy in [ConflictPolicy::Merge, ConflictPolicy::Allow] {
        for seed in 0..32u64 {
            let tuples = gen_workload(seed, 60);
            let mut inst = Instance::new(schema.clone());
            for t in &tuples {
                let _ = inst.insert("R", t.clone(), policy);
            }
            let rel = inst.relation("R").unwrap().clone();
            for t in rel.iter() {
                let k = t.values()[0].clone();
                let via_index = rel.lookup_pk(std::slice::from_ref(&k));
                let via_scan = rel.iter().find(|u| u.values()[0] == k);
                assert_eq!(via_index, via_scan, "{policy:?} seed {seed}");
                let lowest = rel.iter().position(|u| u == t).unwrap() as u32;
                let out = inst.insert("R", t.clone(), policy).unwrap();
                assert_eq!(
                    out,
                    InsertOutcome::Duplicate(lowest),
                    "{policy:?} seed {seed}"
                );
            }
        }
    }
}

/// A snapshot taken mid-sequence is unchanged by later merges, and a merge
/// copies only the one shared chunk holding the merged row.
#[test]
fn snapshot_unchanged_by_later_merges() {
    for seed in 0..8u64 {
        let mut rng = Rng(seed);
        let mut inst = keyed_instance();
        // 1 000 rows: three sealed 256-row chunks plus a mutable tail.
        for k in 0..1_000 {
            let t = Tuple::new(vec![Value::int(k), Value::Null, Value::Null]);
            inst.insert("R", t, ConflictPolicy::Merge).unwrap();
        }
        let snap = inst.snapshot();
        let before = snap.relation("R").unwrap().to_vec();
        let shared = |inst: &Instance| inst.relation("R").unwrap().rows().shared_chunks();
        assert_eq!(shared(&inst), 3, "seed {seed}");
        let first = Tuple::new(vec![Value::int(5), Value::int(1), Value::Null]);
        let out = inst.insert("R", first, ConflictPolicy::Merge).unwrap();
        assert_eq!(out, InsertOutcome::Merged(5), "seed {seed}");
        assert_eq!(shared(&inst), 2, "seed {seed}: one chunk copied");
        for _ in 0..200 {
            let k = rng.below(1_000) as i64;
            let b = Value::int(rng.below(3) as i64 + 1);
            let t = Tuple::new(vec![Value::int(k), Value::Null, b]);
            // Conflicting constants fail the egd and change nothing.
            let _ = inst.insert("R", t, ConflictPolicy::Merge);
            assert_eq!(snap.relation("R").unwrap().to_vec(), before, "seed {seed}");
        }
        let live = inst.relation("R").unwrap();
        assert_eq!(live.len(), 1_000, "seed {seed}");
        assert_eq!(
            live.row(5).unwrap().values()[1],
            Value::int(1),
            "seed {seed}"
        );
        assert_ne!(live.to_vec(), before, "seed {seed}");
    }
}

/// Labeled-null substitution: afterwards no substituted label remains, and
/// constants are untouched.
#[test]
fn substitution_removes_labels() {
    for seed in 0..32u64 {
        let mut rng = Rng(seed);
        let n = 1 + rng.below(30);
        let labels: Vec<u64> = (0..n).map(|_| rng.below(5) as u64).collect();
        let target = rng.below(5) as u64;
        let r = RelationSchema::with_any_columns("S", &["x"]);
        let schema = Schema::from_relations(vec![r]).unwrap();
        let mut inst = Instance::new(schema);
        for l in &labels {
            inst.insert(
                "S",
                Tuple::new(vec![Value::Labeled(*l)]),
                ConflictPolicy::Allow,
            )
            .unwrap();
        }
        let mut sub = std::collections::HashMap::new();
        sub.insert(target, Value::text("resolved"));
        inst.substitute_labeled(&sub);
        for (_, rel) in inst.relations() {
            for t in rel.iter() {
                assert!(t.values()[0] != Value::Labeled(target), "seed {seed}");
            }
        }
    }
}

/// Stats are consistent: atoms = constants + nulls = tuples × arity.
#[test]
fn stats_accounting() {
    for seed in 0..32u64 {
        let tuples = gen_workload(seed, 50);
        let r = RelationSchema::with_any_columns("S", &["k", "a", "b"]);
        let schema = Schema::from_relations(vec![r]).unwrap();
        let mut inst = Instance::new(schema);
        for t in &tuples {
            inst.insert("S", t.clone(), ConflictPolicy::Allow).unwrap();
        }
        let s = inst.stats();
        assert_eq!(s.atoms(), s.constants + s.nulls, "seed {seed}");
        assert_eq!(s.atoms(), s.tuples * 3, "seed {seed}");
    }
}
