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

/// Model-checked snapshots over the shared tail: a seeded mix of `insert`
/// (Allow appends same-key rows, Merge unifies into the first key-mate,
/// sealed or tail), `substitute_labeled` and a dedup (`set_rows` of the
/// live rows), with snapshots captured at random points and forced at tail
/// lengths 0, 1 and 255. A plain `Vec<Tuple>` is the model. Every snapshot
/// must read exactly the model at its capture — checked when it is
/// dropped, at random, and at the end — and the live rows the final model.
#[test]
fn snapshots_match_the_model_at_capture() {
    use sedex_storage::rows::CHUNK;
    use std::collections::{HashMap, HashSet};

    let value = |rng: &mut Rng| match rng.below(6) {
        0 | 1 => Value::Null,
        2 | 3 => Value::Labeled(rng.below(4) as u64),
        _ => Value::int(rng.below(3) as i64 + 1),
    };
    let dedup = |model: &mut Vec<Tuple>| {
        let mut seen = HashSet::new();
        model.retain(|t| seen.insert(t.clone()));
    };
    let mut tails_captured = HashSet::new();
    let (mut sealed_merges, mut tail_merges, mut substitutions, mut dedups) = (0, 0, 0, 0);
    let mut seals_under_snapshot = 0;
    for seed in 0..12u64 {
        let mut rng = Rng(seed);
        let mut inst = keyed_instance();
        let mut model: Vec<Tuple> = Vec::new();
        let mut snaps: Vec<(sedex_storage::InstanceSnapshot, Vec<Tuple>)> = Vec::new();
        let check = |(snap, want): &(sedex_storage::InstanceSnapshot, Vec<Tuple>)| {
            assert_eq!(&snap.relation("R").unwrap().to_vec(), want, "seed {seed}");
        };
        for step in 0..1_400 {
            let tail = model.len() % CHUNK;
            let forced = [0, 1, CHUNK - 1].contains(&tail) && rng.below(2) == 0;
            if forced || rng.below(8) == 0 {
                if model.len() >= CHUNK || tail != 0 {
                    tails_captured.insert(tail);
                }
                snaps.push((inst.snapshot(), model.clone()));
            }
            if !snaps.is_empty() && rng.below(6) == 0 {
                check(&snaps.swap_remove(rng.below(snaps.len())));
            }
            match rng.below(40) {
                0 => {
                    let mut subst = HashMap::new();
                    subst.insert(rng.below(4) as u64, Value::int(rng.below(3) as i64 + 1));
                    let changed = inst.substitute_labeled(&subst);
                    let mut want = 0;
                    for t in &mut model {
                        for v in t.values_mut() {
                            if let Value::Labeled(l) = v {
                                if let Some(rep) = subst.get(l) {
                                    *v = rep.clone();
                                    want += 1;
                                }
                            }
                        }
                    }
                    assert_eq!(changed, want, "seed {seed} step {step}");
                    if changed > 0 {
                        dedup(&mut model);
                        substitutions += 1;
                    }
                }
                1 => {
                    let rel = inst.relation_mut("R").unwrap();
                    let rows = rel.to_vec();
                    rel.set_rows(rows);
                    let before = model.len();
                    dedup(&mut model);
                    dedups += usize::from(model.len() < before);
                }
                _ => {
                    let t = Tuple::new(vec![
                        Value::int(rng.below(900) as i64),
                        value(&mut rng),
                        value(&mut rng),
                    ]);
                    let policy = if rng.below(3) == 0 {
                        ConflictPolicy::Allow
                    } else {
                        ConflictPolicy::Merge
                    };
                    let out = inst.insert("R", t.clone(), policy);
                    let dup = model.iter().position(|u| u == &t);
                    let mate = model.iter().position(|u| u.values()[0] == t.values()[0]);
                    match (dup, policy, mate) {
                        (Some(id), _, _) => {
                            assert_eq!(out.unwrap(), InsertOutcome::Duplicate(id as u32));
                        }
                        (None, ConflictPolicy::Merge, Some(id)) => {
                            let merged: Option<Vec<Value>> = model[id]
                                .values()
                                .iter()
                                .zip(t.values())
                                .map(|(a, b)| a.unify(b))
                                .collect();
                            match merged {
                                Some(vals) => {
                                    assert_eq!(out.unwrap(), InsertOutcome::Merged(id as u32));
                                    model[id] = Tuple::new(vals);
                                    if id < model.len() / CHUNK * CHUNK {
                                        sealed_merges += 1;
                                    } else {
                                        tail_merges += 1;
                                    }
                                }
                                None => assert!(out.is_err(), "seed {seed} step {step}"),
                            }
                        }
                        _ => {
                            let id = model.len();
                            assert_eq!(out.unwrap(), InsertOutcome::Inserted(id as u32));
                            model.push(t);
                            if id % CHUNK == CHUNK - 1 && !snaps.is_empty() {
                                seals_under_snapshot += 1;
                            }
                        }
                    }
                }
            }
        }
        snaps.iter().for_each(check);
        assert_eq!(inst.relation("R").unwrap().to_vec(), model, "seed {seed}");
    }
    // The workload reached every case it claims to cover.
    for tail in [0, 1, CHUNK - 1] {
        assert!(tails_captured.contains(&tail), "no snapshot at tail {tail}");
    }
    assert!(
        sealed_merges > 0 && tail_merges > 0,
        "{sealed_merges}/{tail_merges}"
    );
    assert!(substitutions > 0 && dedups > 0, "{substitutions}/{dedups}");
    assert!(seals_under_snapshot > 0);
}
