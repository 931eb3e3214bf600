//! Property-style integration tests over the core invariants DESIGN.md
//! promises.
//!
//! Deterministic: cases are generated from seeded SplitMix64 streams, so
//! every run exercises the same (broad) input set with no external
//! property-testing dependency.

use sedex::core::{SedexConfig, SedexEngine};
use sedex::mapping::egd::apply_egds;
use sedex::mapping::{ClioEngine, Egd};
use sedex::pqgram::{normalized_distance, PqGramProfile, Tree};
use sedex::prelude::*;
use sedex::scenarios::ibench::{add_cp, add_su, add_vp, ScenarioBuilder};

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

// --- random labeled trees -------------------------------------------------

/// A tree as a parent vector: node i>0 attaches under a random earlier
/// node — the same distribution the original proptest strategy produced.
fn gen_tree(seed: u64) -> Tree<String> {
    let mut rng = Rng(seed);
    let labels = ["a", "b", "c", "d", "e"];
    let extra = 1 + rng.below(23);
    let mut t = Tree::new(labels[extra % labels.len()].to_string());
    let mut ids = vec![t.root()];
    let n = rng.below(24);
    for i in 0..n {
        let parent = ids[rng.below(ids.len())];
        let id = t.add_child(parent, labels[(i + extra) % labels.len()].to_string());
        ids.push(id);
    }
    t
}

#[test]
fn pqgram_distance_identity() {
    for seed in 0..20u64 {
        let t = gen_tree(seed);
        for p in 1usize..4 {
            for q in 1usize..3 {
                let prof = PqGramProfile::new(&t, p, q);
                assert_eq!(
                    normalized_distance(&prof, &prof),
                    0.0,
                    "seed {seed} p{p} q{q}"
                );
            }
        }
    }
}

#[test]
fn pqgram_distance_symmetric() {
    for seed in 0..20u64 {
        let t1 = gen_tree(seed);
        let t2 = gen_tree(seed + 500);
        let p1 = PqGramProfile::new(&t1, 2, 1);
        let p2 = PqGramProfile::new(&t2, 2, 1);
        let d12 = normalized_distance(&p1, &p2);
        let d21 = normalized_distance(&p2, &p1);
        assert_eq!(d12, d21, "seed {seed}");
        assert!(d12 <= 1.0, "seed {seed}");
    }
}

#[test]
fn pqgram_profile_size_linear() {
    // With q = 1 every non-dummy node contributes one gram per child (or
    // one dummy window): |profile| bounded by 2 × nodes. Linear time/size
    // is the property the paper relies on.
    for seed in 0..20u64 {
        let t = gen_tree(seed ^ 0x77);
        let prof = PqGramProfile::new(&t, 2, 1);
        assert!(prof.len() >= t.len(), "seed {seed}");
        assert!(prof.len() <= 2 * t.len(), "seed {seed}");
    }
}

#[test]
fn sibling_order_never_matters() {
    // Reverse every sibling list: profiles must be identical (sorting
    // step).
    fn copy_rev(src: &Tree<String>, s: usize, dst: &mut Tree<String>, d: usize) {
        for &c in src.children(s).iter().rev() {
            let nd = dst.add_child(d, src.label(c).clone());
            copy_rev(src, c, dst, nd);
        }
    }
    for seed in 0..20u64 {
        let t = gen_tree(seed ^ 0x99);
        let mut t2 = Tree::new(t.label(t.root()).clone());
        let t2_root = t2.root();
        copy_rev(&t, t.root(), &mut t2, t2_root);
        let p1 = PqGramProfile::new(&t, 2, 1);
        let p2 = PqGramProfile::new(&t2, 2, 1);
        assert_eq!(normalized_distance(&p1, &p2), 0.0, "seed {seed}");
    }
}

// --- storage / egd properties ----------------------------------------------

#[test]
fn egd_application_is_idempotent() {
    for seed in 0..24u64 {
        let mut rng = Rng(seed ^ 0x1234);
        let n = 1 + rng.below(39);
        let r = RelationSchema::with_any_columns("T", &["k", "a", "b"]);
        let schema = Schema::from_relations(vec![r]).unwrap();
        let mut inst = Instance::new(schema);
        for _ in 0..n {
            let (k, a, b) = (rng.below(5), rng.below(8), rng.below(8));
            // Mix constants and labeled nulls.
            let av = if a < 4 {
                Value::Labeled(a as u64)
            } else {
                Value::int(a as i64)
            };
            let bv = if b < 4 {
                Value::Labeled(b as u64 + 10)
            } else {
                Value::int(b as i64)
            };
            inst.insert(
                "T",
                Tuple::new(vec![Value::int(k as i64), av, bv]),
                ConflictPolicy::Allow,
            )
            .unwrap();
        }
        let egds = vec![Egd {
            relation: "T".into(),
            key: vec![0],
        }];
        apply_egds(&mut inst, &egds);
        let after_first = inst.stats();
        let out2 = apply_egds(&mut inst, &egds);
        assert_eq!(after_first, inst.stats(), "seed {seed}");
        assert_eq!(out2.merged, 0, "seed {seed}");
    }
}

#[test]
fn instance_stats_conserved_by_dedup() {
    for seed in 0..24u64 {
        let mut rng = Rng(seed ^ 0x4321);
        let n = 1 + rng.below(29);
        let r = RelationSchema::with_any_columns("R", &["v"]);
        let schema = Schema::from_relations(vec![r]).unwrap();
        let mut inst = Instance::new(schema);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..n {
            let v = rng.below(4) as u8;
            inst.insert("R", tuple![v as i64], ConflictPolicy::Allow)
                .unwrap();
            distinct.insert(v);
        }
        assert_eq!(inst.total_tuples(), distinct.len(), "seed {seed}");
    }
}

// --- end-to-end soundness and reuse-invariance -----------------------------

/// A small random scenario: a few CP/VP/SU primitives.
fn gen_scenario(seed: u64) -> Scenario {
    let mut rng = Rng(seed);
    let n = 1 + rng.below(3);
    let mut b = ScenarioBuilder::default();
    for i in 0..n {
        match rng.below(3) {
            0 => add_cp(&mut b, &format!("cp{i}"), 3 + i % 3, true),
            1 => add_vp(&mut b, &format!("vp{i}"), 4 + i % 2, true),
            _ => add_su(&mut b, &format!("su{i}"), 3, true),
        }
    }
    b.build("prop")
}

#[test]
fn sedex_output_is_sound() {
    // Every constant in the target traces back to a source constant.
    for seed in 0..16u64 {
        let mut rng = Rng(seed ^ 0xAAAA);
        let s = gen_scenario(seed);
        let n = 1 + rng.below(29);
        let inst = s.populate(n, rng.next()).unwrap();
        let mut source_constants = std::collections::HashSet::new();
        for (_, rel) in inst.relations() {
            for t in rel.iter() {
                for v in t.values() {
                    if v.is_constant() {
                        source_constants.insert(v.clone());
                    }
                }
            }
        }
        let (out, _) = SedexEngine::new()
            .exchange(&inst, &s.target, &s.sigma)
            .unwrap();
        for (name, rel) in out.relations() {
            for t in rel.iter() {
                for v in t.values() {
                    if v.is_constant() {
                        assert!(
                            source_constants.contains(v),
                            "seed {seed}: unsound constant {v} in {name}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn script_reuse_never_changes_output() {
    for seed in 0..12u64 {
        let mut rng = Rng(seed ^ 0xBBBB);
        let s = gen_scenario(seed + 100);
        let n = 1 + rng.below(24);
        let inst = s.populate(n, rng.next()).unwrap();
        let with = SedexEngine::new();
        let without = SedexEngine::with_config(SedexConfig {
            reuse_scripts: false,
            ..SedexConfig::default()
        });
        let (o1, _) = with.exchange(&inst, &s.target, &s.sigma).unwrap();
        let (o2, _) = without.exchange(&inst, &s.target, &s.sigma).unwrap();
        assert_eq!(o1.stats().constants, o2.stats().constants, "seed {seed}");
        assert_eq!(o1.stats().tuples, o2.stats().tuples, "seed {seed}");
    }
}

#[test]
fn clio_universal_solution_covers_sedex_constants() {
    // The universal solution reflects all source data; SEDEX's constants
    // are a subset of Clio's (SEDEX adds nothing Clio would not).
    for seed in 0..10u64 {
        let mut rng = Rng(seed ^ 0xCCCC);
        let s = gen_scenario(seed + 200);
        let n = 1 + rng.below(19);
        let inst = s.populate(n, rng.next()).unwrap();
        let clio = ClioEngine::new(&s.source, &s.target, &s.sigma);
        let (c_out, _) = clio.run(&inst, &s.target).unwrap();
        let (x_out, _) = SedexEngine::new()
            .exchange(&inst, &s.target, &s.sigma)
            .unwrap();
        let mut clio_consts = std::collections::HashSet::new();
        for (_, rel) in c_out.relations() {
            for t in rel.iter() {
                for v in t.values() {
                    if v.is_constant() {
                        clio_consts.insert(v.clone());
                    }
                }
            }
        }
        for (_, rel) in x_out.relations() {
            for t in rel.iter() {
                for v in t.values() {
                    if v.is_constant() {
                        assert!(clio_consts.contains(v), "seed {seed}");
                    }
                }
            }
        }
    }
}

#[test]
fn batch_size_does_not_change_output() {
    for seed in 0..12u64 {
        let mut rng = Rng(seed ^ 0xDDDD);
        let s = gen_scenario(seed + 300);
        let n = 1 + rng.below(39);
        let inst = s.populate(n, rng.next()).unwrap();
        let (o1, _) = SedexEngine::new()
            .exchange(&inst, &s.target, &s.sigma)
            .unwrap();
        let engine = SedexEngine::with_config(SedexConfig {
            batch_size: 16,
            ..SedexConfig::default()
        });
        let (o2, _) = engine.exchange(&inst, &s.target, &s.sigma).unwrap();
        assert_eq!(o1.stats(), o2.stats(), "seed {seed}");
    }
}
