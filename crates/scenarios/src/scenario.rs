//! The common data-exchange scenario shape and its populator.

use std::collections::{HashMap, HashSet};

use sedex_mapping::{Correspondences, Egd};
use sedex_storage::{ConflictPolicy, Instance, Schema, StorageError, Tuple, Value};

use crate::datagen::DataGen;

/// Special population rules a scenario may carry.
#[derive(Debug, Clone)]
pub enum GenRule {
    /// The generalization pattern of the AMB UDPs (Section 5.1): rows of
    /// `relation` alternate between subclasses; each row keeps the columns
    /// of its own group and nulls the other groups' columns. With a
    /// `discriminator`, that column is set to the group's name (`sc2`).
    Generalization {
        /// The collapsed source relation.
        relation: String,
        /// Column groups, one per subclass.
        groups: Vec<Vec<String>>,
        /// Optional explicit subclass indicator column.
        discriminator: Option<String>,
    },
    /// Inject SQL nulls into the given column with the given probability —
    /// used to create incomplete sources.
    NullRate {
        /// Relation to affect.
        relation: String,
        /// Column to null out.
        column: String,
        /// Probability of a null.
        rate: f64,
    },
    /// Key sharing across relations (iBench's "sharing of relations across
    /// primitives"): `relation.column` takes its values from
    /// `from_relation`'s primary keys, pairing rows one-to-one — the two
    /// relations then describe the *same entities*, so complementary
    /// mappings into a shared target produce mergeable partial tuples.
    SharedKeys {
        /// Relation whose column is overridden.
        relation: String,
        /// The (key) column taking shared values.
        column: String,
        /// Relation whose primary keys are reused.
        from_relation: String,
    },
}

/// A complete data-exchange scenario: schemas, correspondences and
/// population rules.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Human-readable name (e.g. `"STB"`, `"s25"`, `"VP"`).
    pub name: String,
    /// Source schema.
    pub source: Schema,
    /// Target schema.
    pub target: Schema,
    /// Property correspondences Σ.
    pub sigma: Correspondences,
    /// Population rules.
    pub rules: Vec<GenRule>,
}

impl Scenario {
    /// A scenario with no special population rules.
    pub fn new(
        name: impl Into<String>,
        source: Schema,
        target: Schema,
        sigma: Correspondences,
    ) -> Self {
        Scenario {
            name: name.into(),
            source,
            target,
            sigma,
            rules: Vec::new(),
        }
    }

    /// The target key egds `Γ`.
    pub fn target_egds(&self) -> Vec<Egd> {
        Egd::key_egds(&self.target)
    }

    /// Populate a source instance with `tuples_per_relation` rows per
    /// relation, deterministically from `seed`.
    ///
    /// Relations are filled in foreign-key dependency order so every FK
    /// value references an existing key; generalization and null rules are
    /// applied per row.
    pub fn populate(
        &self,
        tuples_per_relation: usize,
        seed: u64,
    ) -> Result<Instance, StorageError> {
        let mut gen = DataGen::new(seed ^ fxhash(&self.name));
        let mut instance = Instance::new(self.source.clone());
        let mut order = dependency_order(&self.source);
        // SharedKeys rules add ordering constraints the FK graph doesn't
        // know about: the key-providing relation must be populated first.
        for r in &self.rules {
            if let GenRule::SharedKeys {
                relation,
                from_relation,
                ..
            } = r
            {
                let from = order.iter().position(|n| n == from_relation);
                let to = order.iter().position(|n| n == relation);
                if let (Some(f), Some(t)) = (from, to) {
                    if f > t {
                        let moved = order.remove(f);
                        order.insert(t, moved);
                    }
                }
            }
        }
        // Keys generated per relation, for FK targets.
        let mut keys: HashMap<String, Vec<Value>> = HashMap::new();

        for rel_name in order {
            let rel = self.source.relation_or_err(&rel_name)?.clone();
            let gen_rule = self.rules.iter().find(
                |r| matches!(r, GenRule::Generalization { relation, .. } if relation == &rel_name),
            );
            let mut my_keys = Vec::with_capacity(tuples_per_relation);
            for i in 0..tuples_per_relation {
                let mut vals: Vec<Value> = Vec::with_capacity(rel.arity());
                for (j, col) in rel.columns.iter().enumerate() {
                    // Shared-key rule takes precedence: pair with the
                    // provider relation's keys one-to-one.
                    let shared = self.rules.iter().find_map(|r| match r {
                        GenRule::SharedKeys {
                            relation,
                            column,
                            from_relation,
                        } if relation == &rel_name && column == &col.name => Some(from_relation),
                        _ => None,
                    });
                    if let Some(from) = shared {
                        let v = match keys.get(from.as_str()) {
                            Some(ks) if !ks.is_empty() => ks[i % ks.len()].clone(),
                            _ => gen.key(&rel_name, i),
                        };
                        vals.push(v);
                        continue;
                    }
                    // FK column: reference an existing key of the target.
                    // Key-to-key links (the FK column is the relation's own
                    // key, as in fusion/partition scenarios) pair rows
                    // one-to-one; plain FKs pick a random referenced key.
                    let fk = rel
                        .foreign_keys
                        .iter()
                        .find(|f| f.columns.first() == Some(&j));
                    let v = if let Some(fk) = fk {
                        match keys.get(&fk.ref_relation) {
                            Some(ks) if !ks.is_empty() => {
                                if rel.primary_key.contains(&j) {
                                    ks[i % ks.len()].clone()
                                } else {
                                    ks[gen.pick(ks.len())].clone()
                                }
                            }
                            _ => Value::Null,
                        }
                    } else if rel.primary_key.contains(&j) {
                        gen.key(&rel_name, i)
                    } else {
                        gen.value(&col.name, i)
                    };
                    vals.push(v);
                }
                // Generalization rule: null out the other groups' columns.
                if let Some(GenRule::Generalization {
                    groups,
                    discriminator,
                    ..
                }) = gen_rule
                {
                    let g = i % groups.len();
                    let own: HashSet<&str> = groups[g].iter().map(String::as_str).collect();
                    let others: HashSet<&str> = groups
                        .iter()
                        .enumerate()
                        .filter(|&(gi, _)| gi != g)
                        .flat_map(|(_, cols)| cols.iter().map(String::as_str))
                        .filter(|c| !own.contains(c))
                        .collect();
                    for (j, col) in rel.columns.iter().enumerate() {
                        if others.contains(col.name.as_str()) && !rel.primary_key.contains(&j) {
                            vals[j] = Value::Null;
                        }
                    }
                    if let Some(d) = discriminator {
                        if let Some(j) = rel.column_index(d) {
                            vals[j] = Value::text(format!("kind{g}"));
                        }
                    }
                }
                // Null-rate rules.
                for r in &self.rules {
                    if let GenRule::NullRate {
                        relation,
                        column,
                        rate,
                    } = r
                    {
                        if relation == &rel_name {
                            if let Some(j) = rel.column_index(column) {
                                if !rel.primary_key.contains(&j) && gen.chance(*rate) {
                                    vals[j] = Value::Null;
                                }
                            }
                        }
                    }
                }
                if !rel.primary_key.is_empty() {
                    my_keys.push(Tuple::new(vals.clone()).project(&rel.primary_key)[0].clone());
                }
                instance.insert(&rel_name, Tuple::new(vals), ConflictPolicy::Skip)?;
            }
            keys.insert(rel_name, my_keys);
        }
        Ok(instance)
    }
}

/// Source relations ordered so referenced relations come before referencing
/// ones (Kahn's algorithm; cycles fall back to declaration order).
pub fn dependency_order(schema: &Schema) -> Vec<String> {
    let names: Vec<&str> = schema.relation_names().collect();
    let idx: HashMap<&str, usize> = names.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let n = names.len();
    let mut deps: Vec<HashSet<usize>> = vec![HashSet::new(); n];
    for (i, rel) in schema.relations().iter().enumerate() {
        for fk in &rel.foreign_keys {
            if let Some(&j) = idx.get(fk.ref_relation.as_str()) {
                if j != i {
                    deps[i].insert(j);
                }
            }
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    loop {
        let mut progressed = false;
        for i in 0..n {
            if !placed[i] && deps[i].iter().all(|&j| placed[j]) {
                placed[i] = true;
                order.push(names[i].to_owned());
                progressed = true;
            }
        }
        if order.len() == n {
            break;
        }
        if !progressed {
            // Cycle: append the rest in declaration order.
            for i in 0..n {
                if !placed[i] {
                    placed[i] = true;
                    order.push(names[i].to_owned());
                }
            }
            break;
        }
    }
    order
}

/// Tiny deterministic string hash (scenario-name → seed perturbation).
fn fxhash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedex_storage::RelationSchema;

    fn two_level() -> Scenario {
        let b = RelationSchema::with_any_columns("B", &["bk", "bv"])
            .primary_key(&["bk"])
            .unwrap();
        let a = RelationSchema::with_any_columns("A", &["ak", "av", "bref"])
            .primary_key(&["ak"])
            .unwrap()
            .foreign_key(&["bref"], "B")
            .unwrap();
        let source = Schema::from_relations(vec![a, b]).unwrap();
        let target = Schema::new();
        Scenario::new("test", source, target, Correspondences::new())
    }

    #[test]
    fn dependency_order_puts_referenced_first() {
        let s = two_level();
        let order = dependency_order(&s.source);
        assert_eq!(order, vec!["B".to_string(), "A".to_string()]);
    }

    #[test]
    fn populate_produces_valid_fks() {
        let s = two_level();
        let inst = s.populate(50, 1).unwrap();
        assert_eq!(inst.relation("A").unwrap().len(), 50);
        assert_eq!(inst.relation("B").unwrap().len(), 50);
        // Every A.bref dereferences.
        let a_rel = inst.relation("A").unwrap();
        for (i, t) in a_rel.rows().iter().enumerate() {
            assert!(
                inst.deref_fk("A", 0, t).is_some(),
                "row {i} has dangling FK: {t}"
            );
        }
    }

    #[test]
    fn populate_is_deterministic() {
        let s = two_level();
        let i1 = s.populate(20, 9).unwrap();
        let i2 = s.populate(20, 9).unwrap();
        assert_eq!(
            i1.relation("A").unwrap().rows(),
            i2.relation("A").unwrap().rows()
        );
    }

    #[test]
    fn generalization_rule_nulls_other_groups() {
        let e = RelationSchema::with_any_columns("E", &["id", "common", "p1", "n1"])
            .primary_key(&["id"])
            .unwrap();
        let source = Schema::from_relations(vec![e]).unwrap();
        let mut s = Scenario::new("g", source, Schema::new(), Correspondences::new());
        s.rules.push(GenRule::Generalization {
            relation: "E".into(),
            groups: vec![vec!["p1".into()], vec!["n1".into()]],
            discriminator: None,
        });
        let inst = s.populate(10, 3).unwrap();
        for (i, t) in inst.relation("E").unwrap().rows().iter().enumerate() {
            let (p1, n1) = (&t.values()[2], &t.values()[3]);
            if i % 2 == 0 {
                assert!(!p1.is_null() && n1.is_null(), "row {i}: {t}");
            } else {
                assert!(p1.is_null() && !n1.is_null(), "row {i}: {t}");
            }
        }
    }

    #[test]
    fn discriminator_set_per_group() {
        let e = RelationSchema::with_any_columns("E", &["id", "kind", "p1", "n1"])
            .primary_key(&["id"])
            .unwrap();
        let source = Schema::from_relations(vec![e]).unwrap();
        let mut s = Scenario::new("g2", source, Schema::new(), Correspondences::new());
        s.rules.push(GenRule::Generalization {
            relation: "E".into(),
            groups: vec![vec!["p1".into()], vec!["n1".into()]],
            discriminator: Some("kind".into()),
        });
        let inst = s.populate(4, 3).unwrap();
        let kinds: Vec<String> = inst
            .relation("E")
            .unwrap()
            .rows()
            .iter()
            .map(|t| t.values()[1].render().into_owned())
            .collect();
        assert_eq!(kinds, vec!["kind0", "kind1", "kind0", "kind1"]);
    }

    #[test]
    fn null_rate_rule_applies() {
        let r = RelationSchema::with_any_columns("R", &["k", "v"])
            .primary_key(&["k"])
            .unwrap();
        let source = Schema::from_relations(vec![r]).unwrap();
        let mut s = Scenario::new("n", source, Schema::new(), Correspondences::new());
        s.rules.push(GenRule::NullRate {
            relation: "R".into(),
            column: "v".into(),
            rate: 1.0,
        });
        let inst = s.populate(5, 3).unwrap();
        assert!(inst
            .relation("R")
            .unwrap()
            .rows()
            .iter()
            .all(|t| t.values()[1].is_null()));
    }
}
