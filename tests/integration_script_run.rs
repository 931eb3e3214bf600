//! Differential oracle for script execution (Section 4.4.3): `run_script`
//! resolves each statement's relation to its schema position, keeps a
//! run's fresh labels in a scanned list and hashes each inserted tuple
//! once; it must do exactly what the name-keyed version it replaced did.
//! So must a `ResolvedScript`, whose statements were resolved once when it
//! entered the repository — the form the engine replays.
//! Every scenario is exchanged by the engine, then its cached scripts are
//! replayed tuple by tuple through all three: the per-run outcome counters
//! and fresh-label counters must agree at every step, and all targets must
//! agree row by row.

use std::collections::HashMap;

use sedex::core::marking::SeenSet;
use sedex::core::script::RunOutcome;
use sedex::core::translate::slot_values;
use sedex::core::{run_script, ResolvedScript, Script, SedexConfig, SedexEngine};
use sedex::mapping::Correspondences;
use sedex::scenarios::ibench::{stb, IbenchConfig};
use sedex::scenarios::{ambiguity, stbench, university, Scenario};
use sedex::storage::{Instance, Schema};
use sedex::textfmt::parse_scenario;
use sedex::treerep::{repository_key, tuple_tree, SchemaForest, TreeConfig};

/// `run_script` as it was first written: every statement looks its
/// relation up by name (once for the arity, once more inside
/// `Instance::insert`) and surrogates are minted into a `HashMap`.
mod reference {
    use std::collections::HashMap;

    use sedex::core::script::{RunOutcome, Script, SlotRef};
    use sedex::storage::{ConflictPolicy, InsertOutcome, Instance, StorageError, Tuple, Value};

    pub fn run_script(
        script: &Script,
        values: &[&Value],
        target: &mut Instance,
        fresh_counter: &mut u64,
    ) -> Result<RunOutcome, StorageError> {
        let mut out = RunOutcome::default();
        let mut fresh: HashMap<u32, Value> = HashMap::new();
        for st in &script.statements {
            let arity = target.schema().relation_or_err(&st.relation)?.arity();
            let mut vals = vec![Value::Null; arity];
            for &(col, slot) in &st.assignments {
                vals[col] = match slot {
                    SlotRef::Src(i) => values.get(i).map_or(Value::Null, |&v| v.clone()),
                    SlotRef::Fresh(id) => fresh
                        .entry(id)
                        .or_insert_with(|| {
                            let v = Value::Labeled(*fresh_counter);
                            *fresh_counter += 1;
                            v
                        })
                        .clone(),
                };
            }
            match target.insert(&st.relation, Tuple::new(vals), ConflictPolicy::Merge) {
                Ok(InsertOutcome::Inserted(_)) => out.inserted += 1,
                Ok(InsertOutcome::Merged(_)) => out.merged += 1,
                Ok(InsertOutcome::Duplicate(_)) => out.duplicates += 1,
                Ok(InsertOutcome::Skipped(_)) => {}
                Err(StorageError::EgdFailure { .. }) => out.violations += 1,
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }
}

/// Assert `a` and `b` hold the same rows, relation by relation, in order.
fn assert_same_rows(what: &str, a: &Instance, b: &Instance) {
    for (name, ra) in a.relations() {
        let rb = b.relation(name).unwrap();
        assert_eq!(ra.len(), rb.len(), "{what}: {name} row count");
        for (i, (ta, tb)) in ra.iter().zip(rb.iter()).enumerate() {
            assert_eq!(ta, tb, "{what}: {name} row {i}");
        }
    }
}

/// What one scenario's replay did, summed over its script runs.
struct Replay {
    outcome: RunOutcome,
    labels: u64,
}

/// Exchange `source` with the engine, then replay the cached scripts
/// through both `run_script` versions and `ResolvedScript::run`, and
/// compare.
fn check(what: &str, source: &Instance, target: &Schema, sigma: &Correspondences) -> Replay {
    let (out, report, repo) = SedexEngine::new()
        .exchange_with_repository(source, target, sigma)
        .unwrap_or_else(|e| panic!("{what}: exchange: {e}"));
    let scripts: HashMap<String, Script> = repo.entries.into_iter().collect();
    let resolved: HashMap<&str, ResolvedScript> = scripts
        .iter()
        .map(|(k, s)| (k.as_str(), ResolvedScript::new(s.clone(), Some(target))))
        .collect();

    // The engine's order: relations by descending tree height, tuples
    // already reached through a referencing tuple skipped.
    let cfg = SedexConfig::default();
    let tree_cfg = TreeConfig {
        max_depth: cfg.max_depth,
        prune_nulls: cfg.prune_nulls,
    };
    let forest = SchemaForest::new(source.schema(), &tree_cfg).unwrap();
    let mut seen = SeenSet::for_instance(source);
    let mut new_target = Instance::new(target.clone());
    let mut old_target = Instance::new(target.clone());
    let mut resolved_target = Instance::new(target.clone());
    let (mut new_labels, mut old_labels, mut resolved_labels) = (0u64, 0u64, 0u64);
    let mut total = RunOutcome::default();
    for rel in forest.processing_order() {
        for row in 0..source.relation(rel).unwrap().len() as u32 {
            if seen.is_seen(rel, row) {
                continue;
            }
            let tt = tuple_tree(source, rel, row, &tree_cfg).unwrap();
            seen.mark_all(&tt.visited);
            let key = repository_key(&tt);
            let script = &scripts[&key];
            let values = slot_values(&tt);
            let new = run_script(script, &values, &mut new_target, &mut new_labels).unwrap();
            let old =
                reference::run_script(script, &values, &mut old_target, &mut old_labels).unwrap();
            let res = resolved[key.as_str()]
                .run(&values, &mut resolved_target, &mut resolved_labels)
                .unwrap();
            assert_eq!(new, old, "{what}: outcome of {rel} row {row}");
            assert_eq!(res, old, "{what}: resolved outcome of {rel} row {row}");
            assert_eq!(
                new_labels, old_labels,
                "{what}: fresh labels after {rel} row {row}"
            );
            assert_eq!(
                resolved_labels, old_labels,
                "{what}: resolved fresh labels after {rel} row {row}"
            );
            total += new;
        }
    }
    assert_same_rows(
        &format!("{what}, new vs old run_script"),
        &new_target,
        &old_target,
    );
    assert_same_rows(
        &format!("{what}, resolved vs old run_script"),
        &resolved_target,
        &old_target,
    );
    let ctx = format!("{what}, replay vs engine");
    assert_same_rows(&ctx, &new_target, &out);
    assert_eq!(report.inserted, total.inserted, "{ctx}: inserted");
    assert_eq!(report.merged, total.merged, "{ctx}: merged");
    assert_eq!(report.violations, total.violations, "{ctx}: violations");
    assert!(total.inserted > 0, "{what}: nothing inserted");
    Replay {
        outcome: total,
        labels: new_labels,
    }
}

fn check_scenario(what: &str, sc: &Scenario, per_relation: usize, seed: u64) -> Replay {
    let source = sc.populate(per_relation, seed).unwrap();
    check(what, &source, &sc.target, &sc.sigma)
}

#[test]
fn university_agrees() {
    let sc = university::scenario();
    let source = university::fig3_instance().unwrap();
    check("university", &source, &sc.target, &sc.sigma);
}

#[test]
fn stb_keyed_merges_agree() {
    let sc = stb(&IbenchConfig {
        pk_fraction: 1.0,
        ..IbenchConfig::default()
    });
    for seed in [3, 7] {
        let replay = check_scenario("STB, pk 1.0", &sc, 60, seed);
        assert!(replay.outcome.merged > 0, "STB seed {seed}: no egd merges");
        assert!(replay.labels > 0, "STB seed {seed}: no surrogates minted");
    }
}

/// Two source relations feeding one keyed target relation with
/// conflicting constants: hard egd violations, plus merges of a null into
/// a constant and exact duplicates.
#[test]
fn egd_violations_agree() {
    let file = parse_scenario(
        "[source]\nR(k*, a)\nS(k2*, b)\n\
         [target]\nT(tk*, ta)\n\
         [correspondences]\nk <-> tk\na <-> ta\nk2 <-> tk\nb <-> ta\n\
         [data]\nR: x, 1\nR: y, 2\nR: w, 4\nS: x, 9\nS: y, _\nS: z, 3\nS: w, 4\n",
    )
    .unwrap();
    let sc = file.scenario;
    let replay = check("egd violations", &file.instance, &sc.target, &sc.sigma);
    let out = replay.outcome;
    assert!(out.violations > 0, "no egd violation: {out:?}");
    assert!(out.merged > 0, "no egd merge: {out:?}");
    assert!(out.duplicates > 0, "no duplicate: {out:?}");
}

/// A source relation whose only image is a chain of target relations
/// keyed by surrogates: each script mints several labels, in statement
/// order — referenced entities first — not in surrogate-id order.
#[test]
fn nested_surrogates_agree() {
    let file = parse_scenario(
        "[source]\nS(p*, q, r)\n\
         [target]\nA(aid*, x)\nB(bid*, a->A, y)\nC(cid*, b->B, z)\n\
         [correspondences]\np <-> z\nq <-> y\nr <-> x\n\
         [data]\nS: 1, 2, 3\nS: 4, 5, 6\nS: 7, 5, 6\n",
    )
    .unwrap();
    let sc = file.scenario;
    let replay = check("nested surrogates", &file.instance, &sc.target, &sc.sigma);
    assert!(replay.labels >= 6, "{} labels minted", replay.labels);
}

#[test]
fn amb_agrees() {
    let sc = ambiguity::amb(&IbenchConfig::default(), 4);
    check_scenario("AMB", &sc, 20, 7);
}

#[test]
fn stbenchmark_basic_scenarios_agree() {
    for kind in stbench::BasicKind::all() {
        let sc = stbench::basic(kind);
        check_scenario(kind.name(), &sc, 25, 1);
    }
}
