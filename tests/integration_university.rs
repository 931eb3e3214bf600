//! Cross-crate integration tests on the paper's running example
//! (Figs. 2–8): trees, matching, translation, scripts and the full engine
//! working together.

use sedex::core::{Matcher, SedexEngine};
use sedex::prelude::*;
use sedex::scenarios::university;
use sedex::treerep::{
    post_order_key, reduce_to_relation_tree, tuple_tree, SchemaForest, TreeConfig,
};

#[test]
fn processing_order_matches_section_41() {
    let s = university::scenario();
    let forest = SchemaForest::new(&s.source, &TreeConfig::default()).unwrap();
    assert_eq!(
        forest.processing_order(),
        vec!["Registration", "Student", "Prof", "Dep"]
    );
}

#[test]
fn paper_distances_reproduce() {
    let s = university::scenario();
    let inst = university::fig3_instance().unwrap();
    let forest = SchemaForest::new(&s.target, &TreeConfig::default()).unwrap();
    let matcher = Matcher::new(&forest, 2, 1);
    let tt = tuple_tree(&inst, "Registration", 0, &TreeConfig::default()).unwrap();
    let ranking = matcher.rank_all(&tt, &s.sigma);
    let d: std::collections::HashMap<_, _> = ranking.iter().cloned().collect();
    assert!((d["Reg"] - 10.0 / 14.0).abs() < 1e-9);
    assert!((d["Stu"] - 10.0 / 13.0).abs() < 1e-9);
    assert!((d["Course"] - 1.0).abs() < 1e-9);
    assert_eq!(ranking[0].0, "Reg");
    let m = matcher.best_match(&tt, &s.sigma).unwrap();
    assert_eq!((m.relation.as_str(), m.distance), ("Reg", d["Reg"]));
}

#[test]
fn repository_key_matches_section_442() {
    let inst = university::fig3_instance().unwrap();
    let tt = tuple_tree(&inst, "Student", 0, &TreeConfig::default()).unwrap();
    assert_eq!(
        post_order_key(&reduce_to_relation_tree(&tt)),
        "program building dep degree building profdep supervisor sname"
    );
}

#[test]
fn full_exchange_preserves_every_entity_once() {
    let s = university::scenario();
    let inst = university::fig3_instance().unwrap();
    let (out, report) = SedexEngine::new()
        .exchange(&inst, &s.target, &s.sigma)
        .unwrap();
    let stu = out.relation("Stu").unwrap();
    assert_eq!(stu.len(), 2);
    // s1 carries its program/dep; supervisor has no correspondence.
    let s1 = stu.lookup_pk(&[Value::text("s1")]).unwrap();
    assert_eq!(s1.values()[1], Value::text("p1"));
    assert_eq!(s1.values()[2], Value::text("d1"));
    assert_eq!(out.relation("Reg").unwrap().len(), 2);
    assert_eq!(report.violations, 0);
    // Students flowed through Registration and were not re-processed.
    assert!(report.tuples_skipped_seen >= 2);
}

#[test]
fn exchange_is_deterministic() {
    let s = university::scenario();
    let inst = university::fig3_instance().unwrap();
    let engine = SedexEngine::new();
    let (o1, _) = engine.exchange(&inst, &s.target, &s.sigma).unwrap();
    let (o2, _) = engine.exchange(&inst, &s.target, &s.sigma).unwrap();
    for (name, rel) in o1.relations() {
        let r2 = o2.relation(name).unwrap();
        assert_eq!(rel.rows(), r2.rows(), "relation {name}");
    }
}

#[test]
fn null_supervisor_never_reaches_target_as_value() {
    // t2's supervisor is null; the engine must not materialize a Prof-like
    // entity for it anywhere.
    let s = university::scenario();
    let inst = university::fig3_instance().unwrap();
    let (out, _) = SedexEngine::new()
        .exchange(&inst, &s.target, &s.sigma)
        .unwrap();
    let stu = out.relation("Stu").unwrap();
    let s2 = stu.lookup_pk(&[Value::text("s2")]).unwrap();
    // supervisor column: no correspondence → null in target.
    assert!(s2.values()[3].is_null());
}
