//! Criterion microbenches for the exchange kernels: Match, translate,
//! script generation, script execution, chase, egd application and the
//! keyed storage insert that enforces egds in place.

use sedex_bench::harness::{black_box, criterion_group, criterion_main, Criterion};
use sedex_core::scriptgen::generate_script;
use sedex_core::translate::{slot_values, translate};
use sedex_core::{run_script, Matcher};
use sedex_mapping::chase::{chase, NullFactory};
use sedex_mapping::egd::apply_egds;
use sedex_mapping::{generate_tgds, Egd};
use sedex_scenarios::university;
use sedex_storage::{ConflictPolicy, Instance, RelationInstance, RelationSchema, Tuple, Value};
use sedex_treerep::{tuple_tree, SchemaForest, TreeConfig};

fn bench_match(c: &mut Criterion) {
    let s = university::scenario();
    let inst = university::fig3_instance().unwrap();
    let cfg = TreeConfig::default();
    let forest = SchemaForest::new(&s.target, &cfg).unwrap();
    let matcher = Matcher::new(&forest, 2, 1);
    let tt = tuple_tree(&inst, "Registration", 0, &cfg).unwrap();
    c.bench_function("match_registration_tuple", |b| {
        b.iter(|| matcher.best_match(black_box(&tt), &s.sigma).unwrap())
    });
}

fn bench_translate_and_script(c: &mut Criterion) {
    let s = university::scenario();
    let inst = university::fig3_instance().unwrap();
    let cfg = TreeConfig::default();
    let tt = tuple_tree(&inst, "Registration", 0, &cfg).unwrap();
    let tr = sedex_treerep::relation_tree(&s.target, "Reg", &cfg).unwrap();
    c.bench_function("translate_alg1", |b| {
        b.iter(|| translate(black_box(&tt), &tr, &s.sigma))
    });
    let ty = translate(&tt, &tr, &s.sigma);
    c.bench_function("generate_script_alg2", |b| {
        b.iter(|| generate_script(black_box(&ty), &s.target))
    });
    let script = generate_script(&ty, &s.target);
    let values = slot_values(&tt);
    c.bench_function("run_script", |b| {
        b.iter(|| {
            let mut out = Instance::new(s.target.clone());
            run_script(black_box(&script), &values, &mut out, &mut 0).unwrap()
        })
    });
}

fn bench_chase_and_egds(c: &mut Criterion) {
    let s = university::scenario();
    let inst = university::fig3_instance().unwrap();
    let tgds = generate_tgds(&s.source, &s.target, &s.sigma);
    c.bench_function("chase_university", |b| {
        b.iter(|| {
            let mut target = Instance::new(s.target.clone());
            let mut nulls = NullFactory::new();
            chase(black_box(&inst), &mut target, &tgds, &mut nulls).unwrap();
            target
        })
    });
    let mut target = Instance::new(s.target.clone());
    let mut nulls = NullFactory::new();
    chase(&inst, &mut target, &tgds, &mut nulls).unwrap();
    let egds = Egd::key_egds(&s.target);
    c.bench_function("apply_egds_university", |b| {
        b.iter(|| {
            let mut t = target.clone();
            apply_egds(black_box(&mut t), &egds)
        })
    });
}

/// One merging insert into a keyed relation of 1k and of 10k rows: the
/// per-merge cost should not grow with the relation. Each insert carries a
/// labeled null smaller than any stored one, so unification keeps the new
/// label and every iteration really replaces the row.
fn bench_insert_merge_keyed(c: &mut Criterion) {
    let mut g = c.benchmark_group("insert_merge_keyed");
    for n in [1_000i64, 10_000] {
        let mut rel = RelationInstance::new(
            RelationSchema::with_any_columns("R", &["k", "a", "b"])
                .primary_key(&["k"])
                .unwrap(),
        );
        for k in 0..n {
            let t = Tuple::new(vec![
                Value::int(k),
                Value::Labeled(u64::MAX),
                Value::text("v"),
            ]);
            rel.insert(t, ConflictPolicy::Merge).unwrap();
        }
        let mut label = u64::MAX;
        g.bench_function(format!("rows_{n}"), |b| {
            b.iter(|| {
                label -= 1;
                let k = (label % n as u64) as i64;
                let t = Tuple::new(vec![Value::int(k), Value::Labeled(label), Value::Null]);
                rel.insert(black_box(t), ConflictPolicy::Merge).unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_match,
    bench_translate_and_script,
    bench_chase_and_egds,
    bench_insert_merge_keyed
);
criterion_main!(benches);
