//! Criterion microbenches for the exchange kernels: Match (on the 3-tree
//! university forest and on the 70-tree STB forest, where the full ranking
//! is timed too), the matcher build, translate, script generation, script
//! execution (one script, and the replay of STB's 70 cached scripts into a
//! keyed target), chase, egd
//! application, the keyed storage insert that enforces egds in place, and
//! the two costs a served `PUSH` pays on top of the engine: snapshot
//! publish and reply.

use std::collections::{HashMap, HashSet};

use sedex_bench::harness::{black_box, criterion_group, criterion_main, Criterion};
use sedex_core::marking::SeenSet;
use sedex_core::scriptgen::generate_script;
use sedex_core::translate::{slot_values, translate};
use sedex_core::{run_script, Matcher, Script, SedexConfig, SedexEngine, SedexSession};
use sedex_mapping::chase::{chase, NullFactory};
use sedex_mapping::egd::apply_egds;
use sedex_mapping::{generate_tgds, Egd};
use sedex_scenarios::ibench::{stb, IbenchConfig};
use sedex_scenarios::{textfmt, university, GenRule, Scenario};
use sedex_service::server::push_summary;
use sedex_storage::{ConflictPolicy, Instance, RelationInstance, RelationSchema, Tuple, Value};
use sedex_treerep::{repository_key, tuple_shape_key, tuple_tree, SchemaForest, TreeConfig};

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

/// iBench STB with every nullable non-key source column null half the
/// time: 70 target trees, and one relation yields many tuple-tree shapes.
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

/// The miss path's `Match` against the 70-tree STB forest, one call per
/// iteration, cycling through the distinct tuple-tree shapes of one data
/// set of 3 tuples per relation; the same shapes ranked against every
/// tree (`rank_all`, the exhaustive scan `Match` avoids); and the matcher
/// build over that forest.
fn bench_match_stb(c: &mut Criterion) {
    let sc = stb_with_nulls();
    let cfg = TreeConfig::default();
    let forest = SchemaForest::new(&sc.target, &cfg).unwrap();
    let inst = sc.populate(3, 3).unwrap();
    let mut seen = HashSet::new();
    let mut shapes = Vec::new();
    for rel in sc.source.relations() {
        for row in 0..inst.relation(&rel.name).map_or(0, |r| r.len()) {
            let tt = tuple_tree(&inst, &rel.name, row as _, &cfg).unwrap();
            if seen.insert(tuple_shape_key(&tt)) {
                shapes.push(tt);
            }
        }
    }
    let matcher = Matcher::new(&forest, 2, 1);
    let mut next = 0;
    c.bench_function("match_miss_stb", |b| {
        b.iter(|| {
            next = (next + 1) % shapes.len();
            matcher
                .best_match(black_box(&shapes[next]), &sc.sigma)
                .unwrap()
        })
    });
    c.bench_function("rank_all_stb", |b| {
        b.iter(|| {
            next = (next + 1) % shapes.len();
            matcher.rank_all(black_box(&shapes[next]), &sc.sigma)
        })
    });
    c.bench_function("matcher_build_stb", |b| {
        b.iter(|| Matcher::new(black_box(&forest), 2, 1))
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

/// Script replay alone, on the input of the `exchange_merge` workload:
/// iBench STB with every target relation keyed, 1 000 tuples per source
/// relation (seed 3). An exchange generates the 70 scripts once; each
/// iteration then replays them for every tuple the engine runs a script
/// for, in the engine's order (relations by tree height, seen tuples
/// skipped), into a fresh target — ~10 000 of the inserts are egd merges.
/// Tree building and repository lookups are done before timing.
fn bench_script_run_stb_merge(c: &mut Criterion) {
    let sc = stb(&IbenchConfig {
        pk_fraction: 1.0,
        ..IbenchConfig::default()
    });
    let source = sc.populate(1_000, 3).unwrap();
    let (_, _, export) = SedexEngine::new()
        .exchange_with_repository(&source, &sc.target, &sc.sigma)
        .unwrap();
    let scripts: HashMap<String, Script> = export.entries.into_iter().collect();
    let cfg = TreeConfig::default();
    let forest = SchemaForest::new(source.schema(), &cfg).unwrap();
    let mut seen = SeenSet::for_instance(&source);
    let mut runs: Vec<(&Script, Vec<&Value>)> = Vec::new();
    for rel in forest.processing_order() {
        for row in 0..source.relation(rel).unwrap().len() as u32 {
            if seen.is_seen(rel, row) {
                continue;
            }
            let tt = tuple_tree(&source, rel, row, &cfg).unwrap();
            seen.mark_all(&tt.visited);
            let script = &scripts[&repository_key(&tt)];
            if !script.is_empty() {
                runs.push((script, slot_values(&tt)));
            }
        }
    }
    let mut g = c.benchmark_group("script_run_stb_merge");
    g.sample_size(500);
    g.bench_function(format!("runs_{}", runs.len()), |b| {
        b.iter(|| {
            let mut out = Instance::new(sc.target.clone());
            let mut fresh = 0;
            for (script, values) in &runs {
                run_script(black_box(script), values, &mut out, &mut fresh).unwrap();
            }
            out
        })
    });
    g.finish();
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

/// A streaming ingest session like the service benchmark's: 100 `Dep`
/// rows fed (a 100-row source tail), then 10 112 students exchanged — 39
/// sealed chunks plus a half-full 128-row tail in `Student` and in the
/// target `Stu`.
fn ingest_session() -> SedexSession {
    let file = textfmt::parse_scenario(
        "[source]\nDep(dname*, building)\nStudent(sname*, program, dep->Dep)\n\
         [target]\nStu(student*, prog, dpt)\n\
         [correspondences]\nsname <-> student\nprogram <-> prog\ndep <-> dpt\n",
    )
    .unwrap();
    let s = file.scenario;
    let mut session =
        SedexSession::new(SedexConfig::default(), s.source, s.target, s.sigma).unwrap();
    for i in 0..100 {
        let t = Tuple::of([format!("d{i}"), format!("b{}", i % 7)]);
        session.feed("Dep", t).unwrap();
    }
    for j in 0..39 * 256 + 128 {
        let t = Tuple::of([
            format!("s{j}"),
            format!("p{}", j % 40),
            format!("d{}", j % 100),
        ]);
        session.exchange_tuple("Student", t).unwrap();
    }
    session
}

/// What every served `PUSH` pays after the exchange, at ~10 000 target
/// tuples: the snapshot the service publishes at the request boundary,
/// and the reply's counters line.
fn bench_session_publish(c: &mut Criterion) {
    let session = ingest_session();
    c.bench_function("session_publish_10k", |b| {
        b.iter(|| black_box(&session).read_snapshot())
    });
    c.bench_function("push_reply", |b| {
        b.iter(|| push_summary(black_box(&session)))
    });
}

criterion_group!(
    benches,
    bench_match,
    bench_match_stb,
    bench_translate_and_script,
    bench_script_run_stb_merge,
    bench_chase_and_egds,
    bench_insert_merge_keyed,
    bench_session_publish
);
criterion_main!(benches);
