//! Criterion microbenches for tree construction: relation trees, tuple
//! trees, reduction and shape keys, and the tree-free shape walk that
//! replaced the tuple tree on a repository hit — the per-tuple cost of the
//! engine.

use sedex_bench::harness::{black_box, criterion_group, criterion_main, Criterion};
use sedex_core::translate::slot_values;
use sedex_scenarios::compose::abcd_scenarios;
use sedex_scenarios::university;
use sedex_treerep::{
    post_order_key, reduce_to_relation_tree, relation_tree, repository_key, tuple_tree,
    SchemaForest, ShapeCatalog, Shapes, TreeConfig,
};

fn bench_relation_tree(c: &mut Criterion) {
    let s = university::scenario();
    let cfg = TreeConfig::default();
    c.bench_function("relation_tree_registration", |b| {
        b.iter(|| relation_tree(black_box(&s.source), "Registration", &cfg).unwrap())
    });
    c.bench_function("schema_forest_university", |b| {
        b.iter(|| SchemaForest::new(black_box(&s.source), &cfg).unwrap())
    });
}

fn bench_tuple_tree(c: &mut Criterion) {
    let inst = university::fig3_instance().unwrap();
    let cfg = TreeConfig::default();
    c.bench_function("tuple_tree_student_deep", |b| {
        b.iter(|| tuple_tree(black_box(&inst), "Student", 0, &cfg).unwrap())
    });
    c.bench_function("tuple_tree_registration_deeper", |b| {
        b.iter(|| tuple_tree(black_box(&inst), "Registration", 0, &cfg).unwrap())
    });
}

fn bench_reduce_and_key(c: &mut Criterion) {
    let inst = university::fig3_instance().unwrap();
    let cfg = TreeConfig::default();
    let tt = tuple_tree(&inst, "Student", 0, &cfg).unwrap();
    c.bench_function("reduce_to_relation_tree", |b| {
        b.iter(|| reduce_to_relation_tree(black_box(&tt)))
    });
    let rt = reduce_to_relation_tree(&tt);
    c.bench_function("post_order_key", |b| {
        b.iter(|| post_order_key(black_box(&rt)))
    });
}

/// What a script-repository hit paid before the script ran, with a tree
/// (tuple-tree build, repository key, slot values, dropping the tree), and
/// what it pays now (a shape walk into reused buffers). One iteration
/// walks 1 001 rows of Fig 12 scenario `d` (143 per relation), relations
/// in the engine's processing order.
fn bench_hit_path(c: &mut Criterion) {
    let sc = abcd_scenarios().swap_remove(3);
    let inst = sc.populate(143, 3).unwrap();
    let cfg = TreeConfig::default();
    let forest = SchemaForest::new(inst.schema(), &cfg).unwrap();
    let rows: Vec<(&str, u32)> = forest
        .processing_order()
        .into_iter()
        .flat_map(|rel| (0..inst.relation(rel).unwrap().len() as u32).map(move |r| (rel, r)))
        .collect();
    c.bench_function("tuple_tree_hit_path_d", |b| {
        b.iter(|| {
            for &(rel, row) in &rows {
                let tt = tuple_tree(black_box(&inst), rel, row, &cfg).unwrap();
                black_box((repository_key(&tt), slot_values(&tt)));
            }
        })
    });
    let catalog = ShapeCatalog::new(inst.schema());
    let rows: Vec<(usize, u32)> = rows
        .iter()
        .map(|&(rel, row)| (inst.schema().relation_index(rel).unwrap(), row))
        .collect();
    let mut shapes = Shapes::default();
    c.bench_function("shape_walk_hit_path_d", |b| {
        b.iter(|| {
            shapes.clear();
            for &(rel, row) in &rows {
                catalog
                    .walk(black_box(&inst), rel, row, &cfg, &mut shapes)
                    .unwrap();
            }
            black_box(shapes.len())
        })
    });
}

criterion_group!(
    benches,
    bench_relation_tree,
    bench_tuple_tree,
    bench_reduce_and_key,
    bench_hit_path
);
criterion_main!(benches);
