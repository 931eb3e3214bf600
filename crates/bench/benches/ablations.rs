//! Ablation benches for the design choices DESIGN.md calls out: script
//! reuse, processing order, null pruning and pq-gram parameters.

use sedex_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sedex_core::{SedexConfig, SedexEngine};
use sedex_pqgram::{normalized_distance, tree_edit_distance, PqGramProfile, Tree};
use sedex_scenarios::stbench::{basic, BasicKind};

fn bench_reuse_ablation(c: &mut Criterion) {
    let s = basic(BasicKind::De);
    let inst = s.populate(500, 4).unwrap();
    let mut g = c.benchmark_group("ablation_reuse_de_500");
    g.sample_size(15);
    g.bench_function("reuse_on", |b| {
        b.iter(|| {
            SedexEngine::new()
                .exchange(&inst, &s.target, &s.sigma)
                .unwrap()
        })
    });
    let no_reuse = SedexEngine::with_config(SedexConfig {
        reuse_scripts: false,
        ..SedexConfig::default()
    });
    g.bench_function("reuse_off", |b| {
        b.iter(|| no_reuse.exchange(&inst, &s.target, &s.sigma).unwrap())
    });
    g.finish();
}

fn bench_order_ablation(c: &mut Criterion) {
    let s = basic(BasicKind::De);
    let inst = s.populate(500, 5).unwrap();
    let mut g = c.benchmark_group("ablation_order_de_500");
    g.sample_size(15);
    g.bench_function("height_order", |b| {
        b.iter(|| {
            SedexEngine::new()
                .exchange(&inst, &s.target, &s.sigma)
                .unwrap()
        })
    });
    let unordered = SedexEngine::with_config(SedexConfig {
        order_by_height: false,
        ..SedexConfig::default()
    });
    g.bench_function("schema_order", |b| {
        b.iter(|| unordered.exchange(&inst, &s.target, &s.sigma).unwrap())
    });
    g.finish();
}

fn bench_pq_parameters(c: &mut Criterion) {
    let s = basic(BasicKind::Vp);
    let inst = s.populate(500, 6).unwrap();
    let mut g = c.benchmark_group("ablation_pq_params_vp_500");
    g.sample_size(15);
    for (p, q) in [(2usize, 1usize), (3, 1), (2, 2)] {
        let engine = SedexEngine::with_config(SedexConfig {
            p,
            q,
            ..SedexConfig::default()
        });
        g.bench_function(format!("p{p}q{q}"), |b| {
            b.iter(|| engine.exchange(&inst, &s.target, &s.sigma).unwrap())
        });
    }
    g.finish();
}

/// The paper's justification for pq-grams over tree edit distance:
/// linear-time profiles vs the polynomial Zhang–Shasha DP. Both measured on
/// growing trees.
fn bench_pqgram_vs_ted(c: &mut Criterion) {
    fn tree(n: usize) -> Tree<String> {
        let labels = ["a", "b", "c", "d", "e"];
        let mut t = Tree::new("root".to_string());
        let mut frontier = vec![t.root()];
        let mut count = 1;
        'outer: loop {
            let mut next = Vec::new();
            for &p in &frontier {
                for k in 0..3 {
                    if count >= n {
                        break 'outer;
                    }
                    next.push(t.add_child(p, labels[(count + k) % labels.len()].to_string()));
                    count += 1;
                }
            }
            frontier = next;
        }
        t
    }
    let mut g = c.benchmark_group("pqgram_vs_ted");
    g.sample_size(15);
    for n in [32usize, 128, 512] {
        let t1 = tree(n);
        let mut t2 = tree(n);
        t2.add_child(t2.root(), "mutant".to_string());
        g.bench_with_input(BenchmarkId::new("pqgram_end_to_end", n), &n, |b, _| {
            b.iter(|| {
                let p1 = PqGramProfile::new(&t1, 2, 1);
                let p2 = PqGramProfile::new(&t2, 2, 1);
                normalized_distance(&p1, &p2)
            })
        });
        g.bench_with_input(BenchmarkId::new("tree_edit_distance", n), &n, |b, _| {
            b.iter(|| tree_edit_distance(&t1, &t2))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_reuse_ablation,
    bench_order_ablation,
    bench_pq_parameters,
    bench_pqgram_vs_ted
);
criterion_main!(benches);
