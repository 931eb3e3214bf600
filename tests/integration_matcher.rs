//! Differential oracle for `Match` (§4.3): the interned `Matcher`'s full
//! ranking must be exactly what the String-profile algorithm it replaced
//! returns — the same order and the same distance bits — and its winner,
//! which scores only the targets sharing a label with the query, must be
//! the ranking's first entry, for every tuple-tree shape of the
//! evaluation's scenarios, under plain and windowed pq-grams with several
//! `(p, q)`.

use std::collections::HashSet;

use sedex::core::Matcher;
use sedex::mapping::Correspondences;
use sedex::scenarios::ibench::{stb, IbenchConfig};
use sedex::scenarios::{ambiguity, stbench, university, GenRule, Scenario};
use sedex::storage::Instance;
use sedex::treerep::{tuple_shape_key, tuple_tree, SchemaForest, TreeConfig, TupleTree};

/// The matcher as it was first written: per candidate, translate the tuple
/// tree through Σ into a fresh String tree, build its String pq-gram
/// profile with `sedex_pqgram` and compare bags.
mod reference {
    use std::collections::HashSet;

    use sedex::mapping::Correspondences;
    use sedex::pqgram::{normalized_distance, PqGramProfile, PqLabel, Tree, WindowedProfile};
    use sedex::treerep::{RelationTree, SchemaForest, TupleTree};

    enum Profile {
        Plain(PqGramProfile<String>),
        Windowed(WindowedProfile<String>),
    }

    struct Entry {
        relation: String,
        profile: Profile,
        span: Vec<String>,
        labels: HashSet<String>,
    }

    pub struct Matcher {
        p: usize,
        q: usize,
        window: Option<usize>,
        entries: Vec<Entry>,
    }

    impl Matcher {
        pub fn new(forest: &SchemaForest, p: usize, q: usize, window: Option<usize>) -> Self {
            let entries = forest
                .trees()
                .iter()
                .map(|rt| Entry {
                    relation: rt.relation.clone(),
                    profile: match window {
                        None => Profile::Plain(PqGramProfile::from_pq_tree(&rt.tree, p, q)),
                        Some(w) => {
                            Profile::Windowed(WindowedProfile::from_pq_tree(&rt.tree, p, q, w))
                        }
                    },
                    span: span_of(rt),
                    labels: rt
                        .tree
                        .labels()
                        .filter_map(|(_, l)| match l {
                            PqLabel::Label(s) => Some(s.clone()),
                            PqLabel::Dummy => None,
                        })
                        .collect(),
                })
                .collect();
            Matcher {
                p,
                q,
                window,
                entries,
            }
        }

        pub fn rank_all(&self, tt: &TupleTree, sigma: &Correspondences) -> Vec<(String, f64)> {
            let mut scored: Vec<(String, f64, usize)> = Vec::new();
            for e in &self.entries {
                let translated = translate_labels(tt, sigma, &e.span, &e.labels);
                let d = match &e.profile {
                    Profile::Plain(target) => normalized_distance(
                        &PqGramProfile::from_pq_tree(&translated, self.p, self.q),
                        target,
                    ),
                    Profile::Windowed(target) => WindowedProfile::from_pq_tree(
                        &translated,
                        self.p,
                        self.q,
                        self.window.unwrap(),
                    )
                    .distance(target),
                };
                let coverage = translated
                    .labels()
                    .filter(|(_, l)| match l {
                        PqLabel::Label(s) => e.labels.contains(s),
                        PqLabel::Dummy => false,
                    })
                    .count();
                scored.push((e.relation.clone(), d, coverage));
            }
            scored.sort_by(|a, b| {
                a.1.total_cmp(&b.1)
                    .then_with(|| b.2.cmp(&a.2))
                    .then_with(|| a.0.cmp(&b.0))
            });
            scored.into_iter().map(|(r, d, _)| (r, d)).collect()
        }
    }

    fn span_of(rt: &RelationTree) -> Vec<String> {
        let mut span = vec![rt.relation.clone()];
        for m in &rt.meta {
            if let Some(owner) = &m.owner {
                if !span.contains(owner) {
                    span.push(owner.clone());
                }
            }
            for (rel, _) in &m.expands_to {
                if !span.contains(rel) {
                    span.push(rel.clone());
                }
            }
        }
        span
    }

    fn translate_labels(
        tt: &TupleTree,
        sigma: &Correspondences,
        target_span: &[String],
        target_labels: &HashSet<String>,
    ) -> Tree<PqLabel<String>> {
        tt.tree.map_labels(|l| match l {
            PqLabel::Dummy => PqLabel::Dummy,
            PqLabel::Label(n) => {
                for rel in target_span {
                    if let Some(t) =
                        sigma.target_in_relation(Some(n.relation), n.prop, rel, |_| false)
                    {
                        return PqLabel::Label(t.to_owned());
                    }
                }
                let mut fallback: Option<&str> = None;
                for c in sigma.matches(Some(n.relation), n.prop) {
                    if c.target.relation.is_none() {
                        if target_labels.contains(&c.target.column) {
                            return PqLabel::Label(c.target.column.clone());
                        }
                        if fallback.is_none() {
                            fallback = Some(&c.target.column);
                        }
                    }
                }
                match fallback.or_else(|| sigma.target_label(Some(n.relation), n.prop)) {
                    Some(t) => PqLabel::Label(t.to_owned()),
                    None => PqLabel::Label(format!("\u{1}src:{}", n.prop)),
                }
            }
        })
    }
}

/// `(p, q, window)`: plain (2,1), (2,2), (3,1), (3,2); windowed
/// (q, w) = (1, 2) and (2, 3).
const PARAMS: [(usize, usize, Option<usize>); 6] = [
    (2, 1, None),
    (2, 2, None),
    (3, 1, None),
    (3, 2, None),
    (2, 1, Some(2)),
    (2, 2, Some(3)),
];

/// One tuple tree per distinct shape over every row of the instances.
fn distinct_shapes(instances: &[Instance]) -> Vec<TupleTree<'_>> {
    let cfg = TreeConfig::default();
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for inst in instances {
        for rel in inst.schema().relations() {
            let rows = inst.relation(&rel.name).map_or(0, |r| r.len());
            for row in 0..rows {
                let tt = tuple_tree(inst, &rel.name, row as _, &cfg).unwrap();
                if seen.insert(tuple_shape_key(&tt)) {
                    out.push(tt);
                }
            }
        }
    }
    out
}

/// A ranking with its distances as bits, so that equality is exact.
fn bits(ranking: &[(String, f64)]) -> Vec<(&str, u64)> {
    ranking
        .iter()
        .map(|(r, d)| (r.as_str(), d.to_bits()))
        .collect()
}

/// Assert, on every tree under every parameter set, that the interned and
/// the reference matcher rank alike and that `best_match` picks the first
/// of that ranking.
fn assert_agree(
    what: &str,
    target: &sedex::storage::Schema,
    sigma: &Correspondences,
    trees: &[TupleTree],
) {
    assert!(!trees.is_empty(), "{what}: no tuple trees");
    let forest = SchemaForest::new(target, &TreeConfig::default()).unwrap();
    for (p, q, window) in PARAMS {
        let interned = match window {
            None => Matcher::new(&forest, p, q),
            Some(w) => Matcher::windowed(&forest, p, q, w),
        };
        let oracle = reference::Matcher::new(&forest, p, q, window);
        for tt in trees {
            let ranked = interned.rank_all(tt, sigma);
            let want = oracle.rank_all(tt, sigma);
            let winner = interned.best_match(tt, sigma);
            let first = ranked.first().map(|(r, d)| (r.as_str(), d.to_bits()));
            let won = winner
                .as_ref()
                .map(|m| (m.relation.as_str(), m.distance.to_bits()));
            assert!(
                bits(&ranked) == bits(&want) && won == first,
                "{what} (p={p}, q={q}, window={window:?}), tuple tree of {}:\n{}\n\
                 best_match: {winner:?}\nrank_all: {ranked:?}\nreference: {want:?}",
                tt.relation,
                tt.tree.render(),
            );
        }
    }
}

/// One source instance of `sc` per seed. Tuple trees borrow their
/// instance, so callers keep these alive while they use the trees.
fn populate(sc: &Scenario, tuples: usize, seeds: &[u64]) -> Vec<Instance> {
    seeds
        .iter()
        .map(|&seed| sc.populate(tuples, seed).unwrap())
        .collect()
}

/// STB with every nullable non-key source column null half the time, so
/// one relation yields many tuple-tree shapes.
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

#[test]
fn stb_with_nulls_agrees() {
    let sc = stb_with_nulls();
    let instances = populate(&sc, 1, &[3, 11, 29]);
    let trees = distinct_shapes(&instances);
    assert_agree("STB, 50% nulls", &sc.target, &sc.sigma, &trees);
}

/// STB plus relation-qualified correspondences, a source column mapped to
/// two target columns and targets outside the target vocabulary, so that
/// node translations depend on the candidate. Every fourth correspondence
/// is bent to a column no target has whose name sorts inside the target
/// vocabulary, so at `q ≥ 2` where such a label sits among its siblings
/// decides which real labels are adjacent.
#[test]
fn stb_with_candidate_dependent_labels_agrees() {
    let mut sc = stb_with_nulls();
    let mut sigma = Correspondences::new();
    for (i, c) in sc.sigma.iter().enumerate() {
        let mut c = c.clone();
        if i % 4 == 0 {
            c.target.column.push_str("_shadow");
        }
        sigma.add(c);
    }
    sc.sigma = sigma;
    let sources = sc.source.relations().to_vec();
    let targets = sc.target.relations().to_vec();
    for (i, src) in sources.iter().enumerate().step_by(5) {
        let col = &src.columns[1 % src.columns.len()].name;
        let tgt = &targets[(3 * i + 1) % targets.len()];
        let tcol = &tgt.columns[tgt.columns.len() - 1].name;
        match i % 3 {
            0 => sc.sigma.add_qualified(&src.name, col, &tgt.name, tcol),
            1 => sc.sigma.add_names(col.clone(), tcol.clone()),
            _ => sc
                .sigma
                .add_qualified(&src.name, col, &tgt.name, format!("{tcol}_shadow")),
        }
    }
    sc.sigma
        .add_names(sources[2].columns[0].name.clone(), "aa_nowhere");
    sc.sigma
        .add_names(sources[2].columns[0].name.clone(), "mm_nowhere");
    let instances = populate(&sc, 1, &[5, 17]);
    let trees = distinct_shapes(&instances);
    assert_agree("STB, dependent labels", &sc.target, &sc.sigma, &trees);
}

#[test]
fn amb_agrees() {
    let sc = ambiguity::amb(&IbenchConfig::default(), 4);
    let instances = populate(&sc, 1, &[7]);
    let trees = distinct_shapes(&instances);
    assert_agree("AMB", &sc.target, &sc.sigma, &trees);
}

#[test]
fn university_fig3_agrees() {
    let sc = university::scenario();
    let instances = [university::fig3_instance().unwrap()];
    let trees = distinct_shapes(&instances);
    assert_agree("university Fig 3", &sc.target, &sc.sigma, &trees);
}

#[test]
fn stbenchmark_basic_scenarios_agree() {
    for kind in stbench::BasicKind::all() {
        let sc = stbench::basic(kind);
        let instances = populate(&sc, 3, &[1, 2]);
        let trees = distinct_shapes(&instances);
        assert_agree(kind.name(), &sc.target, &sc.sigma, &trees);
    }
}
