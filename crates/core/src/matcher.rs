//! The `Match` function (Section 4.3).
//!
//! ```text
//! Match(Tt, F(S), Σ) = argmin_{Ti ∈ F(S)} Dist(RT(Tt), Ti)
//! ```
//!
//! Given a source tuple tree, the forest of target relation trees, and the
//! property correspondences Σ, `Match` finds the target relation tree with
//! the minimum normalized pq-gram distance to the tuple tree's schema-level
//! reduction. Source labels are mapped into the target vocabulary through Σ
//! first (the paper's first modification of the base algorithm); properties
//! without a correspondence keep an unmatchable source-only label. Null
//! properties were already dropped at tuple-tree construction (the second
//! modification), and multi-valued attributes contributed separate edges
//! (the third).

use std::cmp::Ordering;

use sedex_mapping::Correspondences;
use sedex_pqgram::windowed::subsets;
use sedex_pqgram::{distance_from_sizes, PqLabel, Tree};
use sedex_treerep::{RelationTree, SchemaForest, TupleNode, TupleTree};

/// Outcome of a `Match` call: the winning relation and the full ranking.
#[derive(Debug, Clone)]
pub struct MatchResult {
    /// Name of the winning target relation.
    pub relation: String,
    /// Distance to the winner.
    pub distance: f64,
    /// All `(relation, distance)` pairs, ascending by distance.
    pub ranking: Vec<(String, f64)>,
}

/// Label id of the dummy `*` node; real labels have ids ≥ 1.
const DUMMY: u32 = 0;

/// A matcher for one target schema, over interned labels.
///
/// Every label of the target forest is a *vocabulary* label: `vocab[i]`
/// has id `2i + 2`. A translated label outside the vocabulary that sorts
/// between `vocab[k − 1]` and `vocab[k]` has the odd id `2k + 1`. So id
/// order is label order — sorting siblings by id sorts them by label, as
/// the pq-gram construction requires for `q ≥ 2` — and an odd id occurs in
/// no target gram. Each target tree is kept as its sorted gram keys (`p + q`
/// ids per gram), its sorted label-id set and the relations it spans
/// (needed to resolve relation-qualified correspondences).
///
/// [`Matcher::new`] builds plain pq-grams over sorted trees;
/// [`Matcher::windowed`] builds windowed pq-grams, which are
/// order-invariant for `q > 1` too. With `q = 1` (the paper's setting in
/// every worked example) the two coincide.
pub struct Matcher {
    p: usize,
    q: usize,
    window: Option<usize>,
    /// Every label occurring in a target tree, sorted and deduplicated.
    vocab: Vec<String>,
    /// The target trees, sorted by relation name (the ranking's last
    /// tie-breaker).
    targets: Vec<Target>,
}

struct Target {
    relation: String,
    /// Relations whose columns appear in this tree (the root relation plus
    /// every FK-expanded relation).
    span: Vec<String>,
    /// Sorted gram keys, `p + q` label ids per gram.
    grams: Vec<u32>,
    /// Sorted ids of the labels occurring in this tree — used to pick,
    /// among several unqualified correspondences for one source property,
    /// the one that can actually land in this tree (e.g. a source key
    /// mapped to the keys of both halves of a vertical partition).
    labels: Vec<u32>,
}

/// How one tuple-tree node translates into the target vocabulary.
enum NodeLabel<'a> {
    /// The same id for every candidate target tree.
    Fixed(u32),
    /// An id that depends on the candidate (see [`NodeLabel::for_target`]).
    PerCandidate {
        /// `(target relation, id)` of each relation-qualified target.
        qualified: Vec<(&'a str, u32)>,
        /// Ids of the unqualified targets, in Σ order.
        unqualified: Vec<u32>,
        /// The id when neither kind applies.
        otherwise: u32,
    },
}

impl NodeLabel<'_> {
    /// The node's id when the tuple tree is compared with `t`.
    fn for_target(&self, t: &Target) -> u32 {
        let (qualified, unqualified, otherwise) = match self {
            NodeLabel::Fixed(id) => return *id,
            NodeLabel::PerCandidate {
                qualified,
                unqualified,
                otherwise,
            } => (qualified, unqualified, *otherwise),
        };
        // 1. A correspondence qualified into one of the spanned relations
        //    wins.
        for rel in &t.span {
            if let Some(&(_, id)) = qualified.iter().find(|(r, _)| r == rel) {
                return id;
            }
        }
        // 2. Among unqualified correspondences, prefer one whose target
        //    label actually occurs in this tree.
        if let Some(&id) = unqualified
            .iter()
            .find(|id| t.labels.binary_search(id).is_ok())
        {
            return id;
        }
        // 3. The first unqualified target; else any target label, else an
        //    unmatchable marker.
        unqualified.first().copied().unwrap_or(otherwise)
    }
}

impl Matcher {
    /// Build a matcher over the target schema forest with pq-gram
    /// parameters `(p, q)` (the paper's examples use `(2, 1)`).
    pub fn new(target_forest: &SchemaForest, p: usize, q: usize) -> Self {
        Self::build(target_forest, p, q, None)
    }

    /// Build a matcher using the *windowed* pq-gram construction with
    /// window width `w ≥ q`.
    pub fn windowed(target_forest: &SchemaForest, p: usize, q: usize, w: usize) -> Self {
        Self::build(target_forest, p, q, Some(w))
    }

    fn build(target_forest: &SchemaForest, p: usize, q: usize, window: Option<usize>) -> Self {
        assert!(p > 0 && q > 0, "pq-gram parameters must be positive");
        assert!(
            window.map_or(true, |w| w >= q),
            "window must be at least q wide"
        );
        let mut vocab: Vec<&str> = target_forest
            .trees()
            .iter()
            .flat_map(|rt| rt.tree.labels())
            .filter_map(|(_, l)| match l {
                PqLabel::Label(s) => Some(s.as_str()),
                PqLabel::Dummy => None,
            })
            .collect();
        vocab.sort_unstable();
        vocab.dedup();
        let mut m = Matcher {
            p,
            q,
            window,
            vocab: vocab.into_iter().map(str::to_owned).collect(),
            targets: Vec::with_capacity(target_forest.trees().len()),
        };
        for rt in target_forest.trees() {
            let ids: Vec<u32> = rt
                .tree
                .labels()
                .map(|(_, l)| match l {
                    PqLabel::Label(s) => m.label_id(s),
                    PqLabel::Dummy => DUMMY,
                })
                .collect();
            let mut labels: Vec<u32> = ids.iter().copied().filter(|&id| id != DUMMY).collect();
            labels.sort_unstable();
            labels.dedup();
            let target = Target {
                relation: rt.relation.clone(),
                span: span_of(rt),
                grams: m.gram_keys(&rt.tree, &ids),
                labels,
            };
            m.targets.push(target);
        }
        m.targets.sort_by(|a, b| a.relation.cmp(&b.relation));
        m
    }

    /// Run `Match` for a source tuple tree. Returns `None` when the target
    /// forest is empty.
    ///
    /// Ranking is primarily by pq-gram distance. Ties (notably the
    /// all-disjoint case where a root-label mismatch hides a genuine host)
    /// break by *label coverage* — how many of the tuple tree's properties
    /// can land in the candidate at all — and then by name for determinism.
    pub fn best_match(&self, tt: &TupleTree, sigma: &Correspondences) -> Option<MatchResult> {
        let nodes: Vec<NodeLabel> = tt
            .tree
            .labels()
            .map(|(_, l)| self.node_label(l, sigma))
            .collect();
        let per_candidate = nodes
            .iter()
            .any(|n| matches!(n, NodeLabel::PerCandidate { .. }));
        let k = self.p + self.q;
        // The query's label ids and gram keys, rebuilt only when a
        // candidate translates some node differently from the last one.
        let mut ids: Vec<u32> = Vec::new();
        let mut grams: Vec<u32> = Vec::new();
        let mut scored: Vec<(usize, f64, usize)> = Vec::with_capacity(self.targets.len());
        for (i, t) in self.targets.iter().enumerate() {
            if ids.is_empty() || per_candidate {
                let next: Vec<u32> = nodes.iter().map(|n| n.for_target(t)).collect();
                if next != ids {
                    grams = self.gram_keys(&tt.tree, &next);
                    ids = next;
                }
            }
            let inter = intersection(&grams, &t.grams, k);
            let d = distance_from_sizes(grams.len() / k, t.grams.len() / k, inter);
            let coverage = ids
                .iter()
                .filter(|id| t.labels.binary_search(id).is_ok())
                .count();
            scored.push((i, d, coverage));
        }
        // Stable: equal distance and coverage keep name order.
        scored.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.2.cmp(&a.2)));
        let ranking: Vec<(String, f64)> = scored
            .into_iter()
            .map(|(i, d, _)| (self.targets[i].relation.clone(), d))
            .collect();
        let (relation, distance) = ranking.first()?.clone();
        Some(MatchResult {
            relation,
            distance,
            ranking,
        })
    }

    /// The pq-gram parameters.
    pub fn params(&self) -> (usize, usize) {
        (self.p, self.q)
    }

    /// The id of a label string (see [`Matcher`]).
    fn label_id(&self, label: &str) -> u32 {
        match self.vocab.binary_search_by(|v| v.as_str().cmp(label)) {
            Ok(i) => 2 * i as u32 + 2,
            Err(k) => 2 * k as u32 + 1,
        }
    }

    /// Map a tuple-tree label into the target vocabulary via Σ — the
    /// schema-level reduction plus translation. A node is candidate-
    /// independent when its correspondences all have an unqualified target
    /// and name at most one label; otherwise [`NodeLabel::for_target`]
    /// resolves it per candidate. Unmatched properties get a label no
    /// target tree can contain.
    fn node_label<'a>(
        &self,
        label: &'a PqLabel<TupleNode>,
        sigma: &'a Correspondences,
    ) -> NodeLabel<'a> {
        let PqLabel::Label(n) = label else {
            return NodeLabel::Fixed(DUMMY);
        };
        let mut qualified = Vec::new();
        let mut unqualified = Vec::new();
        for c in sigma.matches(Some(&n.relation), &n.prop) {
            let id = self.label_id(&c.target.column);
            match &c.target.relation {
                Some(r) => qualified.push((r.as_str(), id)),
                None => unqualified.push(id),
            }
        }
        let otherwise = || match sigma.target_label(Some(&n.relation), &n.prop) {
            Some(t) => self.label_id(t),
            None => self.label_id(&format!("\u{1}src:{}", n.prop)),
        };
        if qualified.is_empty() && unqualified.windows(2).all(|w| w[0] == w[1]) {
            return NodeLabel::Fixed(unqualified.first().copied().unwrap_or_else(otherwise));
        }
        NodeLabel::PerCandidate {
            qualified,
            unqualified,
            otherwise: otherwise(),
        }
    }

    /// The sorted gram keys of a tree whose node `i` has label id `ids[i]`:
    /// the grams of `PqGramProfile::from_pq_tree` (or, when windowed,
    /// `WindowedProfile::from_pq_tree`), `p + q` ids each. Dummy nodes pad
    /// grams but are never anchors.
    fn gram_keys<L>(&self, tree: &Tree<L>, ids: &[u32]) -> Vec<u32> {
        let (p, q) = (self.p, self.q);
        let mut out = Vec::new();
        let mut stem = vec![DUMMY; p];
        let mut kids = Vec::new();
        let mut buf = Vec::new();
        for anchor in 0..tree.len() {
            if ids[anchor] == DUMMY {
                continue;
            }
            // p − 1 ancestors, dummy-padded above the root, then the anchor.
            let mut cur = Some(anchor);
            for slot in stem.iter_mut().rev() {
                *slot = cur.map_or(DUMMY, |n| ids[n]);
                cur = cur.and_then(|n| tree.parent(n));
            }
            let mut emit = |w: &[u32]| {
                out.extend_from_slice(&stem);
                out.extend_from_slice(w);
            };
            kids.clear();
            kids.extend(tree.children(anchor).iter().map(|&c| ids[c]));
            kids.sort_unstable();
            if kids.is_empty() {
                // A leaf gets q dummy children: one all-dummy window.
                buf.clear();
                buf.resize(q, DUMMY);
                emit(&buf);
                continue;
            }
            match self.window {
                None => {
                    // Pad with q − 1 dummies on each side, then slide.
                    buf.clear();
                    buf.resize(q - 1, DUMMY);
                    buf.extend_from_slice(&kids);
                    buf.resize(kids.len() + 2 * (q - 1), DUMMY);
                    buf.windows(q).for_each(&mut emit);
                }
                Some(w) => {
                    // Each child with a sorted (q − 1)-subset of the w − 1
                    // children circularly following it.
                    let k = kids.len();
                    for i in 0..k {
                        let follow: Vec<u32> = (1..w.min(k)).map(|j| kids[(i + j) % k]).collect();
                        for mut subset in subsets(&follow, q - 1) {
                            subset.sort_unstable();
                            buf.clear();
                            buf.push(kids[i]);
                            buf.extend_from_slice(&subset);
                            buf.resize(q, DUMMY);
                            emit(&buf);
                        }
                    }
                }
            }
        }
        let mut grams: Vec<&[u32]> = out.chunks_exact(p + q).collect();
        grams.sort_unstable();
        grams.concat()
    }
}

/// Bag-intersection size of two sorted gram-key lists, `k` ids per gram.
fn intersection(a: &[u32], b: &[u32], k: usize) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i..i + k].cmp(&b[j..j + k]) {
            Ordering::Less => i += k,
            Ordering::Greater => j += k,
            Ordering::Equal => {
                n += 1;
                i += k;
                j += k;
            }
        }
    }
    n
}

/// Relations spanned by a relation tree, via its node metadata.
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

#[cfg(test)]
mod tests {
    use super::*;
    use sedex_storage::{ConflictPolicy, Instance, RelationSchema, Schema, Value};
    use sedex_treerep::{tuple_tree, TreeConfig};

    /// Source side of Figs. 2–3.
    fn source_instance() -> Instance {
        let student =
            RelationSchema::with_any_columns("Student", &["sname", "program", "dep", "supervisor"])
                .primary_key(&["sname"])
                .unwrap()
                .foreign_key(&["dep"], "Dep")
                .unwrap()
                .foreign_key(&["supervisor"], "Prof")
                .unwrap();
        let prof = RelationSchema::with_any_columns("Prof", &["pname", "degree", "profdep"])
            .primary_key(&["pname"])
            .unwrap()
            .foreign_key(&["profdep"], "Dep")
            .unwrap();
        let dep = RelationSchema::with_any_columns("Dep", &["dname", "building"])
            .primary_key(&["dname"])
            .unwrap();
        let reg = RelationSchema::with_any_columns("Registration", &["sname", "course", "regdate"])
            .foreign_key(&["sname"], "Student")
            .unwrap();
        let schema = Schema::from_relations(vec![student, prof, dep, reg]).unwrap();
        let mut inst = Instance::new(schema);
        let p = ConflictPolicy::Reject;
        inst.insert("Dep", sedex_storage::tuple!["d1", "b1"], p)
            .unwrap();
        inst.insert("Prof", sedex_storage::tuple!["prof1", "deg1", "d1"], p)
            .unwrap();
        inst.insert(
            "Student",
            sedex_storage::tuple!["s1", "p1", "d1", "prof1"],
            p,
        )
        .unwrap();
        inst.insert("Registration", sedex_storage::tuple!["s1", "c1", "dt1"], p)
            .unwrap();
        inst
    }

    /// Target side of Fig. 2: Stu, Reg (references Stu and Course), Course.
    fn target_schema() -> Schema {
        let stu =
            RelationSchema::with_any_columns("Stu", &["student", "prog", "dpt", "supervisor"])
                .primary_key(&["student"])
                .unwrap();
        let course = RelationSchema::with_any_columns("Course", &["cname", "credit"])
            .primary_key(&["cname"])
            .unwrap();
        let reg = RelationSchema::with_any_columns("Reg", &["student", "cname", "date"])
            .foreign_key(&["student"], "Stu")
            .unwrap()
            .foreign_key(&["cname"], "Course")
            .unwrap();
        Schema::from_relations(vec![stu, course, reg]).unwrap()
    }

    /// The Σ of the worked example (no correspondence for supervisor).
    fn paper_sigma() -> Correspondences {
        Correspondences::from_name_pairs([
            ("sname", "student"),
            ("course", "cname"),
            ("regdate", "date"),
            ("program", "prog"),
            ("dep", "dpt"),
        ])
    }

    #[test]
    fn paper_distances_for_registration_tuple() {
        // Section 4.3: dist(Tt, TReg) = 0.71, dist(Tt, TStu) = 0.76,
        // dist(Tt, TCourse) = 1.0; TReg wins.
        let inst = source_instance();
        let forest = SchemaForest::new(&target_schema(), &TreeConfig::default()).unwrap();
        let matcher = Matcher::new(&forest, 2, 1);
        let tt = tuple_tree(&inst, "Registration", 0, &TreeConfig::default()).unwrap();
        let m = matcher.best_match(&tt, &paper_sigma()).unwrap();
        assert_eq!(m.relation, "Reg");
        let d: std::collections::HashMap<_, _> = m.ranking.iter().cloned().collect();
        assert!((d["Reg"] - 10.0 / 14.0).abs() < 1e-9, "Reg: {}", d["Reg"]);
        assert!((d["Stu"] - 10.0 / 13.0).abs() < 1e-9, "Stu: {}", d["Stu"]);
        assert!((d["Course"] - 1.0).abs() < 1e-9, "Course: {}", d["Course"]);
    }

    #[test]
    fn student_tuple_matches_stu() {
        let inst = source_instance();
        let forest = SchemaForest::new(&target_schema(), &TreeConfig::default()).unwrap();
        let matcher = Matcher::new(&forest, 2, 1);
        let tt = tuple_tree(&inst, "Student", 0, &TreeConfig::default()).unwrap();
        let m = matcher.best_match(&tt, &paper_sigma()).unwrap();
        assert_eq!(m.relation, "Stu");
    }

    /// The generalization-ambiguity resolution of Section 4.5: a tuple with
    /// stId lands in Grad, one with empId lands in Prof.
    #[test]
    fn ambiguity_resolution_by_null_pruning() {
        let inst_rel = RelationSchema::with_any_columns("Inst", &["name", "stId", "empId"]);
        let source = Schema::from_relations(vec![inst_rel]).unwrap();
        let mut src = Instance::new(source);
        let p = ConflictPolicy::Allow;
        src.insert("Inst", sedex_storage::tuple!["Bob", "1234", Value::Null], p)
            .unwrap();
        src.insert("Inst", sedex_storage::tuple!["Eve", Value::Null, "E77"], p)
            .unwrap();

        let grad = RelationSchema::with_any_columns("Grad", &["name", "stId", "course"]);
        let prof = RelationSchema::with_any_columns("Prof", &["name", "empId"]);
        let target = Schema::from_relations(vec![grad, prof]).unwrap();
        let forest = SchemaForest::new(&target, &TreeConfig::default()).unwrap();
        let matcher = Matcher::new(&forest, 2, 1);
        let sigma = Correspondences::from_name_pairs([
            ("name", "name"),
            ("stId", "stId"),
            ("empId", "empId"),
        ]);

        let cfg = TreeConfig::default();
        let bob = tuple_tree(&src, "Inst", 0, &cfg).unwrap();
        let eve = tuple_tree(&src, "Inst", 1, &cfg).unwrap();
        assert_eq!(matcher.best_match(&bob, &sigma).unwrap().relation, "Grad");
        assert_eq!(matcher.best_match(&eve, &sigma).unwrap().relation, "Prof");
    }

    #[test]
    fn qualified_correspondences_steer_per_target_tree() {
        // Source prop `id` maps to A.ka for relation A and B.kb for B: the
        // per-tree translation must use the right one for each candidate.
        let s = RelationSchema::with_any_columns("S", &["id", "x"]);
        let source = Schema::from_relations(vec![s]).unwrap();
        let mut src = Instance::new(source);
        src.insert("S", sedex_storage::tuple!["1", "v"], ConflictPolicy::Allow)
            .unwrap();
        let a = RelationSchema::with_any_columns("A", &["ka", "x2"]);
        let b = RelationSchema::with_any_columns("B", &["kb"]);
        let target = Schema::from_relations(vec![a, b]).unwrap();
        let forest = SchemaForest::new(&target, &TreeConfig::default()).unwrap();
        let matcher = Matcher::new(&forest, 2, 1);
        let mut sigma = Correspondences::new();
        sigma.add_qualified("S", "id", "A", "ka");
        sigma.add_qualified("S", "id", "B", "kb");
        sigma.add_names("x", "x2");
        let tt = tuple_tree(&src, "S", 0, &TreeConfig::default()).unwrap();
        let m = matcher.best_match(&tt, &sigma).unwrap();
        // A covers both id and x; B only id.
        assert_eq!(m.relation, "A");
        assert!(m.ranking.iter().any(|(r, d)| r == "B" && *d < 1.0));
    }

    /// The windowed matcher agrees with the plain one at q = 1 (where the
    /// two constructions coincide) and still finds the right hosts at q = 2.
    #[test]
    fn windowed_matcher_agrees() {
        let inst = source_instance();
        let forest = SchemaForest::new(&target_schema(), &TreeConfig::default()).unwrap();
        let plain = Matcher::new(&forest, 2, 1);
        let win = Matcher::windowed(&forest, 2, 1, 2);
        let cfg = TreeConfig::default();
        for (rel, rows) in [("Registration", 1u32), ("Student", 1)] {
            for row in 0..rows {
                let tt = tuple_tree(&inst, rel, row, &cfg).unwrap();
                let a = plain.best_match(&tt, &paper_sigma()).unwrap();
                let b = win.best_match(&tt, &paper_sigma()).unwrap();
                assert_eq!(a.relation, b.relation);
                assert!((a.distance - b.distance).abs() < 1e-9);
            }
        }
        // q = 2, window 3: the Registration tuple still lands in Reg.
        let win2 = Matcher::windowed(&forest, 2, 2, 3);
        let tt = tuple_tree(&inst, "Registration", 0, &cfg).unwrap();
        assert_eq!(
            win2.best_match(&tt, &paper_sigma()).unwrap().relation,
            "Reg"
        );
    }

    #[test]
    fn empty_forest_returns_none() {
        let target = Schema::new();
        let forest = SchemaForest::new(&target, &TreeConfig::default()).unwrap();
        let matcher = Matcher::new(&forest, 2, 1);
        let inst = source_instance();
        let tt = tuple_tree(&inst, "Dep", 0, &TreeConfig::default()).unwrap();
        assert!(matcher.best_match(&tt, &paper_sigma()).is_none());
    }
}
