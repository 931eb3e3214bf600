//! The EDEX baseline (Sekhavat & Parsons, DATA 2013) — SEDEX's predecessor.
//!
//! EDEX introduced entity-preserving exchange through **super-entities**:
//! per source tuple it materializes the set of candidate entities (a tuple's
//! own properties plus, recursively, the indirect properties reached through
//! natural joins), prunes the redundant ones, and then selects target host
//! relations. The paper keeps EDEX in the scalability comparisons (Figs.
//! 11–12) with two observations: its *output quality equals SEDEX's* (so it
//! is omitted from the quality experiments), but it scales worse because it
//! (a) enumerates and prunes a super-entity collection per tuple and
//! (b) has no script repository — every tuple is matched, translated and
//! scripted from scratch.
//!
//! This engine reproduces exactly that cost model: it steps SEDEX's own
//! pipeline (hence identical output) with script reuse off, so there is no
//! repository, and precedes every step with super-entity enumeration +
//! subset pruning.

use std::collections::BTreeSet;
use std::time::Instant;

use sedex_mapping::Correspondences;
use sedex_pqgram::PqLabel;
use sedex_storage::{Instance, Schema, StorageError};
use sedex_treerep::{Shapes, TupleTree};

use crate::engine::SedexConfig;
use crate::metrics::ExchangeReport;
use crate::pipeline::Pipeline;

/// The EDEX engine.
#[derive(Debug, Clone)]
pub struct EdexEngine {
    p: usize,
    q: usize,
    max_depth: usize,
}

impl Default for EdexEngine {
    fn default() -> Self {
        EdexEngine {
            p: 2,
            q: 1,
            max_depth: 32,
        }
    }
}

impl EdexEngine {
    /// An EDEX engine with the default pq-gram parameters (2, 1).
    pub fn new() -> Self {
        EdexEngine::default()
    }

    /// Run the exchange. Output is identical to SEDEX's; only the cost
    /// profile differs.
    pub fn exchange(
        &self,
        source: &Instance,
        target_schema: &Schema,
        sigma: &Correspondences,
    ) -> Result<(Instance, ExchangeReport), StorageError> {
        let started = Instant::now();
        // No repository: the pipeline matches, translates and scripts
        // every tuple.
        let config = SedexConfig {
            p: self.p,
            q: self.q,
            max_depth: self.max_depth,
            reuse_scripts: false,
            ..SedexConfig::default()
        };
        let mut pipeline = Pipeline::new(config, source, target_schema.clone(), sigma.clone())?;
        let order = pipeline.order(source)?.to_vec();
        let mut trace = pipeline.begin(None);
        pipeline.report.tg += started.elapsed();
        let mut shapes = Shapes::default();

        for rel in order {
            let rows = source.relation_at(rel).len() as u32;
            for row in 0..rows {
                if pipeline.skip_seen(rel, row) {
                    continue;
                }
                let mut clock = Instant::now();
                shapes.clear();
                pipeline.walk(source, rel, row, &mut shapes)?;
                let tx = pipeline.tuple_tree(source, rel, row)?;
                // EDEX's super-entity phase: enumerate candidate entities
                // and prune subsumed ones. The surviving count is unused for
                // the final answer (the full tree always wins) but the work
                // is the point — it is what the paper's scalability figures
                // charge EDEX for.
                let survivors = super_entities(&tx);
                debug_assert!(survivors >= 1);
                pipeline.step(source, &shapes.get(0), Some(&tx), &mut clock, &mut trace)?;
            }
        }
        let (target, report, _) = pipeline.finish();
        Ok((target, report))
    }
}

/// Enumerate the super-entities of a tuple tree — one candidate per subtree
/// rooted at a non-leaf node (plus the whole tree) — as property-name sets,
/// then prune candidates subsumed by a superset candidate. Returns the
/// number of survivors.
fn super_entities(tx: &TupleTree<'_>) -> usize {
    let tree = &tx.tree;
    let mut candidates: Vec<BTreeSet<&str>> = Vec::new();
    for id in tree.preorder() {
        if tree.is_leaf(id) && id != tree.root() {
            continue;
        }
        // Properties of the subtree rooted here.
        let mut props = BTreeSet::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            if let PqLabel::Label(node) = tree.label(n) {
                props.insert(node.prop);
            }
            stack.extend(tree.children(n).iter().copied());
        }
        if !props.is_empty() {
            candidates.push(props);
        }
    }
    // Subset pruning.
    let mut survivors = 0usize;
    'outer: for (i, c) in candidates.iter().enumerate() {
        for (j, d) in candidates.iter().enumerate() {
            if i != j && c.is_subset(d) && (c.len() < d.len() || i > j) {
                continue 'outer;
            }
        }
        survivors += 1;
    }
    survivors.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SedexEngine;
    use sedex_storage::{ConflictPolicy, RelationSchema, Value};
    use sedex_treerep::{tuple_tree, TreeConfig};

    fn scenario() -> (Instance, Schema, Correspondences) {
        let student = RelationSchema::with_any_columns("Student", &["sname", "program", "dep"])
            .primary_key(&["sname"])
            .unwrap()
            .foreign_key(&["dep"], "Dep")
            .unwrap();
        let dep = RelationSchema::with_any_columns("Dep", &["dname", "building"])
            .primary_key(&["dname"])
            .unwrap();
        let schema = Schema::from_relations(vec![student, dep]).unwrap();
        let mut inst = Instance::new(schema);
        let p = ConflictPolicy::Reject;
        inst.insert("Dep", sedex_storage::tuple!["d1", "b1"], p)
            .unwrap();
        inst.insert("Student", sedex_storage::tuple!["s1", "p1", "d1"], p)
            .unwrap();
        inst.insert("Student", sedex_storage::tuple!["s2", "p2", "d1"], p)
            .unwrap();

        let stu = RelationSchema::with_any_columns("Stu", &["student", "prog", "dpt"])
            .primary_key(&["student"])
            .unwrap();
        let target = Schema::from_relations(vec![stu]).unwrap();
        let sigma = Correspondences::from_name_pairs([
            ("sname", "student"),
            ("program", "prog"),
            ("dep", "dpt"),
        ]);
        (inst, target, sigma)
    }

    #[test]
    fn edex_output_equals_sedex_output() {
        let (src, tgt, sigma) = scenario();
        let (sedex_out, _) = SedexEngine::new().exchange(&src, &tgt, &sigma).unwrap();
        let (edex_out, edex_report) = EdexEngine::new().exchange(&src, &tgt, &sigma).unwrap();
        assert_eq!(sedex_out.stats(), edex_out.stats());
        assert_eq!(
            sedex_out.relation("Stu").unwrap().len(),
            edex_out.relation("Stu").unwrap().len()
        );
        // EDEX never reuses scripts.
        assert_eq!(edex_report.scripts_reused, 0);
        assert_eq!(edex_report.scripts_generated, edex_report.tuples_processed);
    }

    #[test]
    fn edex_generates_more_scripts_than_sedex() {
        let (mut src, tgt, sigma) = scenario();
        for i in 0..100 {
            src.insert(
                "Student",
                sedex_storage::tuple![format!("x{i}"), "p", "d1"],
                ConflictPolicy::Reject,
            )
            .unwrap();
        }
        let (_, sr) = SedexEngine::new().exchange(&src, &tgt, &sigma).unwrap();
        let (_, er) = EdexEngine::new().exchange(&src, &tgt, &sigma).unwrap();
        assert!(er.scripts_generated > 10 * sr.scripts_generated.max(1));
    }

    #[test]
    fn super_entity_enumeration_counts() {
        let (src, _, _) = scenario();
        let tx = tuple_tree(&src, "Student", 0, &TreeConfig::default()).unwrap();
        // Subtrees at sname (full) and dep (dep, building): dep ⊂ full →
        // pruned; one survivor.
        assert_eq!(super_entities(&tx), 1);
        let _ = Value::Null;
    }
}
