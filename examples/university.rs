//! The paper's running example (Figs. 2–8): the university scenario.
//!
//! Run with: `cargo run -p sedex --release --example university`
//!
//! Walks through the exact artifacts printed in the paper: the relation
//! trees of Fig. 4, the tuple trees of Fig. 5, the pq-gram distances of
//! Section 4.3 (0.71 / 0.76 / 1.0), the translated tree of Fig. 8 and the
//! final exchanged instance.

use sedex::core::{Matcher, SedexEngine};
use sedex::scenarios::university;
use sedex::treerep::{
    post_order_key, reduce_to_relation_tree, relation_tree, tuple_tree, SchemaForest, TreeConfig,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = university::scenario();
    let inst = university::fig3_instance()?;
    let cfg = TreeConfig::default();

    println!("== Fig. 4: relation trees of the source schema ==");
    for rel in ["Student", "Prof", "Dep", "Registration"] {
        let rt = relation_tree(&scenario.source, rel, &cfg)?;
        println!("-- {rel} (height {}) --\n{}", rt.height(), rt.tree.render());
    }

    println!("== Fig. 5: tuple trees of the Student tuples ==");
    for row in 0..2 {
        let tt = tuple_tree(&inst, "Student", row, &cfg)?;
        println!("-- t{} --\n{}", row + 1, tt.tree.render());
    }

    println!("== Section 4.3: matching the first Registration tuple ==");
    let target_forest = SchemaForest::new(&scenario.target, &cfg)?;
    let matcher = Matcher::new(&target_forest, 2, 1);
    let tt = tuple_tree(&inst, "Registration", 0, &cfg)?;
    let ranking = matcher.rank_all(&tt, &scenario.sigma);
    for (rel, d) in &ranking {
        println!("  dist(Tt, T{rel}) = {d:.2}");
    }
    println!("  → host relation: {}", ranking[0].0);

    println!("\n== Section 4.4.2: script repository key ==");
    let st = tuple_tree(&inst, "Student", 0, &cfg)?;
    println!(
        "  key of first Student tuple: \"{}\"",
        post_order_key(&reduce_to_relation_tree(&st))
    );

    println!("\n== full exchange ==");
    let (out, report) = SedexEngine::new().exchange(&inst, &scenario.target, &scenario.sigma)?;
    println!("{out}");
    println!("report: {}", report.stats);
    println!(
        "processed {} tuples, skipped {} already-seen, reused {} scripts",
        report.tuples_processed, report.tuples_skipped_seen, report.scripts_reused
    );
    Ok(())
}
