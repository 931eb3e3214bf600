//! A realistic domain scenario: migrating an order-management schema into a
//! reporting warehouse, with CFD-based enrichment.
//!
//! Run with: `cargo run -p sedex --release --example warehouse_migration`
//!
//! Demonstrates: foreign-key chains (orders → customers → regions),
//! denormalization into a wide fact table, conditional functional
//! dependencies filling in missing data, and script reuse at scale.

use sedex::core::{Cfd, CfdInterpreter, SedexEngine};
use sedex::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- OLTP source schema ---------------------------------------------
    let regions = RelationSchema::with_any_columns("regions", &["rid", "rname", "currency"])
        .primary_key(&["rid"])?;
    let customers =
        RelationSchema::with_any_columns("customers", &["cid", "cname", "segment", "region"])
            .primary_key(&["cid"])?
            .foreign_key(&["region"], "regions")?;
    let orders =
        RelationSchema::with_any_columns("orders", &["oid", "customer", "amount", "status"])
            .primary_key(&["oid"])?
            .foreign_key(&["customer"], "customers")?;
    let source_schema = Schema::from_relations(vec![regions, customers, orders])?;

    // --- warehouse target: one wide fact table + a dimension -------------
    let fact = RelationSchema::with_any_columns(
        "fact_orders",
        &[
            "order_id",
            "cust_name",
            "cust_segment",
            "region_name",
            "order_amount",
            "order_status",
        ],
    )
    .primary_key(&["order_id"])?
    .foreign_key(&["region_name"], "dim_region")?;
    let dim_region = RelationSchema::with_any_columns("dim_region", &["region_name2", "curr"])
        .primary_key(&["region_name2"])?;
    let target_schema = Schema::from_relations(vec![fact, dim_region])?;

    let mut sigma = Correspondences::new();
    sigma.add_names("oid", "order_id");
    sigma.add_names("cname", "cust_name");
    sigma.add_names("segment", "cust_segment");
    sigma.add_qualified("customers", "region", "fact_orders", "region_name");
    sigma.add_names("amount", "order_amount");
    sigma.add_names("status", "order_status");
    sigma.add_qualified("regions", "rid", "dim_region", "region_name2");
    sigma.add_names("currency", "curr");

    // --- populate the source ---------------------------------------------
    let mut src = Instance::new(source_schema);
    src.insert(
        "regions",
        tuple!["eu", "Europe", "EUR"],
        ConflictPolicy::Reject,
    )?;
    src.insert(
        "regions",
        tuple!["na", "North America", "USD"],
        ConflictPolicy::Reject,
    )?;
    // Asia-Pacific's currency is unknown — a CFD will fill it in.
    src.insert(
        "regions",
        tuple!["apac", "Asia-Pacific", Value::Null],
        ConflictPolicy::Reject,
    )?;
    for i in 0..200 {
        let region = ["eu", "na", "apac"][i % 3];
        // Every 7th customer has an unknown segment — a CFD will fill it.
        let segment = if i % 7 == 0 {
            Value::Null
        } else {
            Value::text(["smb", "enterprise"][i % 2])
        };
        src.insert(
            "customers",
            tuple![format!("c{i}"), format!("Customer {i}"), segment, region],
            ConflictPolicy::Reject,
        )?;
    }
    for i in 0..2000 {
        src.insert(
            "orders",
            tuple![
                format!("o{i}"),
                format!("c{}", i % 200),
                (100 + (i * 37) % 900) as i64,
                ["open", "shipped", "returned"][i % 3]
            ],
            ConflictPolicy::Reject,
        )?;
    }

    // --- CFDs: domain knowledge repairing the source ----------------------
    // Intra-table: Asia-Pacific region trades in USD.
    // Inter-table: a returned order implies its customer is "smb" when the
    // segment is unknown (toy rule for demonstration).
    let cfds = CfdInterpreter::load([
        Cfd::Intra {
            relation: "regions".into(),
            cond_col: "rname".into(),
            cond_val: Value::text("Asia-Pacific"),
            det_col: "currency".into(),
            det_val: Value::text("USD"),
        },
        Cfd::Inter {
            left_rel: "orders".into(),
            left_col: "status".into(),
            left_val: Value::text("returned"),
            right_rel: "customers".into(),
            right_col: "segment".into(),
            right_val: Value::text("smb"),
        },
    ]);

    // --- exchange --------------------------------------------------------
    let engine = SedexEngine::new().with_cfds(cfds);
    let (out, report) = engine.exchange(&src, &target_schema, &sigma)?;

    println!(
        "fact_orders rows: {}",
        out.relation("fact_orders").unwrap().len()
    );
    println!(
        "dim_region rows:  {}",
        out.relation("dim_region").unwrap().len()
    );
    println!("stats: {}", report.stats);
    println!(
        "scripts: {} generated, {} reused ({:.1}% hit ratio)",
        report.scripts_generated,
        report.scripts_reused,
        report.reuse_percent()
    );
    println!("time: Tg {:?} + Te {:?}", report.tg, report.te);

    assert_eq!(out.relation("fact_orders").unwrap().len(), 2000);
    assert_eq!(out.relation("dim_region").unwrap().len(), 3);
    // Scripts are heavily reused: only a handful of distinct tuple shapes.
    assert!(report.reuse_percent() > 95.0);
    // The APAC currency was filled in by the CFD before exchange.
    let dim = out.relation("dim_region").unwrap();
    let apac = dim.lookup_pk(&[Value::text("apac")]).expect("apac row");
    assert_eq!(apac.values()[1], Value::text("USD"));
    println!("\nWarehouse migration complete — CFD-repaired, deduplicated.");
    Ok(())
}
