//! Batching integration: the engine builds a batch's tuple trees before it
//! runs their scripts, so the batch boundaries decide which rows are built
//! and then dropped as already seen. The output must not depend on them —
//! every batch size gives a byte-identical instance, the same counters and
//! the same script repository. The streaming session drives the same
//! pipeline, so a session fed the same rows and flushed once must agree
//! with the engine byte for byte as well.

use sedex::core::{SedexConfig, SedexEngine};
use sedex::prelude::*;
use sedex::scenarios::compose::{composed, Repetitions};
use sedex::scenarios::ibench::{stb, IbenchConfig};

fn assert_same_instance(a: &Instance, b: &Instance) {
    for (name, rel) in a.relations() {
        let other = b.relation(name).unwrap();
        let mut r1: Vec<_> = rel.rows().to_vec();
        let mut r2: Vec<_> = other.rows().to_vec();
        r1.sort();
        r2.sort();
        assert_eq!(r1, r2, "relation {name} differs");
    }
}

#[test]
fn batch_sizes_agree() {
    let s = composed(
        "sP",
        Repetitions {
            vp: 2,
            de: 2,
            cp: 1,
        },
    );
    let inst = s.populate(77, 42).unwrap();
    let (base, _) = SedexEngine::new()
        .exchange(&inst, &s.target, &s.sigma)
        .unwrap();
    for batch in [1usize, 7, 64, 100_000] {
        let engine = SedexEngine::with_config(SedexConfig {
            batch_size: batch,
            ..SedexConfig::default()
        });
        let (out, _) = engine.exchange(&inst, &s.target, &s.sigma).unwrap();
        assert_same_instance(&base, &out);
    }
}

/// The full-pipeline determinism criterion: at any batch size the engine
/// must produce a *byte-identical* target instance (per the canonical codec
/// encoding, which fixes schema and row order), identical
/// inserted/merged/violation counters, and an identical script repository —
/// same entries, same hit/miss counters. Row sorting (as in
/// `assert_same_instance`) would hide row-order and fresh-label
/// nondeterminism; byte equality does not.
///
/// The streaming session runs the same pipeline: the source rows fed in
/// schema order and exchanged by one `exchange_pending` must give the
/// engine's bytes, counters and repository too. Both are checked with
/// script reuse on and off and with `order_by_height` on and off, and
/// both apply `cfds` once before their pass.
fn assert_byte_identical_across_batch_sizes(
    inst: &Instance,
    target: &Schema,
    sigma: &sedex::mapping::Correspondences,
    cfds: &CfdInterpreter,
) {
    use sedex::storage::codec::{encode_instance, ByteWriter};

    let encode = |out: &Instance| {
        let mut w = ByteWriter::new();
        encode_instance(&mut w, out);
        w.into_bytes()
    };
    let hit_seq = |r: &ExchangeReport| r.hit_events.iter().map(|e| e.hit).collect::<Vec<_>>();
    let configs = [
        ("default", SedexConfig::default()),
        (
            "no reuse",
            SedexConfig {
                reuse_scripts: false,
                ..SedexConfig::default()
            },
        ),
        (
            "schema order",
            SedexConfig {
                order_by_height: false,
                ..SedexConfig::default()
            },
        ),
    ];
    for (name, config) in configs {
        let config = SedexConfig {
            record_hit_events: true,
            ..config
        };
        let (base_out, base_report, base_repo) = SedexEngine::with_config(config.clone())
            .with_cfds(cfds.clone())
            .exchange_with_repository(inst, target, sigma)
            .unwrap();
        let base_bytes = encode(&base_out);

        let mut runs = Vec::new();
        for batch in [1usize, 7, 64] {
            let engine = SedexEngine::with_config(SedexConfig {
                batch_size: batch,
                ..config.clone()
            })
            .with_cfds(cfds.clone());
            let (out, report, repo) = engine
                .exchange_with_repository(inst, target, sigma)
                .unwrap();
            runs.push((format!("{name}, batch={batch}"), encode(&out), report, repo));
        }
        let mut session = SedexSession::new(
            config.clone(),
            inst.schema().clone(),
            target.clone(),
            sigma.clone(),
        )
        .unwrap()
        .with_cfds(cfds.clone());
        for (rel, rows) in inst.relations() {
            for t in rows.iter() {
                session.feed(rel, t.clone()).unwrap();
            }
        }
        session.exchange_pending().unwrap();
        let repo = session.export_state().repository;
        let bytes = encode(session.target());
        let report = session.report().clone();
        runs.push((format!("{name}, session"), bytes, report, repo));

        for (label, bytes, report, repo) in runs {
            assert_eq!(bytes, base_bytes, "{label}: target instance bytes differ");
            assert_eq!(
                (report.inserted, report.merged, report.violations),
                (
                    base_report.inserted,
                    base_report.merged,
                    base_report.violations
                ),
                "{label}: outcome counters differ"
            );
            assert_eq!(
                (report.scripts_generated, report.scripts_reused),
                (base_report.scripts_generated, base_report.scripts_reused),
                "{label}: repository counters differ"
            );
            assert_eq!(
                hit_seq(&report),
                hit_seq(&base_report),
                "{label}: hit-event sequence differs"
            );
            assert_eq!(
                repo.entries, base_repo.entries,
                "{label}: repository entries differ"
            );
            assert_eq!(
                (repo.hits, repo.misses),
                (base_repo.hits, base_repo.misses),
                "{label}: repository hit/miss counters differ"
            );
        }
    }
}

#[test]
fn determinism_across_batch_sizes_university() {
    use sedex::scenarios::university;
    let s = university::scenario();
    let mut inst = university::fig3_instance().unwrap();
    // Widen the instance so it spans several batches.
    for i in 0..400 {
        inst.insert(
            "Registration",
            sedex::storage::Tuple::of([
                format!("s{}", 1 + i % 2),
                format!("c{i}"),
                format!("d{i}"),
            ]),
            ConflictPolicy::Allow,
        )
        .unwrap();
    }
    assert_byte_identical_across_batch_sizes(&inst, &s.target, &s.sigma, &CfdInterpreter::new());
}

#[test]
fn determinism_across_batch_sizes_ibench_stb() {
    let s = stb(&IbenchConfig {
        instances_per_primitive: 2,
        ..IbenchConfig::default()
    });
    // SK/NE primitives mint fresh labeled nulls: the byte comparison also
    // proves the fresh-label sequence is batch-size independent.
    let inst = s.populate(300, 97).unwrap();
    assert_byte_identical_across_batch_sizes(&inst, &s.target, &s.sigma, &CfdInterpreter::new());
}

/// The CFD fixture of `integration_engines::cfd_round_trip_through_engine`,
/// widened over several batches: a CFD fills `disease` from `treatment`
/// before any tuple tree is built, once per pass, in the engine and in
/// the session alike.
#[test]
fn determinism_across_batch_sizes_with_cfds() {
    let r = RelationSchema::with_any_columns("Treat", &["pid", "treatment", "disease"])
        .primary_key(&["pid"])
        .unwrap();
    let mut inst = Instance::new(Schema::from_relations(vec![r]).unwrap());
    for i in 0..40 {
        let (treatment, disease) = match i % 3 {
            0 => ("dialysis", Value::Null),
            1 => ("dialysis", Value::text("renal failure")),
            _ => ("rest", Value::Null),
        };
        inst.insert(
            "Treat",
            tuple![format!("p{i}"), treatment, disease],
            ConflictPolicy::Reject,
        )
        .unwrap();
    }
    let t = RelationSchema::with_any_columns("T", &["id", "illness"])
        .primary_key(&["id"])
        .unwrap();
    let target = Schema::from_relations(vec![t]).unwrap();
    let sigma = Correspondences::from_name_pairs([("pid", "id"), ("disease", "illness")]);
    let cfds = CfdInterpreter::load([Cfd::Intra {
        relation: "Treat".into(),
        cond_col: "treatment".into(),
        cond_val: Value::text("dialysis"),
        det_col: "disease".into(),
        det_val: Value::text("kidney disease"),
    }]);
    assert_byte_identical_across_batch_sizes(&inst, &target, &sigma, &cfds);
}
