//! Batching integration: the engine builds a batch's tuple trees before it
//! runs their scripts, so the batch boundaries decide which rows are built
//! and then dropped as already seen. The output must not depend on them —
//! every batch size gives a byte-identical instance, the same counters and
//! the same script repository.

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
fn assert_byte_identical_across_batch_sizes(
    inst: &Instance,
    target: &Schema,
    sigma: &sedex::mapping::Correspondences,
) {
    use sedex::storage::codec::{encode_instance, ByteWriter};

    let encode = |out: &Instance| {
        let mut w = ByteWriter::new();
        encode_instance(&mut w, out);
        w.into_bytes()
    };
    let default = SedexEngine::with_config(SedexConfig {
        record_hit_events: true,
        ..SedexConfig::default()
    });
    let (base_out, base_report, base_repo) = default
        .exchange_with_repository(inst, target, sigma)
        .unwrap();
    let base_bytes = encode(&base_out);
    for batch in [1usize, 7, 64] {
        let engine = SedexEngine::with_config(SedexConfig {
            batch_size: batch,
            record_hit_events: true,
            ..SedexConfig::default()
        });
        let (out, report, repo) = engine
            .exchange_with_repository(inst, target, sigma)
            .unwrap();
        assert_eq!(
            encode(&out),
            base_bytes,
            "batch={batch}: target instance bytes differ"
        );
        assert_eq!(
            (report.inserted, report.merged, report.violations),
            (
                base_report.inserted,
                base_report.merged,
                base_report.violations
            ),
            "batch={batch}: outcome counters differ"
        );
        assert_eq!(
            (report.scripts_generated, report.scripts_reused),
            (base_report.scripts_generated, base_report.scripts_reused),
            "batch={batch}: repository counters differ"
        );
        let hit_seq = |r: &sedex::core::ExchangeReport| {
            r.hit_events.iter().map(|e| e.hit).collect::<Vec<_>>()
        };
        assert_eq!(
            hit_seq(&report),
            hit_seq(&base_report),
            "batch={batch}: hit-event sequence differs"
        );
        assert_eq!(
            repo.entries, base_repo.entries,
            "batch={batch}: repository entries differ"
        );
        assert_eq!(
            (repo.hits, repo.misses),
            (base_repo.hits, base_repo.misses),
            "batch={batch}: repository hit/miss counters differ"
        );
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
    assert_byte_identical_across_batch_sizes(&inst, &s.target, &s.sigma);
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
    assert_byte_identical_across_batch_sizes(&inst, &s.target, &s.sigma);
}
