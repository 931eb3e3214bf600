//! Tiny-size smoke of every workload, timed and traced: the run passes its
//! output check with no failed operation, and prints every metric
//! `BENCHMARK.json` names for that mode, each with its unit.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "exchange_reuse",
    "exchange_merge",
    "serve_ingest",
    "serve_tenants",
];

/// `(name, unit)` of every metric in one list (`end_to_end` or
/// `per_layer`) of the benchmark definition at the repository root.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text.find(&format!("\"{list}\"")).expect("list present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present");
        let rest = &obj[at + key.len() + 2..];
        let open = rest.find('"').expect("value opens") + 1;
        let close = open + rest[open..].find('"').expect("value closes");
        rest[open..close].to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

/// Run one tiny workload; returns its last standard-output line and its
/// standard error.
fn run(workload: &str, trace: &str) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.3"])
        .args(["--trace", trace, "--size", "tiny"])
        .output()
        .expect("run perfbench");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stderr}"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line").to_owned();
    (last, stderr)
}

/// The value of one metric in a result line.
fn value(line: &str, name: &str) -> f64 {
    let entry = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&entry)
        .unwrap_or_else(|| panic!("no metric {name}"))
        + entry.len();
    let rest = &line[at..];
    rest[..rest.find(',').expect("value ends")]
        .parse()
        .unwrap_or_else(|_| panic!("{name} is not a number"))
}

fn check(workload: &str, trace: &str, list: &str) {
    let (line, _) = run(workload, trace);
    assert!(
        line.starts_with("{\"correct\": true, "),
        "{workload}: {line}"
    );
    assert!(line.contains("\"failed\": 0, "), "{workload}: {line}");
    let metrics = declared(list);
    assert!(!metrics.is_empty());
    for (name, unit) in &metrics {
        value(&line, name);
        let unit_entry = format!("\"unit\": \"{unit}\"}}");
        let at = line.find(&format!("\"{name}\": ")).expect("metric present");
        let rest = &line[at..];
        assert!(
            rest[..rest.find('}').expect("entry closes") + 1].ends_with(&unit_entry),
            "{workload}: {name} lacks unit {unit}"
        );
    }
    assert_eq!(
        line.matches("\"unit\"").count(),
        metrics.len(),
        "{workload}: extra metrics"
    );
}

#[test]
fn every_workload_prints_its_end_to_end_metrics() {
    for w in WORKLOADS {
        check(w, "0", "end_to_end");
    }
}

#[test]
fn every_workload_prints_its_per_layer_metrics() {
    for w in WORKLOADS {
        check(w, "1", "per_layer");
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for w in WORKLOADS {
        let (line, _) = run(w, "0");
        assert!(!line.contains("\"value\": 0.0,"), "{w}: {line}");
    }
}

#[test]
fn timed_and_traced_exchanges_produce_the_same_target() {
    let digest = |stderr: &str| -> String {
        let at = stderr.find("target digest ").expect("digest note") + "target digest ".len();
        stderr[at..at + 16].to_owned()
    };
    for w in ["exchange_reuse", "exchange_merge"] {
        let (_, timed) = run(w, "0");
        let (_, traced) = run(w, "1");
        assert_eq!(digest(&timed), digest(&traced), "{w}");
    }
}

#[test]
fn traced_counts_repeat_exactly_for_a_seed() {
    let counts = [
        "core.repository.hits",
        "core.repository.misses",
        "storage.egd_merges",
        "storage.rows_inserted",
        "durable.wal_appends",
        "durable.checkpoints",
    ];
    for w in WORKLOADS {
        let (a, _) = run(w, "1");
        let (b, _) = run(w, "1");
        for c in counts {
            assert_eq!(value(&a, c), value(&b, c), "{w}: {c}");
        }
    }
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
