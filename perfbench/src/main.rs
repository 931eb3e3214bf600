//! The repository benchmark. See `README.md` in this directory.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]
//! ```
//!
//! Prints notes on standard error and, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`).

mod common;
mod exchange;
mod layers;
mod serve;

use common::{pin_to_idlest_cpu, Args, Report};
use exchange::Kind;

const WORKLOADS: [&str; 4] = [
    "exchange_reuse",
    "exchange_merge",
    "serve_ingest",
    "serve_tenants",
];

fn run(args: &Args) -> Result<Report, String> {
    let report = match (args.workload.as_str(), args.trace) {
        ("exchange_reuse", false) => exchange::run(Kind::Reuse, args),
        ("exchange_reuse", true) => exchange::run_traced(Kind::Reuse, args),
        ("exchange_merge", false) => exchange::run(Kind::Merge, args),
        ("exchange_merge", true) => exchange::run_traced(Kind::Merge, args),
        ("serve_ingest", trace) => serve::ingest(args, trace),
        ("serve_tenants", trace) => serve::tenants(args, trace),
        (other, _) => {
            return Err(format!(
                "unknown workload `{other}` (one of {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    Ok(report)
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Before any thread starts, so that every thread inherits it. The
    // `exchange_*` workloads run on one thread and are left to the
    // scheduler, which moves them off a CPU that something else keeps busy.
    let cpu = if args.workload.starts_with("serve_") {
        pin_to_idlest_cpu()
    } else {
        None
    };
    let mut report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match cpu {
        Some(c) => report.note(format!("pinned to cpu {c}")),
        None => report.note("ran unpinned"),
    }
    for line in &report.notes {
        eprintln!("perfbench {}: {line}", args.workload);
    }
    println!("{}", report.to_json());
}
