//! The per-layer metric set of the traced run. Every workload prints every
//! metric, layers a workload does not reach reading 0 (the `service.*`,
//! `net.*` and `durable.*` layers on the `exchange_*` workloads, the
//! `durable.*` layer on the in-memory `serve_tenants`).
//!
//! Engine-layer times are per source tuple (`_ns_per_tuple`) or per
//! repository miss (`_us_per_miss`). The engine phases plus
//! `core.exchange.unattributed_ns_per_tuple` sum to
//! `core.exchange.wall_ns_per_tuple`; on the service workloads the five
//! request stages plus `client_remainder_us` sum to the client's mean
//! round trip `rtt_us` for each verb.
//!
//! The traced run repeats its unit of work (an untraced pass, then the
//! same pass traced) until the window closes, and reports the unit whose
//! traced wall time is the median, so the sums above hold exactly. Counts
//! must be identical in every unit.

use std::time::{Duration, Instant};

use crate::common::{HostRef, Report};

/// The service verbs the workloads issue.
pub const VERBS: [&str; 5] = ["PUSH", "PUSH_BATCH", "SQL", "STATS", "OPEN"];
/// Request lifecycle stages, as the server's request tracing names them.
pub const STAGES: [&str; 5] = ["read", "parse", "queue_wait", "exec", "flush"];

/// Mean per-request costs of one verb, in microseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct VerbCost {
    pub stages_us: [f64; STAGES.len()],
    pub rtt_us: f64,
}

/// Per-layer metrics that count work: a seed's traced units must agree on
/// them exactly.
const EXACT: [&str; 7] = [
    "core.repository.hits",
    "core.repository.misses",
    "core.repository.hit_ratio",
    "storage.egd_merges",
    "storage.rows_inserted",
    "durable.wal_appends",
    "durable.checkpoints",
];

/// The per-layer metrics of one traced unit.
#[derive(Debug, Default)]
pub struct Layers {
    /// Wall time of the traced pass; picks the median unit, not reported.
    pub traced_wall_s: f64,
    pub trace_overhead_pct: f64,
    pub wall_ns_per_tuple: f64,
    pub tree_build_ns_per_tuple: f64,
    pub shape_key_ns_per_tuple: f64,
    pub lookup_ns_per_tuple: f64,
    pub hits: f64,
    pub misses: f64,
    pub matcher_us_per_miss: f64,
    pub translate_us_per_miss: f64,
    pub scriptgen_us_per_miss: f64,
    pub script_run_ns_per_tuple: f64,
    pub unattributed_ns_per_tuple: f64,
    pub egd_merges: f64,
    pub rows_inserted: f64,
    pub wal_appends: f64,
    pub wal_bytes_per_tuple: f64,
    pub checkpoints: f64,
    pub polls_per_request: f64,
    pub wakeups_per_request: f64,
    pub verbs: [VerbCost; VERBS.len()],
    pub push_exec_growth: f64,
}

impl Layers {
    /// Every reported metric of this unit as `(name, value, unit)`.
    fn entries(&self) -> Vec<(String, f64, &'static str)> {
        let mut out = Vec::new();
        let mut r =
            |name: &str, value: f64, unit: &'static str| out.push((name.to_owned(), value, unit));
        r("observe.trace_overhead_pct", self.trace_overhead_pct, "%");
        r(
            "core.exchange.wall_ns_per_tuple",
            self.wall_ns_per_tuple,
            "ns",
        );
        r(
            "treerep.tree_build_ns_per_tuple",
            self.tree_build_ns_per_tuple,
            "ns",
        );
        r(
            "treerep.shape_key_ns_per_tuple",
            self.shape_key_ns_per_tuple,
            "ns",
        );
        r(
            "core.repository.lookup_ns_per_tuple",
            self.lookup_ns_per_tuple,
            "ns",
        );
        r("core.repository.hits", self.hits, "count");
        r("core.repository.misses", self.misses, "count");
        let lookups = self.hits + self.misses;
        let ratio = if lookups > 0.0 {
            self.hits / lookups
        } else {
            0.0
        };
        r("core.repository.hit_ratio", ratio, "ratio");
        r("core.matcher.us_per_miss", self.matcher_us_per_miss, "us");
        r(
            "core.translate.us_per_miss",
            self.translate_us_per_miss,
            "us",
        );
        r(
            "core.scriptgen.us_per_miss",
            self.scriptgen_us_per_miss,
            "us",
        );
        r(
            "core.script.run_ns_per_tuple",
            self.script_run_ns_per_tuple,
            "ns",
        );
        r(
            "core.exchange.unattributed_ns_per_tuple",
            self.unattributed_ns_per_tuple,
            "ns",
        );
        r("storage.egd_merges", self.egd_merges, "count");
        r("storage.rows_inserted", self.rows_inserted, "count");
        r("durable.wal_appends", self.wal_appends, "count");
        r("durable.wal_bytes_per_tuple", self.wal_bytes_per_tuple, "B");
        r("durable.checkpoints", self.checkpoints, "count");
        r("net.polls_per_request", self.polls_per_request, "count");
        r("net.wakeups_per_request", self.wakeups_per_request, "count");
        for (verb, cost) in VERBS.iter().zip(&self.verbs) {
            for (stage, us) in STAGES.iter().zip(&cost.stages_us) {
                r(&format!("service.{verb}.{stage}_us"), *us, "us");
            }
            let spans: f64 = cost.stages_us.iter().sum();
            let remainder = if cost.rtt_us > 0.0 {
                cost.rtt_us - spans
            } else {
                0.0
            };
            r(
                &format!("service.{verb}.client_remainder_us"),
                remainder,
                "us",
            );
            r(&format!("service.{verb}.rtt_us"), cost.rtt_us, "us");
        }
        r("service.PUSH.exec_growth", self.push_exec_growth, "ratio");
        out
    }
}

/// Run traced units until `window` has passed (at least one).
pub fn repeat(window: Duration, mut unit: impl FnMut() -> Layers) -> Vec<Layers> {
    let start = Instant::now();
    let mut units = Vec::new();
    while units.is_empty() || start.elapsed() < window {
        units.push(unit());
    }
    units
}

/// Report the median unit, after checking that every unit counted the
/// same work.
pub fn emit(units: &[Layers], r: &mut Report) {
    let first = units[0].entries();
    for other in &units[1..] {
        for ((name, a, _), (_, b, _)) in first.iter().zip(other.entries()) {
            if EXACT.contains(&name.as_str()) && *a != b {
                r.fail(format!("{name} differs between traced units: {a} != {b}"));
            }
        }
    }
    let mut by_wall: Vec<&Layers> = units.iter().collect();
    by_wall.sort_by(|a, b| a.traced_wall_s.total_cmp(&b.traced_wall_s));
    let mut host = HostRef::new();
    for _ in 0..5 {
        host.measure();
    }
    r.metric("host.ref_ms", host.ms(), "ms");
    for (name, value, unit) in by_wall[(by_wall.len() - 1) / 2].entries() {
        r.metric(name, value, unit);
    }
    r.note(format!("{} traced units", units.len()));
}
