//! The `exchange_*` workloads: whole-instance `SedexEngine::exchange`
//! calls, with no server or network in the way.
//!
//! * `exchange_reuse` — Fig 12 scenario `d` at 25 000 tuples/relation:
//!   seven scripts generated, everything else reused, no egd merges.
//! * `exchange_merge` — iBench STB (Fig 9 configuration, every target
//!   relation keyed) at 1 000 tuples/relation: ten thousand egd merges,
//!   script execution dominates.
//!
//! One timed iteration is one exchange call, then a few reads of the
//! exchanged target (MVCC snapshot + SQL rendering, what an `SQL` read
//! costs the service), each followed by a group of session opens for the
//! scenario (parse of its text form, target forest and pq-gram profiles:
//! what an `OPEN` costs the service). The `push` of these workloads is one source relation's
//! pass within a call, timed through the engine's `Observer` hook: a call
//! has 7 (`exchange_reuse`) or 70 (`exchange_merge`) of them.

use std::collections::HashSet;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sedex_core::marking::SeenSet;
use sedex_core::observe::{Event, Observer, Phase};
use sedex_core::{
    ExchangeReport, Script, ScriptRepository, SedexConfig, SedexEngine, SedexSession,
};
use sedex_scenarios::compose::abcd_scenarios;
use sedex_scenarios::ibench::{stb, IbenchConfig};
use sedex_scenarios::textfmt::{parse_scenario, render_scenario};
use sedex_scenarios::Scenario;
use sedex_service::sql_dump_snapshot;
use sedex_storage::Instance;
use sedex_treerep::{tuple_shape_key, tuple_tree, SchemaForest, TreeConfig};

use crate::common::{
    cpu_time, percentile_us, scale_from, setups, Args, Digest, EndToEnd, HostRef, Report, Size,
    Units,
};
use crate::layers;

/// Set-ups per run; `setup_s` is their median. Generation allocates
/// afresh, and the cost of faulting in fresh pages follows the host, so
/// single set-ups vary by tens of per cent.
const SETUPS: usize = 9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Reuse,
    Merge,
}

impl Kind {
    /// Target reads timed after every exchange call. A read renders the
    /// whole target: 0.35–0.45 s after a 1.4 s `exchange_reuse` call, where
    /// two reads a call already take a third of the window and leave 8–10
    /// calls in it, and ~0.1 s after a 5 s `exchange_merge` call, where six
    /// cost little. Either way a 20 s window holds 16 or more reads (the
    /// benchmark runs 25 s).
    fn reads_per_call(self) -> usize {
        match self {
            Kind::Reuse => 2,
            Kind::Merge => 6,
        }
    }

    /// Scenario opens timed after each read: ~20 ms of them on either
    /// scenario (an open of scenario `d` takes ~0.15 ms, one of STB
    /// ~1.2 ms). Short groups at many moments, not one burst a call,
    /// because the host's speed changes from one tenth of a second to the
    /// next and a run's median should not rest on a handful of moments.
    fn opens_per_read(self) -> usize {
        match self {
            Kind::Reuse => 128,
            Kind::Merge => 16,
        }
    }
}

struct Input {
    scenario: Scenario,
    /// The scenario in the text form a client sends with `OPEN`.
    scenario_text: String,
    source: Instance,
    tuples: usize,
}

fn make_input(kind: Kind, size: Size, seed: u64) -> Input {
    let (scenario, per_relation) = match (kind, size) {
        (Kind::Reuse, Size::Full) => (abcd_scenarios().swap_remove(3), 25_000),
        (Kind::Reuse, Size::Tiny) => (abcd_scenarios().swap_remove(3), 400),
        (Kind::Merge, s) => {
            let stb = stb(&IbenchConfig {
                pk_fraction: 1.0,
                ..IbenchConfig::default()
            });
            (stb, if s == Size::Full { 1_000 } else { 40 })
        }
    };
    let source = scenario
        .populate(per_relation, seed)
        .expect("generated source instance loads");
    let tuples = source.total_tuples();
    Input {
        scenario_text: render_scenario(&scenario),
        scenario,
        source,
        tuples,
    }
}

/// The output check every exchange call passes: each source tuple was
/// either processed or skipped as already seen, no egd was violated, and no
/// keyed target relation holds a key twice. Returns the target digest.
fn check(out: &Instance, rep: &ExchangeReport, source_tuples: usize) -> Result<Digest, String> {
    let accounted = rep.tuples_processed + rep.tuples_skipped_seen;
    if accounted != source_tuples {
        return Err(format!(
            "{} processed + {} skipped-seen != {source_tuples} source tuples",
            rep.tuples_processed, rep.tuples_skipped_seen
        ));
    }
    if rep.violations != 0 {
        return Err(format!("{} egd violations", rep.violations));
    }
    let mut digest = Digest::default();
    for (name, rel) in out.relations() {
        digest.write(name.as_bytes());
        let pk = &rel.schema().primary_key;
        let mut keys = HashSet::with_capacity(if pk.is_empty() { 0 } else { rel.len() });
        for t in rel.iter() {
            if !pk.is_empty() && !keys.insert(t.project(pk)) {
                return Err(format!("duplicate key in target relation {name}"));
            }
            for v in t.values() {
                digest.write(v.render().as_bytes());
                digest.write(&[0x1f]);
            }
            digest.write(&[0x1e]);
        }
    }
    Ok(digest)
}

/// Start of every engine batch of an exchange call, from the engine's
/// `Observer` hook: a batch begins with its tree build, whose `Phase` event
/// arrives as the build ends and carries how long it took.
#[derive(Default)]
struct BatchClock(Mutex<Vec<Instant>>);

impl Observer for BatchClock {
    fn event(&self, e: &Event) {
        if let Event::Phase {
            phase: Phase::TreeBuild,
            nanos,
        } = *e
        {
            let start = Instant::now() - Duration::from_nanos(nanos);
            self.0.lock().expect("batch clock").push(start);
        }
    }
}

impl BatchClock {
    /// The wall time of each source relation's pass in the call that
    /// returned at `end`: from its first batch's tree build to the next
    /// relation's (the last relation's to `end`, so it carries the call's
    /// closing work). `batches` is the engine's batch count per relation,
    /// in its processing order. Clears the clock for the next call.
    fn relation_spans(&self, batches: &[usize], end: Instant) -> Result<Vec<Duration>, String> {
        let starts = std::mem::take(&mut *self.0.lock().expect("batch clock"));
        let expected: usize = batches.iter().sum();
        if starts.len() != expected {
            return Err(format!(
                "{} batches observed, {expected} expected",
                starts.len()
            ));
        }
        let mut firsts = Vec::with_capacity(batches.len() + 1);
        let mut at = 0;
        for &n in batches.iter().filter(|&&n| n > 0) {
            firsts.push(starts[at]);
            at += n;
        }
        firsts.push(end);
        Ok(firsts.windows(2).map(|w| w[1] - w[0]).collect())
    }
}

/// The engine's batch count per source relation, in its processing order
/// (relations by tree height, `batch_size` rows a batch).
fn relation_batches(input: &Input) -> Vec<usize> {
    let cfg = SedexConfig::default();
    let tree_cfg = TreeConfig {
        max_depth: cfg.max_depth,
        prune_nulls: cfg.prune_nulls,
    };
    let src = &input.source;
    let forest = SchemaForest::new(src.schema(), &tree_cfg).expect("source forest builds");
    forest
        .processing_order()
        .into_iter()
        .map(|rel| {
            let rows = src.relation_or_err(rel).expect("relation exists").len();
            rows.div_ceil(cfg.batch_size)
        })
        .collect()
}

fn exchange(engine: &SedexEngine, input: &Input) -> (Instance, ExchangeReport) {
    engine
        .exchange(&input.source, &input.scenario.target, &input.scenario.sigma)
        .expect("exchange of a generated instance succeeds")
}

/// Time `kind.opens_per_read()` opens of the scenario: parse of its text
/// form plus `SedexSession::new`, the engine side of an `OPEN`.
fn opens_after_read(kind: Kind, input: &Input, opens: &mut Vec<Duration>, report: &mut Report) {
    for _ in 0..kind.opens_per_read() {
        report.attempted += 1;
        let t = Instant::now();
        let sc = parse_scenario(&input.scenario_text)
            .expect("rendered scenario parses")
            .scenario;
        let session = SedexSession::new(SedexConfig::default(), sc.source, sc.target, sc.sigma)
            .expect("session opens");
        opens.push(t.elapsed());
        drop(black_box(session));
    }
}

/// The timed run: exchange calls until the window closes. The host
/// reference is read before and after each call and after the call's
/// reads and opens; the call's times are divided by the slowdown of the
/// two readings around it, the reads' and opens' by that of the two
/// around them.
pub fn run(kind: Kind, args: &Args) -> Report {
    let mut report = Report::new();
    let mut host = HostRef::new();
    let (input, setup_times) = setups(
        SETUPS,
        &mut host,
        |_| make_input(kind, args.size, args.seed),
        drop,
    );
    let clock = Arc::new(BatchClock::default());
    let engine = SedexEngine::new().with_observer(clock.clone());
    let mut calls = Vec::new();
    let batches = relation_batches(&input);
    let mut passes = Vec::new();
    let mut reads = Vec::new();
    let mut opens = Vec::new();
    let mut units = Units::default();
    let mut first_digest: Option<String> = None;
    let window = Instant::now();
    while calls.is_empty() || window.elapsed() < args.window() {
        report.attempted += 1;
        let call_mark = host.mark();
        let (p0, r0, o0) = (passes.len(), reads.len(), opens.len());
        units.begin();
        let (c0, t0) = (cpu_time(), Instant::now());
        let (out, rep) = exchange(&engine, &input);
        let end = Instant::now();
        let (wall, cpu) = (end - t0, cpu_time() - c0);
        calls.push(wall);
        host.measure();
        let call_slow = host.slowdown_since(call_mark);
        let reads_mark = host.mark();
        match clock.relation_spans(&batches, end) {
            Ok(spans) => passes.extend(spans),
            Err(e) => report.fail(e),
        }
        match check(&out, &rep, input.tuples) {
            Ok(d) => match &first_digest {
                None => first_digest = Some(d.hex()),
                Some(first) if *first != d.hex() => {
                    report.fail(format!("target digest {} != first call's {first}", d.hex()))
                }
                Some(_) => {}
            },
            Err(e) => report.fail(e),
        }
        for _ in 0..kind.reads_per_call() {
            report.attempted += 1;
            let t = Instant::now();
            black_box(sql_dump_snapshot(&out.snapshot()));
            reads.push(t.elapsed());
            opens_after_read(kind, &input, &mut opens, &mut report);
        }
        units.end();
        host.measure();
        let reads_slow = host.slowdown_since(reads_mark);
        scale_from(&mut passes, p0, call_slow);
        scale_from(&mut reads, r0, reads_slow);
        scale_from(&mut opens, o0, reads_slow);
        units.record(
            input.tuples,
            wall.div_f64(call_slow),
            cpu.div_f64(call_slow),
        );
    }
    EndToEnd {
        host: &host,
        setups: &setup_times,
        units: &units,
        pushes: &passes,
        push_p90_us: percentile_us(&passes, 90.0),
        reads: &reads,
        opens: &opens,
    }
    .emit(&mut report);
    let ms: Vec<String> = calls
        .iter()
        .map(|d| format!("{:.0}", d.as_secs_f64() * 1e3))
        .collect();
    report.note(format!(
        "{} exchange calls of {} source tuples (ms as measured: {}), {} relation passes, {} reads, {} opens; target digest {}",
        calls.len(),
        input.tuples,
        ms.join(" "),
        passes.len(),
        reads.len(),
        opens.len(),
        first_digest.unwrap_or_default()
    ));
    report
}

/// Counts and phase times delivered through the engine's `Observer` hook.
#[derive(Default)]
struct Collector {
    phase_nanos: [AtomicU64; Phase::COUNT],
    hits: AtomicU64,
    misses: AtomicU64,
    merges: AtomicU64,
    rows: AtomicU64,
}

/// Index of a phase in [`Phase::ALL`].
fn slot(p: Phase) -> usize {
    Phase::ALL
        .iter()
        .position(|&q| q == p)
        .expect("every phase is listed")
}

fn load(c: &AtomicU64) -> f64 {
    c.load(Ordering::Relaxed) as f64
}

impl Collector {
    fn phase(&self, p: Phase) -> f64 {
        load(&self.phase_nanos[slot(p)])
    }
}

impl Observer for Collector {
    fn event(&self, e: &Event) {
        let add = |c: &AtomicU64, n: u64| {
            c.fetch_add(n, Ordering::Relaxed);
        };
        match *e {
            Event::Phase { phase, nanos } => add(&self.phase_nanos[slot(phase)], nanos),
            Event::RepoLookup { hit: true, count } => add(&self.hits, count),
            Event::RepoLookup { hit: false, count } => add(&self.misses, count),
            Event::EgdMerge { count } => add(&self.merges, count),
            Event::RowsInserted { count } => add(&self.rows, count),
            _ => {}
        }
    }
}

/// Time the steps the engine does not report as phases — shape key and
/// repository lookup — by calling the same public functions over the same
/// rows in the engine's order (relations by tree height, batches of
/// `batch_size`, seen tuples skipped). Returns `(shape_key_ns, lookup_ns,
/// processed)`.
fn split_unattributed(input: &Input) -> (f64, f64, usize) {
    let cfg = SedexConfig::default();
    let tree_cfg = TreeConfig {
        max_depth: cfg.max_depth,
        prune_nulls: cfg.prune_nulls,
    };
    let src = &input.source;
    let forest = SchemaForest::new(src.schema(), &tree_cfg).expect("source forest builds");
    let mut seen = SeenSet::for_instance(src);
    let mut repo = ScriptRepository::new(false);
    let (mut key_ns, mut lookup_ns, mut processed) = (0u128, 0u128, 0usize);
    for rel in forest.processing_order() {
        let rows = src.relation_or_err(rel).expect("relation exists").len() as u32;
        let mut start = 0;
        while start < rows {
            let end = (start + cfg.batch_size as u32).min(rows);
            let trees: Vec<_> = (start..end)
                .filter(|&r| !seen.is_seen(rel, r))
                .map(|r| {
                    (
                        r,
                        tuple_tree(src, rel, r, &tree_cfg).expect("tuple tree builds"),
                    )
                })
                .collect();
            // Seen re-check and marking in row order, as the engine does.
            let mut kept = Vec::with_capacity(trees.len());
            for (row, tx) in &trees {
                if !seen.is_seen(rel, *row) {
                    seen.mark_all(&tx.visited);
                    kept.push(tx);
                }
            }
            let t = Instant::now();
            let keys: Vec<String> = kept
                .iter()
                .map(|tx| {
                    let mut key = String::with_capacity(rel.len() + 64);
                    key.push_str(rel);
                    key.push('|');
                    key.push_str(&tuple_shape_key(tx));
                    key
                })
                .collect();
            key_ns += t.elapsed().as_nanos();
            let t = Instant::now();
            for key in keys {
                if repo.lookup(&key).is_none() {
                    repo.insert(key, Script::default());
                }
            }
            lookup_ns += t.elapsed().as_nanos();
            processed += kept.len();
            start = end;
        }
    }
    (key_ns as f64, lookup_ns as f64, processed)
}

/// The traced run: units of one untraced and one traced exchange call,
/// per-layer metrics from the traced calls.
pub fn run_traced(kind: Kind, args: &Args) -> Report {
    let mut report = Report::new();
    let input = make_input(kind, args.size, args.seed);
    let units = layers::repeat(args.window(), || traced_unit(&input, &mut report));
    layers::emit(&units, &mut report);
    report
}

fn traced_unit(input: &Input, report: &mut Report) -> layers::Layers {
    let t = Instant::now();
    report.attempted += 1;
    let (plain_out, plain_rep) = exchange(&SedexEngine::new(), input);
    let plain_wall = t.elapsed().as_secs_f64();
    let plain_digest = check(&plain_out, &plain_rep, input.tuples);
    drop(plain_out);

    let collector = Arc::new(Collector::default());
    let engine = SedexEngine::new().with_observer(collector.clone());
    let t = Instant::now();
    report.attempted += 1;
    let (out, rep) = exchange(&engine, input);
    let wall_ns = t.elapsed().as_nanos() as f64;
    match (plain_digest, check(&out, &rep, input.tuples)) {
        (Ok(a), Ok(b)) if a.hex() == b.hex() => report.note(format!("target digest {}", a.hex())),
        (Ok(a), Ok(b)) => report.fail(format!("traced digest {} != untraced {}", b.hex(), a.hex())),
        (Err(e), _) | (_, Err(e)) => report.fail(e),
    }
    drop(out);
    let (key_ns, lookup_ns, processed) = split_unattributed(input);
    if processed != rep.tuples_processed {
        report.fail(format!(
            "split replay processed {processed} tuples, engine {}",
            rep.tuples_processed
        ));
    }

    let c = &collector;
    let n = input.tuples as f64;
    let misses = load(&c.misses);
    let phases: f64 = Phase::ALL.iter().map(|&p| c.phase(p)).sum();
    let mut l = layers::Layers {
        traced_wall_s: wall_ns / 1e9,
        ..layers::Layers::default()
    };
    l.trace_overhead_pct = (wall_ns / 1e9 / plain_wall - 1.0) * 100.0;
    l.wall_ns_per_tuple = wall_ns / n;
    l.tree_build_ns_per_tuple = c.phase(Phase::TreeBuild) / n;
    l.shape_key_ns_per_tuple = key_ns / n;
    l.lookup_ns_per_tuple = lookup_ns / n;
    l.hits = load(&c.hits);
    l.misses = misses;
    l.matcher_us_per_miss = c.phase(Phase::Match) / 1e3 / misses.max(1.0);
    l.translate_us_per_miss = c.phase(Phase::Translate) / 1e3 / misses.max(1.0);
    l.scriptgen_us_per_miss = c.phase(Phase::ScriptGen) / 1e3 / misses.max(1.0);
    l.script_run_ns_per_tuple = c.phase(Phase::ScriptRun) / n;
    l.unattributed_ns_per_tuple = (wall_ns - phases) / n;
    l.egd_merges = load(&c.merges);
    l.rows_inserted = load(&c.rows);
    report.note(format!(
        "traced exchange {:.3} s over {} source tuples: {} processed, {} generated / {} reused, {} merges; script run {:.1}% of wall",
        wall_ns / 1e9,
        input.tuples,
        rep.tuples_processed,
        rep.scripts_generated,
        rep.scripts_reused,
        rep.merged,
        c.phase(Phase::ScriptRun) / wall_ns * 100.0
    ));
    l
}
