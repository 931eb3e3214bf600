//! The pay-as-you-go streaming session (the workflow of Fig. 1).
//!
//! The batch entry point ([`crate::engine::SedexEngine::exchange`]) walks a
//! complete source instance. The paper's architecture, however, is
//! explicitly *pay-as-you-go*: "once a tuple with relation tree T is
//! processed, the data transformation script generated for this tuple is
//! stored … when we encounter a tuple for which the relation tree is similar
//! to a relation tree that is already available in the script repository, we
//! reuse the scripts without reprocessing the tuple", and "the only space
//! required is to store scripts; there is no need to store temporary data".
//!
//! [`SedexSession`] realizes that: tuples arrive over time, each is
//! exchanged immediately against the live target, and the script repository
//! (plus seen-marking state) persists across arrivals. Referenced tuples
//! must be fed before (or together with) their referencing tuples — exactly
//! the arrival order a CDC/ETL pipeline provides.
//!
//! It keeps one engine pipeline for its whole life: a PUSH steps it once,
//! a FLUSH runs one pass of it, so a session fed the same rows and flushed
//! once produces the engine's target byte for byte.

use std::sync::Arc;
use std::time::Instant;

use sedex_mapping::Correspondences;
use sedex_observe::{Observer, Phase};
use sedex_storage::relation::RowId;
use sedex_storage::{ConflictPolicy, Instance, InstanceSnapshot, Schema, StorageError, Tuple};
use sedex_treerep::Shapes;

use crate::cfd::CfdInterpreter;
use crate::engine::SedexConfig;
use crate::metrics::ExchangeReport;
use crate::pipeline::Pipeline;
use crate::repository::RepositoryExport;
use crate::script::{ResolvedScript, RunOutcome, Script};

/// Everything mutable in a [`SedexSession`], detached from the engine
/// machinery (matchers, forests, config), which is rebuilt from the scenario
/// at restore time. This is the unit durability snapshots persist: restoring
/// it into a freshly constructed session continues exactly where the
/// exported one stopped — same source, same target (fresh labels included),
/// same warm script repository, same seen-marking, same counters.
#[derive(Debug, Clone)]
pub struct SessionState {
    /// The source instance accumulated so far (seed data included).
    pub source: Instance,
    /// The live target instance, labeled nulls and all.
    pub target: Instance,
    /// The script repository: entries plus hit/miss counters.
    pub repository: RepositoryExport,
    /// Seen-marking bitmaps per source relation.
    pub seen: Vec<(String, Vec<bool>)>,
    /// Next fresh surrogate label.
    pub fresh_counter: u64,
    /// The running report (without the per-lookup hit-event log).
    pub report: ExchangeReport,
}

/// A consistent, immutable read-only view of a session, captured in O(1)
/// amortized time (chunked copy-on-write snapshots of both instances plus
/// a counter copy). This is what MVCC readers — `SQL`, per-session
/// `STATS`, dump paths — render from *after* releasing the tenant lock:
/// the view never changes once captured, so a reader sees exactly the
/// state at some batch boundary, never a torn batch.
///
/// Deliberately cheap on the capture (writer) side: target stats are NOT
/// recomputed here — call [`SessionReadSnapshot::report_with_stats`] on
/// the reader side when the O(n) atom walk is wanted.
#[derive(Debug, Clone)]
pub struct SessionReadSnapshot {
    /// The source instance at capture.
    pub source: InstanceSnapshot,
    /// The target instance at capture.
    pub target: InstanceSnapshot,
    /// The running report at capture — counters only: target stats are
    /// stale (whatever the last `&mut` read left) and the hit-event log is
    /// cleared, exactly like [`SedexSession::report_snapshot`].
    pub report: ExchangeReport,
    /// Distinct scripts cached at capture.
    pub scripts_cached: usize,
    /// Repository hit ratio at capture.
    pub hit_ratio: f64,
}

impl SessionReadSnapshot {
    /// The captured report with target stats recomputed from the snapshot
    /// — the reader pays the O(n) walk, the capturing writer never does.
    pub fn report_with_stats(&self) -> ExchangeReport {
        let mut r = self.report.clone();
        r.stats = self.target.stats();
        r
    }
}

/// A long-lived exchange session: push source tuples as they arrive, read
/// the target at any time.
pub struct SedexSession {
    cfds: CfdInterpreter,
    source: Instance,
    pipeline: Pipeline,
    /// A PUSH's walk buffers, kept between PUSHes.
    shapes: Shapes<'static>,
    observer: Option<Arc<dyn Observer>>,
    /// Session name attributed in slow-exchange records (multi-tenant
    /// service deployments); `None` for anonymous embedded use.
    label: Option<String>,
    /// The protocol verb currently driving the session, set by the service
    /// before each request so slow records can name it.
    verb: Option<&'static str>,
}

impl SedexSession {
    /// Open a session for the given schemas and correspondences.
    pub fn new(
        config: SedexConfig,
        source_schema: Schema,
        target_schema: Schema,
        sigma: Correspondences,
    ) -> Result<Self, StorageError> {
        let source = Instance::new(source_schema);
        let pipeline = Pipeline::new(config, &source, target_schema, sigma)?;
        Ok(SedexSession {
            cfds: CfdInterpreter::new(),
            source,
            pipeline,
            shapes: Shapes::default(),
            observer: None,
            label: None,
            verb: None,
        })
    }

    /// Attach CFDs; they are applied to the source before each PUSH builds
    /// its tuple tree, and once before each FLUSH pass.
    pub fn with_cfds(mut self, cfds: CfdInterpreter) -> Self {
        self.cfds = cfds;
        self
    }

    /// Attach a trace observer. Each pushed tuple emits its pipeline
    /// phases plus one `Exchange` event (tuple count 1); a skipped-seen
    /// push emits nothing. A FLUSH pass emits its phases per batch and one
    /// `Exchange` event for the whole pass (tuple count = tuples it
    /// exchanged). Without an observer and with no slow threshold the
    /// tracing hooks cost a `None` check — no clock reads, no allocation,
    /// no atomics.
    pub fn with_observer(mut self, observer: Arc<dyn Observer>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Attach a session name; slow-exchange records will carry it as
    /// `session=<name>` so slow tuples can be attributed under
    /// multi-tenant load.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Set (or clear) the protocol verb attributed in slow-exchange
    /// records for subsequent exchanges. The service sets this per
    /// request; embedded callers can ignore it.
    pub fn set_verb(&mut self, verb: Option<&'static str>) {
        self.verb = verb;
    }

    /// Feed a *context* tuple without exchanging it: it becomes available
    /// for foreign-key dereferencing (dimension/lookup data). It will still
    /// be exchanged by a later [`SedexSession::exchange_pending`] unless a
    /// referencing tuple marks it seen first.
    pub fn feed(&mut self, relation: &str, tuple: Tuple) -> Result<RowId, StorageError> {
        let out = self.source.insert(relation, tuple, ConflictPolicy::Skip)?;
        let rows = self.source.relation_or_err(relation)?.len();
        // Every source row arrives here, so the seen set covers every row
        // a tuple tree can visit.
        self.pipeline.seen.ensure_capacity(relation, rows);
        Ok(match out {
            sedex_storage::InsertOutcome::Inserted(id)
            | sedex_storage::InsertOutcome::Duplicate(id)
            | sedex_storage::InsertOutcome::Skipped(id)
            | sedex_storage::InsertOutcome::Merged(id) => id,
        })
    }

    /// Feed a tuple *and* exchange it immediately (a PUSH), unless it is
    /// already seen, as one traced exchange.
    pub fn exchange_tuple(
        &mut self,
        relation: &str,
        tuple: Tuple,
    ) -> Result<RunOutcome, StorageError> {
        let row = self.feed(relation, tuple)?;
        let rel = self.source.schema().relation_index_or_err(relation)?;
        if self.pipeline.skip_seen(rel, row) {
            return Ok(RunOutcome::default());
        }
        let mut trace = self
            .pipeline
            .begin(self.observer.as_deref())
            .with_context(self.label.as_deref(), self.verb);
        let mut clock = Instant::now();
        if !self.cfds.is_empty() {
            // CFDs are instance-level: the whole source is brought up to
            // date before the arriving tuple is walked.
            self.cfds.apply(&mut self.source)?;
        }
        let tb = trace.start();
        let mut shapes = std::mem::take(&mut self.shapes).recycle();
        self.pipeline.walk(&self.source, rel, row, &mut shapes)?;
        trace.end(Phase::TreeBuild, tb);
        let out = self
            .pipeline
            .step(&self.source, &shapes.get(0), None, &mut clock, &mut trace)?;
        self.shapes = shapes.recycle();
        self.pipeline.close(&trace);
        Ok(out)
    }

    /// Exchange every source tuple not yet seen: CFDs are applied once,
    /// then one pass of the pipeline runs over the source in the engine's
    /// order (the batch tail of a streaming run). The pass is one traced
    /// exchange.
    pub fn exchange_pending(&mut self) -> Result<RunOutcome, StorageError> {
        let started = Instant::now();
        if !self.cfds.is_empty() {
            self.cfds.apply(&mut self.source)?;
        }
        let mut trace = self
            .pipeline
            .begin(self.observer.as_deref())
            .with_context(self.label.as_deref(), self.verb);
        let out = self.pipeline.pass(&self.source, started, &mut trace)?;
        self.pipeline.close(&trace);
        Ok(out)
    }

    /// The live target instance.
    pub fn target(&self) -> &Instance {
        &self.pipeline.target
    }

    /// The source accumulated so far.
    pub fn source(&self) -> &Instance {
        &self.source
    }

    /// The session's running report (stats refreshed on read).
    pub fn report(&mut self) -> &ExchangeReport {
        self.pipeline.report()
    }

    /// `(scripts generated, scripts reused)` so far — the counters a push
    /// reply prints, read without walking the target.
    pub fn script_counts(&self) -> (usize, usize) {
        let r = &self.pipeline.report;
        (r.scripts_generated, r.scripts_reused)
    }

    /// Distinct scripts cached so far — "the only space required".
    pub fn scripts_cached(&self) -> usize {
        self.pipeline.repo.len()
    }

    /// A cheap point-in-time copy of the running report, usable through a
    /// shared reference (unlike [`SedexSession::report`], which needs `&mut
    /// self`). Target stats are recomputed; the per-lookup hit-event log is
    /// NOT copied — it can be large, and concurrent callers (the service's
    /// `STATS` command) only need the counters.
    pub fn report_snapshot(&self) -> ExchangeReport {
        let mut r = self.pipeline.counters();
        r.stats = self.pipeline.target.stats();
        r
    }

    /// Capture a [`SessionReadSnapshot`]: consistent copy-on-write views
    /// of source and target plus the report counters. The writer-side cost
    /// is `Arc` bumps — one per sealed chunk and one per tail tuple (< 256
    /// per relation), no tuple copied — independent of session size, so
    /// the service can afford to publish one at every batch boundary while
    /// still holding the tenant lock.
    pub fn read_snapshot(&self) -> SessionReadSnapshot {
        SessionReadSnapshot {
            source: self.source.snapshot(),
            target: self.pipeline.target.snapshot(),
            report: self.pipeline.counters(),
            scripts_cached: self.pipeline.repo.len(),
            hit_ratio: self.pipeline.repo.hit_ratio(),
        }
    }

    /// Export all mutable state for a durability snapshot (see
    /// [`SessionState`]). The per-lookup hit-event log is not exported — it
    /// is unbounded and only feeds the Fig. 14 experiment.
    pub fn export_state(&self) -> SessionState {
        self.pipeline.export(self.source.clone())
    }

    /// Replace this session's mutable state with an exported one. The
    /// session must have been constructed from the same scenario (schemas,
    /// correspondences, CFDs) as the exporter; the compiled mapping derived
    /// from those is kept as-is.
    pub fn restore_state(&mut self, state: SessionState) {
        self.source = self.pipeline.restore(state);
    }

    /// Drain scripts generated since the last drain (see
    /// [`crate::ScriptRepository::take_new_scripts`]) — the service
    /// persists each as one WAL record.
    pub fn take_new_scripts(&mut self) -> Vec<(String, Arc<ResolvedScript>)> {
        self.pipeline.repo.take_new_scripts()
    }

    /// Install one script under its shape key without touching lookup
    /// counters — the WAL-replay path for persisted `ScriptAdd` records.
    pub fn install_script(&mut self, key: String, script: Script) {
        self.pipeline.repo.install(key, script);
    }

    /// The current repository hit ratio `n_r / (n_r + n_g)` — survives a
    /// snapshot/restore cycle (warm start).
    pub fn repository_hit_ratio(&self) -> f64 {
        self.pipeline.repo.hit_ratio()
    }

    /// Close the session, returning the target and the final report.
    pub fn finish(self) -> (Instance, ExchangeReport) {
        let (target, report, _) = self.pipeline.finish();
        (target, report)
    }
}

// The service crate moves whole sessions across threads (worker pool +
// sharded session map); keep the compiler honest about that capability.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SedexSession>()
};

#[cfg(test)]
mod tests {
    use super::*;
    use sedex_storage::{RelationSchema, Value};

    fn schemas() -> (Schema, Schema, Correspondences) {
        let dep = RelationSchema::with_any_columns("Dep", &["dname", "building"])
            .primary_key(&["dname"])
            .unwrap();
        let student = RelationSchema::with_any_columns("Student", &["sname", "program", "dep"])
            .primary_key(&["sname"])
            .unwrap()
            .foreign_key(&["dep"], "Dep")
            .unwrap();
        let source = Schema::from_relations(vec![dep, student]).unwrap();
        let stu = RelationSchema::with_any_columns("Stu", &["student", "prog", "dpt"])
            .primary_key(&["student"])
            .unwrap();
        let target = Schema::from_relations(vec![stu]).unwrap();
        let sigma = Correspondences::from_name_pairs([
            ("sname", "student"),
            ("program", "prog"),
            ("dep", "dpt"),
        ]);
        (source, target, sigma)
    }

    #[test]
    fn streaming_matches_batch() {
        let (src_schema, tgt_schema, sigma) = schemas();
        // Batch reference.
        let mut batch_src = Instance::new(src_schema.clone());
        batch_src
            .insert(
                "Dep",
                sedex_storage::tuple!["d1", "b1"],
                ConflictPolicy::Reject,
            )
            .unwrap();
        for i in 0..20 {
            batch_src
                .insert(
                    "Student",
                    Tuple::of([format!("s{i}"), format!("p{i}"), "d1".to_string()]),
                    ConflictPolicy::Reject,
                )
                .unwrap();
        }
        let (batch_out, _) = crate::engine::SedexEngine::new()
            .exchange(&batch_src, &tgt_schema, &sigma)
            .unwrap();

        // Streaming: feed the dimension, then stream students.
        let mut session =
            SedexSession::new(SedexConfig::default(), src_schema, tgt_schema, sigma).unwrap();
        session
            .feed("Dep", sedex_storage::tuple!["d1", "b1"])
            .unwrap();
        for i in 0..20 {
            session
                .exchange_tuple(
                    "Student",
                    Tuple::of([format!("s{i}"), format!("p{i}"), "d1".to_string()]),
                )
                .unwrap();
        }
        let (stream_out, report) = session.finish();
        assert_eq!(stream_out.stats(), batch_out.stats());
        assert_eq!(
            stream_out.relation("Stu").unwrap().len(),
            batch_out.relation("Stu").unwrap().len()
        );
        // One script generated, 19 reuses.
        assert_eq!(report.scripts_generated, 1);
        assert_eq!(report.scripts_reused, 19);
    }

    #[test]
    fn scripts_cached_is_bounded_by_shapes() {
        let (src_schema, tgt_schema, sigma) = schemas();
        let mut session =
            SedexSession::new(SedexConfig::default(), src_schema, tgt_schema, sigma).unwrap();
        session
            .feed("Dep", sedex_storage::tuple!["d1", "b1"])
            .unwrap();
        for i in 0..50 {
            // Alternate two shapes: with and without a dep reference.
            let dep = if i % 2 == 0 {
                Value::text("d1")
            } else {
                Value::Null
            };
            session
                .exchange_tuple(
                    "Student",
                    Tuple::new(vec![
                        Value::text(format!("s{i}")),
                        Value::text(format!("p{i}")),
                        dep,
                    ]),
                )
                .unwrap();
        }
        assert_eq!(session.scripts_cached(), 2);
        assert_eq!(session.target().relation("Stu").unwrap().len(), 50);
    }

    #[test]
    fn exchange_pending_covers_fed_tuples() {
        let (src_schema, tgt_schema, sigma) = schemas();
        let mut session =
            SedexSession::new(SedexConfig::default(), src_schema, tgt_schema, sigma).unwrap();
        session
            .feed("Dep", sedex_storage::tuple!["d1", "b1"])
            .unwrap();
        session
            .feed("Student", sedex_storage::tuple!["s1", "p1", "d1"])
            .unwrap();
        session.exchange_pending().unwrap();
        // The student was exchanged; the Dep tuple was marked seen through
        // it (Student is processed first, taller tree) and skipped.
        assert_eq!(session.target().relation("Stu").unwrap().len(), 1);
        let report = session.report();
        assert!(report.tuples_skipped_seen >= 1);
    }

    /// FLUSH runs the engine's pass, in the engine's order: with
    /// `order_by_height` off both take relations in schema order, so the
    /// fed `Dep` row is exchanged on its own before the students that
    /// reference it, instead of being reached (and skipped) through them.
    #[test]
    fn exchange_pending_follows_the_configured_order() {
        let (src_schema, tgt_schema, sigma) = schemas();
        let config = SedexConfig {
            order_by_height: false,
            ..SedexConfig::default()
        };
        let rows = [
            ("Dep", sedex_storage::tuple!["d1", "b1"]),
            ("Student", sedex_storage::tuple!["s1", "p1", "d1"]),
            ("Student", sedex_storage::tuple!["s2", "p2", "d1"]),
        ];
        let mut source = Instance::new(src_schema.clone());
        let mut session = SedexSession::new(
            config.clone(),
            src_schema,
            tgt_schema.clone(),
            sigma.clone(),
        )
        .unwrap();
        for (rel, t) in rows {
            source
                .insert(rel, t.clone(), ConflictPolicy::Reject)
                .unwrap();
            session.feed(rel, t).unwrap();
        }
        session.exchange_pending().unwrap();
        let (want, want_report) = crate::engine::SedexEngine::with_config(config)
            .exchange(&source, &tgt_schema, &sigma)
            .unwrap();
        let (got, got_report) = session.finish();
        let counts = |r: &ExchangeReport| {
            (
                r.tuples_processed,
                r.tuples_skipped_seen,
                r.scripts_generated,
                r.scripts_reused,
                r.inserted,
                r.merged,
            )
        };
        assert_eq!(counts(&got_report), counts(&want_report));
        assert_eq!(got_report.tuples_skipped_seen, 0);
        for (name, rel) in want.relations() {
            assert_eq!(rel.rows(), got.relation(name).unwrap().rows(), "{name}");
        }
    }

    #[test]
    fn report_snapshot_matches_mut_report() {
        let (src_schema, tgt_schema, sigma) = schemas();
        let mut session =
            SedexSession::new(SedexConfig::default(), src_schema, tgt_schema, sigma).unwrap();
        session
            .feed("Dep", sedex_storage::tuple!["d1", "b1"])
            .unwrap();
        for i in 0..5 {
            session
                .exchange_tuple(
                    "Student",
                    Tuple::of([format!("s{i}"), format!("p{i}"), "d1".to_string()]),
                )
                .unwrap();
        }
        let snap = session.report_snapshot();
        let full = session.report();
        assert_eq!(snap.scripts_generated, full.scripts_generated);
        assert_eq!(snap.scripts_reused, full.scripts_reused);
        assert_eq!(snap.stats, full.stats);
        assert_eq!(snap.inserted, full.inserted);
    }

    #[test]
    fn read_snapshot_is_isolated_and_stats_match() {
        let (src_schema, tgt_schema, sigma) = schemas();
        let mut session =
            SedexSession::new(SedexConfig::default(), src_schema, tgt_schema, sigma).unwrap();
        session
            .feed("Dep", sedex_storage::tuple!["d1", "b1"])
            .unwrap();
        for i in 0..5 {
            session
                .exchange_tuple(
                    "Student",
                    Tuple::of([format!("s{i}"), format!("p{i}"), "d1".to_string()]),
                )
                .unwrap();
        }
        let snap = session.read_snapshot();
        // Reader-side stats equal what the lock-holding path would report.
        let r = snap.report_with_stats();
        assert_eq!(r.stats, session.report_snapshot().stats);
        assert_eq!(r.scripts_generated, 1);
        assert_eq!(r.scripts_reused, 4);
        assert_eq!(snap.scripts_cached, 1);
        assert_eq!(snap.target.relation("Stu").unwrap().len(), 5);
        // Later exchanges never leak into the captured view.
        session
            .exchange_tuple("Student", sedex_storage::tuple!["s9", "p9", "d1"])
            .unwrap();
        assert_eq!(snap.target.relation("Stu").unwrap().len(), 5);
        assert_eq!(snap.report_with_stats().stats.tuples, 5);
        assert!(session.read_snapshot().target.epoch() > snap.target.epoch());
    }

    #[test]
    fn observer_counts_each_streamed_tuple_as_one_exchange() {
        use sedex_observe::{names, MetricsRegistry, RegistryObserver};
        let (src_schema, tgt_schema, sigma) = schemas();
        let registry = MetricsRegistry::new();
        let mut session = SedexSession::new(SedexConfig::default(), src_schema, tgt_schema, sigma)
            .unwrap()
            .with_observer(Arc::new(RegistryObserver::new(&registry)));
        session
            .feed("Dep", sedex_storage::tuple!["d1", "b1"])
            .unwrap();
        for i in 0..5 {
            session
                .exchange_tuple(
                    "Student",
                    Tuple::of([format!("s{i}"), format!("p{i}"), "d1".to_string()]),
                )
                .unwrap();
        }
        assert_eq!(registry.counter_value(names::EXCHANGE_TOTAL), Some(5));
        assert_eq!(registry.counter_value(names::TUPLES_TOTAL), Some(5));
        let (_, report) = session.finish();
        assert!(!report.phases.is_zero());
    }

    #[test]
    fn no_observer_leaves_the_phase_breakdown_zero() {
        let (src_schema, tgt_schema, sigma) = schemas();
        let mut session =
            SedexSession::new(SedexConfig::default(), src_schema, tgt_schema, sigma).unwrap();
        session
            .exchange_tuple("Dep", sedex_storage::tuple!["d1", "b1"])
            .unwrap();
        let (_, report) = session.finish();
        assert!(report.phases.is_zero());
    }

    #[test]
    fn export_restore_continues_where_the_export_stopped() {
        let (src_schema, tgt_schema, sigma) = schemas();
        let mut session = SedexSession::new(
            SedexConfig::default(),
            src_schema.clone(),
            tgt_schema.clone(),
            sigma.clone(),
        )
        .unwrap();
        session
            .feed("Dep", sedex_storage::tuple!["d1", "b1"])
            .unwrap();
        for i in 0..10 {
            session
                .exchange_tuple(
                    "Student",
                    Tuple::of([format!("s{i}"), format!("p{i}"), "d1".to_string()]),
                )
                .unwrap();
        }
        let state = session.export_state();

        // A fresh session restored from the export...
        let mut restored =
            SedexSession::new(SedexConfig::default(), src_schema, tgt_schema, sigma).unwrap();
        restored.restore_state(state);
        assert_eq!(restored.target().stats(), session.target().stats());
        assert_eq!(restored.scripts_cached(), session.scripts_cached());

        // ...keeps reusing the cached script: a new same-shape push is a
        // repository hit, not a regeneration (the warm-start property).
        restored
            .exchange_tuple("Student", sedex_storage::tuple!["s99", "p99", "d1"])
            .unwrap();
        let r = restored.report_snapshot();
        assert_eq!(r.scripts_generated, 1);
        assert_eq!(r.scripts_reused, 10);
        assert!(restored.repository_hit_ratio() > 0.9);
    }

    /// WAL replay installs a script under its persisted `String` key
    /// (`install_script`, the `ScriptAdd` path); a same-shape PUSH after it
    /// must find the script through the shape-id index's fallback to the
    /// `String` map — a hit, as in a session that never stopped, not a
    /// regeneration.
    #[test]
    fn installed_script_is_reused_by_a_same_shape_push() {
        let (src_schema, tgt_schema, sigma) = schemas();
        let open = || {
            SedexSession::new(
                SedexConfig::default(),
                src_schema.clone(),
                tgt_schema.clone(),
                sigma.clone(),
            )
            .unwrap()
        };
        let dep = || sedex_storage::tuple!["d1", "b1"];
        let lookups = |s: &SedexSession| {
            let r = s.export_state().repository;
            (r.hits, r.misses)
        };

        // The uninterrupted session: s1 generates the script, s2 reuses it.
        let mut live = open();
        live.feed("Dep", dep()).unwrap();
        live.exchange_tuple("Student", sedex_storage::tuple!["s1", "p1", "d1"])
            .unwrap();
        let scripts = live.take_new_scripts();
        let before = lookups(&live);
        live.exchange_tuple("Student", sedex_storage::tuple!["s2", "p2", "d1"])
            .unwrap();
        let after = lookups(&live);
        // The persisted key is the tree's repository key, byte for byte.
        assert_eq!(scripts.len(), 1);
        assert_eq!(scripts[0].0, "Student|program building dep sname");

        // A restarted session gets the script back by replay, then s2.
        let mut warm = open();
        warm.feed("Dep", dep()).unwrap();
        for (key, script) in scripts {
            warm.install_script(key, script.script().clone());
        }
        warm.exchange_tuple("Student", sedex_storage::tuple!["s2", "p2", "d1"])
            .unwrap();
        let r = warm.report_snapshot();
        assert_eq!(r.scripts_generated, 0);
        assert_eq!(r.scripts_reused, 1);
        assert_eq!(
            lookups(&warm),
            (after.0 - before.0, after.1 - before.1),
            "the push counts as in the uninterrupted session"
        );
        assert_eq!(
            warm.target().relation("Stu").unwrap().row(0),
            live.target().relation("Stu").unwrap().row(1)
        );
    }

    #[test]
    fn duplicate_arrivals_are_idempotent() {
        let (src_schema, tgt_schema, sigma) = schemas();
        let mut session =
            SedexSession::new(SedexConfig::default(), src_schema, tgt_schema, sigma).unwrap();
        session
            .feed("Dep", sedex_storage::tuple!["d1", "b1"])
            .unwrap();
        for _ in 0..3 {
            session
                .exchange_tuple("Student", sedex_storage::tuple!["s1", "p1", "d1"])
                .unwrap();
        }
        assert_eq!(session.target().relation("Stu").unwrap().len(), 1);
    }
}
