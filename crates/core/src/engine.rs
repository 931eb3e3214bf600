//! The SEDEX engine: the pay-as-you-go pipeline of Fig. 1, run over a
//! whole source instance.
//!
//! ```text
//! load CFDs → order relations by tree height → per batch of unseen rows:
//!   build the batch's tuple trees
//!   per tree: mark seen → shape key → script repository?
//!     hit  → reuse script
//!     miss → Match → translate (Alg. 1) → generate script (Alg. 2) → store
//!   run script under target egds
//! ```
//!
//! An exchange applies the CFDs once, builds a fresh
//! `crate::pipeline::Pipeline` and runs one pass of it over the source.
//! The streaming [`crate::SedexSession`] drives the same pipeline one
//! tuple (PUSH) or one pass (FLUSH) at a time, so both produce the same
//! target from the same rows.
//!
//! Every knob the paper discusses (and every ablation DESIGN.md calls out)
//! is a field of [`SedexConfig`].
//!
//! The pipeline runs on one thread: seen-marking, repository lookups,
//! fresh-label minting and egd-checked inserts must happen in row order,
//! and DESIGN.md §10 records why fanning out the rest did not pay.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sedex_mapping::Correspondences;
use sedex_observe::Observer;
use sedex_storage::{Instance, Schema, StorageError};

use crate::cfd::CfdInterpreter;
use crate::metrics::ExchangeReport;
use crate::pipeline::Pipeline;
use crate::repository::{RepositoryExport, ScriptRepository, DEFAULT_EVENT_LIMIT};

/// Configuration of a SEDEX exchange.
#[derive(Debug, Clone)]
pub struct SedexConfig {
    /// pq-gram stem length (the paper's examples use 2).
    pub p: usize,
    /// pq-gram window width (the paper's examples use 1).
    pub q: usize,
    /// Use the windowed pq-gram construction with this window width
    /// (`w ≥ q`). `None` (default) uses sorted plain pq-grams, which
    /// coincide with the windowed ones at `q = 1`.
    pub window: Option<usize>,
    /// Reuse scripts via the shape-keyed repository (Section 4.4.2). Off =
    /// the `ablation_reuse` configuration: every tuple is re-matched and
    /// re-translated, and no repository is kept.
    pub reuse_scripts: bool,
    /// Process relations in descending relation-tree height (Section 4.1).
    /// Off = schema order, which can fragment entities.
    pub order_by_height: bool,
    /// Skip tuples already reached through a referencing tuple
    /// (Section 4.2).
    pub mark_seen: bool,
    /// Drop null properties from tuple trees (the paper's semantics). Off =
    /// SEDEX degenerates to a pure schema-level mapper on ambiguous
    /// scenarios.
    pub prune_nulls: bool,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Record per-lookup hit events (needed only for the Fig. 14 curve).
    pub record_hit_events: bool,
    /// Cap on the recorded hit-event buffer between drains; lookups past
    /// the cap are counted in `hit_events_dropped` instead of growing the
    /// buffer without bound (long-lived service sessions only drain on
    /// FLUSH).
    pub hit_event_limit: usize,
    /// Tuples are processed in batches of this many rows: a batch's tuple
    /// trees are built together, so this bounds how many are alive at once.
    pub batch_size: usize,
    /// Exchanges slower than this emit a one-line structured record (with
    /// per-phase breakdown) to stderr and an
    /// [`Event::SlowExchange`](crate::Event::SlowExchange) to the attached
    /// observer. `None` (default) disables the check and the per-phase
    /// clock reads it needs.
    pub slow_exchange_threshold: Option<Duration>,
}

impl Default for SedexConfig {
    fn default() -> Self {
        SedexConfig {
            p: 2,
            q: 1,
            window: None,
            reuse_scripts: true,
            order_by_height: true,
            mark_seen: true,
            prune_nulls: true,
            max_depth: 32,
            record_hit_events: false,
            hit_event_limit: DEFAULT_EVENT_LIMIT,
            batch_size: 8192,
            slow_exchange_threshold: None,
        }
    }
}

/// The SEDEX engine.
#[derive(Clone, Default)]
pub struct SedexEngine {
    config: SedexConfig,
    cfds: CfdInterpreter,
    observer: Option<Arc<dyn Observer>>,
}

impl std::fmt::Debug for SedexEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SedexEngine")
            .field("config", &self.config)
            .field("cfds", &self.cfds)
            .field(
                "observer",
                &self.observer.as_ref().map(|_| "<dyn Observer>"),
            )
            .finish()
    }
}

impl SedexEngine {
    /// An engine with the default configuration and no CFDs.
    pub fn new() -> Self {
        SedexEngine::default()
    }

    /// An engine with an explicit configuration.
    pub fn with_config(config: SedexConfig) -> Self {
        SedexEngine {
            config,
            ..SedexEngine::default()
        }
    }

    /// Attach a CFD interpreter (Fig. 1's "Load CFDs" step).
    pub fn with_cfds(mut self, cfds: CfdInterpreter) -> Self {
        self.cfds = cfds;
        self
    }

    /// Attach a trace observer: every pipeline phase, repository lookup,
    /// egd merge and violation is reported to it as a structured
    /// [`Event`](crate::Event). Without an observer (the default) the
    /// tracing hooks cost a `None` check — no clock reads, no allocation,
    /// no atomics.
    pub fn with_observer(mut self, observer: Arc<dyn Observer>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// The configuration.
    pub fn config(&self) -> &SedexConfig {
        &self.config
    }

    /// Run the exchange: translate `source` into a fresh instance of
    /// `target_schema` under the correspondences Σ. Target egds are the
    /// target schema's key constraints, applied at script-run time.
    ///
    /// ```
    /// use sedex_core::SedexEngine;
    /// use sedex_mapping::Correspondences;
    /// use sedex_storage::{tuple, ConflictPolicy, Instance, RelationSchema, Schema};
    ///
    /// let src_schema = Schema::from_relations(vec![
    ///     RelationSchema::with_any_columns("R", &["k", "v"]).primary_key(&["k"]).unwrap(),
    /// ]).unwrap();
    /// let tgt_schema = Schema::from_relations(vec![
    ///     RelationSchema::with_any_columns("T", &["tk", "tv"]).primary_key(&["tk"]).unwrap(),
    /// ]).unwrap();
    /// let sigma = Correspondences::from_name_pairs([("k", "tk"), ("v", "tv")]);
    ///
    /// let mut src = Instance::new(src_schema);
    /// src.insert("R", tuple!["k1", "hello"], ConflictPolicy::Reject).unwrap();
    ///
    /// let (out, report) = SedexEngine::new().exchange(&src, &tgt_schema, &sigma).unwrap();
    /// assert_eq!(out.relation("T").unwrap().row(0).unwrap(), &tuple!["k1", "hello"]);
    /// assert_eq!(report.scripts_generated, 1);
    /// ```
    pub fn exchange(
        &self,
        source: &Instance,
        target_schema: &Schema,
        sigma: &Correspondences,
    ) -> Result<(Instance, ExchangeReport), StorageError> {
        self.exchange_impl(source, target_schema, sigma)
            .map(|(out, report, _)| (out, report))
    }

    /// Like [`SedexEngine::exchange`], but also returns the final script
    /// repository as an export — entries sorted by shape key plus the
    /// lookup counters (empty with `reuse_scripts` off). Determinism tests
    /// compare the exports of runs at different batch sizes; warm-start
    /// pipelines seed a [`crate::SedexSession`] from it.
    pub fn exchange_with_repository(
        &self,
        source: &Instance,
        target_schema: &Schema,
        sigma: &Correspondences,
    ) -> Result<(Instance, ExchangeReport, RepositoryExport), StorageError> {
        self.exchange_impl(source, target_schema, sigma)
            .map(|(out, report, repo)| (out, report, repo.export()))
    }

    fn exchange_impl(
        &self,
        source: &Instance,
        target_schema: &Schema,
        sigma: &Correspondences,
    ) -> Result<(Instance, ExchangeReport, ScriptRepository), StorageError> {
        let started = Instant::now();
        // Fig. 1: load + apply CFDs before tuple trees are generated.
        let prepared;
        let src: &Instance = if self.cfds.is_empty() {
            source
        } else {
            let mut clone = source.clone();
            self.cfds.apply(&mut clone)?;
            prepared = clone;
            &prepared
        };
        let mut pipeline = Pipeline::new(
            self.config.clone(),
            src,
            target_schema.clone(),
            sigma.clone(),
        )?;
        let mut trace = pipeline.begin(self.observer.as_deref());
        pipeline.pass(src, started, &mut trace)?;
        pipeline.close(&trace);
        Ok(pipeline.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedex_storage::{ConflictPolicy, RelationSchema, Value};

    /// Source/target of the running example (Figs. 2–3).
    fn university() -> (Instance, Schema, Correspondences) {
        let student =
            RelationSchema::with_any_columns("Student", &["sname", "program", "dep", "supervisor"])
                .primary_key(&["sname"])
                .unwrap()
                .foreign_key(&["dep"], "Dep")
                .unwrap()
                .foreign_key(&["supervisor"], "Prof")
                .unwrap();
        let prof = RelationSchema::with_any_columns("Prof", &["pname", "degree", "profdep"])
            .primary_key(&["pname"])
            .unwrap()
            .foreign_key(&["profdep"], "Dep")
            .unwrap();
        let dep = RelationSchema::with_any_columns("Dep", &["dname", "building"])
            .primary_key(&["dname"])
            .unwrap();
        let reg = RelationSchema::with_any_columns("Registration", &["sname", "course", "regdate"])
            .foreign_key(&["sname"], "Student")
            .unwrap();
        let schema = Schema::from_relations(vec![student, prof, dep, reg]).unwrap();
        let mut inst = Instance::new(schema);
        let p = ConflictPolicy::Reject;
        inst.insert("Dep", sedex_storage::tuple!["d1", "b1"], p)
            .unwrap();
        inst.insert("Dep", sedex_storage::tuple!["d2", "b2"], p)
            .unwrap();
        inst.insert("Prof", sedex_storage::tuple!["prof1", "deg1", "d1"], p)
            .unwrap();
        inst.insert("Prof", sedex_storage::tuple!["prof2", "deg2", "d2"], p)
            .unwrap();
        inst.insert(
            "Student",
            sedex_storage::tuple!["s1", "p1", "d1", "prof1"],
            p,
        )
        .unwrap();
        inst.insert(
            "Student",
            sedex_storage::tuple!["s2", "p2", "d2", Value::Null],
            p,
        )
        .unwrap();
        inst.insert("Registration", sedex_storage::tuple!["s1", "c1", "dt1"], p)
            .unwrap();

        let stu =
            RelationSchema::with_any_columns("Stu", &["student", "prog", "dpt", "supervisor"])
                .primary_key(&["student"])
                .unwrap();
        let course = RelationSchema::with_any_columns("Course", &["cname", "credit"])
            .primary_key(&["cname"])
            .unwrap();
        let reg_t = RelationSchema::with_any_columns("Reg", &["student", "cname", "date"])
            .foreign_key(&["student"], "Stu")
            .unwrap()
            .foreign_key(&["cname"], "Course")
            .unwrap();
        let target = Schema::from_relations(vec![stu, course, reg_t]).unwrap();

        let sigma = Correspondences::from_name_pairs([
            ("sname", "student"),
            ("course", "cname"),
            ("regdate", "date"),
            ("program", "prog"),
            ("dep", "dpt"),
        ]);
        (inst, target, sigma)
    }

    #[test]
    fn university_end_to_end() {
        let (src, target_schema, sigma) = university();
        let engine = SedexEngine::new();
        let (out, report) = engine.exchange(&src, &target_schema, &sigma).unwrap();
        // Registration (height 5) is processed first: s1 flows through it.
        // Students s1 (seen) is skipped; s2 processed directly.
        let stu = out.relation("Stu").unwrap();
        assert_eq!(stu.len(), 2, "{out}");
        assert!(stu.lookup_pk(&[Value::text("s1")]).is_some());
        assert!(stu.lookup_pk(&[Value::text("s2")]).is_some());
        assert_eq!(out.relation("Reg").unwrap().len(), 1);
        assert!(report.tuples_skipped_seen >= 1, "report: {report:?}");
        assert!(report.violations == 0);
    }

    #[test]
    fn no_entity_fragmentation_single_student_reference() {
        // s1 is reachable via Registration AND present in Student: exactly
        // one Stu tuple must exist for it, with merged (not fragmented)
        // properties.
        let (src, target_schema, sigma) = university();
        let engine = SedexEngine::new();
        let (out, _) = engine.exchange(&src, &target_schema, &sigma).unwrap();
        let stu = out.relation("Stu").unwrap();
        let s1 = stu.lookup_pk(&[Value::text("s1")]).unwrap();
        assert_eq!(s1.values()[1], Value::text("p1"));
        assert_eq!(s1.values()[2], Value::text("d1"));
    }

    #[test]
    fn reuse_and_no_reuse_agree() {
        let (src, target_schema, sigma) = university();
        let with = SedexEngine::new();
        let without = SedexEngine::with_config(SedexConfig {
            reuse_scripts: false,
            ..SedexConfig::default()
        });
        let (out1, r1) = with.exchange(&src, &target_schema, &sigma).unwrap();
        let (out2, r2) = without.exchange(&src, &target_schema, &sigma).unwrap();
        assert_eq!(out1.stats(), out2.stats());
        assert_eq!(r2.scripts_reused, 0);
        assert!(r1.scripts_generated <= r2.scripts_generated);
    }

    #[test]
    fn scripts_are_reused_for_same_shape() {
        let (mut src, target_schema, sigma) = university();
        for i in 0..50 {
            src.insert(
                "Registration",
                sedex_storage::tuple!["s1", format!("c{i}"), format!("dt{i}")],
                ConflictPolicy::Allow,
            )
            .unwrap();
        }
        let engine = SedexEngine::new();
        let (_, report) = engine.exchange(&src, &target_schema, &sigma).unwrap();
        assert!(report.scripts_reused >= 49, "report: {report:?}");
        assert!(report.hit_ratio() > 0.5);
    }

    /// Acceptance criterion of the observability issue: with no observer
    /// attached and no slow threshold, the engine takes no phase clock
    /// readings at all — the breakdown stays identically zero.
    #[test]
    fn no_observer_no_threshold_records_no_phase_timings() {
        let (src, target_schema, sigma) = university();
        let (_, report) = SedexEngine::new()
            .exchange(&src, &target_schema, &sigma)
            .unwrap();
        assert!(report.phases.is_zero(), "phases: {:?}", report.phases);
    }

    #[test]
    fn attached_registry_observer_fills_the_registry_live() {
        use sedex_observe::{names, MetricsRegistry, RegistryObserver};
        let (src, target_schema, sigma) = university();
        let registry = MetricsRegistry::new();
        let engine = SedexEngine::new().with_observer(Arc::new(RegistryObserver::new(&registry)));
        let (_, report) = engine.exchange(&src, &target_schema, &sigma).unwrap();
        assert!(!report.phases.is_zero());
        assert_eq!(registry.counter_value(names::EXCHANGE_TOTAL), Some(1));
        assert_eq!(
            registry.counter_value(names::TUPLES_TOTAL),
            Some(report.tuples_processed as u64)
        );
        assert_eq!(
            registry.counter_value(names::ROWS_INSERTED_TOTAL),
            Some(report.inserted as u64)
        );
    }

    #[test]
    fn hit_event_cap_is_reported_and_counted() {
        use sedex_observe::{names, MetricsRegistry, RegistryObserver};
        let (mut src, target_schema, sigma) = university();
        for i in 0..100 {
            src.insert(
                "Registration",
                sedex_storage::tuple!["s1", format!("c{i}"), format!("dt{i}")],
                ConflictPolicy::Allow,
            )
            .unwrap();
        }
        let registry = MetricsRegistry::new();
        let engine = SedexEngine::with_config(SedexConfig {
            record_hit_events: true,
            hit_event_limit: 10,
            ..SedexConfig::default()
        })
        .with_observer(Arc::new(RegistryObserver::new(&registry)));
        let (_, report) = engine.exchange(&src, &target_schema, &sigma).unwrap();
        assert_eq!(report.hit_events.len(), 10);
        assert!(report.hit_events_dropped > 0, "report: {report:?}");
        assert_eq!(
            registry.counter_value(names::HIT_EVENTS_DROPPED_TOTAL),
            Some(report.hit_events_dropped as u64)
        );
    }

    #[test]
    fn slow_threshold_alone_populates_the_phase_breakdown() {
        let (src, target_schema, sigma) = university();
        let engine = SedexEngine::with_config(SedexConfig {
            slow_exchange_threshold: Some(Duration::ZERO),
            ..SedexConfig::default()
        });
        let (_, report) = engine.exchange(&src, &target_schema, &sigma).unwrap();
        assert!(!report.phases.is_zero());
        assert!(report.phases.total() <= report.total_time() * 2);
    }

    /// The Section 1.2 / 4.5 headline: SEDEX produces the EXPECTED solution
    /// on the generalization-ambiguity scenario — 2 tuples, not ++Spicy's 4.
    #[test]
    fn ambiguity_scenario_expected_solution() {
        let inst_rel = RelationSchema::with_any_columns(
            "Inst",
            &["name", "studentID", "employeeID", "courseId"],
        )
        .primary_key(&["name"])
        .unwrap()
        .foreign_key(&["courseId"], "Course")
        .unwrap();
        let course = RelationSchema::with_any_columns("Course", &["courseId", "credit"])
            .primary_key(&["courseId"])
            .unwrap();
        let source_schema = Schema::from_relations(vec![inst_rel, course]).unwrap();
        let mut src = Instance::new(source_schema);
        let p = ConflictPolicy::Allow;
        src.insert(
            "Inst",
            sedex_storage::tuple!["I1", "st1", Value::Null, "c1"],
            p,
        )
        .unwrap();
        src.insert(
            "Inst",
            sedex_storage::tuple!["I2", Value::Null, "e1", "c2"],
            p,
        )
        .unwrap();
        src.insert("Course", sedex_storage::tuple!["c1", 3i64], p)
            .unwrap();
        src.insert("Course", sedex_storage::tuple!["c2", 2i64], p)
            .unwrap();

        let grad = RelationSchema::with_any_columns("Grad", &["name", "stId", "course"])
            .primary_key(&["name"])
            .unwrap();
        let prof_t = RelationSchema::with_any_columns("Prof", &["name", "empId", "course"])
            .primary_key(&["name"])
            .unwrap();
        let target = Schema::from_relations(vec![grad, prof_t]).unwrap();

        let mut sigma = Correspondences::new();
        sigma.add_qualified("Inst", "name", "Grad", "name");
        sigma.add_qualified("Inst", "name", "Prof", "name");
        sigma.add_qualified("Inst", "studentID", "Grad", "stId");
        sigma.add_qualified("Inst", "employeeID", "Prof", "empId");
        sigma.add_qualified("Inst", "courseId", "Grad", "course");
        sigma.add_qualified("Inst", "courseId", "Prof", "course");

        let engine = SedexEngine::new();
        let (out, _) = engine.exchange(&src, &target, &sigma).unwrap();
        // Expected solution: Grad(I1, st1, c1) and Prof(I2, e1, c2) ONLY.
        assert_eq!(out.relation("Grad").unwrap().len(), 1, "{out}");
        assert_eq!(out.relation("Prof").unwrap().len(), 1, "{out}");
        assert_eq!(
            out.relation("Grad").unwrap().row(0).unwrap(),
            &sedex_storage::tuple!["I1", "st1", "c1"]
        );
        assert_eq!(
            out.relation("Prof").unwrap().row(0).unwrap(),
            &sedex_storage::tuple!["I2", "e1", "c2"]
        );
        assert_eq!(out.stats().nulls, 0);
    }
}
