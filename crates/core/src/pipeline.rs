//! The exchange pipeline of Fig. 1, written once for every caller.
//!
//! [`Pipeline`] owns what the mapping compiles to (tree config, Σ, target
//! forest, matcher) and what an exchange accumulates (script repository,
//! seen set, target, fresh-label counter, running report). The engine runs
//! one [`Pipeline::pass`] over a whole source; a session keeps one pipeline
//! and runs a [`Pipeline::step`] per PUSH and a pass per FLUSH; EDEX steps
//! every tuple with script reuse off.
//!
//! A tuple reaches `step` as a shape walk ([`Shapes`]), not a tree: its
//! shape ids key the repository, its slot values feed the script run and
//! its visited rows are marked seen by schema position. Only a miss builds
//! the tuple tree, which `Match` and translation need. What the walk and
//! the pass read from the source schema — the shape catalog and the
//! processing order — is compiled at first use, not in `new`, which every
//! session OPEN pays.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sedex_mapping::Correspondences;
use sedex_observe::{Event, Observer, Phase};
use sedex_storage::relation::RowId;
use sedex_storage::{Instance, Schema, StorageError};
use sedex_treerep::{SchemaForest, Shape, ShapeCatalog, Shapes, TreeConfig, TupleTree};

use crate::engine::SedexConfig;
use crate::marking::SeenSet;
use crate::matcher::Matcher;
use crate::metrics::ExchangeReport;
use crate::repository::ScriptRepository;
use crate::script::{ResolvedScript, RunOutcome, Script};
use crate::scriptgen::generate_script;
use crate::session::SessionState;
use crate::trace::Trace;
use crate::translate::translate;

/// The compiled mapping plus the state an exchange accumulates.
pub(crate) struct Pipeline {
    config: SedexConfig,
    tree_cfg: TreeConfig,
    sigma: Correspondences,
    target_forest: SchemaForest,
    matcher: Matcher,
    pub(crate) repo: ScriptRepository,
    pub(crate) seen: SeenSet,
    pub(crate) target: Instance,
    fresh_counter: u64,
    pub(crate) report: ExchangeReport,
    /// The source schema's shape catalog, compiled at the first walk.
    catalog: Option<ShapeCatalog>,
    /// Source relations (schema positions) in processing order, computed
    /// at the first pass.
    order: Option<Vec<usize>>,
    /// Report time, tuples processed and hit events dropped where the
    /// current unit of work began.
    unit: (Duration, usize, u64),
}

impl Pipeline {
    /// Compile the mapping into `target_schema` under Σ and start an empty
    /// target, with a seen set sized for `source`.
    pub(crate) fn new(
        config: SedexConfig,
        source: &Instance,
        target_schema: Schema,
        sigma: Correspondences,
    ) -> Result<Self, StorageError> {
        let tree_cfg = TreeConfig {
            max_depth: config.max_depth,
            prune_nulls: config.prune_nulls,
        };
        let target_forest = SchemaForest::new(&target_schema, &tree_cfg)?;
        let matcher = match config.window {
            None => Matcher::new(&target_forest, config.p, config.q),
            Some(w) => Matcher::windowed(&target_forest, config.p, config.q, w),
        };
        let target = Instance::new(target_schema);
        Ok(Pipeline {
            repo: repository(&config, &target),
            seen: SeenSet::for_instance(source),
            target,
            fresh_counter: 0,
            report: ExchangeReport::default(),
            catalog: None,
            order: None,
            unit: Default::default(),
            config,
            tree_cfg,
            sigma,
            target_forest,
            matcher,
        })
    }

    /// Export the accumulated state, with `source`, for a durability
    /// snapshot (the hit-event log is left out).
    pub(crate) fn export(&self, source: Instance) -> SessionState {
        let mut report = self.report.without_hit_events();
        report.stats = self.target.stats();
        SessionState {
            source,
            target: self.target.clone(),
            repository: self.repo.export(),
            seen: self.seen.export(),
            fresh_counter: self.fresh_counter,
            report,
        }
    }

    /// Replace the accumulated state with an exported one, keeping the
    /// compiled mapping; returns the exported source.
    pub(crate) fn restore(&mut self, state: SessionState) -> Instance {
        self.target = state.target;
        self.repo = repository(&self.config, &self.target);
        self.repo.import(state.repository);
        self.seen = SeenSet::import_for(state.source.schema(), state.seen);
        self.fresh_counter = state.fresh_counter;
        self.report = state.report;
        self.catalog = None;
        self.order = None;
        state.source
    }

    /// Relations (schema positions) in processing order: descending
    /// relation-tree height (§4.1), or schema order with `order_by_height`
    /// off. Computed once, at the first call.
    pub(crate) fn order(&mut self, src: &Instance) -> Result<&[usize], StorageError> {
        if self.order.is_none() {
            let schema = src.schema();
            self.order = Some(if self.config.order_by_height {
                SchemaForest::new(schema, &self.tree_cfg)?
                    .processing_order()
                    .into_iter()
                    .map(|name| schema.relation_index_or_err(name))
                    .collect::<Result<_, _>>()?
            } else {
                (0..schema.len()).collect()
            });
        }
        Ok(self.order.as_deref().unwrap_or_default())
    }

    /// Whether a row was already reached through a referencing tuple
    /// (§4.2); a seen row is counted as skipped. `rel` is a schema
    /// position.
    pub(crate) fn skip_seen(&mut self, rel: usize, row: RowId) -> bool {
        let seen = self.config.mark_seen && self.seen.is_seen_at(rel, row);
        if seen {
            self.report.tuples_skipped_seen += 1;
        }
        seen
    }

    /// Walk row `row` of relation `rel` (a schema position) of `src` into
    /// `out`.
    pub(crate) fn walk<'a>(
        &mut self,
        src: &'a Instance,
        rel: usize,
        row: RowId,
        out: &mut Shapes<'a>,
    ) -> Result<(), StorageError> {
        catalog(&mut self.catalog, src).walk(src, rel, row, &self.tree_cfg, out)
    }

    /// The tuple tree of row `row` of relation `rel` of `src` — the tree of
    /// the walk [`Pipeline::walk`] makes.
    pub(crate) fn tuple_tree<'a>(
        &mut self,
        src: &'a Instance,
        rel: usize,
        row: RowId,
    ) -> Result<TupleTree<'a>, StorageError> {
        catalog(&mut self.catalog, src).tuple_tree(src, rel, row, &self.tree_cfg)
    }

    /// Exchange one walked source row. `tree` is its tuple tree when the
    /// caller has it; a miss builds it otherwise. `clock` holds when the
    /// caller began on this row: the time from there to the script run is
    /// charged to Tg, the run to Te, and `clock` is left at the run's end —
    /// where the caller's next row begins.
    pub(crate) fn step<'a>(
        &mut self,
        src: &'a Instance,
        shape: &Shape<'_, 'a>,
        tree: Option<&TupleTree<'a>>,
        clock: &mut Instant,
        trace: &mut Trace,
    ) -> Result<RunOutcome, StorageError> {
        if self.config.mark_seen {
            // One probe re-checks and marks the row, since a tuple stepped
            // after its check may have marked it. Every row has a bit: the
            // engine sizes the set for its source and `feed` grows it.
            if !self.seen.mark_at(shape.relation, shape.row) {
                self.report.tuples_skipped_seen += 1;
                return Ok(RunOutcome::default());
            }
            self.seen.mark_all_at(shape.visited);
        }
        let script = if self.config.reuse_scripts {
            let catalog = catalog(&mut self.catalog, src);
            match self.repo.lookup_shape(shape.ids, || {
                catalog.repository_key(src.schema(), shape.ids)
            }) {
                Ok(s) => {
                    self.report.scripts_reused += 1;
                    trace.lookup(true);
                    s
                }
                Err(key) => {
                    let generated = self.miss(src, shape, tree, trace)?;
                    self.repo.insert_shape(shape.ids, key, generated)
                }
            }
        } else {
            // The reuse ablation keeps no repository: every tuple misses.
            let generated = self.miss(src, shape, tree, trace)?;
            Arc::new(ResolvedScript::new(generated, Some(self.target.schema())))
        };
        self.report.tuples_processed += 1;

        // One clock read ends Tg and starts Te, one ends Te; the script
        // run's phase is timed by the same two.
        let ran = Instant::now();
        self.report.tg += ran - *clock;
        let mut out = RunOutcome::default();
        if !script.is_empty() {
            out = script.run(shape.slots, &mut self.target, &mut self.fresh_counter)?;
        }
        let done = Instant::now();
        self.report.te += done - ran;
        *clock = done;
        if !script.is_empty() {
            trace.span(Phase::ScriptRun, ran, done);
            trace.outcome(&out);
        }
        self.report.inserted += out.inserted;
        self.report.merged += out.merged;
        self.report.violations += out.violations;
        Ok(out)
    }

    /// Generate the script of a walked row from its tuple tree, built here
    /// unless the caller has it.
    fn miss<'a>(
        &mut self,
        src: &'a Instance,
        shape: &Shape<'_, 'a>,
        tree: Option<&TupleTree<'a>>,
        trace: &mut Trace,
    ) -> Result<Script, StorageError> {
        let tx = match tree {
            Some(tx) => Cow::Borrowed(tx),
            None => Cow::Owned(self.tuple_tree(src, shape.relation, shape.row)?),
        };
        Ok(self.generate(&tx, trace))
    }

    /// The miss path: Match → translate (Alg. 1) → generate (Alg. 2). An
    /// unmatched tuple gets the empty script.
    fn generate(&mut self, tx: &TupleTree<'_>, trace: &mut Trace) -> Script {
        self.report.scripts_generated += 1;
        trace.lookup(false);
        let m0 = trace.start();
        let best = self.matcher.best_match(tx, &self.sigma);
        trace.end(Phase::Match, m0);
        let script = match best.and_then(|m| self.target_forest.tree(&m.relation)) {
            Some(tr) => {
                let t0 = trace.start();
                let ty = translate(tx, tr, &self.sigma);
                trace.end(Phase::Translate, t0);
                let g0 = trace.start();
                let script = generate_script(&ty, self.target.schema());
                trace.end(Phase::ScriptGen, g0);
                script
            }
            None => Script::default(),
        };
        if script.is_empty() {
            self.report.tuples_unmatched += 1;
        }
        script
    }

    /// One pass over the unseen rows of `src`: relations in processing
    /// order, `batch_size` rows a batch. A batch's rows are walked together
    /// into flat buffers (one TreeBuild phase), then stepped in row order. The time since `started` (the caller's set-up) is charged to
    /// Tg.
    pub(crate) fn pass(
        &mut self,
        src: &Instance,
        started: Instant,
        trace: &mut Trace,
    ) -> Result<RunOutcome, StorageError> {
        let order = self.order(src)?.to_vec();
        self.report.tg += started.elapsed();
        let mut total = RunOutcome::default();
        for rel in order {
            let rows = src.relation_at(rel).len() as RowId;
            let mut start = 0;
            while start < rows {
                let end = (start + self.config.batch_size as RowId).min(rows);
                let built = Instant::now();
                let tb = trace.start();
                // Fresh buffers per batch: kept across batches, they would
                // leave one large free block behind the pass, which later
                // small allocations split and coalesce again (a session
                // OPEN after an exchange measured ~5 % slower).
                let mut shapes = Shapes::default();
                for row in start..end {
                    if !self.skip_seen(rel, row) {
                        self.walk(src, rel, row, &mut shapes)?;
                    }
                }
                trace.end(Phase::TreeBuild, tb);
                let mut clock = Instant::now();
                self.report.tg += clock - built;
                for i in 0..shapes.len() {
                    total += self.step(src, &shapes.get(i), None, &mut clock, trace)?;
                }
                start = end;
            }
        }
        Ok(total)
    }

    /// Open a unit of work — an engine exchange, a PUSH, a FLUSH — traced
    /// to `obs`.
    pub(crate) fn begin<'a>(&mut self, obs: Option<&'a dyn Observer>) -> Trace<'a> {
        self.unit = (
            self.report.total_time(),
            self.report.tuples_processed,
            self.repo.events_dropped(),
        );
        Trace::new(obs, self.config.slow_exchange_threshold)
    }

    /// Close the unit: report the hit events it dropped, fold its phase
    /// times into the report, and emit one `Exchange` event (plus a slow
    /// record when it exceeded the threshold).
    pub(crate) fn close(&mut self, trace: &Trace) {
        let (time, tuples, dropped) = self.unit;
        let dropped = self.repo.events_dropped() - dropped;
        if dropped > 0 {
            trace.emit(&Event::HitEventsDropped { count: dropped });
        }
        for (phase, nanos) in trace.totals.iter() {
            if nanos > 0 {
                self.report.phases.add(phase, nanos);
            }
        }
        let r = &self.report;
        trace.finish_exchange(r.total_time() - time, (r.tuples_processed - tuples) as u64);
    }

    /// The running counters with the current drop count, without the
    /// hit-event log.
    pub(crate) fn counters(&self) -> ExchangeReport {
        let mut r = self.report.without_hit_events();
        r.hit_events_dropped = self.repo.events_dropped() as usize;
        r
    }

    /// The running report with target stats, a copy of the hit-event log
    /// and the drop count filled in.
    pub(crate) fn report(&mut self) -> &ExchangeReport {
        self.report.hit_events.clear();
        self.report.hit_events.extend_from_slice(self.repo.events());
        self.fill_report();
        &self.report
    }

    /// The target, the finished report (the hit-event log moved into it)
    /// and the repository.
    pub(crate) fn finish(mut self) -> (Instance, ExchangeReport, ScriptRepository) {
        self.report.hit_events = self.repo.take_events();
        self.fill_report();
        (self.target, self.report, self.repo)
    }

    fn fill_report(&mut self) {
        self.report.stats = self.target.stats();
        self.report.hit_events_dropped = self.repo.events_dropped() as usize;
    }
}

/// `src`'s shape catalog, compiled into `slot` at the first call.
fn catalog<'c>(slot: &'c mut Option<ShapeCatalog>, src: &Instance) -> &'c ShapeCatalog {
    slot.get_or_insert_with(|| ShapeCatalog::new(src.schema()))
}

/// An empty repository with the configured hit-event recording, resolving
/// scripts against `target`'s schema.
fn repository(config: &SedexConfig, target: &Instance) -> ScriptRepository {
    ScriptRepository::with_event_limit(config.record_hit_events, config.hit_event_limit)
        .resolving_against(target.shared_schema())
}
