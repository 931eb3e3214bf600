//! The exchange pipeline of Fig. 1, written once for every caller.
//!
//! [`Pipeline`] owns what the mapping compiles to (tree config, Σ, target
//! forest, matcher) and what an exchange accumulates (script repository,
//! seen set, target, fresh-label counter, running report). The engine runs
//! one [`Pipeline::pass`] over a whole source; a session keeps one pipeline
//! and runs a [`Pipeline::step`] per PUSH and a pass per FLUSH; EDEX steps
//! every tuple with script reuse off.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sedex_mapping::Correspondences;
use sedex_observe::{Event, Observer, Phase};
use sedex_storage::relation::RowId;
use sedex_storage::{Instance, Schema, StorageError};
use sedex_treerep::{repository_key, tuple_tree, SchemaForest, TreeConfig, TupleTree};

use crate::engine::SedexConfig;
use crate::marking::SeenSet;
use crate::matcher::Matcher;
use crate::metrics::ExchangeReport;
use crate::repository::ScriptRepository;
use crate::script::{run_script, RunOutcome, Script};
use crate::scriptgen::generate_script;
use crate::session::SessionState;
use crate::trace::Trace;
use crate::translate::{slot_values, translate};

/// The compiled mapping plus the state an exchange accumulates.
pub(crate) struct Pipeline {
    config: SedexConfig,
    pub(crate) tree_cfg: TreeConfig,
    sigma: Correspondences,
    target_forest: SchemaForest,
    matcher: Matcher,
    pub(crate) repo: ScriptRepository,
    pub(crate) seen: SeenSet,
    pub(crate) target: Instance,
    fresh_counter: u64,
    pub(crate) report: ExchangeReport,
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
        Ok(Pipeline {
            repo: repository(&config),
            seen: SeenSet::for_instance(source),
            target: Instance::new(target_schema),
            fresh_counter: 0,
            report: ExchangeReport::default(),
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
        self.repo = repository(&self.config);
        self.repo.import(state.repository);
        self.seen = SeenSet::import(state.seen);
        self.fresh_counter = state.fresh_counter;
        self.report = state.report;
        state.source
    }

    /// Relations in processing order: descending relation-tree height
    /// (§4.1), or schema order with `order_by_height` off.
    pub(crate) fn order(&self, src: &Instance) -> Result<Vec<String>, StorageError> {
        Ok(if self.config.order_by_height {
            SchemaForest::new(src.schema(), &self.tree_cfg)?
                .processing_order()
                .into_iter()
                .map(str::to_owned)
                .collect()
        } else {
            src.schema().relation_names().map(str::to_owned).collect()
        })
    }

    /// Whether a row was already reached through a referencing tuple
    /// (§4.2); a seen row is counted as skipped.
    pub(crate) fn skip_seen(&mut self, relation: &str, row: RowId) -> bool {
        let seen = self.config.mark_seen && self.seen.is_seen(relation, row);
        if seen {
            self.report.tuples_skipped_seen += 1;
        }
        seen
    }

    /// Exchange one source row through its built tuple tree. The time from
    /// `started` — when the caller began on this row — to the script run is
    /// charged to Tg, the run to Te.
    pub(crate) fn step(
        &mut self,
        relation: &str,
        row: RowId,
        tx: &TupleTree<'_>,
        started: Instant,
        trace: &mut Trace,
    ) -> Result<RunOutcome, StorageError> {
        if self.config.mark_seen {
            // One probe re-checks and marks the row, since a tuple stepped
            // after its check may have marked it. Every row has a bit: the
            // engine sizes the set for its source and `feed` grows it.
            if !self.seen.mark(relation, row) {
                self.report.tuples_skipped_seen += 1;
                return Ok(RunOutcome::default());
            }
            self.seen.mark_all(&tx.visited);
        }
        let script = if self.config.reuse_scripts {
            let key = repository_key(tx);
            match self.repo.lookup(&key) {
                Some(s) => {
                    self.report.scripts_reused += 1;
                    trace.lookup(true);
                    s
                }
                None => {
                    let generated = self.generate(tx, trace);
                    self.repo.insert(key, generated)
                }
            }
        } else {
            // The reuse ablation keeps no repository: every tuple misses.
            Arc::new(self.generate(tx, trace))
        };
        self.report.tuples_processed += 1;
        self.report.tg += started.elapsed();

        let t1 = Instant::now();
        let mut out = RunOutcome::default();
        if !script.is_empty() {
            let sr = trace.start();
            out = run_script(
                &script,
                &slot_values(tx),
                &mut self.target,
                &mut self.fresh_counter,
            )?;
            trace.end(Phase::ScriptRun, sr);
            trace.outcome(&out);
        }
        self.report.te += t1.elapsed();
        self.report.inserted += out.inserted;
        self.report.merged += out.merged;
        self.report.violations += out.violations;
        Ok(out)
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
    /// order, `batch_size` rows a batch. A batch's trees are built together
    /// (one TreeBuild phase), then stepped in row order. The time since
    /// `started` (the caller's set-up) is charged to Tg.
    pub(crate) fn pass(
        &mut self,
        src: &Instance,
        started: Instant,
        trace: &mut Trace,
    ) -> Result<RunOutcome, StorageError> {
        let order = self.order(src)?;
        self.report.tg += started.elapsed();
        let mut total = RunOutcome::default();
        for rel in &order {
            let rows = src.relation_or_err(rel)?.len() as RowId;
            let mut start = 0;
            while start < rows {
                let end = (start + self.config.batch_size as RowId).min(rows);
                let built = Instant::now();
                let tb = trace.start();
                let todo: Vec<RowId> = (start..end).filter(|&r| !self.skip_seen(rel, r)).collect();
                let trees = todo
                    .into_iter()
                    .map(|r| tuple_tree(src, rel, r, &self.tree_cfg).map(|t| (r, t)))
                    .collect::<Result<Vec<_>, _>>()?;
                trace.end(Phase::TreeBuild, tb);
                self.report.tg += built.elapsed();
                for (row, tx) in trees {
                    total += self.step(rel, row, &tx, Instant::now(), trace)?;
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

/// An empty repository with the configured hit-event recording.
fn repository(config: &SedexConfig) -> ScriptRepository {
    ScriptRepository::with_event_limit(config.record_hit_events, config.hit_event_limit)
}
