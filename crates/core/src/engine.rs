//! The SEDEX engine: the pay-as-you-go pipeline of Fig. 1.
//!
//! ```text
//! load CFDs → order relations by tree height → per unseen tuple:
//!   build tuple tree (mark referenced tuples seen)
//!   shape key → script repository?
//!     hit  → reuse script
//!     miss → Match → translate (Alg. 1) → generate script (Alg. 2) → store
//!   run script under target egds
//! ```
//!
//! Every knob the paper discusses (and every ablation DESIGN.md calls out)
//! is a field of [`SedexConfig`].
//!
//! With `threads > 1` the *whole* per-batch pipeline runs in parallel, not
//! just tree building: shape keys and slot values are computed on worker
//! threads, the miss path (Match → translate → generate) fans out over the
//! *distinct* unseen shapes of the batch (the matcher's cached profiles,
//! the schema forest and Σ are immutable), and script execution resolves
//! values in parallel and partitions inserts by target relation so egd/key
//! checks stay serialized per relation. A serial *replay* of repository
//! lookups, seen-marking and fresh-label assignment keeps the output —
//! instance bytes, counters, repository contents, hit-event sequence —
//! byte-identical to the single-threaded engine.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sedex_mapping::Correspondences;
use sedex_observe::{Event, Observer, Phase};
use sedex_storage::{ConflictPolicy, Instance, Schema, StorageError, Tuple, Value};
use sedex_treerep::{repository_key, tuple_tree, SchemaForest, TreeConfig, TupleTree};

use crate::cfd::CfdInterpreter;
use crate::marking::SeenSet;
use crate::matcher::Matcher;
use crate::metrics::ExchangeReport;
use crate::repository::{RepositoryExport, ScriptRepository, DEFAULT_EVENT_LIMIT};
use crate::script::{run_script, statement_tuple, FreshLabels, RunOutcome, Script};
use crate::scriptgen::generate_script;
use crate::trace::Trace;
use crate::translate::{slot_values, translate};

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
    /// re-translated.
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
    /// Worker threads for the batch pipeline — tree building, shape keys,
    /// the miss path over distinct shapes, and script execution; 1 =
    /// serial. The output instance is byte-identical regardless of thread
    /// count.
    pub threads: usize,
    /// Record per-lookup hit events (needed only for the Fig. 14 curve).
    pub record_hit_events: bool,
    /// Cap on the recorded hit-event buffer between drains; lookups past
    /// the cap are counted in `hit_events_dropped` instead of growing the
    /// buffer without bound (long-lived service sessions only drain on
    /// FLUSH).
    pub hit_event_limit: usize,
    /// Tuples are processed in batches of this many rows (bounds memory in
    /// the parallel phase).
    pub batch_size: usize,
    /// Batches smaller than this stay serial even with `threads > 1`: the
    /// fan-out overhead beats the work below here. Small service PUSH/FEED
    /// batches can lower it to parallelize anyway.
    pub parallel_threshold: usize,
    /// Exchanges slower than this emit a one-line structured record (with
    /// per-phase breakdown) to stderr and an
    /// [`Event::SlowExchange`] to the attached observer. `None` (default)
    /// disables the check and the per-phase clock reads it needs.
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
            threads: 1,
            record_hit_events: false,
            hit_event_limit: DEFAULT_EVENT_LIMIT,
            batch_size: 8192,
            parallel_threshold: 64,
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

/// One executable item of a parallel batch: the (possibly reused) script,
/// the tuple's slot values, and its pre-assigned fresh labels.
type ExecItem<'a> = (Arc<Script>, &'a [&'a Value], FreshLabels);

/// Chunked fork-join map over a slice on scoped threads, preserving item
/// order. Falls back to a plain serial map when there is nothing to fan
/// out. The closure must be pure (or at least commutative): items are
/// mapped out of order across chunks.
fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut parts: Vec<Vec<R>> = Vec::with_capacity(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| {
                let f = &f;
                s.spawn(move || part.iter().map(f).collect::<Vec<R>>())
            })
            .collect();
        for h in handles {
            parts.push(h.join().expect("pipeline worker panicked"));
        }
    });
    let mut out = Vec::with_capacity(items.len());
    for p in parts {
        out.extend(p);
    }
    out
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
    /// [`Event`]. Without an observer (the default) the tracing hooks
    /// cost a `None` check — no clock reads, no allocation, no atomics.
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
        self.exchange_impl(source, target_schema, sigma, false)
            .map(|(out, report, _)| (out, report))
    }

    /// Like [`SedexEngine::exchange`], but also returns the final script
    /// repository as an export — entries sorted by shape key plus the
    /// lookup counters. Determinism tests compare the exports of runs at
    /// different thread counts; warm-start pipelines seed a
    /// [`crate::SedexSession`] from it.
    pub fn exchange_with_repository(
        &self,
        source: &Instance,
        target_schema: &Schema,
        sigma: &Correspondences,
    ) -> Result<(Instance, ExchangeReport, RepositoryExport), StorageError> {
        self.exchange_impl(source, target_schema, sigma, true)
            .map(|(out, report, export)| (out, report, export.expect("export requested")))
    }

    fn exchange_impl(
        &self,
        source: &Instance,
        target_schema: &Schema,
        sigma: &Correspondences,
        want_repository: bool,
    ) -> Result<(Instance, ExchangeReport, Option<RepositoryExport>), StorageError> {
        let cfg = &self.config;
        let tree_cfg = TreeConfig {
            max_depth: cfg.max_depth,
            prune_nulls: cfg.prune_nulls,
        };
        let mut report = ExchangeReport::default();
        let mut trace = Trace::new(self.observer.as_deref(), cfg.slow_exchange_threshold);
        let tg_start = Instant::now();

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

        let source_forest = SchemaForest::new(src.schema(), &tree_cfg)?;
        let target_forest = SchemaForest::new(target_schema, &tree_cfg)?;
        let matcher = match cfg.window {
            None => Matcher::new(&target_forest, cfg.p, cfg.q),
            Some(w) => Matcher::windowed(&target_forest, cfg.p, cfg.q, w),
        };

        let order: Vec<String> = if cfg.order_by_height {
            source_forest
                .processing_order()
                .into_iter()
                .map(str::to_owned)
                .collect()
        } else {
            src.schema().relation_names().map(str::to_owned).collect()
        };

        let mut repo =
            ScriptRepository::with_event_limit(cfg.record_hit_events, cfg.hit_event_limit);
        let mut seen = SeenSet::for_instance(src);
        let mut target = Instance::new(target_schema.clone());
        let mut outcome = RunOutcome::default();
        let mut fresh_counter: u64 = 0;
        report.tg = tg_start.elapsed();

        for rel_name in &order {
            let row_count = src.relation_or_err(rel_name)?.len() as u32;
            let mut batch_start = 0u32;
            while batch_start < row_count {
                let batch_end = (batch_start + cfg.batch_size as u32).min(row_count);
                let tg0 = Instant::now();
                let tb = trace.start();
                let (trees, skipped) =
                    self.build_batch(src, rel_name, batch_start..batch_end, &seen, &tree_cfg)?;
                trace.end(Phase::TreeBuild, tb);
                report.tuples_skipped_seen += skipped;

                if cfg.threads > 1 && trees.len() >= cfg.parallel_threshold.max(1) {
                    report.tg += tg0.elapsed();
                    self.run_batch_parallel(
                        rel_name,
                        &trees,
                        &matcher,
                        &target_forest,
                        sigma,
                        target_schema,
                        &mut seen,
                        &mut repo,
                        &mut target,
                        &mut fresh_counter,
                        &mut outcome,
                        &mut report,
                        &mut trace,
                    )?;
                    batch_start = batch_end;
                    continue;
                }

                let mut tg_batch = tg0.elapsed();
                for (row, tx) in trees {
                    // Re-check: a tuple earlier in this batch may have
                    // marked this one.
                    if cfg.mark_seen && seen.is_seen(rel_name, row) {
                        report.tuples_skipped_seen += 1;
                        continue;
                    }
                    let t0 = Instant::now();
                    if cfg.mark_seen {
                        seen.mark_all(&tx.visited);
                    }
                    let key = repository_key(&tx);
                    let script = if cfg.reuse_scripts {
                        repo.lookup(&key)
                    } else {
                        None
                    };
                    let script = match script {
                        Some(s) => {
                            report.scripts_reused += 1;
                            trace.lookup(true);
                            s
                        }
                        None => {
                            report.scripts_generated += 1;
                            trace.lookup(false);
                            let generated = self.generate_for(
                                &tx,
                                &matcher,
                                &target_forest,
                                sigma,
                                target_schema,
                                &mut trace,
                            );
                            if generated.is_empty() {
                                report.tuples_unmatched += 1;
                            }
                            repo.insert(key, generated)
                        }
                    };
                    report.tuples_processed += 1;
                    tg_batch += t0.elapsed();

                    let t1 = Instant::now();
                    if !script.is_empty() {
                        let sr = trace.start();
                        let delta = run_script(
                            &script,
                            &slot_values(&tx),
                            &mut target,
                            &mut fresh_counter,
                        )?;
                        trace.end(Phase::ScriptRun, sr);
                        trace.outcome(&delta);
                        outcome += delta;
                    }
                    report.te += t1.elapsed();
                }
                report.tg += tg_batch;
                batch_start = batch_end;
            }
        }

        report.inserted = outcome.inserted;
        report.merged = outcome.merged;
        report.violations = outcome.violations;
        report.stats = target.stats();
        report.hit_events = repo.take_events();
        report.hit_events_dropped = repo.events_dropped() as usize;
        if report.hit_events_dropped > 0 {
            trace.emit(&Event::HitEventsDropped {
                count: report.hit_events_dropped as u64,
            });
        }
        report.phases = trace.totals;
        trace.finish_exchange(
            report.total_time(),
            report.tuples_processed as u64,
            cfg.slow_exchange_threshold,
        );
        let export = want_repository.then(|| repo.export());
        Ok((target, report, export))
    }

    /// The parallel per-batch pipeline. Four stages:
    ///
    /// 1. **Prepare** (parallel): shape key + slot values per built tree —
    ///    pure functions of the tree.
    /// 2. **Plan** (serial, row order): seen re-check + marking, then the
    ///    *distinct* shapes missing from the repository, in first-miss
    ///    order.
    /// 3. **Generate** (parallel): Match → translate → generate for each
    ///    missing shape; then a serial row-order *replay* of repository
    ///    lookups/inserts so counters, hit events and `new_keys` match the
    ///    serial engine exactly.
    /// 4. **Execute**: fresh labels are pre-assigned serially in row order
    ///    (byte-identical to the serial engine's lazy minting), statement
    ///    values resolve in parallel, and inserts are partitioned by
    ///    target relation — per-relation order preserved, egd/key checks
    ///    serialized per relation, relations running concurrently.
    #[allow(clippy::too_many_arguments)]
    fn run_batch_parallel(
        &self,
        rel_name: &str,
        trees: &[(u32, TupleTree<'_>)],
        matcher: &Matcher,
        target_forest: &SchemaForest,
        sigma: &Correspondences,
        target_schema: &Schema,
        seen: &mut SeenSet,
        repo: &mut ScriptRepository,
        target: &mut Instance,
        fresh_counter: &mut u64,
        outcome: &mut RunOutcome,
        report: &mut ExchangeReport,
        trace: &mut Trace,
    ) -> Result<(), StorageError> {
        let cfg = &self.config;
        let threads = cfg.threads;
        let obs = self.observer.as_deref();
        let tg0 = Instant::now();

        // Stage 1: shape keys and slot values, fanned out.
        let preps: Vec<(String, Vec<&Value>)> = par_map(trees, threads, |(_, tx)| {
            (repository_key(tx), slot_values(tx))
        });

        // Stage 2: serial planning in row order. Seen-marking must replay
        // serially — a tuple earlier in the batch may mark a later one.
        let mut kept: Vec<usize> = Vec::with_capacity(trees.len());
        for (i, (row, tx)) in trees.iter().enumerate() {
            if cfg.mark_seen && seen.is_seen(rel_name, *row) {
                report.tuples_skipped_seen += 1;
                continue;
            }
            if cfg.mark_seen {
                seen.mark_all(&tx.visited);
            }
            kept.push(i);
        }

        // Distinct shapes needing generation, in first-miss order. With
        // reuse off every kept tuple regenerates its script individually —
        // the `ablation_reuse` semantics are preserved, only parallelized.
        let missing: Vec<usize> = if cfg.reuse_scripts {
            let mut pending: HashSet<&str> = HashSet::new();
            kept.iter()
                .copied()
                .filter(|&i| {
                    let key = preps[i].0.as_str();
                    !repo.contains(key) && pending.insert(key)
                })
                .collect()
        } else {
            kept.clone()
        };

        // Stage 3a: the miss path fans out — matcher profiles, forests and
        // Σ are immutable. Workers time their own phases; the totals merge
        // below (an aggregate of per-shape CPU time, exactly like the
        // serial engine's per-tuple sums).
        let miss_trees: Vec<&TupleTree<'_>> = missing.iter().map(|&i| &trees[i].1).collect();
        let generated = par_map(&miss_trees, threads, |tx| {
            let mut wtrace = Trace::new(obs, cfg.slow_exchange_threshold);
            let script = self.generate_for(
                tx,
                matcher,
                target_forest,
                sigma,
                target_schema,
                &mut wtrace,
            );
            (script, wtrace.totals)
        });
        let mut gen_slots: Vec<Option<Script>> = Vec::with_capacity(generated.len());
        for (script, totals) in generated {
            for (phase, nanos) in totals.iter() {
                if nanos > 0 {
                    trace.totals.add(phase, nanos);
                }
            }
            gen_slots.push(Some(script));
        }
        let gen_index: HashMap<&str, usize> = missing
            .iter()
            .enumerate()
            .map(|(slot, &i)| (preps[i].0.as_str(), slot))
            .collect();

        // Stage 3b: serial replay of repository lookups in row order. The
        // first tuple of a missing shape takes the miss and inserts the
        // generated script; same-shape successors then hit — counters,
        // recorded events and the new-key log come out identical to the
        // serial engine's.
        let mut scripts: Vec<Option<Arc<Script>>> = Vec::with_capacity(kept.len());
        for (j, &i) in kept.iter().enumerate() {
            let key = preps[i].0.as_str();
            let cached = if cfg.reuse_scripts {
                repo.lookup(key)
            } else {
                None
            };
            let script = match cached {
                Some(s) => {
                    report.scripts_reused += 1;
                    trace.lookup(true);
                    s
                }
                None => {
                    report.scripts_generated += 1;
                    trace.lookup(false);
                    let slot = if cfg.reuse_scripts { gen_index[key] } else { j };
                    let generated = gen_slots[slot]
                        .take()
                        .expect("each generated script resolves exactly one miss");
                    if generated.is_empty() {
                        report.tuples_unmatched += 1;
                    }
                    repo.insert(key.to_owned(), generated)
                }
            };
            report.tuples_processed += 1;
            scripts.push((!script.is_empty()).then_some(script));
        }
        report.tg += tg0.elapsed();

        // Stage 4: execution.
        let te0 = Instant::now();

        // Fresh labels are pre-assigned in serial row order, visiting
        // statements and assignments exactly as `run_script` would — the
        // label sequence is byte-identical to the serial engine's.
        let mut exec: Vec<ExecItem<'_>> = Vec::with_capacity(kept.len());
        for (j, &i) in kept.iter().enumerate() {
            let Some(script) = &scripts[j] else { continue };
            let fresh = FreshLabels::for_script(script, fresh_counter);
            exec.push((Arc::clone(script), preps[i].1.as_slice(), fresh));
        }

        // Statement tuples resolve in parallel — pure per-tuple work, built
        // exactly as `run_script` builds them. An unknown relation surfaces
        // as the first failing statement in row order, the error the
        // serial engine returns (both paths then drop the target).
        let schema = target.schema();
        let resolved: Vec<Result<Vec<(usize, Tuple)>, StorageError>> =
            par_map(&exec, threads, |(script, slots, fresh)| {
                script
                    .statements
                    .iter()
                    .map(|st| {
                        statement_tuple(st, schema, slots, |id| {
                            fresh
                                .get(id)
                                .expect("surrogates are minted before execution")
                        })
                    })
                    .collect()
            });

        // Partition by target relation, preserving the serial insert order
        // within each relation; then each relation runs its egd/key-checked
        // inserts on its own thread — conflict semantics are per-relation
        // (no cross-relation state), so relations commute.
        let timing = obs.is_some() || cfg.slow_exchange_threshold.is_some();
        let mut per_rel: Vec<Vec<Tuple>> = vec![Vec::new(); schema.len()];
        for stmts in resolved {
            for (ri, tuple) in stmts? {
                per_rel[ri].push(tuple);
            }
        }
        let jobs: Vec<_> = per_rel
            .into_iter()
            .zip(target.relations_mut())
            .enumerate()
            .filter(|(_, (tuples, _))| !tuples.is_empty())
            .map(|(ri, (tuples, rel))| (ri, tuples, rel))
            .collect();
        let mut results: Vec<(usize, Result<RunOutcome, StorageError>, u64)> =
            Vec::with_capacity(jobs.len());
        std::thread::scope(|s| {
            let handles: Vec<_> = jobs
                .into_iter()
                .map(|(ri, tuples, rel)| {
                    s.spawn(move || {
                        let started = timing.then(Instant::now);
                        let mut out = RunOutcome::default();
                        for tuple in tuples {
                            if let Err(e) = out.record(rel.insert(tuple, ConflictPolicy::Merge)) {
                                return (ri, Err(e), 0);
                            }
                        }
                        let nanos = started.map_or(0, |t| t.elapsed().as_nanos() as u64);
                        (ri, Ok(out), nanos)
                    })
                })
                .collect();
            for h in handles {
                results.push(h.join().expect("script-execution worker panicked"));
            }
        });
        results.sort_by_key(|&(ri, _, _)| ri);
        let mut batch_outcome = RunOutcome::default();
        let mut run_nanos = 0u64;
        for (_, res, nanos) in results {
            batch_outcome += res?;
            run_nanos += nanos;
        }
        if run_nanos > 0 {
            trace.totals.add(Phase::ScriptRun, run_nanos);
            trace.emit(&Event::Phase {
                phase: Phase::ScriptRun,
                nanos: run_nanos,
            });
        }
        trace.outcome(&batch_outcome);
        *outcome += batch_outcome;
        report.te += te0.elapsed();
        Ok(())
    }

    /// Build tuple trees for the unseen rows of one batch, optionally in
    /// parallel. Returns `(row, tree)` pairs in ascending row order, plus
    /// the number of rows skipped because they were already seen.
    fn build_batch<'s>(
        &self,
        src: &'s Instance,
        rel_name: &str,
        rows: std::ops::Range<u32>,
        seen: &SeenSet,
        tree_cfg: &TreeConfig,
    ) -> Result<(Vec<(u32, TupleTree<'s>)>, usize), StorageError> {
        let total = rows.len();
        let todo: Vec<u32> = rows
            .filter(|&r| !(self.config.mark_seen && seen.is_seen(rel_name, r)))
            .collect();
        let skipped = total - todo.len();
        if todo.is_empty() {
            return Ok((Vec::new(), skipped));
        }
        if self.config.threads <= 1 || todo.len() < self.config.parallel_threshold.max(1) {
            return todo
                .into_iter()
                .map(|r| tuple_tree(src, rel_name, r, tree_cfg).map(|t| (r, t)))
                .collect::<Result<Vec<_>, _>>()
                .map(|v| (v, skipped));
        }
        let threads = self.config.threads.min(todo.len());
        let chunk = todo.len().div_ceil(threads);
        let mut out: Vec<Result<Vec<(u32, TupleTree<'s>)>, StorageError>> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = todo
                .chunks(chunk)
                .map(|part| {
                    s.spawn(move || {
                        part.iter()
                            .map(|&r| tuple_tree(src, rel_name, r, tree_cfg).map(|t| (r, t)))
                            .collect::<Result<Vec<_>, _>>()
                    })
                })
                .collect();
            for h in handles {
                out.push(h.join().expect("tree-building worker panicked"));
            }
        });
        let mut flat = Vec::with_capacity(todo_len(&out));
        for part in out {
            flat.extend(part?);
        }
        Ok((flat, skipped))
    }

    /// The miss path: Match → translate → generate.
    fn generate_for(
        &self,
        tx: &TupleTree<'_>,
        matcher: &Matcher,
        target_forest: &SchemaForest,
        sigma: &Correspondences,
        target_schema: &Schema,
        trace: &mut Trace,
    ) -> Script {
        let m0 = trace.start();
        let m = matcher.best_match(tx, sigma);
        trace.end(Phase::Match, m0);
        let Some(m) = m else {
            return Script::default();
        };
        let Some(tr) = target_forest.tree(&m.relation) else {
            return Script::default();
        };
        let t0 = trace.start();
        let ty = translate(tx, tr, sigma);
        trace.end(Phase::Translate, t0);
        let g0 = trace.start();
        let script = generate_script(&ty, target_schema);
        trace.end(Phase::ScriptGen, g0);
        script
    }
}

fn todo_len(parts: &[Result<Vec<(u32, TupleTree<'_>)>, StorageError>]) -> usize {
    parts.iter().map(|p| p.as_ref().map_or(0, Vec::len)).sum()
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
    fn parallel_and_serial_agree() {
        let (mut src, target_schema, sigma) = university();
        // Enough rows to exercise the parallel path.
        for i in 0..500 {
            src.insert(
                "Registration",
                sedex_storage::tuple!["s1", format!("c{i}"), format!("dt{i}")],
                ConflictPolicy::Allow,
            )
            .unwrap();
        }
        let serial = SedexEngine::new();
        let parallel = SedexEngine::with_config(SedexConfig {
            threads: 4,
            batch_size: 128,
            ..SedexConfig::default()
        });
        let (o1, _) = serial.exchange(&src, &target_schema, &sigma).unwrap();
        let (o2, _) = parallel.exchange(&src, &target_schema, &sigma).unwrap();
        assert_eq!(o1.stats(), o2.stats());
        assert_eq!(
            o1.relation("Reg").unwrap().len(),
            o2.relation("Reg").unwrap().len()
        );
    }

    /// The parallel-pipeline acceptance criterion at unit scale: the
    /// threshold defaults to 64, a huge threshold keeps threads > 1 fully
    /// serial, and forcing the parallel pipeline (threshold 1) produces a
    /// byte-identical instance, identical counters, an identical hit/miss
    /// sequence and identical repository contents.
    #[test]
    fn parallel_threshold_gates_the_pipeline_and_output_is_byte_identical() {
        assert_eq!(SedexConfig::default().parallel_threshold, 64);
        let (mut src, target_schema, sigma) = university();
        for i in 0..300 {
            src.insert(
                "Registration",
                sedex_storage::tuple![format!("s{}", 1 + i % 2), format!("c{i}"), format!("dt{i}")],
                ConflictPolicy::Allow,
            )
            .unwrap();
        }
        let serial = SedexEngine::with_config(SedexConfig {
            record_hit_events: true,
            ..SedexConfig::default()
        });
        let gated = SedexEngine::with_config(SedexConfig {
            threads: 8,
            parallel_threshold: usize::MAX,
            record_hit_events: true,
            ..SedexConfig::default()
        });
        let forced = SedexEngine::with_config(SedexConfig {
            threads: 8,
            parallel_threshold: 1,
            batch_size: 64,
            record_hit_events: true,
            ..SedexConfig::default()
        });
        let (o1, r1, x1) = serial
            .exchange_with_repository(&src, &target_schema, &sigma)
            .unwrap();
        let (o2, _, _) = gated
            .exchange_with_repository(&src, &target_schema, &sigma)
            .unwrap();
        let (o3, r3, x3) = forced
            .exchange_with_repository(&src, &target_schema, &sigma)
            .unwrap();
        assert_eq!(format!("{o1}"), format!("{o2}"));
        assert_eq!(format!("{o1}"), format!("{o3}"));
        assert_eq!(
            (r1.scripts_generated, r1.scripts_reused, r1.tuples_processed),
            (r3.scripts_generated, r3.scripts_reused, r3.tuples_processed),
        );
        assert_eq!(
            (r1.inserted, r1.merged, r1.violations),
            (r3.inserted, r3.merged, r3.violations),
        );
        // Same lookup outcomes in the same order (timestamps differ).
        let hits = |r: &ExchangeReport| r.hit_events.iter().map(|e| e.hit).collect::<Vec<_>>();
        assert_eq!(hits(&r1), hits(&r3));
        // Same repository contents and counters.
        assert_eq!(x1.entries, x3.entries);
        assert_eq!((x1.hits, x1.misses), (x3.hits, x3.misses));
    }

    /// The `ablation_reuse` semantics survive the parallel pipeline: with
    /// reuse off, every tuple regenerates (no dedup by shape), and the
    /// output still matches the serial no-reuse engine.
    #[test]
    fn parallel_no_reuse_matches_serial_no_reuse() {
        let (mut src, target_schema, sigma) = university();
        for i in 0..200 {
            src.insert(
                "Registration",
                sedex_storage::tuple!["s1", format!("c{i}"), format!("dt{i}")],
                ConflictPolicy::Allow,
            )
            .unwrap();
        }
        let cfg = SedexConfig {
            reuse_scripts: false,
            ..SedexConfig::default()
        };
        let serial = SedexEngine::with_config(cfg.clone());
        let parallel = SedexEngine::with_config(SedexConfig {
            threads: 4,
            parallel_threshold: 1,
            ..cfg
        });
        let (o1, r1) = serial.exchange(&src, &target_schema, &sigma).unwrap();
        let (o2, r2) = parallel.exchange(&src, &target_schema, &sigma).unwrap();
        assert_eq!(format!("{o1}"), format!("{o2}"));
        assert_eq!(r1.scripts_generated, r2.scripts_generated);
        assert_eq!(r2.scripts_reused, 0);
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

    /// The same invariant holds on the parallel pipeline: worker traces
    /// read no clocks either.
    #[test]
    fn parallel_pipeline_records_no_phase_timings_without_observer() {
        let (mut src, target_schema, sigma) = university();
        for i in 0..200 {
            src.insert(
                "Registration",
                sedex_storage::tuple!["s1", format!("c{i}"), format!("dt{i}")],
                ConflictPolicy::Allow,
            )
            .unwrap();
        }
        let engine = SedexEngine::with_config(SedexConfig {
            threads: 4,
            parallel_threshold: 1,
            ..SedexConfig::default()
        });
        let (_, report) = engine.exchange(&src, &target_schema, &sigma).unwrap();
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

    /// The registry counters come out the same whether the pipeline ran
    /// serial or parallel — lookup/outcome events are count-carrying.
    #[test]
    fn parallel_registry_counters_match_serial() {
        use sedex_observe::{names, MetricsRegistry, RegistryObserver};
        let (mut src, target_schema, sigma) = university();
        for i in 0..150 {
            src.insert(
                "Registration",
                sedex_storage::tuple!["s1", format!("c{i}"), format!("dt{i}")],
                ConflictPolicy::Allow,
            )
            .unwrap();
        }
        let count = |threads: usize, threshold: usize| {
            let registry = MetricsRegistry::new();
            let engine = SedexEngine::with_config(SedexConfig {
                threads,
                parallel_threshold: threshold,
                ..SedexConfig::default()
            })
            .with_observer(Arc::new(RegistryObserver::new(&registry)));
            engine.exchange(&src, &target_schema, &sigma).unwrap();
            (
                registry.counter_value(names::TUPLES_TOTAL),
                registry.counter_value(names::ROWS_INSERTED_TOTAL),
                registry.counter_value(names::EGD_MERGE_TOTAL),
                registry.counter_value(names::VIOLATION_TOTAL),
            )
        };
        assert_eq!(count(1, 64), count(4, 1));
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
