//! The script repository (Sections 4.4.2–4.4.3, Figs. 14–15).
//!
//! A hash table keyed by the post-order shape key of the (reduced) tuple
//! tree. On a **hit** the stored script is replayed with the new tuple's
//! values — no matching, translation or generation. On a **miss** the full
//! pipeline runs and the new script is stored. The repository records every
//! lookup with a timestamp so the hit-ratio curve of Fig. 14 can be
//! reproduced.
//!
//! Keys are the `String`s [`sedex_treerep::repository_key`] writes; they
//! are what exports, snapshots and the WAL persist. The engine looks a
//! tuple up by its shape *ids* instead ([`sedex_treerep::ShapeCatalog`]):
//! an id-keyed index sits in front of the `String` map and memoises every
//! `String` entry an id lookup reached, so a hit renders and hashes no
//! string. Entries are stored as [`ResolvedScript`]s, resolved against the
//! target schema as they come in.
//!
//! Two long-lived-service concerns are handled here rather than in callers:
//!
//! * **Warm-start timeline**: exports carry the elapsed lookup-timeline
//!   offset, and imports resume from it — after a crash recovery the
//!   Fig. 14 curve continues where the previous process stopped instead of
//!   restarting at `t = 0`.
//! * **Bounded event log**: when event recording is on, the per-lookup
//!   buffer is capped ([`DEFAULT_EVENT_LIMIT`] unless overridden); lookups
//!   past the cap are counted as dropped instead of growing the buffer
//!   without bound between drains.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sedex_storage::Schema;

use crate::metrics::HitEvent;
use crate::script::{ResolvedScript, Script};

/// Default cap on the recorded hit-event buffer (one event is 17 bytes, so
/// this bounds the log at roughly 16 MiB between drains).
pub const DEFAULT_EVENT_LIMIT: usize = 1 << 20;

/// Shape-keyed script cache with hit/miss accounting.
#[derive(Debug)]
pub struct ScriptRepository {
    map: HashMap<String, Arc<ResolvedScript>>,
    /// Shape ids → an entry of `map`. Ids are valid for one catalog, i.e.
    /// one repository owner; cleared whenever an entry of `map` is
    /// replaced, so it never serves a stale script.
    by_shape: HashMap<Box<[u32]>, Arc<ResolvedScript>>,
    /// The schema scripts are resolved against as they come in.
    target: Option<Arc<Schema>>,
    hits: usize,
    misses: usize,
    start: Instant,
    /// Lookup-timeline time already elapsed before `start` — nonzero after
    /// an import, so event timestamps continue the exporter's timeline.
    base_elapsed: Duration,
    record_events: bool,
    events: Vec<HitEvent>,
    event_limit: usize,
    events_dropped: u64,
    new_keys: Vec<String>,
}

/// A point-in-time export of a repository: every `(shape key, script)` pair
/// plus the lookup counters. This is what durability snapshots persist so a
/// restarted server *warm-starts* — the hit ratio continues from where the
/// previous process left off instead of resetting to zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepositoryExport {
    /// `(shape key, script)` pairs, sorted by key for a stable byte layout.
    pub entries: Vec<(String, Script)>,
    /// Lookup hits at export time.
    pub hits: usize,
    /// Lookup misses at export time.
    pub misses: usize,
    /// Lookup-timeline time elapsed at export time. Importing resumes the
    /// timeline here, so hit-event timestamps (Fig. 14) stay monotone
    /// across a snapshot/restore cycle.
    pub elapsed: Duration,
}

impl Default for ScriptRepository {
    fn default() -> Self {
        ScriptRepository::new(false)
    }
}

impl ScriptRepository {
    /// A fresh repository. With `record_events` every lookup is timestamped
    /// (needed only for the Fig. 14 experiment); the event buffer is capped
    /// at [`DEFAULT_EVENT_LIMIT`].
    pub fn new(record_events: bool) -> Self {
        ScriptRepository::with_event_limit(record_events, DEFAULT_EVENT_LIMIT)
    }

    /// A fresh repository with an explicit cap on the recorded-event
    /// buffer. Lookups past the cap (between drains) increment
    /// [`ScriptRepository::events_dropped`] instead of allocating.
    pub fn with_event_limit(record_events: bool, event_limit: usize) -> Self {
        ScriptRepository {
            map: HashMap::new(),
            by_shape: HashMap::new(),
            target: None,
            hits: 0,
            misses: 0,
            start: Instant::now(),
            base_elapsed: Duration::ZERO,
            record_events,
            events: Vec::new(),
            event_limit,
            events_dropped: 0,
            new_keys: Vec::new(),
        }
    }

    /// Time elapsed on the lookup timeline — includes the timeline of any
    /// imported export (warm start).
    pub fn elapsed(&self) -> Duration {
        self.base_elapsed + self.start.elapsed()
    }

    /// Resolve every script that comes in from now on against `target`.
    pub(crate) fn resolving_against(mut self, target: Arc<Schema>) -> Self {
        self.target = Some(target);
        self
    }

    /// Look a shape key up, recording a hit or a miss.
    pub fn lookup(&mut self, key: &str) -> Option<Arc<ResolvedScript>> {
        let found = self.map.get(key).cloned();
        self.record(found.is_some());
        found
    }

    /// Look a shape up by its ids, recording one hit or one miss. When the
    /// ids are not indexed yet, the `String` key `key` renders is looked
    /// up (entries arrive under it through import, install and insert)
    /// and a hit is indexed under the ids. A miss hands back the rendered
    /// key, for [`ScriptRepository::insert_shape`].
    pub fn lookup_shape(
        &mut self,
        ids: &[u32],
        key: impl FnOnce() -> String,
    ) -> Result<Arc<ResolvedScript>, String> {
        let found = match self.by_shape.get(ids) {
            Some(s) => Ok(Arc::clone(s)),
            None => {
                let key = key();
                match self.map.get(&key) {
                    Some(s) => {
                        self.by_shape.insert(ids.into(), Arc::clone(s));
                        Ok(Arc::clone(s))
                    }
                    None => Err(key),
                }
            }
        };
        self.record(found.is_ok());
        found
    }

    fn record(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        if self.record_events {
            if self.events.len() < self.event_limit {
                self.events.push(HitEvent {
                    at: self.elapsed(),
                    hit,
                });
            } else {
                self.events_dropped += 1;
            }
        }
    }

    /// Store a freshly generated script under its shape key. The key is
    /// remembered as *new* until the next [`ScriptRepository::take_new_scripts`]
    /// drain — how the service knows which scripts still need a WAL record.
    pub fn insert(&mut self, key: String, script: Script) -> Arc<ResolvedScript> {
        let arc = Arc::new(ResolvedScript::new(script, self.target.as_deref()));
        self.new_keys.push(key.clone());
        self.put(key, Arc::clone(&arc));
        arc
    }

    /// [`ScriptRepository::insert`], also indexed under the shape's ids.
    pub fn insert_shape(
        &mut self,
        ids: &[u32],
        key: String,
        script: Script,
    ) -> Arc<ResolvedScript> {
        let arc = self.insert(key, script);
        self.by_shape.insert(ids.into(), Arc::clone(&arc));
        arc
    }

    /// Store an entry; replacing one drops the id index, which may point
    /// at the old script.
    fn put(&mut self, key: String, script: Arc<ResolvedScript>) {
        if self.map.insert(key, script).is_some() {
            self.by_shape.clear();
        }
    }

    /// Drain the scripts inserted since the last drain, as `(key, script)`
    /// handles. Used by durability: after an exchange, each drained pair
    /// becomes one `ScriptAdd` WAL record.
    pub fn take_new_scripts(&mut self) -> Vec<(String, Arc<ResolvedScript>)> {
        std::mem::take(&mut self.new_keys)
            .into_iter()
            .filter_map(|k| self.map.get(&k).map(|s| (k, Arc::clone(s))))
            .collect()
    }

    /// Export every entry plus the lookup counters (entries sorted by key)
    /// and the elapsed lookup-timeline offset.
    pub fn export(&self) -> RepositoryExport {
        let mut entries: Vec<(String, Script)> = self
            .map
            .iter()
            .map(|(k, s)| (k.clone(), s.script().clone()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        RepositoryExport {
            entries,
            hits: self.hits,
            misses: self.misses,
            elapsed: self.elapsed(),
        }
    }

    /// Restore entries and counters from an export. Existing entries with
    /// the same key are overwritten (imports are idempotent); imported keys
    /// are *not* marked new — they were already persisted. The lookup
    /// timeline resumes at the export's elapsed offset, so hit-event
    /// timestamps stay monotone across a snapshot/restore cycle.
    pub fn import(&mut self, export: RepositoryExport) {
        for (key, script) in export.entries {
            self.install(key, script);
        }
        self.hits = export.hits;
        self.misses = export.misses;
        self.base_elapsed = export.elapsed;
        self.start = Instant::now();
        self.new_keys.clear();
    }

    /// Install one script without touching counters or the new-key log —
    /// the WAL-replay path for `ScriptAdd` records.
    pub fn install(&mut self, key: String, script: Script) {
        let script = ResolvedScript::new(script, self.target.as_deref());
        self.put(key, Arc::new(script));
    }

    /// Number of distinct scripts stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookup hits so far (`n_r` in the paper's hit-ratio definition).
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Lookup misses so far (`n_g`).
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// `n_r / (n_r + n_g)`, or 0 before any lookup.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The recorded lookup events (empty unless event recording is on).
    pub fn events(&self) -> &[HitEvent] {
        &self.events
    }

    /// Events discarded because the buffer was at its cap when they
    /// occurred (`sedex_hit_events_dropped_total`).
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// Drain the recorded events (used by the engine when assembling the
    /// final report). Frees the buffer, so recording resumes until the cap
    /// is reached again.
    pub fn take_events(&mut self) -> Vec<HitEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::{SlotRef, Statement};

    fn dummy_script(rel: &str) -> Script {
        Script {
            statements: vec![Statement {
                relation: rel.into(),
                assignments: vec![(0, SlotRef::Src(0))],
            }],
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut r = ScriptRepository::new(false);
        assert!(r.lookup("k1").is_none());
        r.insert("k1".into(), dummy_script("T"));
        let s = r.lookup("k1").unwrap();
        assert_eq!(s.statements[0].relation, "T");
        assert_eq!(r.hits(), 1);
        assert_eq!(r.misses(), 1);
        assert!((r.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_keys_are_distinct_scripts() {
        let mut r = ScriptRepository::new(false);
        r.insert("a".into(), dummy_script("T"));
        r.insert("b".into(), dummy_script("U"));
        assert_eq!(r.len(), 2);
        assert_eq!(r.lookup("a").unwrap().statements[0].relation, "T");
        assert_eq!(r.lookup("b").unwrap().statements[0].relation, "U");
    }

    #[test]
    fn event_recording() {
        let mut r = ScriptRepository::new(true);
        r.lookup("k");
        r.insert("k".into(), dummy_script("T"));
        r.lookup("k");
        let ev = r.events();
        assert_eq!(ev.len(), 2);
        assert!(!ev[0].hit);
        assert!(ev[1].hit);
        assert!(ev[1].at >= ev[0].at);
        assert_eq!(r.events_dropped(), 0);
    }

    #[test]
    fn event_buffer_is_capped_and_drops_are_counted() {
        let mut r = ScriptRepository::with_event_limit(true, 3);
        r.insert("k".into(), dummy_script("T"));
        for _ in 0..10 {
            r.lookup("k");
        }
        assert_eq!(r.events().len(), 3);
        assert_eq!(r.events_dropped(), 7);
        // Counters are unaffected by the cap.
        assert_eq!(r.hits(), 10);
        // Draining frees the buffer: recording resumes.
        assert_eq!(r.take_events().len(), 3);
        r.lookup("k");
        assert_eq!(r.events().len(), 1);
        assert_eq!(r.events_dropped(), 7);
    }

    #[test]
    fn hit_ratio_zero_when_unused() {
        let r = ScriptRepository::new(false);
        assert_eq!(r.hit_ratio(), 0.0);
    }

    #[test]
    fn export_import_roundtrips_entries_and_counters() {
        let mut r = ScriptRepository::new(false);
        r.lookup("b");
        r.insert("b".into(), dummy_script("T"));
        r.insert("a".into(), dummy_script("U"));
        r.lookup("b");
        let ex = r.export();
        assert_eq!(ex.entries.len(), 2);
        assert_eq!(ex.entries[0].0, "a"); // sorted
        assert_eq!((ex.hits, ex.misses), (1, 1));

        let mut back = ScriptRepository::new(false);
        back.import(ex.clone());
        assert_eq!(back.len(), 2);
        assert_eq!(back.hits(), 1);
        assert_eq!(back.misses(), 1);
        let round = back.export();
        assert_eq!(round.entries, ex.entries);
        assert_eq!((round.hits, round.misses), (ex.hits, ex.misses));
        // Imported keys are not "new": nothing to persist again.
        assert!(back.take_new_scripts().is_empty());
    }

    #[test]
    fn import_resumes_the_event_timeline() {
        let mut r = ScriptRepository::new(true);
        r.insert("k".into(), dummy_script("T"));
        r.lookup("k");
        std::thread::sleep(Duration::from_millis(5));
        let ex = r.export();
        let exported_elapsed = ex.elapsed;
        assert!(exported_elapsed >= Duration::from_millis(5));

        // The restored repository continues the exporter's timeline: a
        // lookup right after import is stamped *after* the export point,
        // not back at t = 0 (the Fig. 14 warm-start bug).
        let mut back = ScriptRepository::new(true);
        back.import(ex);
        assert!(back.elapsed() >= exported_elapsed);
        back.lookup("k");
        assert!(back.events()[0].at >= exported_elapsed);
    }

    #[test]
    fn shape_lookup_falls_back_to_the_string_key_and_indexes_the_hit() {
        let mut r = ScriptRepository::new(false);
        r.install("k".into(), dummy_script("T"));
        let mut renders = 0;
        let mut key = || {
            renders += 1;
            "k".to_owned()
        };
        // First lookup: not indexed, found under the rendered key.
        assert_eq!(
            r.lookup_shape(&[1, 2], &mut key).unwrap().statements[0].relation,
            "T"
        );
        // Second: indexed, nothing rendered.
        assert!(r.lookup_shape(&[1, 2], &mut key).is_ok());
        assert_eq!(renders, 1);
        // A miss hands back the key; inserting indexes it.
        let miss = r.lookup_shape(&[3], || "m".to_owned()).unwrap_err();
        assert_eq!(miss, "m");
        r.insert_shape(&[3], miss, dummy_script("U"));
        assert_eq!(
            r.lookup_shape(&[3], || unreachable!()).unwrap().statements[0].relation,
            "U"
        );
        assert_eq!((r.hits(), r.misses()), (3, 1));
        assert_eq!(r.export().entries.len(), 2);
    }

    #[test]
    fn replacing_an_entry_drops_the_shape_index() {
        let mut r = ScriptRepository::new(false);
        r.install("k".into(), dummy_script("T"));
        assert!(r.lookup_shape(&[1], || "k".to_owned()).is_ok());
        r.install("k".into(), dummy_script("U"));
        let s = r.lookup_shape(&[1], || "k".to_owned()).unwrap();
        assert_eq!(s.statements[0].relation, "U");
    }

    #[test]
    fn take_new_scripts_drains_once() {
        let mut r = ScriptRepository::new(false);
        r.insert("k1".into(), dummy_script("T"));
        r.insert("k2".into(), dummy_script("U"));
        let new = r.take_new_scripts();
        assert_eq!(new.len(), 2);
        assert!(r.take_new_scripts().is_empty());
        r.insert("k3".into(), dummy_script("V"));
        let again = r.take_new_scripts();
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].0, "k3");
    }
}
