//! Insertion scripts and their execution under target egds (Section 4.4.3).
//!
//! A script is a sequence of parameterized insertion statements. Values are
//! referenced by *slot* — the preorder index of the node in the source tuple
//! tree — so the same script replays for every tuple tree with the same
//! shape: that is the reuse mechanism behind Figs. 14–15.

use sedex_storage::{ConflictPolicy, InsertOutcome, Instance, Schema, StorageError, Tuple, Value};

/// Where a statement takes a value from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotRef {
    /// Preorder index into the source tuple tree's value vector.
    Src(usize),
    /// A fresh surrogate (labeled null), minted once per script *run* and
    /// shared by every assignment carrying the same id — how SEDEX realizes
    /// surrogate-key primitives (STBenchmark's SK/NE), where a target key
    /// has no source correspondence.
    Fresh(u32),
}

/// One parameterized insertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Statement {
    /// Target relation to insert into.
    pub relation: String,
    /// `(column index in the target relation, value source)` pairs; unlisted
    /// columns receive SQL nulls.
    pub assignments: Vec<(usize, SlotRef)>,
}

/// A reusable insertion script.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Script {
    /// Statements in execution order (referenced entities first — Algorithm
    /// 2 emits bottom-up).
    pub statements: Vec<Statement>,
}

impl Script {
    /// Whether the script inserts nothing.
    pub fn is_empty(&self) -> bool {
        self.statements.is_empty()
    }

    /// Number of statements.
    pub fn len(&self) -> usize {
        self.statements.len()
    }
}

/// Outcome counters of running one script.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunOutcome {
    /// New rows inserted.
    pub inserted: usize,
    /// Rows merged into an existing key-mate (egd applied).
    pub merged: usize,
    /// Exact duplicates collapsed.
    pub duplicates: usize,
    /// Hard egd conflicts (statement dropped, existing tuple kept).
    pub violations: usize,
}

impl RunOutcome {
    /// Count one statement's insert result. A hard egd conflict is a
    /// violation, not an error; any other error is returned.
    pub(crate) fn record(
        &mut self,
        result: Result<InsertOutcome, StorageError>,
    ) -> Result<(), StorageError> {
        match result {
            Ok(InsertOutcome::Inserted(_)) => self.inserted += 1,
            Ok(InsertOutcome::Merged(_)) => self.merged += 1,
            Ok(InsertOutcome::Duplicate(_)) => self.duplicates += 1,
            Ok(InsertOutcome::Skipped(_)) => {}
            Err(StorageError::EgdFailure { .. }) => self.violations += 1,
            Err(e) => return Err(e),
        }
        Ok(())
    }
}

impl std::ops::AddAssign for RunOutcome {
    fn add_assign(&mut self, rhs: RunOutcome) {
        self.inserted += rhs.inserted;
        self.merged += rhs.merged;
        self.duplicates += rhs.duplicates;
        self.violations += rhs.violations;
    }
}

/// The fresh labels of one script run: `(surrogate id, label)` in minting
/// order. A script names a handful of surrogates, so a scan beats a map.
#[derive(Debug, Default)]
struct FreshLabels(Vec<(u32, u64)>);

impl FreshLabels {
    /// Surrogate `id`'s label, minted from `counter` on first use.
    fn get_or_mint(&mut self, id: u32, counter: &mut u64) -> u64 {
        if let Some(label) = self.get(id) {
            return label;
        }
        let label = *counter;
        *counter += 1;
        self.0.push((id, label));
        label
    }

    /// Surrogate `id`'s label, if minted.
    fn get(&self, id: u32) -> Option<u64> {
        self.0
            .iter()
            .find(|&&(i, _)| i == id)
            .map(|&(_, label)| label)
    }
}

/// Resolve one statement against the target schema: the relation's schema
/// position (its [`Instance::insert_at`] index; `at`, when resolved
/// before, else looked up by name) and the tuple to insert — assigned slot
/// values cloned (a reference-count bump for text), surrogates labeled by
/// `label`, every other column an SQL null.
fn statement_tuple(
    st: &Statement,
    at: Option<usize>,
    schema: &Schema,
    values: &[&Value],
    mut label: impl FnMut(u32) -> u64,
) -> Result<(usize, Tuple), StorageError> {
    let idx = match at {
        Some(idx) => idx,
        None => schema.relation_index_or_err(&st.relation)?,
    };
    let mut vals = vec![Value::Null; schema.relations()[idx].arity()];
    for &(col, slot) in &st.assignments {
        vals[col] = match slot {
            SlotRef::Src(i) => values.get(i).map_or(Value::Null, |&v| v.clone()),
            SlotRef::Fresh(id) => Value::Labeled(label(id)),
        };
    }
    Ok((idx, Tuple::new(vals)))
}

/// Execute a script against the target with the given slot values (see
/// [`crate::translate::slot_values`]); only assigned values are cloned.
///
/// Inserts run under [`ConflictPolicy::Merge`]: primary keys and unique
/// constraints are checked "before inserting any tuple", and a key-mate is
/// unified instead of duplicated — this is how SEDEX applies the target
/// egds. A hard constant conflict counts as a violation and keeps the
/// existing tuple (the consistency-over-completeness trade-off of
/// Section 4.4.3).
pub fn run_script(
    script: &Script,
    values: &[&Value],
    target: &mut Instance,
    fresh_counter: &mut u64,
) -> Result<RunOutcome, StorageError> {
    run_statements(
        script.statements.iter().map(|st| (st, None)),
        values,
        target,
        fresh_counter,
    )
}

/// Run statements, each with its resolved relation position if it has one.
fn run_statements<'s>(
    statements: impl Iterator<Item = (&'s Statement, Option<usize>)>,
    values: &[&Value],
    target: &mut Instance,
    fresh_counter: &mut u64,
) -> Result<RunOutcome, StorageError> {
    let mut out = RunOutcome::default();
    let mut fresh = FreshLabels::default();
    for (st, at) in statements {
        let (idx, tuple) = statement_tuple(st, at, target.schema(), values, |id| {
            fresh.get_or_mint(id, fresh_counter)
        })?;
        out.record(target.insert_at(idx, tuple, ConflictPolicy::Merge))?;
    }
    Ok(out)
}

/// A [`Script`] whose statements' target relations were resolved to schema
/// positions once, when it entered the script repository: a replay probes
/// no relation name. A statement left unresolved (no schema given, or a
/// relation the schema lacks) is looked up by name when it runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedScript {
    script: Script,
    relations: Box<[Option<usize>]>,
}

impl ResolvedScript {
    /// Resolve `script` against `target`, the schema it will run on.
    pub fn new(script: Script, target: Option<&Schema>) -> Self {
        let relations = script
            .statements
            .iter()
            .map(|st| target.and_then(|s| s.relation_index(&st.relation)))
            .collect();
        ResolvedScript { script, relations }
    }

    /// The script as generated.
    pub fn script(&self) -> &Script {
        &self.script
    }

    /// [`run_script`] with the resolved positions. `target` must have the
    /// schema the script was resolved against.
    pub fn run(
        &self,
        values: &[&Value],
        target: &mut Instance,
        fresh_counter: &mut u64,
    ) -> Result<RunOutcome, StorageError> {
        run_statements(
            self.script
                .statements
                .iter()
                .zip(self.relations.iter().copied()),
            values,
            target,
            fresh_counter,
        )
    }
}

impl std::ops::Deref for ResolvedScript {
    type Target = Script;

    fn deref(&self) -> &Script {
        &self.script
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedex_storage::{RelationSchema, Schema};

    fn target() -> Instance {
        let stu = RelationSchema::with_any_columns("Stu", &["student", "prog", "dpt"])
            .primary_key(&["student"])
            .unwrap();
        let reg = RelationSchema::with_any_columns("Reg", &["student", "cname", "date"]);
        Instance::new(Schema::from_relations(vec![stu, reg]).unwrap())
    }

    fn demo_script() -> Script {
        // Insert Stu(student←slot0, prog←slot1), then Reg(student←slot0,
        // cname←slot2, date←slot3).
        Script {
            statements: vec![
                Statement {
                    relation: "Stu".into(),
                    assignments: vec![(0, SlotRef::Src(0)), (1, SlotRef::Src(1))],
                },
                Statement {
                    relation: "Reg".into(),
                    assignments: vec![
                        (0, SlotRef::Src(0)),
                        (1, SlotRef::Src(2)),
                        (2, SlotRef::Src(3)),
                    ],
                },
            ],
        }
    }

    /// Run `script` with text slot values.
    fn run(script: &Script, v: &[&str], t: &mut Instance) -> RunOutcome {
        let owned: Vec<Value> = v.iter().map(|s| Value::text(*s)).collect();
        let slots: Vec<&Value> = owned.iter().collect();
        run_script(script, &slots, t, &mut 0).unwrap()
    }

    #[test]
    fn script_inserts_with_null_padding() {
        let mut t = target();
        let out = run(&demo_script(), &["s1", "p1", "c1", "d1"], &mut t);
        assert_eq!(out.inserted, 2);
        let stu = t.relation("Stu").unwrap().row(0).unwrap();
        assert_eq!(stu, &sedex_storage::tuple!["s1", "p1", Value::Null]);
    }

    #[test]
    fn reuse_same_script_different_values() {
        let mut t = target();
        run(&demo_script(), &["s1", "p1", "c1", "d1"], &mut t);
        run(&demo_script(), &["s2", "p2", "c2", "d2"], &mut t);
        assert_eq!(t.relation("Stu").unwrap().len(), 2);
        assert_eq!(t.relation("Reg").unwrap().len(), 2);
    }

    #[test]
    fn egd_merge_on_key_mate() {
        let mut t = target();
        run(&demo_script(), &["s1", "p1", "c1", "d1"], &mut t);
        // Same student key: merged, not duplicated; Reg differs so inserts.
        let out = run(&demo_script(), &["s1", "p1", "c9", "d9"], &mut t);
        assert_eq!(t.relation("Stu").unwrap().len(), 1);
        assert_eq!(t.relation("Reg").unwrap().len(), 2);
        assert_eq!(out.merged + out.duplicates, 1);
    }

    #[test]
    fn egd_violation_keeps_existing() {
        let mut t = target();
        run(&demo_script(), &["s1", "p1", "c1", "d1"], &mut t);
        let out = run(&demo_script(), &["s1", "DIFFERENT", "c1", "d1"], &mut t);
        assert_eq!(out.violations, 1);
        assert_eq!(
            t.relation("Stu").unwrap().row(0).unwrap().values()[1],
            Value::text("p1")
        );
    }

    #[test]
    fn out_of_range_slot_becomes_null() {
        let mut t = target();
        let s = Script {
            statements: vec![Statement {
                relation: "Stu".into(),
                assignments: vec![(0, SlotRef::Src(0)), (1, SlotRef::Src(99))],
            }],
        };
        run(&s, &["s1"], &mut t);
        assert_eq!(
            t.relation("Stu").unwrap().row(0).unwrap().values()[1],
            Value::Null
        );
    }

    #[test]
    fn resolved_script_runs_like_the_script() {
        let slots = ["s1", "p1", "c1", "d1"].map(Value::text);
        let slots: Vec<&Value> = slots.iter().collect();
        let (mut a, mut b, mut c) = (target(), target(), target());
        let resolved = ResolvedScript::new(demo_script(), Some(a.schema()));
        let unresolved = ResolvedScript::new(demo_script(), None);
        let want = run_script(&demo_script(), &slots, &mut a, &mut 0).unwrap();
        assert_eq!(resolved.run(&slots, &mut b, &mut 0).unwrap(), want);
        assert_eq!(unresolved.run(&slots, &mut c, &mut 0).unwrap(), want);
        for (name, rel) in a.relations() {
            assert_eq!(rel.rows(), b.relation(name).unwrap().rows());
            assert_eq!(rel.rows(), c.relation(name).unwrap().rows());
        }
    }

    #[test]
    fn unknown_relation_errors() {
        let mut t = target();
        let s = Script {
            statements: vec![Statement {
                relation: "Nope".into(),
                assignments: vec![],
            }],
        };
        assert!(run_script(&s, &[], &mut t, &mut 0).is_err());
    }
}
