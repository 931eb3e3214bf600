//! Rendering transformation scripts and translated trees to external
//! formats.
//!
//! Algorithm 2 "generates scripts to insert tuple tree information to a
//! relational schema or to generate xml documents" (Section 4.4.2). The
//! engine executes scripts directly against the in-memory target; this
//! module materializes them as artifacts:
//!
//! * [`sql_template`] — the reusable parameterized script (`$N` slots,
//!   `@fN` surrogates): the thing the script repository actually caches;
//! * [`sql_statements`] — concrete `INSERT` statements for one tuple's
//!   values;
//! * [`xml_document`] — the translated tuple tree as a nested XML element,
//!   the paper's alternative output format.

use std::fmt;

use sedex_pqgram::PqLabel;
use sedex_storage::{Schema, Value};

use crate::metrics::ExchangeReport;
use crate::script::{Script, SlotRef};
use crate::translate::TranslatedTree;

/// One-line rendering of an [`ExchangeReport`] — the summary the CLI, the
/// server's `STATS` command and the experiment binaries all share, so the
/// counters are formatted in exactly one place.
///
/// ```text
/// 6 tuples, 24 constants, 0 nulls | Tg 1.2ms Te 800µs | scripts 2 generated / 10 reused | 0 violations
/// ```
impl fmt::Display for ExchangeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} | Tg {:?} Te {:?} | scripts {} generated / {} reused | {} violations",
            self.stats,
            self.tg,
            self.te,
            self.scripts_generated,
            self.scripts_reused,
            self.violations
        )
    }
}

impl ExchangeReport {
    /// Verbose multi-line rendering: every counter the report carries, one
    /// per line — what the server returns for `STATS <session>` and the CLI
    /// prints under `--verbose`.
    pub fn verbose(&self) -> ReportVerbose<'_> {
        ReportVerbose(self)
    }
}

/// Display adapter for the verbose [`ExchangeReport`] form; see
/// [`ExchangeReport::verbose`].
pub struct ReportVerbose<'a>(&'a ExchangeReport);

impl fmt::Display for ReportVerbose<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = self.0;
        writeln!(f, "target: {}", r.stats)?;
        writeln!(
            f,
            "tuples: {} processed, {} skipped-seen, {} unmatched",
            r.tuples_processed, r.tuples_skipped_seen, r.tuples_unmatched
        )?;
        writeln!(
            f,
            "scripts: {} generated, {} reused ({:.1}% reuse)",
            r.scripts_generated,
            r.scripts_reused,
            r.reuse_percent()
        )?;
        writeln!(
            f,
            "rows: {} inserted, {} merged, {} violations",
            r.inserted, r.merged, r.violations
        )?;
        write!(
            f,
            "time: Tg {:?}, Te {:?}, total {:?}",
            r.tg,
            r.te,
            r.total_time()
        )
    }
}

/// Render a script as a reusable SQL template: slot values appear as `$N`
/// placeholders (N = source preorder index) and per-run surrogates as
/// `@fN`. Two tuples with the same tuple-tree shape share this template
/// verbatim — it is the textual form of what the repository caches.
pub fn sql_template(script: &Script, schema: &Schema) -> String {
    use std::fmt::Write as _;
    write_inserts(script, schema, |out, slot| {
        let _ = match slot {
            SlotRef::Src(i) => write!(out, "${i}"),
            SlotRef::Fresh(f) => write!(out, "@f{f}"),
        };
    })
}

/// Render a script as concrete SQL statements for one tuple's slot values.
/// Surrogates render as `NULL /* surrogate fN */` — a relational engine
/// would bind them to generated keys.
pub fn sql_statements(script: &Script, schema: &Schema, values: &[&Value]) -> String {
    use std::fmt::Write as _;
    write_inserts(script, schema, |out, slot| match slot {
        SlotRef::Src(i) => write_sql_literal(out, values.get(i).copied().unwrap_or(&Value::Null)),
        SlotRef::Fresh(f) => {
            let _ = write!(out, "NULL /* surrogate f{f} */");
        }
    })
}

/// One `INSERT INTO rel (cols) VALUES (…);` line per statement of `script`
/// whose relation `schema` knows, each value written in place by `slot`.
fn write_inserts(
    script: &Script,
    schema: &Schema,
    mut slot: impl FnMut(&mut String, SlotRef),
) -> String {
    let mut out = String::new();
    for st in &script.statements {
        let Some(rel) = schema.relation(&st.relation) else {
            continue;
        };
        out.push_str("INSERT INTO ");
        out.push_str(&st.relation);
        out.push_str(" (");
        for (k, &(col, _)) in st.assignments.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            out.push_str(&rel.columns[col].name);
        }
        out.push_str(") VALUES (");
        for (k, &(_, s)) in st.assignments.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            slot(&mut out, s);
        }
        out.push_str(");\n");
    }
    out
}

/// SQL literal form of a value (single quotes doubled in text).
pub fn sql_literal(v: &Value) -> String {
    let mut out = String::new();
    write_sql_literal(&mut out, v);
    out
}

/// Append [`sql_literal`]`(v)` to `out` without an intermediate `String`.
pub fn write_sql_literal(out: &mut String, v: &Value) {
    use std::fmt::Write as _;
    match v {
        Value::Null => out.push_str("NULL"),
        Value::Labeled(l) => {
            let _ = write!(out, "NULL /* N{l} */");
        }
        Value::Bool(b) => out.push_str(if *b { "TRUE" } else { "FALSE" }),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Real(f) => {
            let _ = write!(out, "{}", f.0);
        }
        Value::Text(s) => {
            out.push('\'');
            for (i, part) in s.split('\'').enumerate() {
                if i > 0 {
                    out.push_str("''");
                }
                out.push_str(part);
            }
            out.push('\'');
        }
    }
}

/// Render a translated tuple tree as an XML document: each node becomes an
/// element named after its target property, its value in a `value`
/// attribute, children nested. The dummy root renders as `<tuple>`.
pub fn xml_document(ty: &TranslatedTree) -> String {
    let mut out = String::new();
    render_node(ty, ty.tree.root(), 0, &mut out);
    out
}

fn render_node(ty: &TranslatedTree, id: usize, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    let (name, value) = match ty.tree.label(id) {
        PqLabel::Dummy => ("tuple".to_owned(), None),
        PqLabel::Label(n) => (xml_name(&n.prop), Some(n.value.render().into_owned())),
    };
    out.push_str(&indent);
    out.push('<');
    out.push_str(&name);
    if let Some(v) = &value {
        out.push_str(&format!(" value=\"{}\"", xml_escape(v)));
    }
    if ty.tree.children(id).is_empty() {
        out.push_str("/>\n");
        return;
    }
    out.push_str(">\n");
    for &c in ty.tree.children(id) {
        render_node(ty, c, depth + 1, out);
    }
    out.push_str(&indent);
    out.push_str(&format!("</{name}>\n"));
}

fn xml_name(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scriptgen::generate_script;
    use crate::translate::{slot_values, translate};
    use sedex_mapping::Correspondences;
    use sedex_storage::{ConflictPolicy, Instance, RelationSchema};
    use sedex_treerep::{relation_tree, tuple_tree, TreeConfig};

    fn setup() -> (Instance, Schema, Correspondences) {
        let student = RelationSchema::with_any_columns("Student", &["sname", "program"])
            .primary_key(&["sname"])
            .unwrap();
        let src = Schema::from_relations(vec![student]).unwrap();
        let mut inst = Instance::new(src);
        inst.insert(
            "Student",
            sedex_storage::tuple!["s'1", "p1"],
            ConflictPolicy::Reject,
        )
        .unwrap();
        let stu = RelationSchema::with_any_columns("Stu", &["student", "prog"])
            .primary_key(&["student"])
            .unwrap();
        let tgt = Schema::from_relations(vec![stu]).unwrap();
        let sigma = Correspondences::from_name_pairs([("sname", "student"), ("program", "prog")]);
        (inst, tgt, sigma)
    }

    #[test]
    fn sql_template_uses_slot_placeholders() {
        let (inst, tgt, sigma) = setup();
        let cfg = TreeConfig::default();
        let tx = tuple_tree(&inst, "Student", 0, &cfg).unwrap();
        let tr = relation_tree(&tgt, "Stu", &cfg).unwrap();
        let ty = translate(&tx, &tr, &sigma);
        let script = generate_script(&ty, &tgt);
        let sql = sql_template(&script, &tgt);
        assert_eq!(sql, "INSERT INTO Stu (student, prog) VALUES ($0, $1);\n");
    }

    #[test]
    fn sql_statements_bind_and_escape_values() {
        let (inst, tgt, sigma) = setup();
        let cfg = TreeConfig::default();
        let tx = tuple_tree(&inst, "Student", 0, &cfg).unwrap();
        let tr = relation_tree(&tgt, "Stu", &cfg).unwrap();
        let ty = translate(&tx, &tr, &sigma);
        let script = generate_script(&ty, &tgt);
        let sql = sql_statements(&script, &tgt, &slot_values(&tx));
        // The quote in s'1 must be doubled.
        assert_eq!(
            sql,
            "INSERT INTO Stu (student, prog) VALUES ('s''1', 'p1');\n"
        );
    }

    /// Both renderers share one writer: surrogates become `@fN` in the
    /// template and a commented `NULL` in concrete statements, and
    /// statements naming an unknown relation are left out of both.
    #[test]
    fn surrogates_and_unknown_relations_render_alike_in_both_forms() {
        use crate::script::Statement;
        let (_, tgt, _) = setup();
        let script = Script {
            statements: vec![
                Statement {
                    relation: "Stu".into(),
                    assignments: vec![(0, SlotRef::Fresh(2)), (1, SlotRef::Src(5))],
                },
                Statement {
                    relation: "Missing".into(),
                    assignments: vec![(0, SlotRef::Src(0))],
                },
            ],
        };
        assert_eq!(
            sql_template(&script, &tgt),
            "INSERT INTO Stu (student, prog) VALUES (@f2, $5);\n"
        );
        assert_eq!(
            sql_statements(&script, &tgt, &[&Value::int(1)]),
            "INSERT INTO Stu (student, prog) VALUES (NULL /* surrogate f2 */, NULL);\n"
        );
    }

    #[test]
    fn sql_literals() {
        assert_eq!(sql_literal(&Value::Null), "NULL");
        assert_eq!(sql_literal(&Value::int(5)), "5");
        assert_eq!(sql_literal(&Value::bool(true)), "TRUE");
        assert_eq!(sql_literal(&Value::text("a'b")), "'a''b'");
        assert_eq!(sql_literal(&Value::text("''x'")), "'''''x'''");
        assert_eq!(sql_literal(&Value::real(-2.5)), "-2.5");
        assert_eq!(sql_literal(&Value::Labeled(3)), "NULL /* N3 */");
        assert!(sql_literal(&Value::Labeled(3)).starts_with("NULL"));
    }

    #[test]
    fn xml_renders_nested_tree() {
        let (inst, tgt, sigma) = setup();
        let cfg = TreeConfig::default();
        let tx = tuple_tree(&inst, "Student", 0, &cfg).unwrap();
        let tr = relation_tree(&tgt, "Stu", &cfg).unwrap();
        let ty = translate(&tx, &tr, &sigma);
        let xml = xml_document(&ty);
        assert!(
            xml.starts_with("<student value=\"s&apos;1\"")
                || xml.starts_with("<student value=\"s'1\"")
        );
        assert!(xml.contains("<prog value=\"p1\"/>"));
        assert!(xml.trim_end().ends_with("</student>"));
    }

    #[test]
    fn xml_escapes_special_characters() {
        assert_eq!(xml_escape("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
        assert_eq!(xml_name("weird col!"), "weird_col_");
    }

    #[test]
    fn report_one_line_display_carries_the_headline_counters() {
        let r = ExchangeReport {
            scripts_generated: 2,
            scripts_reused: 10,
            violations: 1,
            ..ExchangeReport::default()
        };
        let line = r.to_string();
        assert!(!line.contains('\n'), "one-line form: {line}");
        assert!(line.contains("scripts 2 generated / 10 reused"), "{line}");
        assert!(line.contains("1 violations"), "{line}");
    }

    #[test]
    fn report_verbose_display_is_multiline_and_complete() {
        let r = ExchangeReport {
            tuples_processed: 7,
            tuples_skipped_seen: 3,
            scripts_generated: 1,
            scripts_reused: 6,
            inserted: 7,
            merged: 2,
            ..ExchangeReport::default()
        };
        let text = r.verbose().to_string();
        assert!(text.lines().count() >= 5, "{text}");
        assert!(text.contains("7 processed, 3 skipped-seen"), "{text}");
        assert!(text.contains("85.7% reuse"), "{text}");
        assert!(text.contains("7 inserted, 2 merged"), "{text}");
    }
}
