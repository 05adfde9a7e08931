//! gnn-dm-lint: a zero-dependency static-analysis pass over the workspace.
//!
//! The paper's experiments stand on invariants the compiler cannot check:
//! bit-identical reruns (determinism), no aborts from library code
//! (panic-freedom), cost-model pricing that lands on the span timeline, and
//! a layered crate graph. This crate walks every `.rs` file in the
//! workspace with its own comment/string-aware tokenizer and enforces the
//! per-file rules in [`rules`], the layering check in [`workspace`], and
//! the call-graph rules in [`races`] (R001, R003) and [`seeds`] (R002);
//! `tests/workspace_clean.rs` pins the workspace at zero violations.
//! What a type can say — bytes vs. seconds, `Fn + Sync` work closures —
//! is left to the compiler.
//!
//! Run it directly with `cargo run -p gnn-dm-lint`.

pub mod callgraph;
pub mod effects;
pub mod items;
pub mod races;
pub mod rules;
pub mod seeds;
pub mod tokenizer;
pub mod workspace;

pub use rules::{lint_source, Diagnostic};

/// Every rule ID the linter can emit, sorted. `--explain` must have a
/// catalog row for each (pinned by `tests/explain_completeness.rs`), and
/// the JSON reports carry this list as `rule_ids` so downstream tooling
/// can detect rules added or removed between versions.
pub const RULE_IDS: &[&str] = &[
    "A002", "D001", "D002", "D003", "F001", "L001", "P001", "R001", "R002", "R003", "S001",
    "S002", "T001",
];

/// The design document is compiled in so `--explain` works from any
/// working directory (the binary is its own documentation).
pub const DESIGN_MD: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"));

/// Returns rule ID's `| ID | scope | what it flags |` row of the
/// DESIGN.md §7 catalog, formatted for humans, or an error for IDs with
/// no catalog row.
pub fn explain(rule: &str) -> Result<String, String> {
    let needle = format!("| {rule} |");
    for line in DESIGN_MD.lines() {
        if let Some(rest) = line.strip_prefix(&needle) {
            let mut cols = rest.trim_end_matches('|').splitn(2, '|');
            let scope = cols.next().unwrap_or("").trim();
            let what = cols.next().unwrap_or("").trim();
            return Ok(format!("{rule}\n  scope: {scope}\n  flags: {what}"));
        }
    }
    Err(format!("unknown rule `{rule}` — no row in the DESIGN.md rule catalog"))
}

use std::fs;
use std::path::{Path, PathBuf};

/// Top-level directories scanned relative to the workspace root.
pub(crate) const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// Directory names skipped wherever they appear: build output, vendored
/// stand-in deps (external idiom, not project code), and lint fixtures
/// (which contain violations on purpose).
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures"];

/// Outcome of linting a workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// All surviving diagnostics, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files analyzed.
    pub files_scanned: usize,
    /// Files that could not be read (path, error). An unread file was not
    /// linted, so the report is not clean.
    pub read_errors: Vec<(String, String)>,
}

impl Report {
    /// True when no rule fired anywhere and every file was read.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty() && self.read_errors.is_empty()
    }

    /// Count of diagnostics for one rule.
    pub fn count(&self, rule: &str) -> usize {
        self.diagnostics.iter().filter(|d| d.rule == rule).count()
    }

    /// Full machine-readable report: the summary fields plus every
    /// diagnostic and read error, as one JSON object. Diagnostics appear
    /// in report order (sorted by file, line, rule), so the output is
    /// byte-stable across runs.
    pub fn to_json(&self) -> String {
        let diags: Vec<String> = self
            .diagnostics
            .iter()
            .map(|d| {
                format!(
                    "{{\"file\":{},\"line\":{},\"rule\":{},\"message\":{}}}",
                    json_str(&d.file),
                    d.line,
                    json_str(d.rule),
                    json_str(&d.message)
                )
            })
            .collect();
        let errs: Vec<String> = self
            .read_errors
            .iter()
            .map(|(f, e)| format!("{{\"file\":{},\"error\":{}}}", json_str(f), json_str(e)))
            .collect();
        let summary = self.summary_json();
        // Splice the diagnostics/read_errors arrays into the summary object
        // so both forms share one set of top-level fields.
        format!(
            "{},\"diagnostics\":[{}],\"read_errors\":[{}]}}",
            &summary[..summary.len() - 1],
            diags.join(","),
            errs.join(",")
        )
    }

    /// Machine-readable one-line JSON summary:
    /// `{"files_scanned":N,"violations":N,"by_rule":{"D001":n,...},
    /// "rule_ids":["A002",...]}` — `rule_ids` is the full shipped catalog
    /// ([`RULE_IDS`]), not just the rules that fired.
    pub fn summary_json(&self) -> String {
        let mut rules: Vec<&'static str> =
            self.diagnostics.iter().map(|d| d.rule).collect();
        rules.sort_unstable();
        rules.dedup();
        let by_rule: Vec<String> = rules
            .iter()
            .map(|r| format!("\"{}\":{}", r, self.count(r)))
            .collect();
        let ids: Vec<String> = RULE_IDS.iter().map(|r| format!("\"{r}\"")).collect();
        format!(
            "{{\"files_scanned\":{},\"violations\":{},\"by_rule\":{{{}}},\"rule_ids\":[{}]}}",
            self.files_scanned,
            self.diagnostics.len(),
            by_rule.join(","),
            ids.join(",")
        )
    }
}

/// Escapes a string as a JSON string literal (quotes included).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Lints every workspace `.rs` file under `root`'s scan roots: the
/// per-file rules, then the interprocedural dataflow passes (call graph →
/// effect inference → R001/R002/R003), with suppressions applied once over
/// the combined per-file sets, then L001's manifest half.
pub fn lint_workspace(root: &Path) -> Report {
    let (set, read_errors) = callgraph::FileSet::load(root);
    let mut report = Report {
        files_scanned: set.files.len(),
        read_errors,
        ..Report::default()
    };
    report.diagnostics = dataflow_lint(&set);
    // L001's manifest half: the manifests, checked against the FileSet's
    // source references (sources are lexed exactly once per run).
    let ws = workspace::Workspace::from_fileset(root, &set);
    report.diagnostics.extend(ws.check_manifests(workspace::ALLOWED_EDGES));
    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
}

/// Runs the full per-file + interprocedural pipeline over in-memory
/// sources: `(rel_path, source)` pairs. This is what fixtures and property
/// tests drive; [`lint_workspace`] is the same pipeline fed from disk.
pub fn lint_sources(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
    let mut diags = dataflow_lint(&callgraph::FileSet::from_sources(sources));
    diags.sort_by(|a, b| (a.file.clone(), a.line, a.rule).cmp(&(b.file.clone(), b.line, b.rule)));
    diags
}

/// Shared core: per-file checks, dataflow passes, then one suppression
/// application per file over the merged diagnostics (so a `lint:allow`
/// covers a site no matter which pass flagged it, and S002 sees the full
/// picture).
fn dataflow_lint(set: &callgraph::FileSet) -> Vec<Diagnostic> {
    use std::collections::BTreeMap;
    let mut per_file: BTreeMap<&str, Vec<Diagnostic>> = BTreeMap::new();
    for file in set.files.values() {
        per_file.insert(
            file.rel_path.as_str(),
            rules::file_checks(&file.ctx, &file.lexed, &file.in_test),
        );
    }
    let graph = callgraph::CallGraph::build(set);
    let fx = effects::infer(set, &graph);
    let interprocedural = races::check_r001(set, &graph, &fx)
        .into_iter()
        .chain(seeds::check_r002(set, &graph, &fx))
        .chain(races::check_r003(set, &graph, &fx));
    for d in interprocedural {
        if let Some(bucket) = per_file.get_mut(d.file.as_str()) {
            bucket.push(d);
        }
    }
    let mut out = Vec::new();
    for file in set.files.values() {
        let diags = per_file.remove(file.rel_path.as_str()).unwrap_or_default();
        out.extend(rules::apply_suppressions(&file.ctx, &file.lexed, diags));
    }
    out
}

/// Recursively gathers `.rs` files, skipping [`SKIP_DIRS`] and dotdirs.
pub(crate) fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Workspace-relative `/`-separated path (falls back to the full path if
/// `file` is not under `root`).
pub(crate) fn relative_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"rule_ids":[...]` suffix every summary carries: the full
    /// shipped catalog, independent of which rules fired.
    fn rule_ids_json() -> String {
        let ids: Vec<String> = RULE_IDS.iter().map(|r| format!("\"{r}\"")).collect();
        format!("\"rule_ids\":[{}]", ids.join(","))
    }

    #[test]
    fn rule_catalog_is_sorted_and_unique() {
        let mut sorted = RULE_IDS.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, RULE_IDS, "RULE_IDS must stay sorted and duplicate-free");
    }

    #[test]
    fn summary_json_shape() {
        let report = Report {
            diagnostics: vec![
                Diagnostic { rule: "D001", file: "a.rs".into(), line: 1, message: String::new() },
                Diagnostic { rule: "D001", file: "b.rs".into(), line: 2, message: String::new() },
                Diagnostic { rule: "P001", file: "b.rs".into(), line: 3, message: String::new() },
            ],
            files_scanned: 7,
            read_errors: vec![],
        };
        assert_eq!(
            report.summary_json(),
            format!(
                "{{\"files_scanned\":7,\"violations\":3,\"by_rule\":{{\"D001\":2,\"P001\":1}},{}}}",
                rule_ids_json()
            )
        );
        assert!(!report.is_clean());
        assert_eq!(report.count("D001"), 2);
    }

    #[test]
    fn full_json_escapes_and_nests() {
        let report = Report {
            diagnostics: vec![Diagnostic {
                rule: "P001",
                file: "a.rs".into(),
                line: 4,
                message: "avoid `panic!(\"boom\")`".into(),
            }],
            files_scanned: 1,
            read_errors: vec![("b.rs".into(), "io\nerror".into())],
        };
        assert_eq!(
            report.to_json(),
            format!(
                concat!(
                    "{{\"files_scanned\":1,\"violations\":1,\"by_rule\":{{\"P001\":1}},{},",
                    "\"diagnostics\":[{{\"file\":\"a.rs\",\"line\":4,\"rule\":\"P001\",",
                    "\"message\":\"avoid `panic!(\\\"boom\\\")`\"}}],",
                    "\"read_errors\":[{{\"file\":\"b.rs\",\"error\":\"io\\nerror\"}}]}}"
                ),
                rule_ids_json()
            )
        );
    }

    #[test]
    fn clean_report_summary() {
        let report = Report { files_scanned: 3, ..Report::default() };
        assert!(report.is_clean());
        assert_eq!(
            report.summary_json(),
            format!("{{\"files_scanned\":3,\"violations\":0,\"by_rule\":{{}},{}}}", rule_ids_json())
        );
        assert!(explain("A002").is_ok_and(|t| t.contains("scope:")));
        assert!(explain("Z999").is_err());
    }

    #[test]
    fn unread_files_make_the_report_unclean() {
        let report = Report {
            files_scanned: 3,
            read_errors: vec![("crates/x/src/a.rs".into(), "permission denied".into())],
            ..Report::default()
        };
        assert!(!report.is_clean(), "a file that was not read was not linted");
        assert!(report.summary_json().contains("\"violations\":0"));
    }
}
