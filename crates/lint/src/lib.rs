//! gnn-dm-lint: a zero-dependency static-analysis pass over the workspace.
//!
//! The paper's experiments stand on invariants no single-file check can
//! see: cost-model pricing that lands on the span timeline, a layered
//! crate graph, and parallel work closures that share no state, seed every
//! unit from `split_seed` and allocate nothing on the hot path. This crate
//! walks every `.rs` file in the workspace with its own
//! comment/string-aware tokenizer and enforces the per-file rule in
//! [`rules`] (A002), the manifest check in [`workspace`] (L001), and the
//! call-graph rules in [`races`] (R001, R003) and [`seeds`] (R002);
//! `tests/workspace_clean.rs` pins the workspace at zero violations.
//! What a type can say — bytes vs. seconds, `Fn + Sync` work closures —
//! is left to the compiler, and what a path-resolving per-file check can
//! say — wall clock, hash collections, raw threads, library panics — to
//! clippy (the root `clippy.toml` and each library's `lib.rs`).
//!
//! Run it directly with `cargo run -p gnn-dm-lint`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented)]

pub mod callgraph;
pub mod effects;
pub mod items;
pub mod races;
pub mod rules;
pub mod seeds;
pub mod tokenizer;
pub mod workspace;

pub use rules::Diagnostic;

/// Every rule ID the linter can emit, sorted. `tests/workspace_clean.rs`
/// checks it against the DESIGN.md §7 catalog in both directions.
pub const RULE_IDS: &[&str] = &["A002", "L001", "R001", "R002", "R003", "S001", "S002"];

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
}

/// Lints every workspace `.rs` file under `root`'s scan roots through
/// [`lint_sources`]' pipeline, then L001's manifest half: the root
/// `Cargo.toml` and every `crates/*` member's, against the source
/// references the same file set collected (sources are lexed once per run).
pub fn lint_workspace(root: &Path) -> Report {
    let (set, read_errors) = callgraph::FileSet::load(root);
    let mut diagnostics = dataflow_lint(&set);
    let mut manifests = vec![(workspace::ROOT_KEY.to_string(), "Cargo.toml".to_string())];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let key = entry.file_name().to_string_lossy().into_owned();
            let rel = format!("crates/{key}/Cargo.toml");
            manifests.push((key, rel));
        }
    }
    for (key, rel) in manifests {
        let Ok(text) = fs::read_to_string(root.join(&rel)) else { continue };
        let refs = set.refs.get(&key).map_or(&[][..], Vec::as_slice);
        diagnostics.extend(workspace::check_manifest(&key, &rel, &text, refs));
    }
    sort_diagnostics(&mut diagnostics);
    Report { diagnostics, files_scanned: set.files.len(), read_errors }
}

/// Runs the full A002 + interprocedural pipeline over in-memory
/// sources: `(rel_path, source)` pairs. This is what fixtures and property
/// tests drive; [`lint_workspace`] is the same pipeline fed from disk.
pub fn lint_sources(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
    let mut diags = dataflow_lint(&callgraph::FileSet::from_sources(sources));
    sort_diagnostics(&mut diags);
    diags
}

/// Report order: by (file, line, rule), stable within a line and rule.
fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
}

/// Shared core: A002, the dataflow passes, then one suppression
/// application per file over the merged diagnostics (so a `lint:allow`
/// covers a site no matter which pass flagged it, and S002 sees the full
/// picture).
fn dataflow_lint(set: &callgraph::FileSet) -> Vec<Diagnostic> {
    use std::collections::BTreeMap;
    let mut per_file: BTreeMap<&str, Vec<Diagnostic>> = BTreeMap::new();
    for file in set.files.values() {
        per_file.insert(file.rel_path.as_str(), rules::check_a002(&file.ctx, &file.lexed.tokens));
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

    #[test]
    fn rule_catalog_is_sorted_and_unique() {
        let mut sorted = RULE_IDS.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, RULE_IDS, "RULE_IDS must stay sorted and duplicate-free");
    }

    #[test]
    fn unread_files_make_the_report_unclean() {
        let report = Report {
            files_scanned: 3,
            read_errors: vec![("crates/x/src/a.rs".into(), "permission denied".into())],
            ..Report::default()
        };
        assert!(!report.is_clean(), "a file that was not read was not linted");
        assert!(report.diagnostics.is_empty());
    }
}
