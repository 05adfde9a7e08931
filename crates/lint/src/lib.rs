//! gnn-dm-lint: a zero-dependency static-analysis pass over the workspace.
//!
//! The paper's experiments stand on an invariant no single-file check can
//! see: parallel work closures that seed every unit from `split_seed`.
//! This crate walks every `.rs` file in the workspace with its own
//! comment/string-aware tokenizer and enforces the call-graph rule in
//! [`seeds`] (R002); `tests/workspace_clean.rs` pins the workspace at zero
//! violations and checks every `Cargo.toml` against the layering DAG in
//! DESIGN.md §10. What a type can say — bytes vs. seconds, `Fn + Sync` work
//! closures — is left to the compiler; what a path-resolving per-file
//! check can say — wall clock, hash collections, raw threads, sync
//! primitives, library panics, console output and raw cost-model pricing —
//! to clippy (the root `clippy.toml` and each library's `lib.rs`), whose
//! exemptions are `#[expect(.., reason = "..")]` attributes that rustc
//! reports once stale; and what a run can count — allocations on the hot
//! paths — to the counting-allocator tests (`crates/*/tests/allocations.rs`).
//!
//! Run it with `cargo test -p gnn-dm-lint --test workspace_clean`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::print_stdout, clippy::print_stderr)]

pub mod callgraph;
pub mod items;
pub mod rules;
pub mod seeds;
pub mod tokenizer;

pub use rules::Diagnostic;

/// Every rule ID the linter can emit, sorted. `tests/workspace_clean.rs`
/// checks it against the DESIGN.md §7 catalog in both directions.
pub const RULE_IDS: &[&str] = &["R002"];

use std::fs;
use std::path::{Path, PathBuf};

/// Top-level directories scanned relative to the workspace root.
const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

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
/// [`lint_sources`]' pipeline.
pub fn lint_workspace(root: &Path) -> Report {
    let (set, read_errors) = callgraph::FileSet::load(root);
    let mut diagnostics = dataflow_lint(&set);
    sort_diagnostics(&mut diagnostics);
    Report { diagnostics, files_scanned: set.files.len(), read_errors }
}

/// Runs R002 over in-memory sources: `(rel_path, source)` pairs. This is
/// what fixtures and property tests drive; [`lint_workspace`] is the same
/// pass fed from disk.
pub fn lint_sources(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
    let mut diags = dataflow_lint(&callgraph::FileSet::from_sources(sources));
    sort_diagnostics(&mut diags);
    diags
}

/// Report order: by (file, line, rule), stable within a line and rule.
fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
}

/// The dataflow pass (R002) over a loaded file set.
fn dataflow_lint(set: &callgraph::FileSet) -> Vec<Diagnostic> {
    let graph = callgraph::CallGraph::build(set);
    seeds::check_r002(set, &graph, &seeds::raw_seed_sites(set, &graph))
}

/// Every workspace `.rs` file under `root`'s scan roots, in path order.
pub fn source_files(root: &Path) -> Vec<PathBuf> {
    let mut paths = Vec::new();
    for top in SCAN_ROOTS {
        collect_rs_files(&root.join(top), &mut paths);
    }
    paths.sort();
    paths
}

/// Recursively gathers `.rs` files, skipping [`SKIP_DIRS`] and dotdirs.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
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
