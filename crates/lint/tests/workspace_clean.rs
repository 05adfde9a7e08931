//! Tier-1 gate: the whole workspace must stay lint-clean forever.
//!
//! `cargo test --workspace` runs this alongside the unit suites, so any
//! commit that reintroduces wall-clock reads, hash-ordered collections,
//! ambient entropy, library panics, untraced cost-model calls or exact
//! float assertions fails CI with the full diagnostic list.

use std::path::PathBuf;

#[test]
fn workspace_has_zero_violations() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = gnn_dm_lint::lint_workspace(&root);
    assert!(
        report.files_scanned > 50,
        "walker found only {} files — scan roots moved?",
        report.files_scanned
    );
    assert!(
        report.read_errors.is_empty(),
        "unreadable files: {:?}",
        report.read_errors
    );
    let listing: String = report
        .diagnostics
        .iter()
        .map(|d| format!("  {}:{} [{}] {}\n", d.file, d.line, d.rule, d.message))
        .collect();
    assert!(
        report.is_clean(),
        "workspace lint found {} violation(s):\n{listing}{}",
        report.diagnostics.len(),
        report.summary_json()
    );
}

#[test]
fn design_doc_carries_the_normative_dag_table() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let design = std::fs::read_to_string(root.join("DESIGN.md"))
        .expect("DESIGN.md must exist at the workspace root");
    let table = gnn_dm_lint::workspace::allowed_edges_markdown();
    assert!(
        design.contains(&table),
        "DESIGN.md §10 must contain the ALLOWED_EDGES table byte-for-byte; \
         re-render it with workspace::allowed_edges_markdown():\n{table}"
    );
}
