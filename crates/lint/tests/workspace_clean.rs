//! Tier-1 gate: the whole workspace must stay lint-clean forever, and the
//! rule catalog and layering DAG in DESIGN.md must match the code.
//!
//! `cargo test --workspace` runs this alongside the unit suites, so any
//! commit that reintroduces wall-clock reads, hash-ordered collections,
//! ambient entropy, library panics, untraced cost-model calls or exact
//! float assertions fails CI with the full diagnostic list.

use gnn_dm_lint::RULE_IDS;
use std::path::PathBuf;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn design_md() -> String {
    std::fs::read_to_string(root().join("DESIGN.md"))
        .expect("DESIGN.md must exist at the workspace root")
}

#[test]
fn workspace_has_zero_violations() {
    let report = gnn_dm_lint::lint_workspace(&root());
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
        "workspace lint found {} violation(s):\n{listing}",
        report.diagnostics.len()
    );
}

#[test]
fn design_doc_carries_the_normative_dag_table() {
    let table = gnn_dm_lint::workspace::allowed_edges_markdown();
    assert!(
        design_md().contains(&table),
        "DESIGN.md §10 must contain the ALLOWED_EDGES table byte-for-byte; \
         re-render it with workspace::allowed_edges_markdown():\n{table}"
    );
}

/// Every shipped rule has a DESIGN.md §7 row with non-empty scope and
/// flags text, and every rule-shaped row names a shipped rule: the catalog
/// and the implementation cannot drift apart in either direction.
#[test]
fn design_doc_catalogs_exactly_the_shipped_rules() {
    let design = design_md();
    // `| ID | scope | what it flags |` rows whose first cell is rule-shaped:
    // a capital letter plus three digits (other tables don't match).
    let rows: Vec<Vec<&str>> = design
        .lines()
        .filter_map(|line| line.strip_prefix('|'))
        .map(|row| row.trim_end_matches('|').split('|').map(str::trim).collect::<Vec<_>>())
        .filter(|cells| {
            let id = cells[0];
            id.len() == 4
                && id.starts_with(|c: char| c.is_ascii_uppercase())
                && id[1..].chars().all(|c| c.is_ascii_digit())
        })
        .collect();
    for rule in RULE_IDS {
        let row = rows
            .iter()
            .find(|cells| cells[0] == *rule)
            .unwrap_or_else(|| panic!("{rule} has no row in the DESIGN.md §7 catalog"));
        assert!(
            row.len() == 3 && !row[1].is_empty() && !row[2].is_empty(),
            "{rule}: catalog row needs non-empty scope and flags text: {row:?}"
        );
    }
    for cells in &rows {
        assert!(
            RULE_IDS.contains(&cells[0]),
            "DESIGN.md §7 documents `{}` but the linter does not ship it",
            cells[0]
        );
    }
}
