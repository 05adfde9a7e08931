//! Tier-1 gate: the whole workspace must stay lint-clean forever, and the
//! rule catalog and layering DAG in DESIGN.md must match the code.
//!
//! `cargo test --workspace` runs this alongside the unit suites, so any
//! commit that adds a non-DAG or unused gnn-dm dependency or a raw seed in
//! a parallel closure fails CI with the full diagnostic list. (Wall clocks,
//! hash collections, raw threads, sync primitives, library panics, library
//! console output and raw cost-model pricing are clippy's:
//! `scripts/check.sh`. What this file pins of them is that every library
//! declares the panic and print bans, that `clippy.toml` still bans every
//! raw pricing entry point, and that no `allow` exempts a site from them.
//! It also confines library file and stream access to the graph crate's
//! file format.)

use gnn_dm_lint::tokenizer::TokenKind;
use gnn_dm_lint::RULE_IDS;
use std::path::PathBuf;

/// The panic and console ban every library crate declares. A library
/// does not print: a parallel work unit's output would interleave with
/// every other unit's.
const PANIC_DENY: &str = "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, \
                          clippy::todo, clippy::unimplemented, clippy::print_stdout, \
                          clippy::print_stderr)]";

/// Clippy lints whose exemptions must be a site-level `#[expect]`: an
/// `#[allow]` of one of them is never reported stale.
const EXPECT_ONLY: &[&str] = &[
    "disallowed_methods",
    "disallowed_types",
    "unwrap_used",
    "expect_used",
    "panic",
    "todo",
    "unimplemented",
    "print_stdout",
    "print_stderr",
];

/// Names through which code reaches files and the process's standard
/// streams. `fs` counts only as a path segment (`std::fs`, `fs::read`): a
/// binding may be called `fs`.
const IO_NAMES: &[&str] = &["File", "OpenOptions", "stdin", "stdout", "stderr"];

/// The one library source that reads and writes files: the graph format.
const IO_HOME: &str = "crates/graph/src/io.rs";

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

/// Every library crate (each `crates/*` but `bench`, plus the root
/// package) carries the panic and print ban: a new crate that forgets it
/// fails here.
#[test]
fn every_library_denies_panics() {
    let mut libs = vec![root().join("src/lib.rs")];
    let crates = std::fs::read_dir(root().join("crates")).expect("crates/ must be readable");
    for entry in crates.flatten() {
        if entry.file_name() != "bench" {
            libs.push(entry.path().join("src/lib.rs"));
        }
    }
    assert!(libs.len() > 10, "found only {} library crates", libs.len());
    for lib in libs {
        let text = std::fs::read_to_string(&lib)
            .unwrap_or_else(|e| panic!("{}: {e}", lib.display()));
        assert!(
            text.lines().any(|line| line == PANIC_DENY),
            "{} must carry `{PANIC_DENY}` on its own line",
            lib.display()
        );
    }
}

/// The raw cost-model pricing entry points. A call to one outside a
/// span-emitting entry point prices seconds that never reach the trace
/// timeline, so `clippy.toml` bans each and the sanctioned sites carry an
/// `#[expect(clippy::disallowed_methods, ..)]`.
const PRICING_BANS: &[&str] = &[
    "gnn_dm_device::link::LinkModel::transfer_time",
    "gnn_dm_device::transfer::TransferEngine::time",
    "gnn_dm_cluster::network::exchange_time",
    "gnn_dm_cluster::network::allreduce_time",
    "gnn_dm_cluster::network::stale_allreduce_time",
    "gnn_dm_cluster::network::snapshot_time",
];

/// Tier-1 runs no clippy, so dropping a pricing ban from `clippy.toml`
/// fails here: each path is an entry of the `disallowed-methods` list.
#[test]
fn clippy_toml_bans_every_raw_pricing_entry_point() {
    let toml = std::fs::read_to_string(root().join("clippy.toml"))
        .expect("clippy.toml must exist at the workspace root");
    let methods = toml
        .split_once("disallowed-methods = [")
        .and_then(|(_, rest)| rest.split_once("\n]"))
        .map(|(list, _)| list)
        .expect("clippy.toml must carry a `disallowed-methods = [ .. ]` list");
    let entries: Vec<&str> =
        methods.lines().map(str::trim).filter(|line| !line.starts_with('#')).collect();
    for path in PRICING_BANS {
        let entry = format!("{{ path = \"{path}\",");
        assert!(
            entries.iter().any(|line| line.starts_with(&entry)),
            "clippy.toml's disallowed-methods must ban `{path}`"
        );
    }
}

/// The lint reads no suppression comments any more: a leftover marker
/// exempts nothing, so none may remain. (The needle is spelled in two
/// halves so this file does not match itself.)
#[test]
fn no_suppression_markers_remain() {
    let marker = concat!("lint", ":allow(");
    let root = root();
    let files = gnn_dm_lint::source_files(&root);
    assert!(files.len() > 50, "walker found only {} files", files.len());
    let offenders: Vec<String> = files
        .iter()
        .filter(|path| {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            text.contains(marker)
        })
        .map(|path| path.strip_prefix(&root).unwrap_or(path).display().to_string())
        .collect();
    assert!(
        offenders.is_empty(),
        "replace these markers with #[expect(.., reason = \"..\")]:\n{}",
        offenders.join("\n")
    );
}

/// Exemptions from the clippy-owned rules are `#[expect]`, which
/// `unfulfilled_lint_expectations` reports once stale; an `allow(..)` of
/// one of them (plain or inside `cfg_attr`) would silently outlive its
/// site.
#[test]
fn clippy_owned_rules_are_exempted_only_by_expect() {
    let (set, read_errors) = gnn_dm_lint::callgraph::FileSet::load(&root());
    assert!(read_errors.is_empty(), "unreadable files: {read_errors:?}");
    let mut offenders = Vec::new();
    for file in set.files.values() {
        let tokens = &file.tokens;
        for (i, t) in tokens.iter().enumerate() {
            let opens_list = t.kind == TokenKind::Ident
                && t.text == "allow"
                && tokens.get(i + 1).is_some_and(|n| n.text == "(");
            if !opens_list {
                continue;
            }
            let mut depth = 0usize;
            for (j, u) in tokens.iter().enumerate().skip(i + 1) {
                match (u.kind, u.text.as_str()) {
                    (TokenKind::Op, "(") => depth += 1,
                    (TokenKind::Op, ")") => depth -= 1,
                    (TokenKind::Ident, name)
                        if EXPECT_ONLY.contains(&name)
                        && tokens[j - 1].text == "::"
                        && tokens[j - 2].text == "clippy" =>
                    {
                        offenders.push(format!("{}:{} clippy::{name}", file.rel_path, u.line));
                    }
                    _ => {}
                }
                if depth == 0 {
                    break;
                }
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "use #[expect(.., reason = \"..\")] for these, not #[allow]:\n{}",
        offenders.join("\n")
    );
}

/// Library code touches no file and no standard stream outside the graph
/// format: a parallel work unit that writes one orders its bytes by the
/// schedule. The drivers (`bench`, the root package's binaries) and the
/// lint tooling are not libraries.
#[test]
fn library_io_is_confined_to_the_graph_format() {
    let (set, read_errors) = gnn_dm_lint::callgraph::FileSet::load(&root());
    assert!(read_errors.is_empty(), "unreadable files: {read_errors:?}");
    let mut offenders = Vec::new();
    let mut libraries = 0;
    for file in set.files.values() {
        if file.ctx.non_library || file.ctx.layer_key() == "lint" || file.rel_path == IO_HOME {
            continue;
        }
        libraries += 1;
        let tokens = &file.tokens;
        let path_sep = |j: usize| tokens.get(j).is_some_and(|t| t.text == "::");
        for (i, t) in tokens.iter().enumerate() {
            let names_io = t.kind == TokenKind::Ident
                && (IO_NAMES.contains(&t.text.as_str())
                    || (t.text == "fs" && ((i > 0 && path_sep(i - 1)) || path_sep(i + 1))));
            if names_io {
                offenders.push(format!("{}:{} `{}`", file.rel_path, t.line, t.text));
            }
        }
    }
    assert!(libraries > 50, "found only {libraries} library sources");
    assert!(
        offenders.is_empty(),
        "library code reaches files or streams outside {IO_HOME}:\n{}",
        offenders.join("\n")
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
