//! The layering DAG and L001's manifest half.
//!
//! [`ALLOWED_EDGES`] is the normative layering DAG, rendered into DESIGN.md
//! §10 by [`allowed_edges_markdown`] and pinned byte-for-byte by a tier-1
//! test. [`check_manifest`] enforces **L001** on one crate's `Cargo.toml`:
//! every declared `gnn-dm-*` dependency must be an edge of the DAG and must
//! actually be referenced by the crate's sources (a declared-but-unused
//! edge is layering erosion waiting to happen). The source half lives in
//! [`crate::rules`].

use crate::rules::Diagnostic;

/// Key used for the workspace's root package in all edge tables.
pub const ROOT_KEY: &str = "gnn-dm";

/// The layering DAG: for each crate key, the `gnn-dm` crates it may depend
/// on (declare in `Cargo.toml` or reference as `gnn_dm_*` in source).
/// Self-references are always allowed and not listed.
///
/// Layers (documented in DESIGN.md §10; rendered by
/// [`allowed_edges_markdown`]):
/// 0 substrate (`par`, `trace`, then `faults`, which builds on both — the
/// substrate layer is internally ordered) → 1 data (`tensor`, `graph`) →
/// 2 preparation (`partition`, `sampling`) → 3 execution (`nn`, `device`) →
/// 4 distribution (`cluster`) → 5 composition (`core`) →
/// 6 harness (`harness`) → 7 experiments (`bench`, root). `lint` is
/// standalone tooling.
pub const ALLOWED_EDGES: &[(&str, &[&str])] = &[
    ("par", &[]),
    ("trace", &[]),
    ("faults", &["par", "trace"]),
    ("tensor", &["par"]),
    ("graph", &["par"]),
    ("partition", &["par", "graph"]),
    ("sampling", &["par", "graph"]),
    ("nn", &["par", "tensor", "graph", "sampling"]),
    ("device", &["trace", "faults", "graph", "sampling"]),
    ("cluster", &["par", "trace", "faults", "tensor", "graph", "partition", "sampling", "nn", "device"]),
    ("core", &["trace", "faults", "tensor", "graph", "partition", "sampling", "nn", "device", "cluster"]),
    ("harness", &["par", "trace", "faults", "graph", "partition", "sampling", "device", "cluster", "core"]),
    ("bench", &["par", "faults", "tensor", "graph", "partition", "sampling", "nn", "device", "cluster", "core", "harness"]),
    (ROOT_KEY, &["par", "trace", "faults", "tensor", "graph", "partition", "sampling", "nn", "device", "cluster", "core", "harness"]),
    ("lint", &[]),
];

/// Human-readable layer label for each crate key (DESIGN.md §10 table).
const LAYERS: &[(&str, &str)] = &[
    ("par", "0 · substrate"),
    ("trace", "0 · substrate"),
    ("faults", "0 · substrate"),
    ("tensor", "1 · data"),
    ("graph", "1 · data"),
    ("partition", "2 · preparation"),
    ("sampling", "2 · preparation"),
    ("nn", "3 · execution"),
    ("device", "3 · execution"),
    ("cluster", "4 · distribution"),
    ("core", "5 · composition"),
    ("harness", "6 · harness"),
    ("bench", "7 · experiments"),
    (ROOT_KEY, "7 · experiments"),
    ("lint", "tooling"),
];

/// Allowed dependency keys for `key`, or `None` when the crate is not in
/// the table (which L001 reports: new crates must be placed in the DAG).
pub fn allowed_deps(key: &str) -> Option<&'static [&'static str]> {
    ALLOWED_EDGES.iter().find(|(k, _)| *k == key).map(|(_, deps)| *deps)
}

/// True when crate `from` may depend on crate `to` (self-edges allowed).
pub fn edge_allowed(from: &str, to: &str) -> bool {
    from == to || allowed_deps(from).is_some_and(|deps| deps.contains(&to))
}

/// Renders [`ALLOWED_EDGES`] as the markdown table DESIGN.md §10 embeds.
/// `tests/workspace_clean.rs` asserts DESIGN.md contains this rendering
/// byte-for-byte, so the documented DAG and the enforced DAG cannot drift.
pub fn allowed_edges_markdown() -> String {
    let mut out = String::from("| crate | layer | may depend on |\n|---|---|---|\n");
    for (key, deps) in ALLOWED_EDGES {
        let layer = LAYERS
            .iter()
            .find(|(k, _)| k == key)
            .map_or("?", |(_, l)| l);
        let deps = if deps.is_empty() {
            "—".to_string()
        } else {
            deps.iter().map(|d| format!("`{d}`")).collect::<Vec<_>>().join(", ")
        };
        out.push_str(&format!("| `{key}` | {layer} | {deps} |\n"));
    }
    out
}

/// L001's manifest half for crate `key`, whose manifest at `rel_path`
/// reads `text` and whose sources reference the `gnn_dm_*` crate keys in
/// `refs`. A crate missing from [`ALLOWED_EDGES`] is one finding; otherwise
/// each `gnn-dm-*` entry is checked for being a DAG edge and for being
/// referenced. The manifest is read as the TOML subset this workspace
/// uses: one-line entries under exactly `[dependencies]` /
/// `[dev-dependencies]` (so `[workspace.dependencies]` is ignored).
pub fn check_manifest(key: &str, rel_path: &str, text: &str, refs: &[String]) -> Vec<Diagnostic> {
    let diag = |line: usize, message: String| Diagnostic {
        rule: "L001",
        file: rel_path.to_string(),
        line,
        message,
    };
    if allowed_deps(key).is_none() {
        return vec![diag(
            1,
            format!(
                "crate `{key}` is not in the layering DAG; add it to \
                 ALLOWED_EDGES (crates/lint/src/workspace.rs) and the \
                 DESIGN.md §10 table"
            ),
        )];
    }
    let mut diags = Vec::new();
    // `Some(dev)` inside a dependency table, `None` elsewhere.
    let mut table: Option<bool> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            table = match line {
                "[dependencies]" => Some(false),
                "[dev-dependencies]" => Some(true),
                _ => None,
            };
            continue;
        }
        let Some(dev) = table else { continue };
        let name: String = line
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
            .collect();
        let Some(dep_key) = gnn_dep_key(&name) else { continue };
        if !edge_allowed(key, dep_key) {
            diags.push(diag(
                idx + 1,
                format!(
                    "`{key}` → `{dep_key}` is not an edge of the layering DAG; \
                     route through an allowed layer or amend ALLOWED_EDGES \
                     and DESIGN.md §10 deliberately"
                ),
            ));
        }
        if !refs.iter().any(|r| r == dep_key) {
            diags.push(diag(
                idx + 1,
                format!(
                    "declared {}dependency `{name}` is never referenced by \
                     `{key}` sources; delete the declaration",
                    if dev { "dev-" } else { "" }
                ),
            ));
        }
    }
    diags
}

/// Maps a `gnn-dm` package name to its crate key (`gnn-dm-graph` →
/// `graph`); `None` for external packages.
fn gnn_dep_key(package: &str) -> Option<&str> {
    if package == ROOT_KEY {
        return Some(ROOT_KEY);
    }
    package.strip_prefix("gnn-dm-")
}

/// Maps a `gnn_dm_*` source identifier to its crate key.
pub(crate) fn gnn_ident_key(ident: &str) -> Option<&str> {
    ident.strip_prefix("gnn_dm_").filter(|rest| !rest.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_check_reads_only_the_dependency_tables() {
        let toml = "\
[workspace]\nmembers = [\"crates/*\"]\n\n\
[workspace.dependencies]\ngnn-dm-nn = { path = \"crates/nn\" }\n\n\
[package]\nname = \"gnn-dm-partition\" # a member\n\n\
[dependencies]\ngnn-dm-graph.workspace = true\nrand = { path = \"vendor/rand\" }\n\n\
[dev-dependencies]\ngnn-dm-par.workspace = true\n";
        // The [workspace.dependencies] entry is not a declaration of the
        // crate, and rand is not a gnn-dm dependency; graph and par are
        // allowed edges, so only their (missing) references are findings.
        let diags = check_manifest("partition", "crates/partition/Cargo.toml", toml, &[]);
        let found: Vec<(usize, &str)> =
            diags.iter().map(|d| (d.line, d.message.as_str())).collect();
        assert_eq!(found.len(), 2, "{found:?}");
        assert_eq!(found[0].0, 11);
        assert!(found[0].1.starts_with("declared dependency `gnn-dm-graph`"));
        assert!(found[1].1.starts_with("declared dev-dependency `gnn-dm-par`"));
        let refs = ["graph".to_string(), "par".to_string()];
        assert!(check_manifest("partition", "crates/partition/Cargo.toml", toml, &refs).is_empty());
    }

    #[test]
    fn dep_keys_strip_the_prefix() {
        assert_eq!(gnn_dep_key("gnn-dm-graph"), Some("graph"));
        assert_eq!(gnn_dep_key("gnn-dm"), Some(ROOT_KEY));
        assert_eq!(gnn_dep_key("rand"), None);
        assert_eq!(gnn_ident_key("gnn_dm_par"), Some("par"));
        assert_eq!(gnn_ident_key("gnn_dm"), None);
        assert_eq!(gnn_ident_key("other"), None);
    }

    #[test]
    fn edge_queries_match_the_table() {
        assert!(edge_allowed("cluster", "device"));
        assert!(edge_allowed("graph", "graph"), "self-edges always allowed");
        assert!(!edge_allowed("graph", "cluster"), "no upward edges");
        assert!(!edge_allowed("device", "par"), "device stays off the pool");
        assert!(!edge_allowed("unknown-crate", "par"));
        assert_eq!(allowed_deps("trace"), Some(&[][..]));
        assert_eq!(allowed_deps("nope"), None);
    }

    #[test]
    fn every_crate_has_a_layer_label() {
        for (key, _) in ALLOWED_EDGES {
            assert!(
                LAYERS.iter().any(|(k, _)| k == key),
                "crate `{key}` missing from LAYERS"
            );
        }
        let md = allowed_edges_markdown();
        assert!(md.starts_with("| crate | layer | may depend on |"));
        assert!(md.contains("| `cluster` | 4 · distribution |"));
        assert!(!md.contains("| ? |"), "unlabeled crate in rendering:\n{md}");
    }

    #[test]
    fn check_manifest_flags_crates_missing_from_the_dag() {
        let diags = check_manifest("newcomer", "crates/newcomer/Cargo.toml", "", &[]);
        assert_eq!(diags.len(), 1);
        assert_eq!((diags[0].file.as_str(), diags[0].line), ("crates/newcomer/Cargo.toml", 1));
        assert!(diags[0].message.contains("not in the layering DAG"));
    }
}
