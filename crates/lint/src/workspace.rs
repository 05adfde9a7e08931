//! The workspace model: manifests and the layering DAG.
//!
//! [`Workspace::from_fileset`] parses every crate's `Cargo.toml` (a
//! deliberately small TOML subset — exactly what this workspace uses) into
//! per-crate [`CrateModel`]s: declared dependencies with manifest line
//! numbers, next to the `gnn_dm_*` crates the sources actually reference
//! (taken from an already-loaded [`FileSet`]).
//!
//! On top of the model, [`check_manifests`](Workspace::check_manifests)
//! enforces **L001**: every declared `gnn-dm-*` dependency must be an edge
//! of [`ALLOWED_EDGES`] — the normative layering DAG, rendered into
//! DESIGN.md §10 by [`allowed_edges_markdown`] and pinned byte-for-byte by
//! a tier-1 test — and must actually be referenced by the crate's sources
//! (a declared-but-unused edge is layering erosion waiting to happen).

use crate::callgraph::FileSet;
use crate::rules::Diagnostic;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

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

/// One dependency declaration in a `Cargo.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepDecl {
    /// Package name as written (`gnn-dm-graph`, `rand`, …).
    pub name: String,
    /// 1-based line of the declaration.
    pub line: usize,
    /// True for `[dev-dependencies]` entries.
    pub dev: bool,
}

/// Parsed subset of one crate's `Cargo.toml`.
#[derive(Debug, Clone, Default)]
pub struct CrateManifest {
    /// `package.name` (empty if the manifest declares none).
    pub package_name: String,
    /// Workspace-relative manifest path, `/`-separated.
    pub path: String,
    /// All `[dependencies]` / `[dev-dependencies]` entries in order.
    pub deps: Vec<DepDecl>,
}

/// One workspace crate: its manifest and what its sources reference.
#[derive(Debug, Clone, Default)]
pub struct CrateModel {
    /// Crate key: directory name under `crates/`, or [`ROOT_KEY`].
    pub key: String,
    /// Parsed manifest.
    pub manifest: CrateManifest,
    /// Keys of `gnn-dm` crates the sources reference (via `gnn_dm_*`
    /// identifier tokens — comments and strings never count), excluding
    /// self-references. Sorted, deduped.
    pub refs: Vec<String>,
}

/// The whole workspace: every crate model, keyed by crate key.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Crate models in key order.
    pub crates: BTreeMap<String, CrateModel>,
}

impl Workspace {
    /// Reads the manifests under `root` (the root package plus every
    /// `crates/*` member) and takes each crate's source references from
    /// `set`, so every `.rs` file is tokenized exactly once per lint run.
    /// Missing or unreadable manifests are skipped; the crate then has no
    /// model.
    pub fn from_fileset(root: &Path, set: &FileSet) -> Workspace {
        let mut manifests = vec![(ROOT_KEY.to_string(), "Cargo.toml".to_string())];
        if let Ok(entries) = fs::read_dir(root.join("crates")) {
            let mut keys: Vec<String> =
                entries.flatten().map(|e| e.file_name().to_string_lossy().into_owned()).collect();
            keys.sort();
            manifests.extend(keys.into_iter().map(|k| {
                let rel = format!("crates/{k}/Cargo.toml");
                (k, rel)
            }));
        }
        let mut ws = Workspace::default();
        for (key, rel) in manifests {
            let Ok(text) = fs::read_to_string(root.join(&rel)) else { continue };
            let model = CrateModel {
                manifest: parse_manifest(&rel, &text),
                refs: set.refs.get(&key).cloned().unwrap_or_default(),
                key: key.clone(),
            };
            ws.crates.insert(key, model);
        }
        ws
    }

    /// L001 manifest pass over `edges` (parameterized so fixture
    /// workspaces can exercise it): flags declared `gnn-dm` dependencies
    /// that are not DAG edges, declared edges the sources never reference,
    /// and crates missing from the table entirely.
    pub fn check_manifests(&self, edges: &[(&str, &[&str])]) -> Vec<Diagnostic> {
        let allowed = |from: &str, to: &str| {
            from == to
                || edges
                    .iter()
                    .find(|(k, _)| *k == from)
                    .is_some_and(|(_, deps)| deps.contains(&to))
        };
        let mut diags = Vec::new();
        for (key, model) in &self.crates {
            if !edges.iter().any(|(k, _)| k == key) {
                diags.push(Diagnostic {
                    rule: "L001",
                    file: model.manifest.path.clone(),
                    line: 1,
                    message: format!(
                        "crate `{key}` is not in the layering DAG; add it to \
                         ALLOWED_EDGES (crates/lint/src/workspace.rs) and the \
                         DESIGN.md §10 table"
                    ),
                });
                continue;
            }
            for dep in &model.manifest.deps {
                let Some(dep_key) = gnn_dep_key(&dep.name) else { continue };
                if !allowed(key, dep_key) {
                    diags.push(Diagnostic {
                        rule: "L001",
                        file: model.manifest.path.clone(),
                        line: dep.line,
                        message: format!(
                            "`{}` → `{}` is not an edge of the layering DAG; \
                             route through an allowed layer or amend ALLOWED_EDGES \
                             and DESIGN.md §10 deliberately",
                            key, dep_key
                        ),
                    });
                }
                if !model.refs.iter().any(|r| r == dep_key) {
                    diags.push(Diagnostic {
                        rule: "L001",
                        file: model.manifest.path.clone(),
                        line: dep.line,
                        message: format!(
                            "declared {}dependency `{}` is never referenced by \
                             `{}` sources; delete the declaration",
                            if dep.dev { "dev-" } else { "" },
                            dep.name,
                            key
                        ),
                    });
                }
            }
        }
        diags
    }
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

/// Parses the `Cargo.toml` subset this workspace uses: `[package] name`,
/// and one-line entries under exactly `[dependencies]` /
/// `[dev-dependencies]` (so `[workspace.dependencies]` is ignored).
pub fn parse_manifest(rel_path: &str, text: &str) -> CrateManifest {
    #[derive(PartialEq)]
    enum Section {
        Package,
        Deps,
        DevDeps,
        Other,
    }
    let mut section = Section::Other;
    let mut manifest = CrateManifest { path: rel_path.to_string(), ..CrateManifest::default() };
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            section = match line {
                "[package]" => Section::Package,
                "[dependencies]" => Section::Deps,
                "[dev-dependencies]" => Section::DevDeps,
                _ => Section::Other,
            };
            continue;
        }
        match section {
            Section::Package => {
                if let Some(rest) = line.strip_prefix("name") {
                    let rest = rest.trim_start();
                    if let Some(value) = rest.strip_prefix('=') {
                        manifest.package_name =
                            value.trim().trim_matches('"').to_string();
                    }
                }
            }
            Section::Deps | Section::DevDeps => {
                let name: String = line
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
                    .collect();
                if !name.is_empty() {
                    manifest.deps.push(DepDecl {
                        name,
                        line: idx + 1,
                        dev: section == Section::DevDeps,
                    });
                }
            }
            Section::Other => {}
        }
    }
    manifest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_parser_reads_names_and_sections() {
        let toml = "\
[workspace]\nmembers = [\"crates/*\"]\n\n\
[workspace.dependencies]\ngnn-dm-par = { path = \"crates/par\" }\n\n\
[package]\nname = \"gnn-dm\" # the root package\n\n\
[dependencies]\ngnn-dm-graph.workspace = true\nrand = { path = \"vendor/rand\" }\n\n\
[dev-dependencies]\nproptest.workspace = true\n";
        let m = parse_manifest("Cargo.toml", toml);
        assert_eq!(m.package_name, "gnn-dm");
        // The [workspace.dependencies] entry must NOT be picked up.
        let names: Vec<(&str, bool)> =
            m.deps.iter().map(|d| (d.name.as_str(), d.dev)).collect();
        assert_eq!(
            names,
            vec![("gnn-dm-graph", false), ("rand", false), ("proptest", true)]
        );
        assert_eq!(m.deps[0].line, 11);
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
    fn check_manifests_flags_forbidden_and_unused_edges() {
        let mut ws = Workspace::default();
        ws.crates.insert(
            "partition".to_string(),
            CrateModel {
                key: "partition".to_string(),
                manifest: CrateManifest {
                    package_name: "gnn-dm-partition".to_string(),
                    path: "crates/partition/Cargo.toml".to_string(),
                    deps: vec![
                        DepDecl { name: "gnn-dm-nn".to_string(), line: 9, dev: false },
                        DepDecl { name: "gnn-dm-graph".to_string(), line: 10, dev: false },
                        DepDecl { name: "rand".to_string(), line: 11, dev: false },
                    ],
                },
                refs: vec!["graph".to_string()],
            },
        );
        let diags = ws.check_manifests(ALLOWED_EDGES);
        // gnn-dm-nn: forbidden edge AND unused → two diagnostics; graph is
        // fine; rand is not a gnn-dm dep.
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.rule == "L001"));
        assert!(diags.iter().all(|d| d.file == "crates/partition/Cargo.toml"));
        assert!(diags.iter().any(|d| d.message.contains("not an edge")));
        assert!(diags.iter().any(|d| d.message.contains("never referenced")));
    }

    #[test]
    fn check_manifests_flags_crates_missing_from_the_dag() {
        let mut ws = Workspace::default();
        ws.crates.insert(
            "newcomer".to_string(),
            CrateModel {
                key: "newcomer".to_string(),
                manifest: CrateManifest {
                    package_name: "gnn-dm-newcomer".to_string(),
                    path: "crates/newcomer/Cargo.toml".to_string(),
                    deps: vec![],
                },
                refs: vec![],
            },
        );
        let diags = ws.check_manifests(ALLOWED_EDGES);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("not in the layering DAG"));
    }
}
