//! Tier-1 gate: the whole workspace must stay lint-clean forever, every
//! manifest must follow the layering DAG in DESIGN.md §10, and the rule
//! catalog in DESIGN.md must match the code.
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

use gnn_dm_lint::callgraph::FileSet;
use gnn_dm_lint::rules::ROOT_KEY;
use gnn_dm_lint::tokenizer::TokenKind;
use gnn_dm_lint::RULE_IDS;
use std::collections::BTreeMap;
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
    let (set, read_errors) = FileSet::load(&root());
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
    let (set, read_errors) = FileSet::load(&root());
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

/// The layering DAG, read from the DESIGN.md §10 table (the one place it
/// is written): each row's crate key and the keys it may depend on.
fn dag_rows(design: &str) -> BTreeMap<&str, Vec<&str>> {
    fn key(cell: &str) -> &str {
        cell.trim().trim_matches('`')
    }
    design
        .lines()
        .skip_while(|line| *line != "| crate | layer | may depend on |")
        .skip(2)
        .take_while(|line| line.starts_with('|'))
        .filter_map(|line| {
            let cells: Vec<&str> = line.trim_matches('|').split('|').collect();
            let deps = cells.get(2)?.split(',').map(key).filter(|d| *d != "—").collect();
            Some((key(cells[0]), deps))
        })
        .collect()
}

/// The dependency kind and, for the dotted `[dependencies.<name>]` form,
/// the one dependency a table header (brackets stripped) declares:
/// `Ok(None)` for a table that declares none, `Err` for a header that
/// names dependencies in a form this reader does not follow.
fn dependency_table(header: &str) -> Result<Option<(&str, Option<&str>)>, ()> {
    if !header.contains("dependencies") || header.starts_with("workspace.dependencies") {
        return Ok(None);
    }
    // `target.<cfg>.<table>`, where a quoted cfg may itself hold dots.
    let table = match header.strip_prefix("target.") {
        Some(rest) => {
            let cfg_end = match rest.chars().next() {
                Some(q @ ('\'' | '"')) => rest[1..].find(q).map(|end| end + 2),
                _ => rest.find('.'),
            };
            cfg_end.and_then(|end| rest[end..].strip_prefix('.')).ok_or(())?
        }
        None => header,
    };
    let (kind, name) = match table.split_once('.') {
        Some((kind, name)) => (kind, Some(name.trim_matches('"'))),
        None => (table, None),
    };
    let kinds = ["dependencies", "dev-dependencies", "build-dependencies"];
    let plain_name = name.is_none_or(|n| !n.is_empty() && !n.contains(['.', '\'']));
    (kinds.contains(&kind) && plain_name).then_some(Some((kind, name))).ok_or(())
}

/// Every way `manifests` (`(crate key, path, text)`) break the DESIGN.md
/// §10 DAG, as `path:line message`: a crate with no row, a declared
/// `gnn-dm-*` dependency its row does not allow, one its sources (`refs`:
/// crate key → the `gnn_dm_*` keys they name) never name, and a dependency
/// table this reader cannot follow.
fn layering_violations(
    design: &str,
    manifests: &[(&str, &str, &str)],
    refs: &BTreeMap<String, Vec<String>>,
) -> Vec<String> {
    let dag = dag_rows(design);
    let mut out = Vec::new();
    if dag.is_empty() {
        out.push("DESIGN.md: no `| crate | layer | may depend on |` table".to_string());
    }
    for &(key, path, text) in manifests {
        let Some(allowed) = dag.get(key) else {
            out.push(format!("{path}:1 crate `{key}` has no row in the DESIGN.md §10 table"));
            continue;
        };
        let named = refs.get(key).map_or(&[][..], Vec::as_slice);
        let mut table = None;
        for (idx, raw) in text.lines().enumerate() {
            let at = format!("{path}:{}", idx + 1);
            let line = raw.split('#').next().unwrap_or("").trim();
            let name = if line.starts_with('[') {
                table = dependency_table(line.trim_matches(['[', ']'])).unwrap_or_else(|()| {
                    out.push(format!("{at} cannot read dependency table `{line}`"));
                    None
                });
                match table {
                    Some((_, Some(name))) => name,
                    _ => continue,
                }
            } else if table.is_some() && line.split(['{', ',']).any(|kv| kv.trim().starts_with("package")) {
                out.push(format!("{at} cannot follow a renamed dependency: `{line}`"));
                continue;
            } else if let Some((_, None)) = table {
                let key_chars = |c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_';
                line.trim_start_matches('"').split(|c| !key_chars(c)).next().unwrap_or("")
            } else {
                continue;
            };
            let dep = if name == ROOT_KEY { Some(ROOT_KEY) } else { name.strip_prefix("gnn-dm-") };
            let Some(dep) = dep else { continue };
            let kind = table.map_or("", |(kind, _)| kind);
            if dep != key && !allowed.contains(&dep) {
                out.push(format!("{at} `{key}` → `{dep}` ([{kind}]) is not an edge of the DESIGN.md §10 DAG"));
            }
            if !named.iter().any(|r| r == dep) {
                out.push(format!("{at} [{kind}] `{name}` is never named by `{key}` sources; delete it"));
            }
        }
    }
    out
}

/// The root manifest and every `crates/*` one, each read in full, against
/// the DESIGN.md §10 table and the references the call graph's scan finds.
#[test]
fn manifests_follow_the_layering_dag() {
    let root = root();
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ must be readable");
    let keys = crates.flatten().map(|entry| entry.file_name().to_string_lossy().into_owned());
    let texts: Vec<(String, String, String)> = std::iter::once(ROOT_KEY.to_string())
        .chain(keys)
        .map(|key| {
            let path = if key == ROOT_KEY { "Cargo.toml".into() } else { format!("crates/{key}/Cargo.toml") };
            let text = std::fs::read_to_string(root.join(&path)).unwrap_or_else(|e| panic!("{path}: {e}"));
            (key, path, text)
        })
        .collect();
    assert!(texts.len() > 10, "found only {} manifests", texts.len());
    let manifests: Vec<(&str, &str, &str)> =
        texts.iter().map(|(key, path, text)| (key.as_str(), path.as_str(), text.as_str())).collect();
    let (set, read_errors) = FileSet::load(&root);
    assert!(read_errors.is_empty(), "unreadable files: {read_errors:?}");
    let violations = layering_violations(&design_md(), &manifests, &set.refs);
    assert!(
        violations.is_empty(),
        "manifests break the DESIGN.md §10 layering DAG:\n{}",
        violations.join("\n")
    );
}

/// A three-crate DAG for the checker's own cases.
const MINI_DAG: &str = "\
| crate | layer | may depend on |
|---|---|---|
| `par` | 0 · substrate | — |
| `graph` | 1 · data | `par` |
| `nn` | 3 · execution | `par`, `graph` |
";

/// What [`layering_violations`] finds in crate `graph`'s `manifest` against
/// [`MINI_DAG`] when its sources name `refs`.
fn graph_violations(manifest: &str, refs: &[&str]) -> Vec<String> {
    let refs = BTreeMap::from([("graph".to_string(), refs.iter().map(|r| r.to_string()).collect())]);
    layering_violations(MINI_DAG, &[("graph", "crates/graph/Cargo.toml", manifest)], &refs)
}

#[test]
fn layering_check_flags_unnamed_and_missing_crates_and_ignores_the_workspace_table() {
    let manifest = "[workspace.dependencies]\ngnn-dm-nn = { path = \"crates/nn\" }\n\n\
                    [package]\nname = \"gnn-dm-graph\" # the crate\n\n\
                    [dependencies]\ngnn-dm-par.workspace = true\nrand.workspace = true\n";
    assert_eq!(graph_violations(manifest, &["par"]), Vec::<String>::new());
    assert_eq!(
        graph_violations(manifest, &[]),
        ["crates/graph/Cargo.toml:8 [dependencies] `gnn-dm-par` is never named by `graph` sources; delete it"]
    );
    let missing = layering_violations(MINI_DAG, &[("device", "crates/device/Cargo.toml", "")], &BTreeMap::new());
    assert_eq!(missing, ["crates/device/Cargo.toml:1 crate `device` has no row in the DESIGN.md §10 table"]);
}

#[test]
fn layering_check_reads_every_dependency_table() {
    for (manifest, at, kind) in [
        ("[dependencies]\ngnn-dm-nn.workspace = true\n", 2, "dependencies"),
        ("[build-dependencies]\ngnn-dm-nn.workspace = true\n", 2, "build-dependencies"),
        ("[target.'cfg(unix)'.dependencies]\ngnn-dm-nn.workspace = true\n", 2, "dependencies"),
        ("[target.x86_64-unknown-linux-gnu.dev-dependencies]\ngnn-dm-nn.workspace = true\n", 2, "dev-dependencies"),
        ("[dependencies.gnn-dm-nn]\nworkspace = true\n", 1, "dependencies"),
        ("[dependencies]\n\"gnn-dm-nn\" = { path = \"../nn\" }\n", 2, "dependencies"),
    ] {
        assert_eq!(
            graph_violations(manifest, &["nn"]),
            [format!("crates/graph/Cargo.toml:{at} `graph` → `nn` ([{kind}]) is not an edge of the DESIGN.md §10 DAG")],
            "{manifest}"
        );
    }
    let unreadable =
        ["[tool-dependencies]\n", "[target.'cfg(unix.dependencies]\n", "[dependencies]\nnn = { package = \"gnn-dm-nn\" }\n"];
    for manifest in unreadable {
        let found = graph_violations(manifest, &["nn"]);
        assert!(found.len() == 1 && found[0].contains("cannot"), "{manifest}: {found:?}");
    }
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
