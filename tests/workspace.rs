//! The workspace invariants no single file can state: every manifest
//! follows the layering DAG in DESIGN.md §10, every library declares the
//! panic and print bans, `clippy.toml` keeps the bans it is relied on for,
//! no `allow` exempts a site from a clippy-owned rule, and library file and
//! stream access stays in the graph crate's file format.
//!
//! The per-file rules (wall clock, hash collections, raw threads, sync
//! primitives, raw RNG seeding, library panics and console output, raw
//! cost-model pricing) are clippy's: `scripts/check.sh`. The scans below
//! read source text line by line with `//` comment lines dropped; each is a
//! fn over `(rel_path, text)` with in-memory cases at the end of the file.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Layer key of the workspace's root package (DESIGN.md §10).
const ROOT_KEY: &str = "gnn-dm";

/// Top-level directories whose `.rs` files the scans read.
const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

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

/// The `disallowed-methods` paths the workspace relies on clippy to ban:
/// raw cost-model pricing (seconds priced outside a span-emitting entry
/// point never reach the trace timeline) and raw RNG seeding (a unit
/// seeded other than by `split_seed(.., unit)` breaks bit-for-bit reruns).
const METHOD_BANS: &[&str] = &[
    "gnn_dm_device::link::LinkModel::transfer_time",
    "gnn_dm_device::transfer::TransferEngine::time",
    "gnn_dm_cluster::network::exchange_time",
    "gnn_dm_cluster::network::allreduce_time",
    "gnn_dm_cluster::network::stale_allreduce_time",
    "gnn_dm_cluster::network::snapshot_time",
    "rand::SeedableRng::seed_from_u64",
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every `.rs` file under the scan roots as `(rel_path, text)`, in path
/// order, skipping `target` and dot directories.
fn source_files() -> Vec<(String, String)> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    walk(&path, out);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    let root = root();
    let mut paths = Vec::new();
    for top in SCAN_ROOTS {
        walk(&root.join(top), &mut paths);
    }
    paths.sort();
    let files: Vec<(String, String)> = paths
        .iter()
        .map(|path| {
            let rel = path.strip_prefix(&root).unwrap_or(path);
            let rel: Vec<_> = rel.components().map(|c| c.as_os_str().to_string_lossy()).collect();
            (rel.join("/"), read(path))
        })
        .collect();
    assert!(files.len() > 50, "walker found only {} files — scan roots moved?", files.len());
    files
}

/// `text` with every `//` comment line (plain, `///` and `//!`) blanked,
/// so line numbers still count from the file's first line.
fn code_only(text: &str) -> String {
    text.lines()
        .map(|line| if line.trim_start().starts_with("//") { "" } else { line })
        .collect::<Vec<_>>()
        .join("\n")
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Each identifier of `text` with its byte offset.
fn idents(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let mut start = None;
    text.char_indices().chain(std::iter::once((text.len(), ' '))).filter_map(move |(i, c)| {
        match (start, is_ident_char(c)) {
            (None, true) => {
                start = Some(i);
                None
            }
            (Some(s), false) => {
                start = None;
                Some((s, &text[s..i]))
            }
            _ => None,
        }
    })
}

/// 1-based line of byte offset `at` in `text`.
fn line_of(text: &str, at: usize) -> usize {
    text[..at].matches('\n').count() + 1
}

/// The layering-DAG key of the crate `rel_path` belongs to: the `crates/`
/// dir name, or [`ROOT_KEY`] for the root package.
fn crate_key(rel_path: &str) -> &str {
    rel_path.strip_prefix("crates/").and_then(|rest| rest.split('/').next()).unwrap_or(ROOT_KEY)
}

/// True for library code: not a test, bench, example or binary, and not
/// the `bench` driver crate.
fn is_library(rel_path: &str) -> bool {
    let has_dir = |dir: &str| rel_path.starts_with(&format!("{dir}/")) || rel_path.contains(&format!("/{dir}/"));
    !(has_dir("tests")
        || has_dir("benches")
        || has_dir("examples")
        || rel_path.contains("src/bin/")
        || rel_path == "src/main.rs"
        || crate_key(rel_path) == "bench")
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
        assert!(
            read(&lib).lines().any(|line| line == PANIC_DENY),
            "{} must carry `{PANIC_DENY}` on its own line",
            lib.display()
        );
    }
}

/// Tier-1 runs no clippy, so dropping a pricing or seeding ban from
/// `clippy.toml` fails here: each path is an entry of the
/// `disallowed-methods` list.
#[test]
fn clippy_toml_bans_raw_pricing_and_raw_seeding() {
    let toml = read(&root().join("clippy.toml"));
    let methods = toml
        .split_once("disallowed-methods = [")
        .and_then(|(_, rest)| rest.split_once("\n]"))
        .map(|(list, _)| list)
        .expect("clippy.toml must carry a `disallowed-methods = [ .. ]` list");
    let entries: Vec<&str> = methods.lines().map(str::trim).filter(|line| !line.starts_with('#')).collect();
    for path in METHOD_BANS {
        let entry = format!("{{ path = \"{path}\",");
        assert!(
            entries.iter().any(|line| line.starts_with(&entry)),
            "clippy.toml's disallowed-methods must ban `{path}`"
        );
    }
}

/// No suppression-comment language is read any more: a leftover marker
/// exempts nothing, so none may remain. (The needle is spelled in two
/// halves so this file does not match itself.)
#[test]
fn no_suppression_markers_remain() {
    let marker = concat!("lint", ":allow(");
    let offenders: Vec<String> =
        source_files().into_iter().filter(|(_, text)| text.contains(marker)).map(|(rel, _)| rel).collect();
    assert!(
        offenders.is_empty(),
        "replace these markers with #[expect(.., reason = \"..\")]:\n{}",
        offenders.join("\n")
    );
}

/// Every clippy-owned lint an `allow(..)` list in `text` names, as
/// `rel_path:line clippy::name`. The list is followed from `allow(` to its
/// closing paren across lines; comment lines are not read.
fn allow_offenders(rel_path: &str, text: &str) -> Vec<String> {
    let code = code_only(text);
    let mut out = Vec::new();
    for (at, ident) in idents(&code) {
        if ident != "allow" {
            continue;
        }
        let Some(list) = code[at + ident.len()..].trim_start().strip_prefix('(') else { continue };
        let list_at = code.len() - list.len();
        let mut depth = 1usize;
        let end = list
            .char_indices()
            .find(|&(_, c)| {
                match c {
                    '(' => depth += 1,
                    ')' => depth -= 1,
                    _ => {}
                }
                depth == 0
            })
            .map_or(list.len(), |(i, _)| i);
        let list = &list[..end];
        for (i, name) in idents(list) {
            let qualified = list[..i].trim_end().strip_suffix("::").is_some_and(|q| q.trim_end().ends_with("clippy"));
            if qualified && EXPECT_ONLY.contains(&name) {
                out.push(format!("{rel_path}:{} clippy::{name}", line_of(&code, list_at + i)));
            }
        }
    }
    out
}

/// Exemptions from the clippy-owned rules are `#[expect]`, which
/// `unfulfilled_lint_expectations` reports once stale; an `allow(..)` of
/// one of them (plain or inside `cfg_attr`) would silently outlive its
/// site.
#[test]
fn clippy_owned_rules_are_exempted_only_by_expect() {
    let offenders: Vec<String> =
        source_files().iter().flat_map(|(rel, text)| allow_offenders(rel, text)).collect();
    assert!(
        offenders.is_empty(),
        "use #[expect(.., reason = \"..\")] for these, not #[allow]:\n{}",
        offenders.join("\n")
    );
}

/// Every file or stream name library code at `rel_path` uses, as
/// `rel_path:line `name``. Code that is not a library, and the graph
/// format itself, name none.
fn io_offenders(rel_path: &str, text: &str) -> Vec<String> {
    if !is_library(rel_path) || rel_path == IO_HOME {
        return Vec::new();
    }
    let code = code_only(text);
    idents(&code)
        .filter(|&(at, name)| {
            let path_segment = code[..at].ends_with("::") || code[at + name.len()..].starts_with("::");
            IO_NAMES.contains(&name) || (name == "fs" && path_segment)
        })
        .map(|(at, name)| format!("{rel_path}:{} `{name}`", line_of(&code, at)))
        .collect()
}

/// Library code touches no file and no standard stream outside the graph
/// format: a parallel work unit that writes one orders its bytes by the
/// schedule. The drivers (`bench`, the root package's binaries) are not
/// libraries.
#[test]
fn library_io_is_confined_to_the_graph_format() {
    let files = source_files();
    let libraries = files.iter().filter(|(rel, _)| is_library(rel)).count();
    assert!(libraries > 50, "found only {libraries} library sources");
    let offenders: Vec<String> = files.iter().flat_map(|(rel, text)| io_offenders(rel, text)).collect();
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

/// The `gnn_dm_*` crate keys each crate's sources name (`gnn_dm_par` →
/// `par`), comment lines not read.
fn crate_refs(files: &[(String, String)]) -> BTreeMap<String, Vec<String>> {
    let mut refs: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (rel, text) in files {
        let named = refs.entry(crate_key(rel).to_string()).or_default();
        let code = code_only(text);
        named.extend(idents(&code).filter_map(|(_, name)| name.strip_prefix("gnn_dm_")).map(str::to_string));
    }
    for named in refs.values_mut() {
        named.sort();
        named.dedup();
    }
    refs
}

/// Every way `manifests` (`(crate key, path, text)`) break the DESIGN.md
/// §10 DAG, as `path:line message`: a crate with no row, a row with no
/// crate, a declared `gnn-dm-*` dependency its row does not allow, one its
/// sources (`refs`: crate key → the `gnn_dm_*` keys they name) never name,
/// and a dependency table this reader cannot follow.
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
    for row in dag.keys().filter(|row| !manifests.iter().any(|(key, _, _)| key == *row)) {
        out.push(format!("DESIGN.md: the §10 row `{row}` names a crate with no manifest; delete the row"));
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
/// the DESIGN.md §10 table and the crate names each crate's sources use.
#[test]
fn manifests_follow_the_layering_dag() {
    let root = root();
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ must be readable");
    let keys = crates.flatten().map(|entry| entry.file_name().to_string_lossy().into_owned());
    let texts: Vec<(String, String, String)> = std::iter::once(ROOT_KEY.to_string())
        .chain(keys)
        .map(|key| {
            let path = if key == ROOT_KEY { "Cargo.toml".into() } else { format!("crates/{key}/Cargo.toml") };
            let text = read(&root.join(&path));
            (key, path, text)
        })
        .collect();
    assert!(texts.len() > 10, "found only {} manifests", texts.len());
    let manifests: Vec<(&str, &str, &str)> =
        texts.iter().map(|(key, path, text)| (key.as_str(), path.as_str(), text.as_str())).collect();
    let violations = layering_violations(&read(&root.join("DESIGN.md")), &manifests, &crate_refs(&source_files()));
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
/// [`MINI_DAG`] when its sources name `refs` (`par` and `nn` have empty
/// manifests).
fn graph_violations(manifest: &str, refs: &[&str]) -> Vec<String> {
    let refs = BTreeMap::from([("graph".to_string(), refs.iter().map(|r| r.to_string()).collect())]);
    let manifests =
        [("par", "crates/par/Cargo.toml", ""), ("graph", "crates/graph/Cargo.toml", manifest), ("nn", "crates/nn/Cargo.toml", "")];
    layering_violations(MINI_DAG, &manifests, &refs)
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
    let missing = layering_violations(
        MINI_DAG,
        &[("par", "", ""), ("graph", "", ""), ("nn", "", ""), ("device", "crates/device/Cargo.toml", "")],
        &BTreeMap::new(),
    );
    assert_eq!(missing, ["crates/device/Cargo.toml:1 crate `device` has no row in the DESIGN.md §10 table"]);
}

#[test]
fn layering_check_flags_a_row_with_no_crate() {
    let stale = layering_violations(MINI_DAG, &[("par", "", ""), ("graph", "", "")], &BTreeMap::new());
    assert_eq!(stale, ["DESIGN.md: the §10 row `nn` names a crate with no manifest; delete the row"]);
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

#[test]
fn crate_refs_name_whole_crate_idents_outside_comments() {
    let files = [
        ("crates/nn/src/a.rs".to_string(), "use gnn_dm_partition::x;\n// gnn_dm_par::y\n".to_string()),
        ("tests/b.rs".to_string(), "gnn_dm_graph::z(); gnn_dm::w();\n".to_string()),
    ];
    let refs = crate_refs(&files);
    assert_eq!(refs["nn"], ["partition"]);
    assert_eq!(refs[ROOT_KEY], ["graph"]);
}

#[test]
fn io_scan_flags_library_file_access_only() {
    let lib = "crates/partition/src/a.rs";
    assert_eq!(
        io_offenders(lib, "fn f() {\n    let _ = File::open(p);\n    let _ = std::fs::read(p);\n}\n"),
        [format!("{lib}:2 `File`"), format!("{lib}:3 `fs`")]
    );
    let quiet = "// writes to stdout\nfn f(fs: &Fs) -> usize {\n    let fs = fs.len();\n    fs\n}\n";
    assert_eq!(io_offenders(lib, quiet), Vec::<String>::new());
    for not_library in ["crates/partition/tests/a.rs", "tests/a.rs", "crates/bench/src/a.rs", "src/main.rs"] {
        assert_eq!(io_offenders(not_library, "use std::fs::File;\n"), Vec::<String>::new(), "{not_library}");
    }
}

#[test]
fn allow_scan_follows_the_list_across_lines() {
    // Spelled in halves so the workspace scan does not match this file.
    let one_line = concat!("#[al", "low(clippy::disallowed_methods, reason = \"…\")]\nfn f() {}\n");
    assert_eq!(allow_offenders("a.rs", one_line), ["a.rs:1 clippy::disallowed_methods"]);
    let three_lines = concat!("#[al", "low(\n    clippy::disallowed_methods,\n    reason = \"…\"\n)]\nfn f() {}\n");
    assert_eq!(allow_offenders("a.rs", three_lines), ["a.rs:2 clippy::disallowed_methods"]);
    let in_cfg_attr = concat!("#![cfg_attr(test, al", "low(clippy::unwrap_used, dead_code))]\n");
    assert_eq!(allow_offenders("a.rs", in_cfg_attr), ["a.rs:1 clippy::unwrap_used"]);
    let quiet = [
        "#[expect(clippy::disallowed_methods, reason = \"…\")]\nfn f() {}\n",
        concat!("// #[al", "low(clippy::disallowed_methods)]\nfn f() {}\n"),
        concat!("#[al", "low(clippy::needless_range_loop, reason = \"…\")]\nfn f() {}\n"),
    ];
    for text in quiet {
        assert_eq!(allow_offenders("a.rs", text), Vec::<String>::new(), "{text}");
    }
}
