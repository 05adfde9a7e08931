//! Fixture tests: every rule has a firing and a non-firing case, and
//! violations hidden in comments/strings/raw strings must stay silent.
//!
//! Fixtures live under `tests/fixtures/` (a directory the workspace walker
//! skips, since they contain violations on purpose) and are linted under a
//! synthetic workspace-relative path that selects the scope being tested.

use gnn_dm_lint::lint_sources;

/// Rules fired for `src` when linted as `rel_path`, deduplicated + sorted.
fn rules_fired(rel_path: &str, src: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> =
        lint_sources(&[(rel_path, src)]).into_iter().map(|d| d.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

/// Count of diagnostics for one rule.
fn count(rel_path: &str, src: &str, rule: &str) -> usize {
    lint_sources(&[(rel_path, src)]).iter().filter(|d| d.rule == rule).count()
}

const LIB_PATH: &str = "crates/graph/src/fixture.rs";

#[test]
fn d001_fires_and_clean() {
    let fires = include_str!("fixtures/d001_fires.rs");
    assert_eq!(rules_fired(LIB_PATH, fires), vec!["D001"]);
    // SystemTime in the `use` line, Instant::now(), SystemTime::now().
    assert_eq!(count(LIB_PATH, fires, "D001"), 3);
    // The same source is legal where timing is the point.
    assert!(rules_fired("crates/bench/src/fixture.rs", fires).is_empty());
    assert!(rules_fired("src/main.rs", fires).is_empty());

    let clean = include_str!("fixtures/d001_clean.rs");
    assert!(rules_fired(LIB_PATH, clean).is_empty());
}

#[test]
fn d002_fires_and_clean() {
    let fires = include_str!("fixtures/d002_fires.rs");
    assert_eq!(rules_fired(LIB_PATH, fires), vec!["D002"]);
    // HashMap and HashSet each appear in the use, the return type and the
    // body — every mention is reported.
    assert_eq!(count(LIB_PATH, fires, "D002"), 6);
    // Outside the deterministic crates the same code is legal.
    assert!(rules_fired("crates/bench/src/fixture.rs", fires).is_empty());
    assert!(rules_fired("src/report.rs", fires).is_empty());

    let clean = include_str!("fixtures/d002_clean.rs");
    assert!(rules_fired(LIB_PATH, clean).is_empty());
}

#[test]
fn d003_fires_and_clean() {
    let fires = include_str!("fixtures/d003_fires.rs");
    assert_eq!(rules_fired(LIB_PATH, fires), vec!["D003"]);
    assert_eq!(count(LIB_PATH, fires, "D003"), 3);
    // D003 has no exempt scope: tests and benches fire too.
    assert_eq!(rules_fired("crates/bench/src/fixture.rs", fires), vec!["D003"]);
    assert_eq!(rules_fired("tests/integration.rs", fires), vec!["D003"]);

    let clean = include_str!("fixtures/d003_clean.rs");
    assert!(rules_fired(LIB_PATH, clean).is_empty());
}

/// Lines P001 reports for `src` under the full pipeline.
fn p001_lines(rel_path: &str, src: &str) -> Vec<usize> {
    lint_sources(&[(rel_path, src)]).iter().filter(|d| d.rule == "P001").map(|d| d.line).collect()
}

#[test]
fn p001_fires_and_clean() {
    let nn_path = "crates/nn/src/fixture.rs";
    let fires = include_str!("fixtures/p001_fires.rs");
    assert_eq!(rules_fired(nn_path, fires), vec!["P001"]);
    assert_eq!(count(nn_path, fires, "P001"), 4);
    // A deterministic crate's unwrap/expect, and a panic two calls below a
    // pub entry point: P001 reports each leaf site where it stands, and no
    // other rule fires.
    let deterministic = include_str!("fixtures/p001_fires_deterministic.rs");
    assert_eq!(rules_fired(LIB_PATH, deterministic), vec!["P001"]);
    assert_eq!(p001_lines(LIB_PATH, deterministic), vec![5, 9]);
    let transitive = include_str!("fixtures/p001_fires_transitive.rs");
    assert_eq!(rules_fired(LIB_PATH, transitive), vec!["P001"]);
    assert_eq!(p001_lines(LIB_PATH, transitive), vec![5]);
    // Non-library scopes may panic freely.
    for path in [
        "crates/graph/tests/fixture.rs",
        "crates/graph/benches/fixture.rs",
        "examples/fixture.rs",
        "src/bin/fixture.rs",
        "src/main.rs",
        "crates/bench/src/fixture.rs",
    ] {
        assert!(rules_fired(path, fires).is_empty(), "{path} should be exempt");
        assert!(rules_fired(path, transitive).is_empty(), "{path} should be exempt");
    }

    let clean = include_str!("fixtures/p001_clean.rs");
    assert!(rules_fired(nn_path, clean).is_empty());
    assert!(rules_fired(LIB_PATH, clean).is_empty());
}

#[test]
fn s002_fires_and_clean() {
    let fires = include_str!("fixtures/s002_fires.rs");
    assert_eq!(rules_fired(LIB_PATH, fires), vec!["S002"]);
    assert_eq!(count(LIB_PATH, fires, "S002"), 1);
    // A multi-rule marker is audited per rule: D001 fires, D002 never does.
    let mixed = "// lint:allow(D001, D002) timing map\nfn f() { let t = Instant::now(); }\n";
    assert_eq!(rules_fired(LIB_PATH, mixed), vec!["S002"]);

    let clean = include_str!("fixtures/s002_clean.rs");
    assert!(rules_fired(LIB_PATH, clean).is_empty());
}

#[test]
fn l001_fires_and_clean() {
    let fires = include_str!("fixtures/l001_fires.rs");
    // partition (preparation layer) must not reach up into nn (execution).
    let part_path = "crates/partition/src/fixture.rs";
    assert_eq!(rules_fired(part_path, fires), vec!["L001"]);
    // Even in the crate's tests.
    assert_eq!(rules_fired("crates/partition/tests/fixture.rs", fires), vec!["L001"]);
    // cluster sits above nn in the DAG, so the same source is legal there;
    // so is a self-reference, and the root package composes everything.
    for path in [
        "crates/cluster/src/fixture.rs",
        "crates/nn/src/fixture.rs",
        "tests/fixture.rs",
        "src/main.rs",
    ] {
        assert!(rules_fired(path, fires).is_empty(), "{path}");
    }
    // Qualified paths count, not just `use` items.
    let call = "fn f() { let m = gnn_dm_core::trainer::defaults(); }\n";
    assert_eq!(rules_fired("crates/device/src/fixture.rs", call), vec!["L001"]);

    let clean = include_str!("fixtures/l001_clean.rs");
    assert!(rules_fired(part_path, clean).is_empty());
    // An unknown crate dir is itself a finding: place it in the DAG.
    assert_eq!(rules_fired("crates/newcomer/src/fixture.rs", clean), vec!["L001"]);
}

#[test]
fn a002_fires_and_clean() {
    let fires = include_str!("fixtures/a002_fires.rs");
    assert_eq!(rules_fired("crates/core/src/fixture.rs", fires), vec!["A002"]);
    assert_eq!(count("crates/core/src/fixture.rs", fires, "A002"), 5);
    // Cluster code outside the network helper and the simulator fires too.
    assert_eq!(rules_fired("crates/cluster/src/fixture.rs", fires), vec!["A002"]);
    // The device crate (where the models and adapters live), the network
    // pricing helper, the span-emitting cluster simulator, and
    // non-library code may price directly.
    assert!(rules_fired("crates/device/src/fixture.rs", fires).is_empty());
    assert!(rules_fired("crates/cluster/src/network.rs", fires).is_empty());
    assert!(rules_fired("crates/cluster/src/sim.rs", fires).is_empty());
    assert!(rules_fired("crates/core/tests/fixture.rs", fires).is_empty());
    assert!(rules_fired("crates/bench/src/fixture.rs", fires).is_empty());

    let clean = include_str!("fixtures/a002_clean.rs");
    assert!(rules_fired("crates/core/src/fixture.rs", clean).is_empty());
    // Mentioning the name without calling it (docs, re-exports) is fine.
    let no_call = "pub use gnn_dm_device::transfer::time_extract_load;\n";
    assert!(rules_fired("crates/core/src/fixture.rs", no_call).is_empty());
}

#[test]
fn f001_fires_and_clean() {
    let fires = include_str!("fixtures/f001_fires.rs");
    assert_eq!(rules_fired(LIB_PATH, fires), vec!["F001"]);
    assert_eq!(count(LIB_PATH, fires, "F001"), 3);

    let clean = include_str!("fixtures/f001_clean.rs");
    assert!(rules_fired(LIB_PATH, clean).is_empty());
}

#[test]
fn t001_fires_and_clean() {
    let fires = include_str!("fixtures/t001_fires.rs");
    assert_eq!(rules_fired(LIB_PATH, fires), vec!["T001"]);
    // scope, spawn, and spawn through a `use`'d module path.
    assert_eq!(count(LIB_PATH, fires, "T001"), 3);
    // Only the substrate itself (its tests included) is the implementation.
    assert!(rules_fired("crates/par/src/lib.rs", fires).is_empty());
    assert!(rules_fired("crates/par/tests/lookahead.rs", fires).is_empty());
    assert_eq!(rules_fired("crates/device/src/pipeline.rs", fires), vec!["T001"]);
    // Tests and benches fire too: a racy test is still racy.
    assert_eq!(rules_fired("tests/integration.rs", fires), vec!["T001"]);

    let clean = include_str!("fixtures/t001_clean.rs");
    assert!(rules_fired(LIB_PATH, clean).is_empty());
}

#[test]
fn r001_fires_and_clean() {
    let fires = include_str!("fixtures/r001_fires.rs");
    assert_eq!(rules_fired(LIB_PATH, fires), vec!["R001"]);
    // One lock call and one io-reaching call. (A `&mut` capture or a
    // captured `Cell` does not compile: see `gnn_dm_par::par_map_collect`.)
    assert_eq!(count(LIB_PATH, fires, "R001"), 2);
    // The substrate's own internals are exempt.
    assert!(rules_fired("crates/par/src/fixture.rs", fires).is_empty());

    let clean = include_str!("fixtures/r001_clean.rs");
    assert!(rules_fired(LIB_PATH, clean).is_empty());
}

#[test]
fn r002_fires_and_clean() {
    let fires = include_str!("fixtures/r002_fires.rs");
    assert_eq!(rules_fired(LIB_PATH, fires), vec!["R002"]);
    // Raw expression, unit-free split, outer split reuse, raw helper call.
    assert_eq!(count(LIB_PATH, fires, "R002"), 4);
    let diags = lint_sources(&[(LIB_PATH, fires)]);
    // The transitive diagnostic points at the helper's own seeding site.
    assert!(
        diags.iter().any(|d| d.message.contains("make_rng")),
        "{diags:?}"
    );
    assert!(rules_fired("crates/par/src/fixture.rs", fires).is_empty());

    let clean = include_str!("fixtures/r002_clean.rs");
    assert!(rules_fired(LIB_PATH, clean).is_empty());
}

#[test]
fn suppressions_round_trip() {
    // Reasoned suppressions silence exactly their rules…
    let ok = include_str!("fixtures/suppression_ok.rs");
    assert!(rules_fired(LIB_PATH, ok).is_empty());

    // …while reason-less or mis-targeted ones leave the violation standing.
    let bad = include_str!("fixtures/suppression_bad.rs");
    assert_eq!(rules_fired(LIB_PATH, bad), vec!["P001", "S001", "S002"]);
    // Both unwraps still reported: neither suppression was valid for them.
    assert_eq!(count(LIB_PATH, bad, "P001"), 2);
    // One reason-less marker (S001), one reasoned marker naming a rule
    // that never fires on its lines (S002).
    assert_eq!(count(LIB_PATH, bad, "S001"), 1);
    assert_eq!(count(LIB_PATH, bad, "S002"), 1);
}

#[test]
fn l001_mini_workspaces() {
    let fixtures = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let lint = |name: &str| {
        let report = gnn_dm_lint::lint_workspace(&fixtures.join(name));
        assert!(report.read_errors.is_empty() && report.files_scanned > 0, "{name}: {report:?}");
        report.diagnostics
    };

    // Fires: gnn-dm-nn is a forbidden edge AND unused (two diagnostics),
    // gnn-dm-graph is allowed but unused (one diagnostic).
    let diags = lint("l001_ws_fires");
    assert_eq!(diags.len(), 3, "{diags:?}");
    assert!(diags.iter().all(|d| d.rule == "L001"));
    assert!(diags.iter().all(|d| d.file == "crates/partition/Cargo.toml"));
    assert_eq!(diags.iter().filter(|d| d.message.contains("not an edge")).count(), 1);
    assert_eq!(diags.iter().filter(|d| d.message.contains("never referenced")).count(), 2);

    // Clean: the one declared gnn-dm dep is allowed and referenced.
    assert!(lint("l001_ws_clean").is_empty());
}

#[test]
fn diagnostics_carry_location_and_rule() {
    let fires = include_str!("fixtures/d001_fires.rs");
    let diags = lint_sources(&[(LIB_PATH, fires)]);
    let first = diags.first().expect("fixture must produce a diagnostic");
    assert_eq!(first.file, LIB_PATH);
    assert!(first.line > 1, "line numbers are 1-based and past the header");
    assert!(first.message.contains("crates/bench"));
}

#[test]
fn r003_fires_and_clean() {
    let fires = include_str!("fixtures/r003_fires.rs");
    // A direct in-closure allocation and a transitive one with a witness.
    assert_eq!(rules_fired(LIB_PATH, fires), vec!["R003"]);
    assert_eq!(count(LIB_PATH, fires, "R003"), 2);
    let diags = lint_sources(&[(LIB_PATH, fires)]);
    assert!(
        diags.iter().any(|d| d.message.contains("make_buf") && d.message.contains("alloc site")),
        "{diags:?}"
    );
    // Non-library scopes (tests, benches, bins) are exempt.
    assert!(rules_fired("crates/graph/tests/fixture.rs", fires).is_empty());
    assert!(rules_fired("crates/bench/src/fixture.rs", fires).is_empty());

    let clean = include_str!("fixtures/r003_clean.rs");
    assert!(rules_fired(LIB_PATH, clean).is_empty());
}
