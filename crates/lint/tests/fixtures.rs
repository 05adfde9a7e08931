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
fn s002_fires_and_clean() {
    let fires = include_str!("fixtures/s002_fires.rs");
    assert_eq!(rules_fired(LIB_PATH, fires), vec!["S002"]);
    assert_eq!(count(LIB_PATH, fires, "S002"), 1);
    // A multi-rule marker is audited per rule: A002 fires, R003 never does.
    let mixed = "// lint:allow(A002, R003) an analytic bound\nfn f(l: &LinkModel) -> f64 { l.transfer_time(1) }\n";
    assert_eq!(rules_fired(LIB_PATH, mixed), vec!["S002"]);

    let clean = include_str!("fixtures/s002_clean.rs");
    assert!(rules_fired(LIB_PATH, clean).is_empty());
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
    assert_eq!(rules_fired(LIB_PATH, bad), vec!["A002", "S001", "S002"]);
    // Both calls still reported: neither suppression was valid for them.
    assert_eq!(count(LIB_PATH, bad, "A002"), 2);
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
    for (fires, rule, hint) in [
        (include_str!("fixtures/a002_fires.rs"), "A002", "gnn_dm_device::traced"),
        (include_str!("fixtures/r003_fires.rs"), "R003", "scratch arena"),
    ] {
        let diags = lint_sources(&[(LIB_PATH, fires)]);
        let first = diags.first().expect("fixture must produce a diagnostic");
        assert_eq!((first.file.as_str(), first.rule), (LIB_PATH, rule));
        assert!(first.line > 1, "line numbers are 1-based and past the header");
        assert!(first.message.contains(hint), "{first:?}");
    }
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
    // Non-library scopes (tests, benches, examples, bins) are exempt.
    for path in [
        "crates/graph/tests/fixture.rs",
        "crates/bench/src/fixture.rs",
        "crates/graph/benches/fixture.rs",
        "examples/fixture.rs",
        "src/bin/fixture.rs",
        "src/main.rs",
    ] {
        assert!(rules_fired(path, fires).is_empty(), "{path}");
    }
    // So is `#[cfg(test)]` code; `#[cfg(not(test))]` is not a test region.
    let in_test = format!("#[cfg(test)]\nmod t {{\n{fires}}}\n");
    assert!(rules_fired(LIB_PATH, &in_test).is_empty());
    let not_test = format!("#[cfg(not(test))]\nmod t {{\n{fires}}}\n");
    assert_eq!(rules_fired(LIB_PATH, &not_test), vec!["R003"]);
    assert_eq!(count(LIB_PATH, &not_test, "R003"), 2);

    let clean = include_str!("fixtures/r003_clean.rs");
    assert!(rules_fired(LIB_PATH, clean).is_empty());
}
