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
fn diagnostics_carry_location_and_rule() {
    let diags = lint_sources(&[(LIB_PATH, include_str!("fixtures/r002_fires.rs"))]);
    let first = diags.first().expect("fixture must produce a diagnostic");
    assert_eq!((first.file.as_str(), first.rule), (LIB_PATH, "R002"));
    assert!(first.line > 1, "line numbers are 1-based and past the header");
    assert!(first.message.contains("split_seed"), "{first:?}");
}
