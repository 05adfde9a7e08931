//! The diagnostic every rule reports and the path-derived rule scope.
//!
//! The per-file rules a path-resolving tool checks better (wall clock,
//! hash collections, raw threads, library panics, raw cost-model pricing)
//! are clippy's: see DESIGN.md "Determinism & lint rule catalog".

/// Layer key of the workspace's root package (DESIGN.md §10).
pub const ROOT_KEY: &str = "gnn-dm";

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable rule identifier (`R002`).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation with a suggested fix.
    pub message: String,
}

/// What kind of file a path denotes, for rule scoping.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Name of the containing workspace crate dir (`graph` for
    /// `crates/graph/...`), or `None` for root-package files.
    pub crate_dir: Option<String>,
    /// True for non-library code: integration tests, benches, examples,
    /// binaries.
    pub non_library: bool,
}

impl FileCtx {
    /// Derives the context from a workspace-relative path.
    pub fn from_rel_path(rel_path: &str) -> FileCtx {
        let rel = rel_path.replace('\\', "/");
        let crate_dir = rel
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .map(str::to_string);
        let has_dir = |dir: &str| {
            rel.starts_with(&format!("{dir}/")) || rel.contains(&format!("/{dir}/"))
        };
        let non_library = has_dir("tests")
            || has_dir("benches")
            || has_dir("examples")
            || rel.contains("src/bin/")
            || rel == "src/main.rs"
            || crate_dir.as_deref() == Some("bench");
        FileCtx { crate_dir, non_library }
    }

    /// Key of this file's crate in the layering DAG: the `crates/` dir
    /// name, or [`ROOT_KEY`] for root-package files.
    pub fn layer_key(&self) -> &str {
        self.crate_dir.as_deref().unwrap_or(ROOT_KEY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_ctx_classifies_paths() {
        let lib = FileCtx::from_rel_path("crates/graph/src/csr.rs");
        assert!(!lib.non_library && lib.layer_key() == "graph");
        let bench = FileCtx::from_rel_path("crates/bench/src/harness.rs");
        assert!(bench.non_library);
        let main = FileCtx::from_rel_path("src/main.rs");
        assert!(main.non_library && main.layer_key() == ROOT_KEY);
        let test = FileCtx::from_rel_path("crates/graph/tests/properties.rs");
        assert!(test.non_library && test.layer_key() == "graph");
        let example = FileCtx::from_rel_path("examples/partitioning_study.rs");
        assert!(example.non_library);
    }

    #[test]
    fn violations_in_strings_and_comments_do_not_fire() {
        let fires = include_str!("../tests/fixtures/r002_fires.rs");
        assert!(!crate::lint_sources(&[("crates/graph/src/a.rs", fires)]).is_empty());
        for hidden in [format!("/* {fires} */"), format!("const S: &str = r##\"{fires}\"##;")] {
            assert!(crate::lint_sources(&[("crates/graph/src/a.rs", &hidden)]).is_empty());
        }
    }
}
