//! The per-file rule (A002), the path-derived rule scope, and the
//! `lint:allow` suppression pass every rule's diagnostics go through.
//!
//! A002 is a pass over the token stream produced by
//! [`crate::tokenizer::lex`], scoped by a [`FileCtx`] derived from the
//! file's workspace-relative path. The per-file rules a path-resolving
//! tool checks better (wall clock, hash collections, raw threads, library
//! panics) are clippy's: see DESIGN.md "Determinism & lint rule catalog".

use crate::tokenizer::{Lexed, Suppression, Token, TokenKind};

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable rule identifier (`A002`, `R002`, …).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation with a suggested fix.
    pub message: String,
}

/// Analytic cost-model entry points (A002 scope): pricing a transfer or
/// batch by calling these directly — including the `TransferEngine::time`
/// dispatch over its `time_*` family — instead of going through the
/// `gnn_dm_device::traced` adapters or another span-emitting entry point,
/// produces seconds/bytes that never land on the trace timeline.
const COST_IDENTS: &[&str] = &[
    "transfer_time",
    "time",
    "time_extract_load",
    "time_zero_copy",
    "time_hybrid",
    "exchange_time",
    "allreduce_time",
    "stale_allreduce_time",
    "snapshot_time",
];

/// What kind of file a path denotes, for rule scoping.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// Name of the containing workspace crate dir (`graph` for
    /// `crates/graph/...`), or `None` for root-package files.
    pub crate_dir: Option<String>,
    /// True for non-library code: integration tests, benches, examples,
    /// binaries. Direct pricing calls are legitimate there (A002).
    pub non_library: bool,
    /// True where direct cost-model pricing calls are legitimate (A002
    /// scope): the device crate (where the models and the traced adapters
    /// live), non-library code, and the cluster network and simulation
    /// modules (the pure pricing helpers and the span-emitting epoch
    /// timelines built directly on them).
    pub cost_calls_allowed: bool,
}

impl FileCtx {
    /// Derives the context from a workspace-relative path.
    pub fn from_rel_path(rel_path: &str) -> FileCtx {
        let rel = rel_path.replace('\\', "/");
        let crate_dir = rel
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .map(str::to_string);
        let in_crate = |name: &str| crate_dir.as_deref() == Some(name);
        let has_dir = |dir: &str| {
            rel.starts_with(&format!("{dir}/")) || rel.contains(&format!("/{dir}/"))
        };
        let non_library = has_dir("tests")
            || has_dir("benches")
            || has_dir("examples")
            || rel.contains("src/bin/")
            || rel == "src/main.rs"
            || in_crate("bench");
        FileCtx {
            non_library,
            cost_calls_allowed: in_crate("device")
                || non_library
                || rel == "crates/cluster/src/network.rs"
                || rel == "crates/cluster/src/sim.rs",
            crate_dir,
            rel_path: rel,
        }
    }

    /// Key of this file's crate in the layering DAG: the `crates/` dir
    /// name, or [`crate::workspace::ROOT_KEY`] for root-package files.
    pub fn layer_key(&self) -> &str {
        self.crate_dir.as_deref().unwrap_or(crate::workspace::ROOT_KEY)
    }
}

/// A002 — direct cost-model pricing calls (`transfer_time`, the
/// `TransferEngine::time_*` family) outside the device crate compute
/// seconds that bypass the span timeline, so the Chrome trace and the
/// span summaries silently under-report. Library code routes pricing
/// through the `gnn_dm_device::traced` adapters (or a higher-level traced
/// entry point such as `pipeline::replay_epoch`), which price the work
/// and record the span in one step. Suppressions are NOT applied here:
/// the driver applies them once over every rule's diagnostics.
pub(crate) fn check_a002(ctx: &FileCtx, tokens: &[Token]) -> Vec<Diagnostic> {
    if ctx.cost_calls_allowed {
        return Vec::new();
    }
    tokens
        .iter()
        .enumerate()
        .filter(|(i, t)| {
            t.kind == TokenKind::Ident
                && COST_IDENTS.contains(&t.text.as_str())
                && matches!(tokens.get(i + 1), Some(n) if n.text == "(")
        })
        .map(|(_, t)| Diagnostic {
            rule: "A002",
            file: ctx.rel_path.clone(),
            line: t.line,
            message: format!(
                "raw cost-model call `{}` outside a trace adapter; price the work \
                 through gnn_dm_device::traced (or a traced entry point) so the \
                 seconds and bytes land on the span timeline",
                t.text
            ),
        })
        .collect()
}

/// The lines a suppression covers: its own line and the next line that
/// carries any token (so it works both as a trailing comment and as a
/// comment on the line above the code).
pub(crate) fn covered_lines(lexed: &Lexed, sup: &Suppression) -> Vec<usize> {
    let next_token_line = lexed.tokens.iter().map(|t| t.line).find(|&l| l > sup.line);
    [Some(sup.line), next_token_line].into_iter().flatten().collect()
}

/// Filters diagnostics through `lint:allow` suppressions, reports S001 for
/// suppressions that carry no justification, and S002 for reasoned
/// suppressions that no longer suppress anything.
pub(crate) fn apply_suppressions(
    ctx: &FileCtx,
    lexed: &Lexed,
    diags: Vec<Diagnostic>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // (rule, line) pairs each suppression covers.
    let mut covered: Vec<(String, usize)> = Vec::new();
    // (suppression line, rule) pairs awaiting a matching diagnostic (S002).
    let mut reasoned: Vec<(usize, String, Vec<usize>)> = Vec::new();
    for sup in &lexed.suppressions {
        if sup.reason.is_empty() {
            out.push(Diagnostic {
                rule: "S001",
                file: ctx.rel_path.clone(),
                line: sup.line,
                message: "suppression without a reason; write \
                          `lint:allow(RULE) <why this site is exempt>`"
                    .to_string(),
            });
            continue;
        }
        let lines = covered_lines(lexed, sup);
        for rule in &sup.rules {
            for &line in &lines {
                covered.push((rule.clone(), line));
            }
            reasoned.push((sup.line, rule.clone(), lines.clone()));
        }
    }
    // S002 — a reasoned `lint:allow(RULE)` that suppresses nothing is stale:
    // either the site was fixed (delete the marker) or the marker names the
    // wrong rule (so the real diagnostic is NOT being suppressed).
    for (sup_line, rule, lines) in &reasoned {
        let live = diags
            .iter()
            .any(|d| d.rule == rule && lines.contains(&d.line));
        if !live {
            out.push(Diagnostic {
                rule: "S002",
                file: ctx.rel_path.clone(),
                line: *sup_line,
                message: format!(
                    "stale suppression: `lint:allow({rule})` here no longer \
                     suppresses any {rule} diagnostic; delete it (or name the \
                     rule that actually fires)"
                ),
            });
        }
    }
    for d in diags {
        let suppressed = covered
            .iter()
            .any(|(rule, line)| rule == d.rule && *line == d.line);
        if !suppressed {
            out.push(d);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_fired(rel_path: &str, src: &str) -> Vec<&'static str> {
        let mut rules: Vec<&'static str> =
            crate::lint_sources(&[(rel_path, src)]).into_iter().map(|d| d.rule).collect();
        rules.sort_unstable();
        rules.dedup();
        rules
    }

    #[test]
    fn file_ctx_classifies_paths() {
        let lib = FileCtx::from_rel_path("crates/graph/src/csr.rs");
        assert!(!lib.non_library && !lib.cost_calls_allowed);
        let bench = FileCtx::from_rel_path("crates/bench/src/harness.rs");
        assert!(bench.non_library && bench.cost_calls_allowed);
        let main = FileCtx::from_rel_path("src/main.rs");
        assert!(main.non_library && main.layer_key() == crate::workspace::ROOT_KEY);
        let test = FileCtx::from_rel_path("crates/graph/tests/properties.rs");
        assert!(test.non_library && test.layer_key() == "graph");
        let example = FileCtx::from_rel_path("examples/partitioning_study.rs");
        assert!(example.non_library);
        let device = FileCtx::from_rel_path("crates/device/src/transfer.rs");
        assert!(!device.non_library && device.cost_calls_allowed);
    }

    #[test]
    fn violations_in_strings_and_comments_do_not_fire() {
        let src = r##"
            // transfer_time(n) and par_map_collect(xs, |_, x| vec![x])
            /* snapshot_time(nic, 1, 2) */
            fn f() -> &'static str { "engine.time(m, &bt, None) Vec::new()" }
            fn g() -> &'static str { r#"allreduce_time(n) par_map_collect(xs, |_, x| vec![x])"# }
        "##;
        assert!(rules_fired("crates/graph/src/a.rs", src).is_empty());
    }
}
