//! The rule catalog and per-file analysis driver.
//!
//! Every rule is a pass over the token stream produced by
//! [`crate::tokenizer::lex`], scoped by a [`FileCtx`] derived from the
//! file's workspace-relative path. See DESIGN.md "Determinism & lint rule
//! catalog" for the rationale behind each rule.

use crate::tokenizer::{Lexed, Suppression, Token, TokenKind};

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable rule identifier (`D001`, `P001`, …).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation with a suggested fix.
    pub message: String,
}

/// Crates whose outputs must be bit-identical across runs (D002 scope).
pub const DETERMINISTIC_CRATES: &[&str] =
    &["graph", "partition", "sampling", "device", "cluster", "core", "trace", "faults"];

/// Identifiers that reach ambient OS entropy (D003 scope).
const ENTROPY_IDENTS: &[&str] =
    &["thread_rng", "ThreadRng", "from_entropy", "from_os_rng", "OsRng", "getrandom"];

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

/// Macros whose argument lists F001 inspects for float `==`/`!=`.
const ASSERT_MACROS: &[&str] = &[
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "prop_assert",
    "prop_assert_eq",
    "prop_assert_ne",
];

/// Panic-family macros banned from library code (P001 scope).
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented"];

/// What kind of file a path denotes, for rule scoping.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// Name of the containing workspace crate dir (`graph` for
    /// `crates/graph/...`), or `None` for root-package files.
    pub crate_dir: Option<String>,
    /// True for files where wall-clock reads are the *point*: the bench
    /// crate and the CLI entry point.
    pub timing_allowed: bool,
    /// True for non-library code: integration tests, benches, examples,
    /// binaries. P001 does not apply there.
    pub non_library: bool,
    /// True when D002 applies (file belongs to a deterministic crate).
    pub deterministic_crate: bool,
    /// True where raw `std::thread` primitives are the implementation
    /// (T001 scope): the parallel substrate itself, nowhere else.
    pub threads_allowed: bool,
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
        let is_root_main = rel == "src/main.rs";
        let has_dir = |dir: &str| {
            rel.starts_with(&format!("{dir}/")) || rel.contains(&format!("/{dir}/"))
        };
        let non_library = has_dir("tests")
            || has_dir("benches")
            || has_dir("examples")
            || rel.contains("src/bin/")
            || is_root_main
            || in_crate("bench");
        FileCtx {
            timing_allowed: in_crate("bench") || is_root_main,
            non_library,
            deterministic_crate: crate_dir
                .as_deref()
                .is_some_and(|c| DETERMINISTIC_CRATES.contains(&c)),
            threads_allowed: rel.starts_with("crates/par/"),
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

/// Runs every per-file (intraprocedural) rule; suppressions NOT applied.
/// The workspace driver calls this, merges in the interprocedural rules
/// (R001/R002/R003 from [`crate::races`] and [`crate::seeds`]), and
/// applies suppressions once over the combined set — so one `lint:allow`
/// covers a site regardless of which pass flagged it.
pub(crate) fn file_checks(ctx: &FileCtx, lexed: &Lexed, in_test: &[bool]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    check_d001_wall_clock(ctx, &lexed.tokens, &mut diags);
    check_d002_hash_collections(ctx, &lexed.tokens, &mut diags);
    check_d003_ambient_entropy(ctx, &lexed.tokens, &mut diags);
    check_p001_panics(ctx, &lexed.tokens, in_test, &mut diags);
    check_a002_raw_cost_calls(ctx, &lexed.tokens, &mut diags);
    check_f001_float_eq(ctx, &lexed.tokens, &mut diags);
    check_t001_raw_threads(ctx, &lexed.tokens, &mut diags);
    check_l001_layering(ctx, &lexed.tokens, &mut diags);
    diags
}

/// True for identifiers D003 treats as ambient-entropy sources (shared
/// with the effect-inference pass).
pub(crate) fn is_entropy_ident(name: &str) -> bool {
    ENTROPY_IDENTS.contains(&name)
}

/// Marks tokens inside `#[cfg(test)]` / `#[test]` items. The mark covers
/// the attribute through the item's matching close brace (or terminating
/// semicolon for brace-less items).
pub(crate) fn test_region_marks(tokens: &[Token]) -> Vec<bool> {
    let mut marks = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].kind == TokenKind::Op && tokens[i].text == "#") {
            i += 1;
            continue;
        }
        let Some(open) = tokens.get(i + 1) else { break };
        if !(open.kind == TokenKind::Op && open.text == "[") {
            i += 1;
            continue;
        }
        // Collect the attribute's idents up to its matching `]`.
        let mut depth = 1usize;
        let mut j = i + 2;
        let mut idents: Vec<&str> = Vec::new();
        while j < tokens.len() && depth > 0 {
            match (tokens[j].kind, tokens[j].text.as_str()) {
                (TokenKind::Op, "[") => depth += 1,
                (TokenKind::Op, "]") => depth -= 1,
                (TokenKind::Ident, name) => idents.push(name),
                _ => {}
            }
            j += 1;
        }
        let attr_end = j; // one past the `]`
        let is_test_attr = idents.iter().any(|id| *id == "test")
            && !idents.iter().any(|id| *id == "not");
        if !is_test_attr {
            i = attr_end;
            continue;
        }
        // Scan past further attributes to the item body: first `{` opens a
        // brace-matched region; a `;` first means a brace-less item.
        let mut k = attr_end;
        let mut brace_depth = 0usize;
        let mut entered = false;
        while k < tokens.len() {
            if tokens[k].kind == TokenKind::Op {
                match tokens[k].text.as_str() {
                    "{" => {
                        brace_depth += 1;
                        entered = true;
                    }
                    "}" => {
                        brace_depth = brace_depth.saturating_sub(1);
                        if entered && brace_depth == 0 {
                            break;
                        }
                    }
                    ";" if !entered => break,
                    _ => {}
                }
            }
            k += 1;
        }
        let region_end = (k + 1).min(tokens.len());
        for m in marks.iter_mut().take(region_end).skip(i) {
            *m = true;
        }
        i = region_end;
    }
    marks
}

/// D001 — wall-clock reads (`Instant::now`, `SystemTime`) make runs
/// non-reproducible; timing lives in `crates/bench` and `src/main.rs`.
fn check_d001_wall_clock(ctx: &FileCtx, tokens: &[Token], diags: &mut Vec<Diagnostic>) {
    if ctx.timing_allowed {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let hit = match t.text.as_str() {
            "SystemTime" => true,
            "Instant" => {
                matches!(tokens.get(i + 1), Some(c) if c.text == "::")
                    && matches!(tokens.get(i + 2), Some(n) if n.text == "now")
            }
            _ => false,
        };
        if hit {
            diags.push(Diagnostic {
                rule: "D001",
                file: ctx.rel_path.clone(),
                line: t.line,
                message: format!(
                    "wall-clock read `{}` outside crates/bench and src/main.rs; \
                     model time with the simulated cost model or move timing into the bench crate",
                    t.text
                ),
            });
        }
    }
}

/// D002 — `HashMap`/`HashSet` iterate in randomized (SipHash-seeded) order,
/// which leaks into partition assignments and sampled blocks; deterministic
/// crates use `BTreeMap`/`BTreeSet` or sorted `Vec`s.
fn check_d002_hash_collections(ctx: &FileCtx, tokens: &[Token], diags: &mut Vec<Diagnostic>) {
    if !ctx.deterministic_crate {
        return;
    }
    for t in tokens {
        if t.kind == TokenKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            diags.push(Diagnostic {
                rule: "D002",
                file: ctx.rel_path.clone(),
                line: t.line,
                message: format!(
                    "`{}` has a randomized iteration order; use BTree{} (or a sorted Vec) \
                     in deterministic crates",
                    t.text,
                    if t.text == "HashMap" { "Map" } else { "Set" }
                ),
            });
        }
    }
}

/// D003 — ambient-entropy RNG constructors defeat seeded reproducibility
/// everywhere, including tests.
fn check_d003_ambient_entropy(ctx: &FileCtx, tokens: &[Token], diags: &mut Vec<Diagnostic>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let banned = ENTROPY_IDENTS.contains(&t.text.as_str())
            || (t.text == "rand"
                && matches!(tokens.get(i + 1), Some(c) if c.text == "::")
                && matches!(tokens.get(i + 2), Some(n) if n.text == "random"));
        if banned {
            diags.push(Diagnostic {
                rule: "D003",
                file: ctx.rel_path.clone(),
                line: t.line,
                message: format!(
                    "`{}` draws ambient OS entropy; construct RNGs with \
                     `StdRng::seed_from_u64` so every run is replayable",
                    t.text
                ),
            });
        }
    }
}

/// P001 — library code returns `Result`; `unwrap`/`expect`/panic-family
/// macros abort a whole training run on edge-case input. Tests, benches,
/// examples and binaries are exempt.
fn check_p001_panics(
    ctx: &FileCtx,
    tokens: &[Token],
    in_test: &[bool],
    diags: &mut Vec<Diagnostic>,
) {
    if ctx.non_library {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if in_test.get(i).copied().unwrap_or(false) || t.kind != TokenKind::Ident {
            continue;
        }
        let is_method_panic = (t.text == "unwrap" || t.text == "expect")
            && matches!(tokens.get(i.wrapping_sub(1)), Some(p) if p.text == "." && i > 0)
            && matches!(tokens.get(i + 1), Some(n) if n.text == "(");
        let is_macro_panic = PANIC_MACROS.contains(&t.text.as_str())
            && matches!(tokens.get(i + 1), Some(n) if n.text == "!");
        if is_method_panic || is_macro_panic {
            diags.push(Diagnostic {
                rule: "P001",
                file: ctx.rel_path.clone(),
                line: t.line,
                message: format!(
                    "`{}` can abort the process from library code; return a Result \
                     (or add `lint:allow(P001) <invariant>` if unreachable by construction)",
                    t.text
                ),
            });
        }
    }
}

/// L001 (source half) — a `gnn_dm_*` identifier in crate X's sources is an
/// inter-crate edge; it must be a self-reference or an edge of the
/// layering DAG ([`crate::workspace::ALLOWED_EDGES`], the table DESIGN.md
/// §10 documents). The manifest half lives in
/// [`crate::workspace::Workspace::check_manifests`].
fn check_l001_layering(ctx: &FileCtx, tokens: &[Token], diags: &mut Vec<Diagnostic>) {
    let from = ctx.layer_key();
    for t in tokens {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let Some(to) = crate::workspace::gnn_ident_key(&t.text) else { continue };
        if !crate::workspace::edge_allowed(from, to) {
            let hint = if crate::workspace::allowed_deps(from).is_none() {
                format!(
                    "crate `{from}` is not in the layering DAG; add it to ALLOWED_EDGES \
                     (crates/lint/src/workspace.rs) and DESIGN.md §10"
                )
            } else {
                format!(
                    "`{from}` → `{to}` is not an edge of the layering DAG; route through \
                     an allowed layer or amend ALLOWED_EDGES and DESIGN.md §10 deliberately"
                )
            };
            diags.push(Diagnostic {
                rule: "L001",
                file: ctx.rel_path.clone(),
                line: t.line,
                message: hint,
            });
        }
    }
}

/// A002 — direct cost-model pricing calls (`transfer_time`, the
/// `TransferEngine::time_*` family) outside the device crate compute
/// seconds that bypass the span timeline, so the Chrome trace and the
/// span summaries silently under-report. Library code routes pricing
/// through the `gnn_dm_device::traced` adapters (or a higher-level traced
/// entry point such as `pipeline::replay_epoch`), which price the work
/// and record the span in one step.
fn check_a002_raw_cost_calls(ctx: &FileCtx, tokens: &[Token], diags: &mut Vec<Diagnostic>) {
    if ctx.cost_calls_allowed {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if t.kind == TokenKind::Ident
            && COST_IDENTS.contains(&t.text.as_str())
            && matches!(tokens.get(i + 1), Some(n) if n.text == "(")
        {
            diags.push(Diagnostic {
                rule: "A002",
                file: ctx.rel_path.clone(),
                line: t.line,
                message: format!(
                    "raw cost-model call `{}` outside a trace adapter; price the work \
                     through gnn_dm_device::traced (or a traced entry point) so the \
                     seconds and bytes land on the span timeline",
                    t.text
                ),
            });
        }
    }
}

/// T001 — raw `std::thread::spawn` / `std::thread::scope` outside the
/// parallel substrate bypasses its determinism contract (fixed split
/// points, disjoint writes, ordered reassembly, `GNN_DM_THREADS` control).
/// Ad-hoc threads reintroduce scheduling-order nondeterminism and
/// oversubscribe the pool's workers; express the parallelism through
/// `gnn_dm_par::{par_chunks_mut, par_map_collect, par_reduce}` instead.
fn check_t001_raw_threads(ctx: &FileCtx, tokens: &[Token], diags: &mut Vec<Diagnostic>) {
    if ctx.threads_allowed {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.text != "thread" {
            continue;
        }
        let hit = matches!(tokens.get(i + 1), Some(c) if c.text == "::")
            && matches!(tokens.get(i + 2),
                Some(n) if n.kind == TokenKind::Ident
                    && (n.text == "spawn" || n.text == "scope"));
        if hit {
            diags.push(Diagnostic {
                rule: "T001",
                file: ctx.rel_path.clone(),
                line: t.line,
                message: format!(
                    "raw `thread::{}` outside crates/par; use the gnn-dm-par \
                     substrate so results stay bitwise-identical at any thread count",
                    tokens[i + 2].text
                ),
            });
        }
    }
}

/// F001 — `==`/`!=` against a float literal inside an assertion compares
/// exact bit patterns; accumulated rounding makes these flaky. Compare with
/// an epsilon or restructure the assertion.
fn check_f001_float_eq(ctx: &FileCtx, tokens: &[Token], diags: &mut Vec<Diagnostic>) {
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        let starts_assert = t.kind == TokenKind::Ident
            && ASSERT_MACROS.contains(&t.text.as_str())
            && matches!(tokens.get(i + 1), Some(b) if b.text == "!")
            && matches!(tokens.get(i + 2), Some(p) if p.text == "(");
        if !starts_assert {
            i += 1;
            continue;
        }
        let mut depth = 1usize;
        let mut j = i + 3;
        while j < tokens.len() && depth > 0 {
            let tk = &tokens[j];
            if tk.kind == TokenKind::Op {
                match tk.text.as_str() {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    "==" | "!=" => {
                        let float_adjacent = matches!(
                            tokens.get(j.wrapping_sub(1)),
                            Some(p) if p.kind == TokenKind::Float
                        ) || matches!(
                            tokens.get(j + 1),
                            Some(n) if n.kind == TokenKind::Float
                        );
                        if float_adjacent {
                            diags.push(Diagnostic {
                                rule: "F001",
                                file: ctx.rel_path.clone(),
                                line: tk.line,
                                message: "exact float comparison in an assertion; \
                                          compare with an epsilon, e.g. `(a - b).abs() < 1e-9`"
                                    .to_string(),
                            });
                        }
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        i = j;
    }
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
        assert!(lib.deterministic_crate && !lib.non_library && !lib.timing_allowed);
        let bench = FileCtx::from_rel_path("crates/bench/src/harness.rs");
        assert!(bench.timing_allowed && bench.non_library);
        let main = FileCtx::from_rel_path("src/main.rs");
        assert!(main.timing_allowed && main.non_library);
        let test = FileCtx::from_rel_path("crates/graph/tests/properties.rs");
        assert!(test.non_library && test.deterministic_crate);
        let example = FileCtx::from_rel_path("examples/partitioning_study.rs");
        assert!(example.non_library && !example.timing_allowed);
    }

    #[test]
    fn test_regions_exempt_p001() {
        let src = "fn lib() { let x: Option<u32> = None; }\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u32>.unwrap(); }\n}\n";
        assert!(rules_fired("crates/core/src/x.rs", src).is_empty());
        let bad = "fn lib(o: Option<u32>) -> u32 { o.expect(\"set by caller\") }\n";
        assert_eq!(rules_fired("crates/core/src/x.rs", bad), vec!["P001"]);
        assert_eq!(rules_fired("crates/nn/src/x.rs", bad), vec!["P001"]);
        assert!(rules_fired("crates/sampling/tests/a.rs", bad).is_empty());
        assert!(rules_fired("crates/bench/src/a.rs", bad).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn lib(o: Option<u32>) -> u32 { o.unwrap() }\n";
        assert_eq!(rules_fired("crates/core/src/x.rs", src), vec!["P001"]);
    }

    #[test]
    fn t001_ignores_non_launch_thread_idents() {
        // sleep/yield_now and the bare module name are not launch points.
        let src = "fn f() { std::thread::sleep(d); thread::yield_now(); use std::thread; }";
        assert!(rules_fired("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn violations_in_strings_and_comments_do_not_fire() {
        let src = r##"
            // Instant::now() and HashMap and thread_rng() and .unwrap()
            /* SystemTime, transfer_time(n) */
            fn f() -> &'static str { "Instant::now() HashMap thread_rng unwrap()" }
            fn g() -> &'static str { r#"SystemTime transfer_time(n) panic!"# }
        "##;
        assert!(rules_fired("crates/graph/src/a.rs", src).is_empty());
    }
}
