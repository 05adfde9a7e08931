//! R001 — shared mutable state in parallel closures.
//!
//! The `gnn-dm-par` dispatchers (`par_chunks_mut`, `par_map_collect`,
//! `par_reduce`) guarantee serial≡parallel equivalence only when each work
//! unit touches disjoint state: the chunk argument it was handed, plus its
//! own locals. Their `F: Fn(..) + Sync` bounds already reject a closure
//! that takes `&mut` to a captured binding or captures a `Cell`/`RefCell`,
//! and a `static mut` needs `unsafe`. What still compiles is the
//! thread-safe kind of shared state — a `Mutex`, an `RwLock`, an atomic,
//! or a call into a fn whose effects include io/lock — which either
//! serializes the units or lets their order leak into the result. R001
//! flags those.
//!
//! This module also hosts the parallel-closure finder that
//! [`crate::callgraph::FileSet`] runs once per file for R001, R002
//! ([`crate::seeds`]) and R003.

use crate::callgraph::{CallGraph, FileSet, SourceFile};
use crate::effects::{body_open, reach, Effects, ALLOC_IDENTS, IO, LOCK};
use crate::rules::Diagnostic;
use crate::tokenizer::{Lexed, Token, TokenKind};
use std::collections::BTreeSet;

/// The dispatch entry points whose closure arguments run on worker threads.
pub(crate) const PAR_FNS: &[&str] = &[
    "par_chunks_mut",
    "par_chunks_mut_init",
    "par_for_each_init",
    "par_lookahead_init",
    "par_map_collect",
    "par_map_collect_init",
    "par_reduce",
    "par_zip_chunks_mut",
];

/// One closure argument of a par-dispatch call site.
#[derive(Debug)]
pub(crate) struct ParClosure {
    /// Which dispatcher the closure was passed to.
    pub dispatcher: &'static str,
    /// Closure parameter names.
    pub params: BTreeSet<String>,
    /// Token range of the closure body (after the params, to the end of
    /// the argument), exclusive end.
    pub body: (usize, usize),
    /// Zero-based argument position of the closure in the dispatch call
    /// (the count of depth-1 commas before it); R003 exempts the
    /// [`scratch_init_arg`] position.
    pub arg_idx: usize,
}

/// `par_lookahead_init(n, window, init, produce, consume)`: `consume` runs
/// in order on the calling thread — mutating captured state is its job —
/// so it is not a parallel closure at all.
const LOOKAHEAD_CONSUME_ARG: usize = 4;

/// Argument position of a `par_*_init` dispatcher's once-per-worker
/// scratch constructor.
fn scratch_init_arg(dispatcher: &str) -> Option<usize> {
    match dispatcher {
        "par_lookahead_init" | "par_chunks_mut_init" => Some(2),
        d if d.ends_with("_init") => Some(1),
        _ => None,
    }
}

/// Finds every closure passed (at top argument level) to a [`PAR_FNS`]
/// call in `lexed`.
pub(crate) fn find_par_closures(lexed: &Lexed) -> Vec<ParClosure> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let Some(dispatcher) = PAR_FNS.iter().find(|p| **p == t.text) else { continue };
        if !matches!(toks.get(i + 1), Some(n) if n.kind == TokenKind::Op && n.text == "(") {
            continue;
        }
        // Walk the argument list; depth 1 is the call's own arg level.
        let end = crate::effects::balanced_args_end(lexed, i + 1);
        let mut depth = 0usize;
        let mut arg_idx = 0usize;
        let mut k = i + 1;
        while k < end {
            let tk = &toks[k];
            if tk.kind == TokenKind::Op {
                match tk.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth = depth.saturating_sub(1),
                    "," if depth == 1 => arg_idx += 1,
                    "|" | "||" if depth == 1 => {
                        let mut params = BTreeSet::new();
                        let mut b = k + 1;
                        if tk.text == "|" {
                            // Params run to the closing `|`.
                            while b < end && !(toks[b].kind == TokenKind::Op && toks[b].text == "|")
                            {
                                if toks[b].kind == TokenKind::Ident && toks[b].text != "mut" {
                                    params.insert(toks[b].text.clone());
                                }
                                b += 1;
                            }
                            b += 1; // past the closing `|`
                        }
                        // Body runs to this argument's end: a `,` back at
                        // depth 1 or the call's closing `)`.
                        let body_start = b;
                        let mut bd = depth;
                        while b < end {
                            let tb = &toks[b];
                            if tb.kind == TokenKind::Op {
                                match tb.text.as_str() {
                                    "(" | "[" | "{" => bd += 1,
                                    ")" | "]" | "}" => {
                                        bd = bd.saturating_sub(1);
                                        if bd == 0 {
                                            break;
                                        }
                                    }
                                    "," if bd == 1 => break,
                                    _ => {}
                                }
                            }
                            b += 1;
                        }
                        if !(*dispatcher == "par_lookahead_init" && arg_idx == LOOKAHEAD_CONSUME_ARG) {
                            out.push(ParClosure { dispatcher, params, body: (body_start, b), arg_idx });
                        }
                        k = b;
                        continue;
                    }
                    _ => {}
                }
            }
            k += 1;
        }
    }
    out
}

/// Synchronization type names R001 refuses inside a parallel closure
/// (plus the `Atomic*` prefix family).
const SHARED_STATE_TYPES: &[&str] = &["Mutex", "RwLock"];

/// Method names that synchronize when called inside a parallel closure.
const SYNC_METHODS: &[&str] = &[
    "lock", "fetch_add", "fetch_sub", "fetch_and", "fetch_or", "fetch_max",
    "fetch_min", "compare_exchange", "compare_exchange_weak",
];

fn diag(file: &SourceFile, line: usize, message: String) -> Diagnostic {
    Diagnostic { rule: "R001", file: file.rel_path.clone(), line, message }
}

/// R001 over the whole file set. `gnn-dm-par`'s own sources are exempt —
/// they *implement* the dispatch machinery being protected.
pub fn check_r001(set: &FileSet, g: &CallGraph, fx: &Effects) -> Vec<Diagnostic> {
    let io_reach = reach(g, |id| fx.base[id] & IO != 0, false);
    let lock_reach = reach(g, |id| fx.base[id] & LOCK != 0, false);
    let mut diags = Vec::new();
    for file in set.files.values() {
        if file.ctx.layer_key() == "par" {
            continue;
        }
        for cl in &file.closures {
            let toks = &file.lexed.tokens;
            for i in cl.body.0..cl.body.1.min(toks.len()) {
                let t = &toks[i];
                if t.kind != TokenKind::Ident {
                    continue;
                }
                let name = t.text.as_str();
                if SHARED_STATE_TYPES.contains(&name) || name.starts_with("Atomic") {
                    diags.push(diag(
                        file,
                        t.line,
                        format!(
                            "shared synchronized state (`{name}`) inside a `{}` closure: work units \
                             must not coordinate through shared cells; return per-unit values \
                             and merge serially",
                            cl.dispatcher
                        ),
                    ));
                }
                // Direct synchronization method calls (`.lock()`, atomics)
                // on captured values.
                let after_dot =
                    i > 0 && toks[i - 1].kind == TokenKind::Op && toks[i - 1].text == ".";
                let calls = matches!(toks.get(i + 1), Some(n) if n.text == "(");
                if after_dot && calls && SYNC_METHODS.contains(&name) {
                    diags.push(diag(
                        file,
                        t.line,
                        format!(
                            "`.{name}()` inside a `{}` closure synchronizes across work units; \
                             make the units independent and merge their results serially",
                            cl.dispatcher
                        ),
                    ));
                }
            }
            // Calls out of the closure into io/lock-effect fns.
            for site in g.calls_in(&file.rel_path, cl.body) {
                for &target in &site.targets {
                    let (io, lk) = (io_reach[target], lock_reach[target]);
                    if !io && !lk {
                        continue;
                    }
                    diags.push(diag(
                        file,
                        site.line,
                        format!(
                            "`{}` (called inside a `{}` closure) has {} effects; parallel work \
                             units must stay free of side channels",
                            site.name,
                            cl.dispatcher,
                            match (io, lk) {
                                (true, true) => "io+lock",
                                (true, false) => "io",
                                _ => "lock",
                            }
                        ),
                    ));
                    break; // one diagnostic per call site
                }
            }
        }
    }
    diags
}

/// Hot-path kernels (crate key, fn name) that must stay allocation-free
/// even outside a parallel closure: the GEMM micro-kernels run millions of
/// FMA panels per matmul and the allocator would dominate them.
pub(crate) const HOT_PATH_FNS: &[(&str, &str)] = &[
    ("tensor", "micro_block"),
    ("tensor", "micro_kernel"),
    ("tensor", "micro_panel"),
    ("tensor", "micro_tail"),
];

/// Shortest call path (BFS over edge order, so deterministic) from `from`
/// to a node with a direct unvouched allocation, rendered
/// `a -> b -> c (alloc site file:line)` — the R003 witness format.
pub(crate) fn alloc_witness(g: &CallGraph, fx: &Effects, reach: &[bool], from: usize) -> String {
    let mut prev: Vec<Option<usize>> = vec![None; g.nodes.len()];
    let mut seen = vec![false; g.nodes.len()];
    let mut queue = std::collections::VecDeque::new();
    seen[from] = true;
    queue.push_back(from);
    let mut leaf = None;
    'bfs: while let Some(n) = queue.pop_front() {
        if fx.own_alloc[n].is_some() {
            leaf = Some(n);
            break 'bfs;
        }
        for &next in &g.edges[n] {
            if !seen[next] && reach[next] {
                seen[next] = true;
                prev[next] = Some(n);
                queue.push_back(next);
            }
        }
    }
    let Some(leaf) = leaf else { return g.nodes[from].name.clone() };
    let mut path = vec![leaf];
    while let Some(p) = prev[*path.last().unwrap_or(&leaf)] {
        path.push(p);
    }
    path.reverse();
    let names: Vec<&str> = path.iter().map(|&n| g.nodes[n].name.as_str()).collect();
    let site = fx.own_alloc[leaf].map(|l| format!(" (alloc site {}:{})", g.nodes[leaf].file, l));
    format!("{}{}", names.join(" -> "), site.unwrap_or_default())
}

/// R003 — the hot-path allocation audit: work closures handed to the
/// `PAR_FNS` dispatchers, and the `HOT_PATH_FNS` kernels, must not
/// allocate (`Vec::new` / `Box` / `format!` / `collect` without an arena),
/// directly or through any callee. Scratch-init closures (the
/// `scratch_init_arg` of the `par_*_init` dispatchers) run once per
/// worker and are exempt.
/// Library code only, like the other effect rules: benches, tests, and
/// binaries measure or drive — the deliberately allocation-heavy seed
/// baseline in `crates/bench` is the *comparison point* for this audit,
/// not a subject of it.
/// Diagnostics at vouched lines are still emitted here and removed by the
/// suppression pass, which keeps reasoned `lint:allow(R003)` markers live
/// for the S002 staleness audit; the *transitive* side honors vouches
/// through [`Effects::own_alloc`], so a vouched leaf stops witnessing.
pub fn check_r003(set: &FileSet, g: &CallGraph, fx: &Effects) -> Vec<Diagnostic> {
    let reach = reach(g, |id| fx.own_alloc[id].is_some(), false);
    let mut diags = Vec::new();
    for file in set.files.values() {
        if file.ctx.layer_key() == "par" || file.ctx.non_library {
            continue;
        }
        for cl in &file.closures {
            if file.in_test.get(cl.body.0).copied().unwrap_or(false) {
                continue;
            }
            if Some(cl.arg_idx) == scratch_init_arg(cl.dispatcher) {
                continue;
            }
            for (line, ident) in alloc_sites(&file.lexed.tokens, cl.body.0..cl.body.1) {
                diags.push(Diagnostic {
                    rule: "R003",
                    file: file.rel_path.clone(),
                    line,
                    message: format!(
                        "allocation (`{ident}`) inside a `{}` closure — per-unit heap traffic \
                         serializes the hot path; reuse a scratch arena (`par_*_init`) or \
                         vouch it with `lint:allow(R003) <why amortized>`",
                        cl.dispatcher
                    ),
                });
            }
            // Calls out of the closure into allocating fns, with a witness.
            for site in g.calls_in(&file.rel_path, cl.body) {
                if let Some(&target) = site.targets.iter().find(|&&t| reach[t]) {
                    diags.push(Diagnostic {
                        rule: "R003",
                        file: file.rel_path.clone(),
                        line: site.line,
                        message: format!(
                            "`{}` (called inside a `{}` closure) allocates: {}; hoist the \
                             buffer into the worker's scratch arena",
                            site.name,
                            cl.dispatcher,
                            alloc_witness(g, fx, &reach, target)
                        ),
                    });
                }
            }
        }
    }
    // The named hot-path kernels: no direct allocations, no allocating
    // callees.
    for (id, n) in g.nodes.iter().enumerate() {
        if n.in_test || !HOT_PATH_FNS.contains(&(n.crate_key.as_str(), n.name.as_str())) {
            continue;
        }
        let Some(file) = set.files.get(&n.file) else { continue };
        let toks = &file.lexed.tokens;
        let signature_end = body_open(toks, n.body).saturating_add(1);
        for (line, ident) in alloc_sites(toks, signature_end..n.body.1) {
            diags.push(Diagnostic {
                rule: "R003",
                file: n.file.clone(),
                line,
                message: format!(
                    "hot-path kernel `{}` allocates here (`{ident}`) — the inner GEMM/sampling \
                     loops must stay allocation-free; take the buffer as a parameter",
                    n.name
                ),
            });
        }
        for &callee in &g.edges[id] {
            if !reach[callee] {
                continue;
            }
            diags.push(Diagnostic {
                rule: "R003",
                file: n.file.clone(),
                line: n.line,
                message: format!(
                    "hot-path kernel `{}` can reach an allocation: {}; hoist the buffer \
                     to the caller",
                    n.name,
                    alloc_witness(g, fx, &reach, callee)
                ),
            });
        }
    }
    diags
}

/// Allocation witnesses ([`ALLOC_IDENTS`]) in `toks[range]`, the first per
/// line: `(line, ident)`.
fn alloc_sites(toks: &[Token], range: std::ops::Range<usize>) -> Vec<(usize, &str)> {
    let end = range.end.min(toks.len());
    let mut lines = BTreeSet::new();
    toks[range.start.min(end)..end]
        .iter()
        .filter(|t| {
            t.kind == TokenKind::Ident
                && ALLOC_IDENTS.contains(&t.text.as_str())
                && lines.insert(t.line)
        })
        .map(|t| (t.line, t.text.as_str()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::{CallGraph, FileSet};

    fn run(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
        let set = FileSet::from_sources(sources);
        let g = CallGraph::build(&set);
        let fx = crate::effects::infer(&set, &g);
        check_r001(&set, &g, &fx)
    }

    fn run_r003(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
        let set = FileSet::from_sources(sources);
        let g = CallGraph::build(&set);
        let fx = crate::effects::infer(&set, &g);
        check_r003(&set, &g, &fx)
    }

    #[test]
    fn r003_flags_direct_closure_allocation() {
        let diags = run_r003(&[(
            "crates/tensor/src/ops.rs",
            "pub fn bad(xs: &[u32]) -> Vec<u32> {\n\
                 par_map_collect(xs, |_, x| (0..*x).collect::<Vec<u32>>())\n\
             }\n",
        )]);
        assert!(
            diags.iter().any(|d| d.rule == "R003" && d.line == 2),
            "diags: {diags:?}"
        );
    }

    #[test]
    fn r003_flags_allocating_callee_with_witness() {
        let diags = run_r003(&[(
            "crates/tensor/src/ops.rs",
            "fn helper(x: u32) -> Vec<u32> {\n\
                 let v = Vec::with_capacity(x as usize);\n\
                 v\n\
             }\n\
             pub fn bad(xs: &mut [u32]) {\n\
                 par_chunks_mut(xs, 64, |_, c| { let _ = helper(c[0]); });\n\
             }\n",
        )]);
        let hit = diags
            .iter()
            .find(|d| d.rule == "R003" && d.message.contains("helper"))
            .expect("transitive diagnostic");
        assert!(hit.message.contains("alloc site crates/tensor/src/ops.rs:2"), "{hit:?}");
    }

    #[test]
    fn r003_exempts_scratch_init_closures() {
        let diags = run_r003(&[(
            "crates/sampling/src/sampler.rs",
            "pub fn ok(n: usize) {\n\
                 par_for_each_init(n, || Vec::<u32>::with_capacity(64), |scratch, _i| scratch.clear());\n\
             }\n",
        )]);
        assert!(diags.is_empty(), "diags: {diags:?}");
    }

    #[test]
    fn chunks_mut_init_exempts_init_and_checks_the_body() {
        let diags = run_r003(&[(
            "crates/partition/src/metis.rs",
            "pub fn fill(xs: &mut [u32]) {\n\
                 par_chunks_mut_init(xs, 8, || vec![0u32; 64],\n\
                     |acc, _, c| { let tmp: Vec<u32> = c.to_vec(); acc[0] = tmp[0]; });\n\
             }\n",
        )]);
        assert_eq!(diags.len(), 1, "only the body allocates on a worker: {diags:?}");
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn lookahead_produce_is_checked_init_and_consume_are_not() {
        let src = "pub fn stream(n: usize, total: &mut u64) {\n\
                       par_lookahead_init(n, 4, || Vec::<u32>::with_capacity(64),\n\
                           |scratch, i| { scratch.clear(); vec![i as u32] },\n\
                           |_, item| *total += item.len() as u64);\n\
                   }\n";
        let sources = [("crates/sampling/src/epoch.rs", src)];
        let r003 = run_r003(&sources);
        assert_eq!(r003.len(), 1, "only `produce` allocates on a worker: {r003:?}");
        assert_eq!(r003[0].line, 3);
        assert!(run(&sources).is_empty(), "`consume` is the caller's serial loop");
    }

    #[test]
    fn r003_vouched_leaf_stops_witnessing() {
        let diags = run_r003(&[(
            "crates/tensor/src/ops.rs",
            "fn helper(x: u32) -> Vec<u32> {\n\
                 // lint:allow(R003) buffer amortized across the whole panel\n\
                 Vec::with_capacity(x as usize)\n\
             }\n\
             pub fn ok(xs: &mut [u32]) {\n\
                 par_chunks_mut(xs, 64, |_, c| { let _ = helper(c[0]); });\n\
             }\n",
        )]);
        assert!(diags.is_empty(), "diags: {diags:?}");
    }

    #[test]
    fn r003_flags_hot_path_kernel_allocation() {
        let diags = run_r003(&[(
            "crates/tensor/src/ops.rs",
            "fn micro_panel(n: usize) -> Vec<f32> {\n\
                 let out = Vec::with_capacity(n);\n\
                 out\n\
             }\n",
        )]);
        assert!(
            diags.iter().any(|d| d.rule == "R003" && d.message.contains("micro_panel")),
            "diags: {diags:?}"
        );
    }

    #[test]
    fn closure_finder_extracts_params_and_bodies() {
        let lexed = crate::tokenizer::lex(
            "par_reduce(&xs, 64, |_, c| c.iter().sum::<f32>(), |a, b| a + b);",
        );
        let cls = find_par_closures(&lexed);
        assert_eq!(cls.len(), 2);
        assert!(cls[0].params.contains("c"));
        assert!(cls[1].params.contains("a") && cls[1].params.contains("b"));
    }

    #[test]
    fn disjoint_chunk_closures_are_clean() {
        let diags = run(&[(
            "crates/tensor/src/ops.rs",
            "pub fn scale(xs: &mut [f32], k: f32) {\n\
                 gnn_dm_par::par_chunks_mut(xs, 64, |_ci, chunk| {\n\
                     let mut acc = 0.0;\n\
                     for v in chunk.iter_mut() { acc += *v; *v *= k; }\n\
                     let _ = acc;\n\
                 });\n\
             }\n",
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn locks_and_atomics_fire() {
        let diags = run(&[(
            "crates/tensor/src/ops.rs",
            "pub fn bad(xs: &[f32], cell: &std::sync::Mutex<f32>, n: &AtomicU64) {\n\
                 let _ = gnn_dm_par::par_map_collect(xs, |_, &x| {\n\
                     cell.lock();\n\
                     n.fetch_add(1, Ordering::Relaxed);\n\
                     x\n\
                 });\n\
             }\n",
        )]);
        assert!(diags.iter().any(|d| d.line == 3 && d.message.contains(".lock()")), "{diags:?}");
        assert!(diags.iter().any(|d| d.line == 4 && d.message.contains(".fetch_add()")), "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == "R001"));
    }

    #[test]
    fn io_effect_calls_fire_but_par_internals_do_not() {
        let diags = run(&[(
            "crates/graph/src/lib.rs",
            "fn log_it(x: u32) { println!(\"{x}\"); }\n\
             pub fn bad(xs: &[u32]) -> Vec<u32> {\n\
                 gnn_dm_par::par_map_collect(xs, |_, &x| { log_it(x); x })\n\
             }\n",
        )]);
        assert!(diags.iter().any(|d| d.message.contains("log_it")), "{diags:?}");

        // A nested parallel call inherits lock effects only *through* the
        // par crate, which is sanctioned.
        let diags = run(&[
            (
                "crates/par/src/lib.rs",
                "pub fn par_map_collect(xs: &[u32]) -> Vec<u32> {\n\
                     let m = std::sync::Mutex::new(0);\n\
                     let _ = m.lock();\n\
                     xs.to_vec()\n\
                 }\n",
            ),
            (
                "crates/graph/src/lib.rs",
                "fn nested(xs: &[u32]) -> Vec<u32> { gnn_dm_par::par_map_collect(xs) }\n\
                 pub fn ok(xs: &[u32]) -> Vec<u32> {\n\
                     gnn_dm_par::par_map_collect(xs, |_, &x| nested(&[x])[0])\n\
                 }\n",
            ),
        ]);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
