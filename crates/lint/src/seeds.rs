//! R002 — seed discipline inside parallel regions.
//!
//! Bitwise serial≡parallel equivalence requires every RNG stream consumed
//! by a work unit to be a pure function of (base seed, unit index), never
//! of scheduling. The sanctioned pattern is the one `gnn-dm-par` exports:
//! derive with `split_seed(domain_seed, unit_index)` and feed *that* to
//! the RNG constructor. R002 flags, inside closures passed to the par
//! dispatchers:
//!
//! 1. RNG construction from a raw expression (`seed_from_u64(seed ^ w)`):
//!    ad-hoc xor/shift mixing collides across domains and units.
//! 2. `split_seed` whose arguments never mention a closure parameter: the
//!    same derived seed is then reused by every work unit.
//! 3. Calls into fns that (transitively) construct raw-seeded RNGs — each
//!    fn's own raw-seed site ([`raw_seed_sites`]), closed over callers by
//!    [`reach`].
//!
//! This module also hosts the parallel-closure finder that
//! [`crate::callgraph::FileSet`] runs once per file. Which shared state a
//! closure may touch is the toolchain's: the dispatchers' `Fn + Sync`
//! bounds, and the root `clippy.toml`'s bans on sync primitives.

use crate::callgraph::{CallGraph, FileSet};
use crate::rules::Diagnostic;
use crate::tokenizer::{Token, TokenKind};
use std::collections::BTreeSet;

/// The dispatch entry points whose closure arguments run on worker threads.
const PAR_FNS: &[&str] = &[
    "par_chunks_mut",
    "par_chunks_mut_init",
    "par_for_each_init",
    "par_lookahead_init",
    "par_map_collect",
    "par_map_collect_init",
    "par_reduce",
    "par_zip_chunks_mut",
];

/// RNG constructors (associated fns).
const SEED_CTORS: &[&str] = &["seed_from_u64", "from_seed"];

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
}

/// `par_lookahead_init(n, window, init, produce, consume)`: `consume` runs
/// in order on the calling thread — mutating captured state is its job —
/// so it is not a parallel closure at all.
const LOOKAHEAD_CONSUME_ARG: usize = 4;

/// Finds every closure passed (at top argument level) to a [`PAR_FNS`]
/// call in `toks`.
pub(crate) fn find_par_closures(toks: &[Token]) -> Vec<ParClosure> {
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
        let end = balanced_args_end(toks, i + 1);
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
                            out.push(ParClosure { dispatcher, params, body: (body_start, b) });
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

/// Per-node reachability of a `seed` node over call edges: true where the
/// node is a seed or calls one, directly or transitively (a monotone
/// fixpoint on a finite lattice, so iteration terminates).
pub fn reach(g: &CallGraph, seed: impl Fn(usize) -> bool) -> Vec<bool> {
    let mut reached: Vec<bool> = (0..g.nodes.len()).map(seed).collect();
    loop {
        let mut changed = false;
        for id in 0..g.nodes.len() {
            if !reached[id] && g.edges[id].iter().any(|&m| reached[m]) {
                reached[id] = true;
                changed = true;
            }
        }
        if !changed {
            return reached;
        }
    }
}

/// Identifiers bound by a `let` in the token range `range` whose
/// initializer (from `=` to its `;`) calls `split_seed` with arguments that
/// `keep` accepts. `keep` also sees the names bound so far, so bindings
/// chain. Keeping every split gives the file's seed-taint set; keeping
/// splits of a closure parameter gives R002's per-unit seeds.
fn split_seed_bindings(
    toks: &[Token],
    range: (usize, usize),
    keep: impl Fn(&[Token], &BTreeSet<String>) -> bool,
) -> BTreeSet<String> {
    let end = range.1.min(toks.len());
    let mut bound = BTreeSet::new();
    for i in range.0..end {
        if !(toks[i].kind == TokenKind::Ident && toks[i].text == "let") {
            continue;
        }
        let mut j = i + 1;
        if matches!(toks.get(j), Some(t) if t.text == "mut") {
            j += 1;
        }
        let Some(name) = toks.get(j).filter(|t| t.kind == TokenKind::Ident) else { continue };
        let mut saw_eq = false;
        let mut derived = false;
        for k in j + 1..end {
            match (toks[k].kind, toks[k].text.as_str()) {
                (TokenKind::Op, ";") | (TokenKind::Ident, "let") => break,
                (TokenKind::Op, "=") => saw_eq = true,
                (TokenKind::Ident, "split_seed") if saw_eq => {
                    derived |= keep(&toks[k + 1..balanced_args_end(toks, k + 1)], &bound);
                }
                _ => {}
            }
        }
        if derived {
            bound.insert(name.text.clone());
        }
    }
    bound
}

/// Token span of the balanced `(…)` argument list opening at `open` (the
/// index of the `(`); returns the exclusive end index.
fn balanced_args_end(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut k = open;
    while let Some(t) = toks.get(k) {
        if t.kind == TokenKind::Op {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return k + 1;
                    }
                }
                _ => {}
            }
        }
        k += 1;
    }
    toks.len()
}

/// The line of the first raw-seed site in the token range `body` of
/// `toks`: an RNG constructor whose arguments involve neither
/// `split_seed(..)` nor a name in the file's seed-taint set `tainted`.
/// Tokens marked in `skip` (a nested fn's) are not this body's.
fn own_raw_seed(
    toks: &[Token],
    body: (usize, usize),
    tainted: &BTreeSet<String>,
    skip: &[bool],
) -> Option<usize> {
    (body.0..body.1.min(toks.len())).find_map(|i| {
        let t = &toks[i];
        let ctor = !skip[i]
            && t.kind == TokenKind::Ident
            && SEED_CTORS.contains(&t.text.as_str())
            && matches!(toks.get(i + 1), Some(n) if n.text == "(");
        if !ctor {
            return None;
        }
        let disciplined = (i + 1..balanced_args_end(toks, i + 1)).any(|k| {
            toks[k].kind == TokenKind::Ident
                && (toks[k].text == "split_seed" || tainted.contains(&toks[k].text))
        });
        (!disciplined).then_some(t.line)
    })
}

/// Each node's own raw-seed site line, when its body (nested fns aside)
/// has one: what [`check_r002`] closes over callers.
pub fn raw_seed_sites(set: &FileSet, g: &CallGraph) -> Vec<Option<usize>> {
    let mut sites = vec![None; g.nodes.len()];
    for file in set.files.values() {
        let tainted = split_seed_bindings(&file.tokens, (0, usize::MAX), |_, _| true);
        let ids = g.nodes_in_file(&file.rel_path);
        for &id in ids {
            let (s, e) = g.nodes[id].body;
            let mut skip = vec![false; file.tokens.len()];
            for &other in ids {
                let (os, oe) = g.nodes[other].body;
                if other != id && s < os && oe <= e {
                    let end = oe.min(skip.len());
                    for slot in skip.iter_mut().take(end).skip(os) {
                        *slot = true;
                    }
                }
            }
            sites[id] = own_raw_seed(&file.tokens, (s, e), &tainted, &skip);
        }
    }
    sites
}

/// R002 over the whole file set, given every node's [`raw_seed_sites`]
/// (the `par` crate itself is exempt — it defines the discipline).
pub fn check_r002(set: &FileSet, g: &CallGraph, own_raw_seed: &[Option<usize>]) -> Vec<Diagnostic> {
    let raw = reach(g, |id| own_raw_seed[id].is_some());
    let mut diags = Vec::new();
    for file in set.files.values() {
        if file.ctx.layer_key() == "par" {
            continue;
        }
        let toks = &file.tokens;
        let file_tainted = split_seed_bindings(&file.tokens, (0, usize::MAX), |_, _| true);
        for cl in &file.closures {
            // Per-unit seeds under a name: splits of a closure parameter or
            // of an earlier per-unit binding.
            let unit_bound = split_seed_bindings(&file.tokens, cl.body, |args, bound| {
                args.iter().any(|t| {
                    t.kind == TokenKind::Ident
                        && (cl.params.contains(&t.text) || bound.contains(&t.text))
                })
            });
            for i in cl.body.0..cl.body.1.min(toks.len()) {
                let t = &toks[i];
                if t.kind != TokenKind::Ident
                    || !SEED_CTORS.contains(&t.text.as_str())
                    || !matches!(toks.get(i + 1), Some(n) if n.text == "(")
                {
                    continue;
                }
                let end = balanced_args_end(&file.tokens, i + 1);
                let span = i + 1..end;
                // Case 1: split_seed appears directly — require a closure
                // param in at least one split_seed argument list.
                let mut saw_split = false;
                let mut per_unit = false;
                for k in span.clone() {
                    if toks[k].kind == TokenKind::Ident && toks[k].text == "split_seed" {
                        saw_split = true;
                        let sp_end = balanced_args_end(&file.tokens, k + 1);
                        per_unit |= (k + 1..sp_end).any(|m| {
                            toks[m].kind == TokenKind::Ident && cl.params.contains(&toks[m].text)
                        });
                    }
                }
                // Case 2: a per-unit `let` binding stands in for the call.
                let via_binding = span.clone().any(|k| {
                    toks[k].kind == TokenKind::Ident && unit_bound.contains(&toks[k].text)
                });
                // A split_seed binding made *outside* the closure is the
                // same value in every unit — reuse, not discipline.
                let via_outer = span.clone().any(|k| {
                    toks[k].kind == TokenKind::Ident && file_tainted.contains(&toks[k].text)
                });
                let message = if saw_split && !per_unit {
                    Some(format!(
                        "`{}` inside a `{}` closure derives with `split_seed` but no closure \
                         parameter feeds it: every work unit gets the same stream; pass the \
                         unit index as the split index",
                        t.text, cl.dispatcher
                    ))
                } else if !saw_split && !via_binding && via_outer {
                    Some(format!(
                        "`{}` inside a `{}` closure reuses a seed split outside the closure: \
                         every work unit gets the same stream; re-split with the unit index",
                        t.text, cl.dispatcher
                    ))
                } else if !saw_split && !via_binding {
                    Some(format!(
                        "`{}` inside a `{}` closure seeds from a raw expression; derive the \
                         seed with `gnn_dm_par::split_seed(domain_seed, unit_index)`",
                        t.text, cl.dispatcher
                    ))
                } else {
                    None
                };
                if let Some(message) = message {
                    diags.push(Diagnostic {
                        rule: "R002",
                        file: file.rel_path.clone(),
                        line: t.line,
                        message,
                    });
                }
            }
            // Calls into raw-seeding fns.
            for site in g.calls_in(&file.rel_path, cl.body) {
                if let Some(&target) = site.targets.iter().find(|&&t| raw[t]) {
                    diags.push(Diagnostic {
                        rule: "R002",
                        file: file.rel_path.clone(),
                        line: site.line,
                        message: format!(
                            "`{}` (called inside a `{}` closure) constructs an RNG from a raw \
                             seed expression{}; thread a `split_seed`-derived seed through \
                             instead",
                            site.name,
                            cl.dispatcher,
                            own_raw_seed[target]
                                .map(|l| format!(" ({}:{})", g.nodes[target].file, l))
                                .unwrap_or_default()
                        ),
                    });
                }
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::{CallGraph, FileSet};

    fn run(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
        let set = FileSet::from_sources(sources);
        let g = CallGraph::build(&set);
        check_r002(&set, &g, &raw_seed_sites(&set, &g))
    }

    /// Whether each named fn reaches a raw-seed site.
    fn raw_reach(src: &str, names: &[&str]) -> Vec<bool> {
        let set = FileSet::from_sources(&[("crates/sampling/src/lib.rs", src)]);
        let g = CallGraph::build(&set);
        let sites = raw_seed_sites(&set, &g);
        let raw = reach(&g, |id| sites[id].is_some());
        names
            .iter()
            .map(|name| raw[g.nodes.iter().position(|n| n.name == *name).expect("node")])
            .collect()
    }

    #[test]
    fn closure_finder_extracts_params_and_bodies() {
        let toks = crate::tokenizer::lex(
            "par_reduce(&xs, 64, |_, c| c.iter().sum::<f32>(), |a, b| a + b);",
        );
        let cls = find_par_closures(&toks);
        assert_eq!(cls.len(), 2);
        assert!(cls[0].params.contains("c"));
        assert!(cls[1].params.contains("a") && cls[1].params.contains("b"));
    }

    #[test]
    fn chunks_mut_init_checks_both_the_init_and_the_body() {
        let diags = run(&[(
            "crates/partition/src/metis.rs",
            "pub fn fill(xs: &mut [u32], seed: u64) {\n\
                 par_chunks_mut_init(xs, 8, || StdRng::seed_from_u64(seed),\n\
                     |rng, _, c| { c[0] = StdRng::seed_from_u64(seed ^ 1).next_u32(); });\n\
             }\n",
        )]);
        let lines: Vec<usize> = diags.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![2, 3], "init and body both run on workers: {diags:?}");
    }

    #[test]
    fn lookahead_produce_is_checked_consume_is_not() {
        let diags = run(&[(
            "crates/sampling/src/epoch.rs",
            "pub fn stream(n: usize, seed: u64, total: &mut u64) {\n\
                 par_lookahead_init(n, 4, || 0u32,\n\
                     |_, i| StdRng::seed_from_u64(seed ^ i as u64).next_u64(),\n\
                     |_, x| *total += StdRng::seed_from_u64(x).next_u64());\n\
             }\n",
        )]);
        assert_eq!(diags.len(), 1, "only `produce` runs on a worker: {diags:?}");
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn raw_seed_sites_track_split_seed_discipline() {
        let src = "pub fn disciplined(seed: u64, i: u64) -> StdRng { StdRng::seed_from_u64(gnn_dm_par::split_seed(seed, i)) }\n\
                   pub fn derived(seed: u64, i: u64) -> StdRng { let s = gnn_dm_par::split_seed(seed, i); StdRng::seed_from_u64(s) }\n\
                   pub fn raw(seed: u64, w: u64) -> StdRng { StdRng::seed_from_u64(seed ^ (w << 32)) }\n\
                   fn leaf(seed: u64) -> StdRng { raw(seed, 1) }\n\
                   pub fn inherits(seed: u64) -> StdRng { leaf(seed) }\n";
        let got = raw_reach(src, &["disciplined", "derived", "raw", "leaf", "inherits"]);
        assert_eq!(got, vec![false, false, true, true, true], "raw seeds flow two hops up");
    }

    #[test]
    fn split_seed_with_unit_index_is_clean() {
        let diags = run(&[(
            "crates/sampling/src/lib.rs",
            "pub fn draws(ids: &[u32], seed: u64) -> Vec<u32> {\n\
                 gnn_dm_par::par_map_collect(ids, |i, &v| {\n\
                     let mut rng = StdRng::seed_from_u64(gnn_dm_par::split_seed(seed, i as u64));\n\
                     rng.gen_range(0..v)\n\
                 })\n\
             }\n",
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn per_unit_let_binding_is_clean() {
        let diags = run(&[(
            "crates/sampling/src/lib.rs",
            "pub fn draws(ids: &[u32], seed: u64) -> Vec<u32> {\n\
                 gnn_dm_par::par_map_collect(ids, |i, &v| {\n\
                     let s = gnn_dm_par::split_seed(seed, i as u64);\n\
                     let mut rng = StdRng::seed_from_u64(s);\n\
                     rng.gen_range(0..v)\n\
                 })\n\
             }\n",
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn raw_xor_seeding_fires() {
        let diags = run(&[(
            "crates/cluster/src/lib.rs",
            "pub fn sim(ws: &[u32], seed: u64) -> Vec<u32> {\n\
                 gnn_dm_par::par_map_collect(ws, |_, &w| {\n\
                     let mut rng = StdRng::seed_from_u64(seed ^ ((w as u64) << 32));\n\
                     rng.gen_range(0..9)\n\
                 })\n\
             }\n",
        )]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("raw expression"));
    }

    #[test]
    fn split_seed_without_unit_index_fires_as_reuse() {
        let diags = run(&[(
            "crates/cluster/src/lib.rs",
            "pub fn sim(ws: &[u32], seed: u64) -> Vec<u32> {\n\
                 gnn_dm_par::par_map_collect(ws, |_, &w| {\n\
                     let mut rng = StdRng::seed_from_u64(gnn_dm_par::split_seed(seed, 7));\n\
                     rng.gen_range(0..9)\n\
                 })\n\
             }\n",
        )]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("same stream"), "{diags:?}");
    }

    #[test]
    fn outer_split_binding_reused_in_closure_fires() {
        let diags = run(&[(
            "crates/cluster/src/lib.rs",
            "pub fn sim(ws: &[u32], seed: u64) -> Vec<u32> {\n\
                 let s = gnn_dm_par::split_seed(seed, 0);\n\
                 gnn_dm_par::par_map_collect(ws, |_, &w| {\n\
                     let mut rng = StdRng::seed_from_u64(s);\n\
                     rng.gen_range(0..9)\n\
                 })\n\
             }\n",
        )]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("reuses a seed"), "{diags:?}");
    }

    #[test]
    fn raw_seeding_behind_a_call_fires_transitively() {
        let diags = run(&[(
            "crates/cluster/src/lib.rs",
            "fn worker(seed: u64, w: u32) -> u32 {\n\
                 let mut rng = StdRng::seed_from_u64(seed ^ ((w as u64) << 40));\n\
                 rng.gen_range(0..9)\n\
             }\n\
             pub fn sim(ws: &[u32], seed: u64) -> Vec<u32> {\n\
                 gnn_dm_par::par_map_collect(ws, |_, &w| worker(seed, w))\n\
             }\n",
        )]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("worker"), "{diags:?}");
        assert!(diags[0].message.contains("crates/cluster/src/lib.rs:2"), "{diags:?}");
    }
}
