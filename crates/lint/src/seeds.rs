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
//! 3. Calls into fns that (transitively) construct raw-seeded RNGs — the
//!    own raw-seed sites of [`crate::effects`], closed over callers by
//!    [`crate::effects::reach`].

use crate::callgraph::{CallGraph, FileSet};
use crate::effects::{balanced_args_end, reach, split_seed_bindings, Effects, SEED_CTORS};
use crate::rules::Diagnostic;
use crate::tokenizer::TokenKind;

/// R002 over the whole file set (the `par` crate itself is exempt — it
/// defines the discipline).
pub fn check_r002(set: &FileSet, g: &CallGraph, fx: &Effects) -> Vec<Diagnostic> {
    let raw = reach(g, |id| fx.own_raw_seed[id].is_some(), true);
    let mut diags = Vec::new();
    for file in set.files.values() {
        if file.ctx.layer_key() == "par" {
            continue;
        }
        let toks = &file.lexed.tokens;
        let file_tainted = split_seed_bindings(&file.lexed, (0, usize::MAX), |_, _| true);
        for cl in &file.closures {
            // Per-unit seeds under a name: splits of a closure parameter or
            // of an earlier per-unit binding.
            let unit_bound = split_seed_bindings(&file.lexed, cl.body, |args, bound| {
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
                let end = balanced_args_end(&file.lexed, i + 1);
                let span = i + 1..end;
                // Case 1: split_seed appears directly — require a closure
                // param in at least one split_seed argument list.
                let mut saw_split = false;
                let mut per_unit = false;
                for k in span.clone() {
                    if toks[k].kind == TokenKind::Ident && toks[k].text == "split_seed" {
                        saw_split = true;
                        let sp_end = balanced_args_end(&file.lexed, k + 1);
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
                            fx.own_raw_seed[target]
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
        let fx = crate::effects::infer(&set, &g);
        check_r002(&set, &g, &fx)
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
