//! Effect inference over the call graph.
//!
//! Every fn gets a base bitmask over {alloc, io, entropy, lock} from leaf
//! intrinsics in its own body. [`reach`] closes any per-node fact over the
//! call graph (a monotone fixpoint on a finite lattice, so iteration
//! terminates); [`transitive_mask`] is one `reach` per effect bit. An empty
//! mask renders as `pure`. Panics are not an effect here: P001 already
//! reports every unvouched panic site in library code.
//!
//! Alongside the mask, the pass records each fn's own raw-seed site — the
//! body constructs an RNG whose seed expression involves neither
//! `split_seed(..)` nor a binding derived from one. Reached from a caller,
//! that site is what R002 (crate::seeds) checks inside parallel regions.

use crate::callgraph::{CallGraph, FileSet};
use crate::tokenizer::{Lexed, Token, TokenKind};
use std::collections::BTreeSet;

/// Heap allocation (growable containers, formatting).
pub const ALLOC: u8 = 1;
/// Filesystem or console traffic.
pub const IO: u8 = 2;
/// Pseudo-random draws or RNG construction.
pub const ENTROPY: u8 = 4;
/// Synchronization: locks, channels, atomics.
pub const LOCK: u8 = 8;

/// Idents whose presence in a body implies allocation.
pub(crate) const ALLOC_IDENTS: &[&str] =
    &["Vec", "vec", "Box", "String", "format", "to_vec", "to_string", "with_capacity", "collect"];

/// Idents implying filesystem / console IO (plus the `fs::` path segment
/// and the print-macro family, matched separately).
const IO_IDENTS: &[&str] = &[
    "File", "OpenOptions", "stdout", "stderr", "stdin", "read_to_string", "write_all",
    "create_dir_all", "remove_file", "read_dir",
];
const IO_MACROS: &[&str] = &["println", "eprintln", "print", "eprint"];

/// Method names that draw from an RNG (`.gen_range(…)`, …).
const ENTROPY_METHODS: &[&str] = &[
    "gen", "gen_range", "gen_bool", "sample", "shuffle", "choose", "next_u32", "next_u64",
    "fill_bytes",
];
/// RNG constructors (associated fns).
pub(crate) const SEED_CTORS: &[&str] = &["seed_from_u64", "from_seed"];

/// Synchronization type names (plus the `Atomic*` prefix family).
const LOCK_IDENTS: &[&str] =
    &["Mutex", "RwLock", "Condvar", "Once", "OnceLock", "Barrier", "sync_channel", "channel"];
/// Synchronization method names.
const LOCK_METHODS: &[&str] = &[
    "lock", "fetch_add", "fetch_sub", "fetch_and", "fetch_or", "fetch_max", "fetch_min",
    "compare_exchange", "compare_exchange_weak",
];

/// Every effect bit with its display name, in display order.
const EFFECTS: [(u8, &str); 4] =
    [(ALLOC, "alloc"), (IO, "io"), (ENTROPY, "entropy"), (LOCK, "lock")];

/// Direct (own-body) effect facts for every node of a [`CallGraph`];
/// [`reach`] closes any of them over call edges.
#[derive(Debug, Default)]
pub struct Effects {
    /// Direct effect mask per node id.
    pub base: Vec<u8>,
    /// Direct raw-seed site line per node, when any.
    pub own_raw_seed: Vec<Option<usize>>,
    /// Node body directly contains an allocation intrinsic whose line does
    /// not carry a reasoned `lint:allow(R003)` — the witness leaves for the
    /// hot-path allocation audit. Tracked separately from `base`'s `alloc`
    /// bit so vouching a hot-path allocation does not perturb the effect
    /// masks (and the effects golden).
    pub own_alloc: Vec<Option<usize>>,
}

/// Renders a mask as `pure` or a `+`-joined effect list, stable order.
pub fn mask_names(mask: u8) -> String {
    let names: Vec<&str> =
        EFFECTS.iter().filter(|(bit, _)| mask & bit != 0).map(|(_, name)| *name).collect();
    if names.is_empty() {
        "pure".to_string()
    } else {
        names.join("+")
    }
}

/// Per-node reachability of a `seed` node over call edges: true where the
/// node is a seed or calls one, directly or transitively. With
/// `through_par` false the `par` crate is opaque — its nodes are neither
/// seeds nor stepping stones — because the dispatchers' own locks,
/// channels and result buffers are the sanctioned mechanism, so an effect
/// inherited *through* `par` (e.g. from a nested parallel section) does not
/// count against a parallel closure (R001, R003).
pub fn reach(g: &CallGraph, seed: impl Fn(usize) -> bool, through_par: bool) -> Vec<bool> {
    let open = |id: usize| through_par || g.nodes[id].crate_key != "par";
    let mut reached: Vec<bool> = (0..g.nodes.len()).map(|id| open(id) && seed(id)).collect();
    loop {
        let mut changed = false;
        for id in 0..g.nodes.len() {
            if !reached[id] && open(id) && g.edges[id].iter().any(|&m| reached[m]) {
                reached[id] = true;
                changed = true;
            }
        }
        if !changed {
            return reached;
        }
    }
}

/// Transitive effect mask per node id: one [`reach`] per effect bit.
pub fn transitive_mask(g: &CallGraph, fx: &Effects) -> Vec<u8> {
    let mut mask = vec![0u8; g.nodes.len()];
    for (bit, _) in EFFECTS {
        let reached = reach(g, |id| fx.base[id] & bit != 0, true);
        for (m, _) in mask.iter_mut().zip(reached).filter(|(_, r)| *r) {
            *m |= bit;
        }
    }
    mask
}

/// Lines of `lexed` on which a *reasoned* suppression for `rule` applies
/// (the cover [`crate::rules::apply_suppressions`] uses).
fn vouched_lines(lexed: &Lexed, rule: &str) -> BTreeSet<usize> {
    lexed
        .suppressions
        .iter()
        .filter(|sup| !sup.reason.is_empty() && sup.rules.iter().any(|r| r == rule))
        .flat_map(|sup| crate::rules::covered_lines(lexed, sup))
        .collect()
}

/// Identifiers bound by a `let` in the token range `range` whose
/// initializer (from `=` to its `;`) calls `split_seed` with arguments that
/// `keep` accepts. `keep` also sees the names bound so far, so bindings
/// chain. Keeping every split gives the file's seed-taint set; keeping
/// splits of a closure parameter gives R002's per-unit seeds.
pub(crate) fn split_seed_bindings(
    lexed: &Lexed,
    range: (usize, usize),
    keep: impl Fn(&[Token], &BTreeSet<String>) -> bool,
) -> BTreeSet<String> {
    let toks = &lexed.tokens;
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
                    derived |= keep(&toks[k + 1..balanced_args_end(lexed, k + 1)], &bound);
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
pub(crate) fn balanced_args_end(lexed: &Lexed, open: usize) -> usize {
    let toks = &lexed.tokens;
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

/// Index of the first `{` in the token range `body` (where a fn's
/// signature ends), or `usize::MAX` when there is none.
pub(crate) fn body_open(toks: &[Token], body: (usize, usize)) -> usize {
    (body.0..body.1.min(toks.len()))
        .find(|&k| toks[k].kind == TokenKind::Op && toks[k].text == "{")
        .unwrap_or(usize::MAX)
}

/// Direct (leaf) effects of the token range `body` in `lexed`: the mask,
/// the first raw-seed line and the first unvouched allocation line.
/// `alloc_vouched` lists the lines a reasoned `lint:allow(R003)` covers;
/// `tainted` is the file's seed-taint set.
fn base_effects(
    lexed: &Lexed,
    body: (usize, usize),
    alloc_vouched: &BTreeSet<usize>,
    tainted: &BTreeSet<String>,
    skip: &[bool],
) -> (u8, Option<usize>, Option<usize>) {
    let toks = &lexed.tokens;
    let mut mask = 0u8;
    let mut raw_seed_line = None;
    let mut alloc_line = None;
    // `Vec` in a signature (`-> Vec<f32>`, `out: &mut Vec<VId>`) sets the
    // alloc *bit* (the mask is about reachable behavior) but is not an
    // allocation *site*: own_alloc only counts tokens past the opening brace.
    let body_open = body_open(toks, body);
    for i in body.0..body.1.min(toks.len()) {
        if skip.get(i).copied().unwrap_or(false) {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        let after_dot =
            i > 0 && toks[i - 1].kind == TokenKind::Op && toks[i - 1].text == ".";
        let calls = matches!(toks.get(i + 1), Some(n) if n.text == "(");
        let bangs = matches!(toks.get(i + 1), Some(n) if n.text == "!");

        if ALLOC_IDENTS.contains(&name) {
            mask |= ALLOC;
            if alloc_line.is_none() && i > body_open && !alloc_vouched.contains(&t.line) {
                alloc_line = Some(t.line);
            }
        }
        if IO_IDENTS.contains(&name) || name == "fs" || (IO_MACROS.contains(&name) && bangs) {
            mask |= IO;
        }
        if LOCK_IDENTS.contains(&name)
            || name.starts_with("Atomic")
            || (LOCK_METHODS.contains(&name) && after_dot && calls)
        {
            mask |= LOCK;
        }
        if (ENTROPY_METHODS.contains(&name) && after_dot && calls)
            || crate::rules::is_entropy_ident(name)
        {
            mask |= ENTROPY;
        }
        if SEED_CTORS.contains(&name) && calls {
            mask |= ENTROPY;
            let end = balanced_args_end(lexed, i + 1);
            let disciplined = (i + 1..end).any(|k| {
                toks[k].kind == TokenKind::Ident
                    && (toks[k].text == "split_seed" || tainted.contains(&toks[k].text))
            });
            if !disciplined && raw_seed_line.is_none() {
                raw_seed_line = Some(t.line);
            }
        }
    }
    (mask, raw_seed_line, alloc_line)
}

/// Runs the inference: direct effects per node.
pub fn infer(set: &FileSet, g: &CallGraph) -> Effects {
    let mut fx = Effects {
        base: vec![0; g.nodes.len()],
        own_raw_seed: vec![None; g.nodes.len()],
        own_alloc: vec![None; g.nodes.len()],
    };
    for file in set.files.values() {
        let alloc_vouched = vouched_lines(&file.lexed, "R003");
        let tainted = split_seed_bindings(&file.lexed, (0, usize::MAX), |_, _| true);
        let ids = g.nodes_in_file(&file.rel_path);
        // A nested fn's tokens belong to the nested fn only.
        for &id in ids {
            let (s, e) = g.nodes[id].body;
            let mut skip = vec![false; file.lexed.tokens.len()];
            for &other in ids {
                if other == id {
                    continue;
                }
                let (os, oe) = g.nodes[other].body;
                if s < os && oe <= e {
                    let end = oe.min(skip.len());
                    for slot in skip.iter_mut().take(end).skip(os) {
                        *slot = true;
                    }
                }
            }
            let (mask, raw_line, alloc_line) =
                base_effects(&file.lexed, (s, e), &alloc_vouched, &tainted, &skip);
            fx.base[id] = mask;
            fx.own_raw_seed[id] = raw_line;
            fx.own_alloc[id] = alloc_line;
        }
    }
    fx
}

/// Markdown effect table for one crate's `pub` fns (name-sorted): the
/// golden surface pinning `gnn-dm-par`'s public API effects.
pub fn effects_table(g: &CallGraph, fx: &Effects, crate_key: &str) -> String {
    let mask = transitive_mask(g, fx);
    let raw = reach(g, |id| fx.own_raw_seed[id].is_some(), true);
    let mut rows: Vec<(String, String, bool)> = g
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| n.crate_key == crate_key && n.is_pub && !n.in_test)
        .map(|(id, n)| (n.name.clone(), mask_names(mask[id]), raw[id]))
        .collect();
    rows.sort();
    rows.dedup();
    let mut out = String::from("| fn | effects | raw-seed |\n|---|---|---|\n");
    for (name, effects, raw) in rows {
        out.push_str(&format!("| `{name}` | {effects} | {} |\n", if raw { "yes" } else { "no" }));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::{CallGraph, FileSet};

    fn analyze(sources: &[(&str, &str)]) -> (FileSet, CallGraph, Effects) {
        let set = FileSet::from_sources(sources);
        let g = CallGraph::build(&set);
        let fx = infer(&set, &g);
        (set, g, fx)
    }

    fn mask_of(g: &CallGraph, fx: &Effects, name: &str) -> u8 {
        let id = g.nodes.iter().position(|n| n.name == name).expect("node");
        transitive_mask(g, fx)[id]
    }

    #[test]
    fn leaf_effects_classify_intrinsics() {
        let (_, g, fx) = analyze(&[(
            "crates/graph/src/lib.rs",
            "pub fn pure_math(x: u32) -> u32 { x + 1 }\n\
             pub fn allocs() -> Vec<u32> { vec![1] }\n\
             pub fn does_io() { let _ = std::fs::read_to_string(\"x\"); }\n\
             pub fn locks(m: &std::sync::Mutex<u32>) { let _ = m.lock(); }\n\
             pub fn draws(rng: &mut StdRng) -> u32 { rng.gen_range(0..9) }\n",
        )]);
        assert_eq!(mask_of(&g, &fx, "pure_math"), 0);
        assert_eq!(mask_names(mask_of(&g, &fx, "pure_math")), "pure");
        assert_eq!(mask_of(&g, &fx, "allocs"), ALLOC);
        assert_ne!(mask_of(&g, &fx, "does_io") & IO, 0);
        assert_ne!(mask_of(&g, &fx, "locks") & LOCK, 0);
        assert_eq!(mask_of(&g, &fx, "draws"), ENTROPY);
    }

    #[test]
    fn effects_propagate_to_fixpoint() {
        let (_, g, fx) = analyze(&[(
            "crates/graph/src/lib.rs",
            "fn leaf() { println!(\"io\"); }\n\
             fn mid() { leaf(); }\n\
             pub fn entry() { mid(); }\n",
        )]);
        assert_ne!(mask_of(&g, &fx, "entry") & IO, 0, "io must flow two hops up");
    }

    #[test]
    fn raw_seed_flag_tracks_split_seed_discipline() {
        let (_, g, fx) = analyze(&[(
            "crates/sampling/src/lib.rs",
            "pub fn disciplined(seed: u64, i: u64) -> StdRng { StdRng::seed_from_u64(gnn_dm_par::split_seed(seed, i)) }\n\
             pub fn derived(seed: u64, i: u64) -> StdRng { let s = gnn_dm_par::split_seed(seed, i); StdRng::seed_from_u64(s) }\n\
             pub fn raw(seed: u64, w: u64) -> StdRng { StdRng::seed_from_u64(seed ^ (w << 32)) }\n\
             pub fn inherits(seed: u64, w: u64) -> StdRng { raw(seed, w) }\n",
        )]);
        let raw = reach(&g, |id| fx.own_raw_seed[id].is_some(), true);
        let raw_of = |name: &str| raw[g.nodes.iter().position(|n| n.name == name).expect("node")];
        assert!(!raw_of("disciplined"));
        assert!(!raw_of("derived"));
        assert!(raw_of("raw"));
        assert!(raw_of("inherits"), "raw-seed flag must propagate to callers");
    }

    #[test]
    fn effect_table_renders_sorted() {
        let (_, g, fx) = analyze(&[(
            "crates/par/src/lib.rs",
            "pub fn b() -> Vec<u32> { vec![] }\npub fn a(x: u32) -> u32 { x }\n",
        )]);
        assert_eq!(
            effects_table(&g, &fx, "par"),
            "| fn | effects | raw-seed |\n|---|---|---|\n| `a` | pure | no |\n| `b` | alloc | no |\n"
        );
    }
}
