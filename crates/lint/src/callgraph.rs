//! The workspace call graph: the substrate of the interprocedural passes.
//!
//! [`FileSet`] retains what the per-file front end already computes — token
//! stream, item list, test-region marks, parallel closures, [`FileCtx`] —
//! for every source file, keyed by workspace-relative path (a `BTreeMap`,
//! so everything downstream is independent of file-discovery order).
//! [`CallGraph::build`] then resolves the calls appearing in each fn body
//! against the fn table.
//!
//! Resolution is deliberately *tight*: a call edge is only drawn when the
//! callee plausibly is a workspace fn — via a `gnn_dm_*` path qualifier, a
//! `use gnn_dm_*::name` import, a `Type::name` qualifier matching an
//! `impl Type` block, a method name declared in some impl/trait of the
//! caller's crate or its referenced crates, or a free fn of the caller's
//! own crate. `Vec::new()`, `std::fs::read`, and friends resolve to
//! nothing, so external calls never pollute the effect inference. Where a
//! name is genuinely ambiguous (several impls declare it) the edge goes to
//! *every* candidate — the downstream rules over-approximate rather than
//! miss.

use crate::items::{parse_items, Item, ItemKind};
use crate::races::{find_par_closures, ParClosure};
use crate::rules::FileCtx;
use crate::tokenizer::{lex, Lexed, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// One analyzed source file, with everything the dataflow passes need.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// Path-derived rule scoping.
    pub ctx: FileCtx,
    /// Token stream + suppression markers.
    pub lexed: Lexed,
    /// Parsed item list.
    pub items: Vec<Item>,
    /// Per-token `#[cfg(test)]` / `#[test]` region marks.
    pub in_test: Vec<bool>,
    /// Closures handed to the par dispatchers (R001, R002, R003).
    pub(crate) closures: Vec<ParClosure>,
}

/// Every analyzed source file, keyed by relative path.
#[derive(Debug, Default)]
pub struct FileSet {
    /// Files in path order.
    pub files: BTreeMap<String, SourceFile>,
    /// `gnn_dm_*` crates each crate's sources reference (sorted, deduped),
    /// used to bound cross-crate method resolution.
    pub refs: BTreeMap<String, Vec<String>>,
}

impl FileSet {
    /// Loads every `.rs` file under `root`'s scan roots. Returns the set
    /// plus `(path, error)` pairs for unreadable files.
    pub fn load(root: &Path) -> (FileSet, Vec<(String, String)>) {
        let mut paths = Vec::new();
        for top in crate::SCAN_ROOTS {
            crate::collect_rs_files(&root.join(top), &mut paths);
        }
        paths.sort();
        let mut read_errors = Vec::new();
        let mut set = FileSet::default();
        for path in paths {
            let rel = crate::relative_path(root, &path);
            match std::fs::read_to_string(&path) {
                Ok(src) => set.insert(&rel, &src),
                Err(e) => read_errors.push((rel, e.to_string())),
            }
        }
        set.finish();
        (set, read_errors)
    }

    /// Builds a set from in-memory `(rel_path, source)` pairs — the entry
    /// point for rule fixtures and property tests. Insertion order is
    /// irrelevant by construction.
    pub fn from_sources(sources: &[(&str, &str)]) -> FileSet {
        let mut set = FileSet::default();
        for (rel, src) in sources {
            set.insert(rel, src);
        }
        set.finish();
        set
    }

    fn insert(&mut self, rel_path: &str, src: &str) {
        let ctx = FileCtx::from_rel_path(rel_path);
        let lexed = lex(src);
        let items = parse_items(&lexed.tokens);
        let in_test = test_region_marks(&lexed.tokens);
        let closures = find_par_closures(&lexed);
        self.files.insert(
            rel_path.to_string(),
            SourceFile { rel_path: rel_path.to_string(), ctx, lexed, items, in_test, closures },
        );
    }

    fn finish(&mut self) {
        for file in self.files.values() {
            let key = file.ctx.layer_key().to_string();
            let refs = self.refs.entry(key.clone()).or_default();
            for t in &file.lexed.tokens {
                if t.kind != TokenKind::Ident {
                    continue;
                }
                if let Some(to) = crate::workspace::gnn_ident_key(&t.text) {
                    if to != key {
                        refs.push(to.to_string());
                    }
                }
            }
        }
        for refs in self.refs.values_mut() {
            refs.sort();
            refs.dedup();
        }
    }
}

/// Marks tokens inside `#[cfg(test)]` / `#[test]` items. The mark covers
/// the attribute through the item's matching close brace (or terminating
/// semicolon for brace-less items).
fn test_region_marks(tokens: &[Token]) -> Vec<bool> {
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

/// One fn declaration in the graph.
#[derive(Debug, PartialEq, Eq)]
pub struct FnNode {
    /// Declared name.
    pub name: String,
    /// Workspace-relative file.
    pub file: String,
    /// Layering-DAG key of the declaring crate.
    pub crate_key: String,
    /// 1-based declaration line.
    pub line: usize,
    /// Declared `pub`.
    pub is_pub: bool,
    /// Inside a `#[cfg(test)]` / `#[test]` region.
    pub in_test: bool,
    /// The innermost enclosing `impl` block's type name, when any.
    pub impl_type: Option<String>,
    /// Declared inside a `trait` block (a signature or default method).
    pub in_trait: bool,
    /// Token range of the declaration (keyword through closing brace).
    pub body: (usize, usize),
}

/// One call site inside a fn body.
#[derive(Debug)]
pub struct CallSite {
    /// Callee name as written.
    pub name: String,
    /// 1-based source line.
    pub line: usize,
    /// Token index of the callee identifier in the file's stream.
    pub tok: usize,
    /// Resolved candidate node ids (empty for external calls).
    pub targets: Vec<usize>,
}

/// The resolved workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Fn nodes, sorted by `(file, line, name)`; the index is the node id.
    pub nodes: Vec<FnNode>,
    /// Resolved callee ids per node.
    pub edges: Vec<BTreeSet<usize>>,
    /// All call sites per node, resolved or not (the race/seed passes need
    /// the unresolved ones too).
    pub calls: Vec<Vec<CallSite>>,
    /// Node ids per file, for token→owner lookups.
    by_file: BTreeMap<String, Vec<usize>>,
}

/// Keywords that look like `ident (` in a token stream but are not calls.
const NON_CALL_WORDS: &[&str] = &[
    "if", "while", "match", "for", "return", "loop", "in", "as", "move", "let", "else", "fn",
    "struct", "enum", "trait", "impl", "where", "pub", "use", "mod", "unsafe", "dyn", "ref",
    "mut", "box", "await", "break", "continue", "crate", "super", "Some", "Ok", "Err", "None",
];

impl CallGraph {
    /// Builds the graph over `set`. Total and deterministic: node order,
    /// edge order and resolution depend only on file contents and paths.
    pub fn build(set: &FileSet) -> CallGraph {
        let mut g = CallGraph::default();
        // Pass 1: collect fn nodes (BTreeMap iteration = path order; items
        // are in source order, so ids are stable).
        for file in set.files.values() {
            let mut ids = Vec::new();
            for item in &file.items {
                if item.kind != ItemKind::Fn {
                    continue;
                }
                let (impl_type, in_trait) = enclosing_owner(&file.items, item);
                let in_test = file
                    .in_test
                    .get(item.tok_start)
                    .copied()
                    .unwrap_or(false);
                ids.push(g.nodes.len());
                g.nodes.push(FnNode {
                    name: item.name.clone(),
                    file: file.rel_path.clone(),
                    crate_key: file.ctx.layer_key().to_string(),
                    line: item.line,
                    is_pub: item.is_pub,
                    in_test,
                    impl_type,
                    in_trait,
                    body: (item.tok_start, item.tok_end),
                });
            }
            g.by_file.insert(file.rel_path.clone(), ids);
        }
        g.edges = vec![BTreeSet::new(); g.nodes.len()];
        g.calls = g.nodes.iter().map(|_| Vec::new()).collect();

        // Name index: (crate, name) → node ids.
        let mut index: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (id, n) in g.nodes.iter().enumerate() {
            index.entry((n.crate_key.as_str(), n.name.as_str())).or_default().push(id);
        }

        // Pass 2: extract and resolve calls per file.
        for file in set.files.values() {
            let owners = token_owners(&g, file);
            let imports = use_imports(&file.items);
            // Let-bound names per fn: a call through one is a closure /
            // fn-pointer invocation shadowing any same-named fn, so it
            // resolves to nothing rather than to a spurious target.
            let mut shadowed: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
            for (i, t) in file.lexed.tokens.iter().enumerate() {
                if t.kind != TokenKind::Ident || NON_CALL_WORDS.contains(&t.text.as_str()) {
                    continue;
                }
                if !matches!(file.lexed.tokens.get(i + 1), Some(n) if n.kind == TokenKind::Op && n.text == "(")
                {
                    continue;
                }
                let Some(owner) = owners.get(i).copied().flatten() else { continue };
                // A declaration's own name is not a call.
                if g.nodes[owner].body.0 + 1 == i
                    || matches!(file.lexed.tokens.get(i.wrapping_sub(1)), Some(p) if i > 0 && p.text == "fn")
                {
                    continue;
                }
                let locals = shadowed.entry(owner).or_insert_with(|| {
                    local_bindings(&file.lexed, g.nodes[owner].body)
                });
                let (_, is_method) = qualifier(file, i);
                if !is_method && locals.contains(&t.text) {
                    continue;
                }
                let mut targets =
                    resolve(&g, &index, set, file, &imports, i, &t.text);
                // `#[cfg(test)]` items are invisible to non-test code; an
                // apparent edge from library code into a test fn is always
                // a name collision, never a real call.
                if !g.nodes[owner].in_test {
                    targets.retain(|&t| !g.nodes[t].in_test);
                }
                g.calls[owner].push(CallSite {
                    name: t.text.clone(),
                    line: t.line,
                    tok: i,
                    targets: targets.clone(),
                });
                for target in targets {
                    if target != owner {
                        g.edges[owner].insert(target);
                    }
                }
            }
        }
        g
    }

    /// Node ids declared in `rel_path`, in source order.
    pub fn nodes_in_file(&self, rel_path: &str) -> &[usize] {
        self.by_file.get(rel_path).map_or(&[], |v| v.as_slice())
    }

    /// The innermost fn whose body span contains token `tok` of `rel_path`.
    pub fn owner_of(&self, rel_path: &str, tok: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for &id in self.nodes_in_file(rel_path) {
            let (s, e) = self.nodes[id].body;
            if s <= tok && tok < e {
                // Items are outer-first, so a later containing fn is inner.
                best = Some(id);
            }
        }
        best
    }

    /// Call sites of `rel_path` whose callee token lies in `span` (a
    /// closure body), taken from the fn that owns the span's first token.
    pub fn calls_in(
        &self,
        rel_path: &str,
        span: (usize, usize),
    ) -> impl Iterator<Item = &CallSite> {
        let owner = self.owner_of(rel_path, span.0);
        owner
            .into_iter()
            .flat_map(move |id| self.calls[id].iter())
            .filter(move |site| span.0 <= site.tok && site.tok < span.1)
    }
}

/// Names bound locally inside the body range: `let` patterns, `for`
/// patterns, and nested-closure parameters. Over-approximate (pattern
/// constructors like `Some` land in the set too): a call through one of
/// them is a local closure, not a fn.
fn local_bindings(lexed: &Lexed, body: (usize, usize)) -> BTreeSet<String> {
    let toks = &lexed.tokens;
    let mut locals = BTreeSet::new();
    let mut i = body.0;
    while i < body.1.min(toks.len()) {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokenKind::Ident, "let") => {
                let mut j = i + 1;
                while j < body.1
                    && !(toks[j].kind == TokenKind::Op
                        && (toks[j].text == "=" || toks[j].text == ";"))
                {
                    if toks[j].kind == TokenKind::Ident && toks[j].text != "mut" {
                        locals.insert(toks[j].text.clone());
                    }
                    j += 1;
                }
                i = j;
            }
            (TokenKind::Ident, "for") => {
                let mut j = i + 1;
                while j < body.1 && !(toks[j].kind == TokenKind::Ident && toks[j].text == "in") {
                    if toks[j].kind == TokenKind::Ident {
                        locals.insert(toks[j].text.clone());
                    }
                    j += 1;
                }
                i = j;
            }
            (TokenKind::Op, "|") => {
                // Nested closure params up to the closing `|` (same-line
                // heuristic keeps a stray bit-or from swallowing the body).
                let open_line = t.line;
                let mut j = i + 1;
                while j < body.1
                    && toks[j].line == open_line
                    && !(toks[j].kind == TokenKind::Op && toks[j].text == "|")
                {
                    if toks[j].kind == TokenKind::Ident && toks[j].text != "mut" {
                        locals.insert(toks[j].text.clone());
                    }
                    j += 1;
                }
                i = j;
            }
            _ => {}
        }
        i += 1;
    }
    locals
}

/// The innermost enclosing `impl` type / `trait`-ness for a fn item.
fn enclosing_owner(items: &[Item], it: &Item) -> (Option<String>, bool) {
    let mut impl_type: Option<(usize, String)> = None;
    let mut in_trait = false;
    for other in items {
        let contains = other.tok_start < it.tok_start && it.tok_end <= other.tok_end;
        if !contains {
            continue;
        }
        match other.kind {
            ItemKind::Impl => {
                let span = other.tok_end - other.tok_start;
                if impl_type.as_ref().is_none_or(|(s, _)| span < *s) {
                    impl_type = Some((span, other.name.clone()));
                }
            }
            ItemKind::Trait => in_trait = true,
            _ => {}
        }
    }
    (impl_type.map(|(_, n)| n), in_trait)
}

/// Innermost-fn owner per token index (None outside any fn body).
fn token_owners(g: &CallGraph, file: &SourceFile) -> Vec<Option<usize>> {
    let mut owners = vec![None; file.lexed.tokens.len()];
    // Items are emitted outer-first, so assigning in order leaves the
    // innermost fn as the final owner of its tokens.
    for &id in g.nodes_in_file(&file.rel_path) {
        let (s, e) = g.nodes[id].body;
        let end = e.min(owners.len());
        for slot in owners.iter_mut().take(end).skip(s) {
            *slot = Some(id);
        }
    }
    owners
}

/// `use gnn_dm_X::…::name` imports of a file: `name` → crate key `X`.
/// Grouped imports (`use gnn_dm_par::{a, b}`) keep only the prefix in the
/// item name, so they contribute nothing here; group members still resolve
/// through the same-crate / referenced-crate fallbacks.
fn use_imports(items: &[Item]) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    for it in items {
        if it.kind != ItemKind::Use {
            continue;
        }
        let Some(rest) = it.name.strip_prefix("gnn_dm_") else { continue };
        let mut segs = rest.split("::");
        let Some(crate_key) = segs.next() else { continue };
        let Some(last) = segs.last() else { continue };
        if !last.is_empty() && last != "*" {
            map.insert(last.to_string(), crate_key.to_string());
        }
    }
    map
}

/// Path qualifier of the call at token `i`: the `::`-separated segments
/// immediately before it, innermost last, plus whether it is a `.method()`
/// call.
fn qualifier(file: &SourceFile, i: usize) -> (Vec<String>, bool) {
    let toks = &file.lexed.tokens;
    if i > 0 && toks[i - 1].kind == TokenKind::Op && toks[i - 1].text == "." {
        return (Vec::new(), true);
    }
    let mut segs = Vec::new();
    let mut k = i;
    while k >= 2
        && toks[k - 1].kind == TokenKind::Op
        && toks[k - 1].text == "::"
        && toks[k - 2].kind == TokenKind::Ident
    {
        segs.push(toks[k - 2].text.clone());
        k -= 2;
    }
    segs.reverse();
    (segs, false)
}

/// Resolves one call to candidate node ids. Empty = external.
fn resolve(
    g: &CallGraph,
    index: &BTreeMap<(&str, &str), Vec<usize>>,
    set: &FileSet,
    file: &SourceFile,
    imports: &BTreeMap<String, String>,
    i: usize,
    name: &str,
) -> Vec<usize> {
    let caller_crate = file.ctx.layer_key();
    let lookup =
        |crate_key: &str| -> Vec<usize> { index.get(&(crate_key, name)).cloned().unwrap_or_default() };
    let (segs, is_method) = qualifier(file, i);

    if is_method {
        // `.name(…)`: any impl/trait method of this crate or the crates it
        // references. Free fns are excluded — they cannot be method calls.
        let mut crates = vec![caller_crate.to_string()];
        if let Some(refs) = set.refs.get(caller_crate) {
            crates.extend(refs.iter().cloned());
        }
        let mut out = Vec::new();
        for ck in &crates {
            for &id in &lookup(ck) {
                let n = &g.nodes[id];
                if n.impl_type.is_some() || n.in_trait {
                    out.push(id);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        return out;
    }

    // Explicit crate path: `gnn_dm_par::split_seed(…)`,
    // `gnn_dm_sampling::selection::BatchSelection::select(…)`.
    if let Some(crate_seg) = segs.iter().find_map(|s| s.strip_prefix("gnn_dm_")) {
        let type_seg = segs.last().filter(|s| starts_upper(s) && !s.starts_with("gnn_dm_"));
        return filter_by_owner(g, &lookup(crate_seg), type_seg.map(String::as_str));
    }

    match segs.last() {
        // `Type::name(…)` / `Self::name(…)`: associated fns. `Self` matches
        // any impl of the caller's crate (the file's impls are among them).
        Some(t) if starts_upper(t) || t == "Self" => {
            let type_filter = if t == "Self" { None } else { Some(t.as_str()) };
            let search_crate = if t == "Self" {
                caller_crate.to_string()
            } else {
                imports.get(t.as_str()).cloned().unwrap_or_else(|| caller_crate.to_string())
            };
            let mut out = filter_by_owner(g, &lookup(&search_crate), type_filter);
            if out.is_empty() && type_filter.is_some() {
                // The type may be imported via a grouped `use`: search the
                // referenced crates for a matching impl.
                if let Some(refs) = set.refs.get(caller_crate) {
                    for ck in refs {
                        out.extend(filter_by_owner(g, &lookup(ck), type_filter));
                    }
                }
                out.sort_unstable();
                out.dedup();
            }
            out
        }
        // `self::name(…)` or a module path: same-crate free fns.
        Some(_) => free_fns(g, &lookup(caller_crate)),
        // Bare `name(…)`: a `use`-imported free fn, else same-crate free fn.
        None => {
            if let Some(ck) = imports.get(name) {
                let found = free_fns(g, &lookup(ck));
                if !found.is_empty() {
                    return found;
                }
            }
            free_fns(g, &lookup(caller_crate))
        }
    }
}

fn starts_upper(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
}

/// Keeps associated fns of `impl type_name` (or, with `None`, any impl).
fn filter_by_owner(g: &CallGraph, ids: &[usize], type_name: Option<&str>) -> Vec<usize> {
    ids.iter()
        .copied()
        .filter(|&id| match (type_name, &g.nodes[id].impl_type) {
            (Some(t), Some(it)) => it == t,
            (Some(_), None) => false,
            // No type filter: free fns and any associated fn both admissible
            // (module paths and `Self::` both land here).
            (None, _) => true,
        })
        .collect()
}

/// Keeps free fns (not in an impl, not in a trait).
fn free_fns(g: &CallGraph, ids: &[usize]) -> Vec<usize> {
    ids.iter()
        .copied()
        .filter(|&id| g.nodes[id].impl_type.is_none() && !g.nodes[id].in_trait)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini() -> FileSet {
        FileSet::from_sources(&[
            (
                "crates/graph/src/lib.rs",
                "pub fn leaf() -> u32 { 1 }\n\
                 pub fn mid() -> u32 { leaf() + leaf() }\n\
                 pub struct G;\n\
                 impl G { pub fn assoc(&self) -> u32 { mid() } }\n",
            ),
            (
                "crates/sampling/src/lib.rs",
                "use gnn_dm_graph::mid;\n\
                 pub fn top(g: &gnn_dm_graph::G) -> u32 { mid() + g.assoc() + gnn_dm_graph::leaf() }\n\
                 fn local() -> u32 { top(&gnn_dm_graph::G) }\n",
            ),
        ])
    }

    fn id_of<'g>(g: &'g CallGraph, name: &str) -> usize {
        g.nodes.iter().position(|n| n.name == name).unwrap_or_else(|| panic!("{name} missing"))
    }

    #[test]
    fn resolves_free_assoc_method_and_imported_calls() {
        let set = mini();
        let g = CallGraph::build(&set);
        let leaf = id_of(&g, "leaf");
        let mid = id_of(&g, "mid");
        let assoc = id_of(&g, "assoc");
        let top = id_of(&g, "top");
        let local = id_of(&g, "local");
        assert!(g.edges[mid].contains(&leaf), "same-crate free call");
        assert!(g.edges[assoc].contains(&mid), "assoc fn calls free fn");
        assert!(g.edges[top].contains(&mid), "use-imported call");
        assert!(g.edges[top].contains(&assoc), "cross-crate method call");
        assert!(g.edges[top].contains(&leaf), "fully qualified call");
        assert!(g.edges[local].contains(&top), "bare same-crate call");
        assert!(g.edges[leaf].is_empty());
    }

    #[test]
    fn external_calls_resolve_to_nothing() {
        let set = FileSet::from_sources(&[(
            "crates/graph/src/lib.rs",
            "pub fn f() -> Vec<u32> { let mut v = Vec::new(); v.push(1); std::fs::read(\"x\").ok(); v }\n",
        )]);
        let g = CallGraph::build(&set);
        let f = id_of(&g, "f");
        assert!(g.edges[f].is_empty(), "Vec::new/push/read are external: {:?}", g.edges[f]);
    }

    #[test]
    fn graph_is_independent_of_insertion_order() {
        let a = [
            ("crates/graph/src/a.rs", "pub fn one() {}\n"),
            ("crates/graph/src/b.rs", "pub fn two() { one(); }\n"),
        ];
        let b = [a[1], a[0]];
        let ga = CallGraph::build(&FileSet::from_sources(&a));
        let gb = CallGraph::build(&FileSet::from_sources(&b));
        assert_eq!(ga.nodes, gb.nodes);
        assert_eq!(ga.edges, gb.edges);
    }
}
