//! A lightweight *item* parser over the token stream.
//!
//! The call graph ([`crate::callgraph`]) needs to know **what a file
//! declares** — functions, the traits and impl blocks that own methods, and
//! `use` imports, with their spans — but not full Rust semantics. This
//! parser recovers exactly that from [`crate::tokenizer`]'s output. Like
//! the tokenizer it is *total*: any byte sequence produces a (possibly
//! empty) item list, never a panic, so it is safe to run on arbitrary
//! files.
//!
//! Heuristics are deliberately shallow and err towards silence: a keyword
//! is only treated as an item head when it sits in item position (after
//! `;`, a brace, an attribute, or declaration modifiers), which filters out
//! `-> impl Trait`, `fn(u32)` pointer types, `*const T` and friends.

use crate::tokenizer::{Token, TokenKind};

/// What kind of declaration an [`Item`] is: the four the call graph reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn` (free function or method).
    Fn,
    /// `trait`.
    Trait,
    /// `impl` block (name = the implemented-for type).
    Impl,
    /// `use` import (name = the full path, `::`-joined).
    Use,
}

/// One declared item with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    /// Declaration kind.
    pub kind: ItemKind,
    /// Declared name. For [`ItemKind::Use`] this is the imported path
    /// (e.g. `gnn_dm_graph::csr::Csr`); for [`ItemKind::Impl`] the type
    /// the block implements for.
    pub name: String,
    /// 1-based line of the item keyword.
    pub line: usize,
    /// Index of the item keyword in the token stream.
    pub tok_start: usize,
    /// Index one past the item's closing `}` / terminating `;` in the token
    /// stream (`tok_start + 1` if the file ends mid-item). The dataflow
    /// passes slice `tokens[tok_start..tok_end]` to scan a fn body.
    pub tok_end: usize,
}

/// Declaration modifiers that may precede an item keyword.
const MODIFIERS: &[&str] = &["pub", "unsafe", "async", "extern", "default", "const"];

/// Maps an item keyword to its [`ItemKind`]; `None` for every other word.
fn keyword_kind(word: &str) -> Option<ItemKind> {
    Some(match word {
        "fn" => ItemKind::Fn,
        "trait" => ItemKind::Trait,
        "impl" => ItemKind::Impl,
        "use" => ItemKind::Use,
        _ => return None,
    })
}

/// Parses the item list out of a lexed token stream. Total: any input
/// yields a result, unrecognized constructs are skipped.
pub fn parse_items(tokens: &[Token]) -> Vec<Item> {
    let mut items: Vec<Item> = Vec::new();
    // Indices into `items` for brace-delimited items still awaiting their
    // closing brace, with the depth their body opened at.
    let mut open: Vec<(usize, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.kind == TokenKind::Op {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    while let Some(&(idx, d)) = open.last() {
                        if d > depth {
                            items[idx].tok_end = i + 1;
                            open.pop();
                        } else {
                            break;
                        }
                    }
                }
                _ => {}
            }
            i += 1;
            continue;
        }
        let kind = if t.kind == TokenKind::Ident { keyword_kind(&t.text) } else { None };
        let Some(kind) = kind else {
            i += 1;
            continue;
        };
        if !in_item_position(tokens, i) {
            i += 1;
            continue;
        }
        let (name, after_name) = match kind {
            ItemKind::Use => use_path(tokens, i + 1),
            ItemKind::Impl => impl_name(tokens, i + 1),
            _ => plain_name(tokens, i + 1),
        };
        let Some(name) = name else {
            // Nameless construct (`fn(u32)` pointer type, `impl Trait` in
            // type position that slipped the position filter, …): skip.
            i += 1;
            continue;
        };
        // Walk from the name to the item's body `{` or terminator `;`,
        // skipping balanced (), <> and [] groups (params, generics, where
        // clauses can contain braces only inside nested items, which the
        // outer scan handles anyway).
        let mut j = after_name;
        let mut ended_at: Option<usize> = None;
        let mut body = false;
        while j < tokens.len() {
            let tj = &tokens[j];
            if tj.kind == TokenKind::Op {
                match tj.text.as_str() {
                    ";" => {
                        ended_at = Some(j);
                        break;
                    }
                    "{" => {
                        body = true;
                        break;
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        let idx = items.len();
        items.push(Item {
            kind,
            name,
            line: t.line,
            tok_start: i,
            tok_end: ended_at.map_or(i + 1, |j| j + 1),
        });
        if body {
            // Body opens at `j`; the `{` itself is processed on the next
            // loop iteration, so register with the depth it will create.
            open.push((idx, depth + 1));
            i = j;
        } else {
            i = j.max(i + 1);
        }
    }
    items
}

/// True when the keyword at `tokens[i]` sits in item position: walking back
/// through declaration modifiers (and `pub(crate)`-style groups), the
/// preceding token is a statement boundary (`;`, `{`, `}`, an attribute's
/// `]`), or the file start.
fn in_item_position(tokens: &[Token], i: usize) -> bool {
    let mut k = i;
    loop {
        if k == 0 {
            return true;
        }
        let p = &tokens[k - 1];
        match p.kind {
            TokenKind::Ident if MODIFIERS.contains(&p.text.as_str()) => k -= 1,
            // `extern "C" fn`: the ABI string rides between modifiers.
            TokenKind::Str => k -= 1,
            TokenKind::Op if p.text == ")" => {
                // Possibly a `pub(crate)` / `pub(in path)` group: walk to
                // its `(` and require `pub` before it.
                let mut d = 1usize;
                let mut m = k - 1;
                while m > 0 && d > 0 {
                    m -= 1;
                    match (tokens[m].kind, tokens[m].text.as_str()) {
                        (TokenKind::Op, ")") => d += 1,
                        (TokenKind::Op, "(") => d -= 1,
                        _ => {}
                    }
                }
                if d == 0
                    && m > 0
                    && tokens[m - 1].kind == TokenKind::Ident
                    && tokens[m - 1].text == "pub"
                {
                    k = m; // continue walking back from before the `(`
                } else {
                    return false;
                }
            }
            TokenKind::Op if matches!(p.text.as_str(), ";" | "{" | "}" | "]") => return true,
            _ => return false,
        }
    }
}

/// Name of a plain item: the first identifier after the keyword.
/// Returns `(name, index after the name)`.
fn plain_name(tokens: &[Token], from: usize) -> (Option<String>, usize) {
    match tokens.get(from) {
        Some(t) if t.kind == TokenKind::Ident => (Some(t.text.clone()), from + 1),
        _ => (None, from),
    }
}

/// Path of a `use` item: identifiers and `::` joined up to `;`, `{`
/// (grouped import — the common prefix is the interesting part), or `as`.
fn use_path(tokens: &[Token], from: usize) -> (Option<String>, usize) {
    let mut path = String::new();
    let mut j = from;
    while let Some(t) = tokens.get(j) {
        match (t.kind, t.text.as_str()) {
            (TokenKind::Op, ";" | "{") => break,
            (TokenKind::Ident, "as") => break,
            (TokenKind::Ident, id) => path.push_str(id),
            (TokenKind::Op, "::") => path.push_str("::"),
            (TokenKind::Op, "*") => path.push('*'),
            _ => break,
        }
        j += 1;
    }
    if path.is_empty() {
        (None, j)
    } else {
        (Some(path), j)
    }
}

/// Name of an `impl` block: the last path segment of the implemented-for
/// type — after `for` when present (`impl Trait for Type`), otherwise the
/// head type (`impl Type`). Generics are skipped.
fn impl_name(tokens: &[Token], from: usize) -> (Option<String>, usize) {
    let mut j = from;
    // Skip the generic parameter list `<…>` if present.
    if matches!(tokens.get(j), Some(t) if t.kind == TokenKind::Op && t.text == "<") {
        let mut d = 1usize;
        j += 1;
        while let Some(t) = tokens.get(j) {
            if t.kind == TokenKind::Op {
                match t.text.as_str() {
                    "<" => d += 1,
                    ">" => {
                        d -= 1;
                        if d == 0 {
                            j += 1;
                            break;
                        }
                    }
                    ">>" => {
                        d = d.saturating_sub(2);
                        if d == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            j += 1;
        }
    }
    // Collect idents up to `{` / `where`, remembering the segment after
    // `for` when one appears. Nested `<…>` groups (`Holder<T>`) are
    // skipped so type arguments don't shadow the type name.
    let mut last: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    while let Some(t) = tokens.get(j) {
        match (t.kind, t.text.as_str()) {
            (TokenKind::Op, "{") | (TokenKind::Op, ";") => break,
            (TokenKind::Op, "<") => {
                let mut d = 1usize;
                j += 1;
                while let Some(g) = tokens.get(j) {
                    if g.kind == TokenKind::Op {
                        match g.text.as_str() {
                            "<" => d += 1,
                            ">" => d -= 1,
                            ">>" => d = d.saturating_sub(2),
                            _ => {}
                        }
                    }
                    if d == 0 {
                        break;
                    }
                    j += 1;
                }
            }
            (TokenKind::Ident, "where") => break,
            (TokenKind::Ident, "for") => saw_for = true,
            (TokenKind::Ident, id) => {
                if saw_for {
                    after_for = Some(id.to_string());
                } else {
                    last = Some(id.to_string());
                }
            }
            _ => {}
        }
        j += 1;
    }
    (after_for.or(last), j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::lex;

    fn items_of(src: &str) -> Vec<Item> {
        parse_items(&lex(src))
    }

    #[test]
    fn recognizes_the_four_item_kinds() {
        let src = "\
pub fn f() {}\n\
struct S { x: u32 }\n\
pub enum E { A, B }\n\
trait T { fn m(&self); }\n\
impl T for S { fn m(&self) {} }\n\
mod inner { pub use std::mem; }\n\
use gnn_dm_graph::csr::Csr;\n\
pub const N: usize = 3;\n\
static G: u8 = 0;\n\
type Alias = u32;\n";
        let its = items_of(src);
        let kinds: Vec<(ItemKind, &str)> = its.iter().map(|i| (i.kind, i.name.as_str())).collect();
        assert_eq!(
            kinds,
            vec![
                (ItemKind::Fn, "f"),
                (ItemKind::Trait, "T"),
                (ItemKind::Fn, "m"), // trait method
                (ItemKind::Impl, "S"),
                (ItemKind::Fn, "m"), // impl method
                (ItemKind::Use, "std::mem"),
                (ItemKind::Use, "gnn_dm_graph::csr::Csr"),
            ]
        );
        assert_eq!(its[0].line, 1);
    }

    #[test]
    fn spans_cover_bodies() {
        let src = "pub fn long() {\n    let x = 1;\n    x;\n}\nmod m {\n    fn inner() {}\n}\n";
        let toks = lex(src);
        let its = parse_items(&toks);
        assert_eq!(its[0].name, "long");
        assert_eq!(toks[its[0].tok_end - 1].line, 4, "span ends at the closing brace");
        assert_eq!((its[1].name.as_str(), its[1].line), ("inner", 6));
        assert_eq!(toks[its[1].tok_end - 1].line, 6);
    }

    #[test]
    fn type_positions_are_not_items() {
        // `fn` pointer type, `-> impl Trait`, `*const T`, `&dyn Fn` — none
        // of these declare an item beyond the outer function.
        let src = "pub fn f(cb: fn(u32) -> u32, p: *const u8) -> impl Iterator<Item = u32> { (0..3).map(move |x| cb(x)) }\n";
        let its = items_of(src);
        assert_eq!(its.len(), 1);
        assert_eq!(its[0].name, "f");
    }

    #[test]
    fn const_fn_is_a_fn() {
        let its = items_of("pub const fn cf() -> u32 { 1 }\nconst K: u32 = 2;\n");
        assert_eq!(its.len(), 1);
        assert_eq!(its[0].kind, ItemKind::Fn);
        assert_eq!(its[0].name, "cf");
    }

    #[test]
    fn impl_names_use_the_implemented_type() {
        let its = items_of(
            "impl Timeline {}\nimpl fmt::Display for Timeline {}\nimpl<T: Clone> Holder<T> {}\n",
        );
        assert_eq!(its[0].name, "Timeline");
        assert_eq!(its[1].name, "Timeline");
        assert_eq!(its[2].name, "Holder");
    }

    #[test]
    fn use_groups_and_renames_keep_the_prefix() {
        let its = items_of("use gnn_dm_par::{par_map_collect, split_seed};\nuse std::fmt::Write as _;\n");
        assert_eq!(its[0].name, "gnn_dm_par::");
        assert_eq!(its[1].name, "std::fmt::Write");
    }

    #[test]
    fn total_on_garbage_input() {
        for src in [
            "", "}}}", "{{{", "fn", "pub", "use ;;", "impl<<", "struct 1.5", "€🦀 fn ü() {}",
            "fn f( { ) }", "const", "type =",
        ] {
            let _ = items_of(src); // must not panic
        }
        // A non-ASCII identifier still parses as a name.
        let its = items_of("fn übung() {}");
        assert_eq!(its[0].name, "übung");
    }
}
