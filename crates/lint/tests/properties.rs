//! Property-based tests of the lint front end: the tokenizer and the item
//! parser are *total* — any byte sequence, valid Rust or not, lexes and
//! parses without panicking, deterministically, with sane line numbers.
//!
//! The linter runs over every workspace file on every `cargo test`, so a
//! panic on a weird-but-legal source (multibyte idents, unterminated
//! strings mid-edit, stray carriage returns) would take the whole tier-1
//! gate down with it.

use gnn_dm_lint::callgraph::{CallGraph, FileSet};
use gnn_dm_lint::effects::{infer, reach, transitive_mask};
use gnn_dm_lint::items::parse_items;
use gnn_dm_lint::tokenizer::lex;
use proptest::prelude::*;

/// Rust-ish source fragments, including the constructs the tokenizer has
/// special cases for: comments, suppressions, strings, raw strings, chars,
/// lifetimes, non-ASCII text, and unterminated delimiters.
const FRAGMENTS: &[&str] = &[
    "fn f() {",
    "}",
    "pub struct S;",
    "// lint:allow(R003) the row is the closure's return value",
    "// lint:allow(A002)",
    "/// doc about lint:allow(RULE) syntax",
    "let x = y.unwrap();",
    "\"string with // not a comment\"",
    "r#\"raw \"quoted\" string\"#",
    "'c'",
    "'static",
    "/* block",
    "*/",
    "enum E { A, B }",
    "impl<T: Clone> Holder<T> {",
    "0xFF_u64 as u32",
    "1.5e-3",
    "use gnn_dm_par::scope;",
    "グラフ // 日本語のコメント",
    "émoji_😀_ident",
    "b'\\xff'",
    "\"unterminated",
    "\\",
    "#",
    // Raw-string torture: multi-hash delimiters, block-comment openers as
    // string *content*, and incomplete prefixes that must not be mistaken
    // for raw-string openers (regressions for the `r#`-swallows-the-file
    // tokenizer bug).
    "r##\"a \"# b\"##",
    "r###\"ab\"## c\"###",
    "r#\"has /* nested /* cm */ inside\"#",
    "br#\"bytes \" here\"#",
    "cr#\"c-string\"#",
    "r#",
    "r#1",
    "br##",
    "r#\"unterminated raw",
];

/// Character pool for raw-string contents: quotes, hashes, comment openers
/// and closers — everything the lexer has special cases for.
const RAW_POOL: &[char] =
    &['a', 'b', 'z', ' ', '"', '#', '/', '*', '!', '(', ')', '\n', '\\'];

/// Structured-ish sources: random fragment sequences with mixed separators.
fn arb_source() -> impl Strategy<Value = String> {
    proptest::collection::vec((0usize..FRAGMENTS.len(), 0usize..3), 0..40).prop_map(|picks| {
        let mut src = String::new();
        for (idx, sep) in picks {
            src.push_str(FRAGMENTS[idx]);
            src.push_str(match sep {
                0 => "\n",
                1 => " ",
                _ => "\r\n",
            });
        }
        src
    })
}

/// Adversarial sources: arbitrary bytes forced into UTF-8 (replacement
/// characters included), so multibyte boundaries land everywhere.
fn arb_byte_source() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..=255u8, 0..256)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// Shared invariant check: lexing and item parsing are total, repeatable,
/// and report 1-based line numbers that never exceed the line count and
/// never decrease token-to-token.
fn check_front_end_total(src: &str) {
    let lexed = lex(src);
    let num_lines = src.split('\n').count();
    let mut prev_line = 1;
    for t in &lexed.tokens {
        prop_assert!(t.line >= 1, "line numbers are 1-based");
        prop_assert!(
            t.line <= num_lines,
            "token line {} beyond {} source lines",
            t.line,
            num_lines
        );
        prop_assert!(t.line >= prev_line, "token lines must be nondecreasing");
        prev_line = t.line;
    }
    for s in &lexed.suppressions {
        prop_assert!(s.line >= 1 && s.line <= num_lines);
    }

    // Determinism: the same source lexes to the same stream.
    let again = lex(src);
    prop_assert_eq!(&lexed.tokens, &again.tokens);
    prop_assert_eq!(
        format!("{:?}", lexed.suppressions),
        format!("{:?}", again.suppressions)
    );

    // The item parser is total over any token stream and keeps spans sane.
    let items = parse_items(&lexed.tokens);
    for it in &items {
        prop_assert!(it.line >= 1 && it.line <= num_lines);
        prop_assert!(it.tok_start < it.tok_end && it.tok_end <= lexed.tokens.len());
    }
    prop_assert_eq!(format!("{:?}", items), format!("{:?}", parse_items(&again.tokens)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn front_end_total_on_rust_ish_sources(src in arb_source()) {
        check_front_end_total(&src);
    }

    #[test]
    fn front_end_total_on_arbitrary_bytes(src in arb_byte_source()) {
        check_front_end_total(&src);
    }

    /// Any content that cannot contain the closing delimiter, wrapped in an
    /// `r##"…"##` literal, lexes to exactly one `Str` token — nothing inside
    /// (quotes, `//`, `/*`, `lint:allow`) may leak tokens or suppressions —
    /// and code after the literal still lexes.
    #[test]
    fn raw_strings_with_hashes_are_opaque(picks in proptest::collection::vec(0usize..RAW_POOL.len(), 0..40)) {
        let content: String = picks.iter().map(|&i| RAW_POOL[i]).collect();
        let content = content.replace("\"##", "'");
        let src = format!("let s = r##\"{content}\"##; tail");
        let lexed = lex(&src);
        prop_assert!(lexed.suppressions.is_empty());
        let texts: Vec<&str> = lexed.tokens.iter().map(|t| t.text.as_str()).collect();
        prop_assert_eq!(texts, vec!["let", "s", "=", "", ";", "tail"]);
    }
}

// ---------------------------------------------------------------------------
// Interprocedural layer: the call graph and effect inference are total over
// arbitrary sources, deterministic, and independent of file order.
// ---------------------------------------------------------------------------

/// Function-name pool for generated mini-workspaces. Includes names that
/// collide with witnesses (`lock` is a *method* witness only, so a free fn
/// named `lock` must not confuse the passes).
const FN_POOL: &[&str] = &["alpha", "beta", "gamma", "delta", "lock", "unwrap_all"];

/// Files generated workspaces spread their fns across — two crates plus a
/// test tree, so cross-crate and test-visibility rules are exercised.
const FILE_POOL: &[&str] = &[
    "crates/graph/src/gen_a.rs",
    "crates/graph/src/gen_b.rs",
    "crates/sampling/src/gen_c.rs",
    "crates/graph/tests/gen_t.rs",
];

/// One generated fn: (file, pub?, panics?, callee picks from FN_POOL).
type GenFn = (usize, usize, usize, Vec<usize>);

fn arb_mini_workspace() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec(
        (0usize..FILE_POOL.len(), 0usize..2, 0usize..2, proptest::collection::vec(0usize..FN_POOL.len(), 0..3)),
        0..FN_POOL.len(),
    )
    .prop_map(|fns: Vec<GenFn>| {
        let mut files: Vec<(String, String)> =
            FILE_POOL.iter().map(|p| (p.to_string(), String::new())).collect();
        for (i, (file, is_pub, panics, callees)) in fns.iter().enumerate() {
            let src = &mut files[*file].1;
            let vis = if *is_pub == 1 { "pub " } else { "" };
            src.push_str(&format!("{vis}fn {}() -> u32 {{\n", FN_POOL[i]));
            if *panics == 1 {
                src.push_str("    let v: Option<u32> = None;\n    v.unwrap();\n");
            }
            for c in callees {
                src.push_str(&format!("    {}();\n", FN_POOL[*c]));
            }
            src.push_str("    0\n}\n");
        }
        files
    })
}

/// Deterministic permutation of `files` driven by generated swap indices.
fn permute(files: &[(String, String)], swaps: &[usize]) -> Vec<(String, String)> {
    let mut out = files.to_vec();
    for (i, s) in swaps.iter().enumerate() {
        if !out.is_empty() {
            let (a, b) = (i % out.len(), s % out.len());
            out.swap(a, b);
        }
    }
    out
}

fn build(files: &[(String, String)]) -> (FileSet, CallGraph) {
    let borrowed: Vec<(&str, &str)> =
        files.iter().map(|(p, s)| (p.as_str(), s.as_str())).collect();
    let set = FileSet::from_sources(&borrowed);
    let graph = CallGraph::build(&set);
    (set, graph)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The graph builder and effect inference never panic, even on sources
    /// that are not valid Rust, and every edge/call target is in bounds.
    #[test]
    fn call_graph_total_on_arbitrary_sources(src in arb_source(), src2 in arb_byte_source()) {
        let files = vec![
            ("crates/graph/src/gen_a.rs".to_string(), src),
            ("crates/sampling/src/gen_c.rs".to_string(), src2),
        ];
        let (set, graph) = build(&files);
        let n = graph.nodes.len();
        for targets in &graph.edges {
            prop_assert!(targets.iter().all(|&t| t < n));
        }
        for sites in &graph.calls {
            for site in sites {
                prop_assert!(site.targets.iter().all(|&t| t < n));
            }
        }
        let fx = infer(&set, &graph);
        let mask = transitive_mask(&graph, &fx);
        prop_assert_eq!(mask.len(), n);
        // Reachability only ever adds effects to a node's own base mask,
        // and closing through `par` reaches at least what skipping it does.
        for id in 0..n {
            prop_assert_eq!(mask[id] & fx.base[id], fx.base[id]);
        }
        let through = reach(&graph, |id| fx.base[id] != 0, true);
        let outside = reach(&graph, |id| fx.base[id] != 0, false);
        for id in 0..n {
            prop_assert!(through[id] || !outside[id]);
        }
    }

    /// Building twice from the same sources yields identical nodes and
    /// edges (BTreeMap ordering, no iteration-order leaks).
    #[test]
    fn call_graph_deterministic(files in arb_mini_workspace()) {
        let (set_a, graph_a) = build(&files);
        let (set_b, graph_b) = build(&files);
        prop_assert_eq!(&graph_a.nodes, &graph_b.nodes);
        prop_assert_eq!(&graph_a.edges, &graph_b.edges);
        let fx_a = infer(&set_a, &graph_a);
        let fx_b = infer(&set_b, &graph_b);
        prop_assert_eq!(transitive_mask(&graph_a, &fx_a), transitive_mask(&graph_b, &fx_b));
        prop_assert_eq!(fx_a.own_raw_seed, fx_b.own_raw_seed);
    }

    /// The graph is a function of the file *set*, not the order files are
    /// fed in: any permutation produces identical nodes and edges and the
    /// same dataflow diagnostics.
    #[test]
    fn call_graph_independent_of_file_order(
        files in arb_mini_workspace(),
        swaps in proptest::collection::vec(0usize..16, 0..8),
    ) {
        let shuffled = permute(&files, &swaps);
        let (_, graph_a) = build(&files);
        let (_, graph_b) = build(&shuffled);
        prop_assert_eq!(&graph_a.nodes, &graph_b.nodes);
        prop_assert_eq!(&graph_a.edges, &graph_b.edges);
        let borrowed_a: Vec<(&str, &str)> =
            files.iter().map(|(p, s)| (p.as_str(), s.as_str())).collect();
        let borrowed_b: Vec<(&str, &str)> =
            shuffled.iter().map(|(p, s)| (p.as_str(), s.as_str())).collect();
        prop_assert_eq!(
            format!("{:?}", gnn_dm_lint::lint_sources(&borrowed_a)),
            format!("{:?}", gnn_dm_lint::lint_sources(&borrowed_b))
        );
    }
}
