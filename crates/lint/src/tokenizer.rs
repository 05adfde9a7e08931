//! A comment/string/raw-string-aware Rust tokenizer.
//!
//! The lint rules only need a faithful *token stream* — not a parse tree —
//! so this lexer's single job is to never mistake prose for code: text
//! inside `//` and `/* */` comments (nested), string literals (including
//! raw `r#"…"#`, byte and C variants), and char literals must produce no
//! identifier tokens. Line comments are additionally scanned for
//! `lint:allow(RULE, …) reason` suppression markers.

/// Lexical class of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including raw `r#ident`).
    Ident,
    /// Numeric literal (any base, fraction, exponent and suffix).
    Num,
    /// String literal of any flavor (`"…"`, `r#"…"#`, `b"…"`, `c"…"`).
    Str,
    /// Character literal (`'a'`, `'\n'`).
    Char,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// Operator or punctuation; multi-char operators (`==`, `::`, …) are
    /// single tokens.
    Op,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Lexical class.
    pub kind: TokenKind,
    /// Exact source text (suffixes included; raw-ident `r#` stripped).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
}

/// A `lint:allow(...)` marker found in a line comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// 1-based line of the comment.
    pub line: usize,
    /// Rule IDs listed between the parentheses.
    pub rules: Vec<String>,
    /// Free text after the closing parenthesis (the justification).
    pub reason: String,
}

/// Result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Suppression markers in source order.
    pub suppressions: Vec<Suppression>,
}

/// Multi-char operators, longest first so maximal munch is a prefix scan.
const OPERATORS: &[&str] = &[
    "..=", "<<=", ">>=", "==", "!=", "<=", ">=", "::", "->", "=>", "..", "&&", "||", "<<", ">>",
];

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    out: Lexed,
}

/// Lexes `src`, returning tokens and suppression markers.
pub fn lex(src: &str) -> Lexed {
    let mut lx = Lexer { src: src.as_bytes(), pos: 0, line: 1, out: Lexed::default() };
    lx.run();
    lx.out
}

impl<'a> Lexer<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek(0)?;
        if b == b'\n' {
            self.line += 1;
        }
        self.pos += 1;
        Some(b)
    }

    fn push(&mut self, kind: TokenKind, text: String, line: usize) {
        self.out.tokens.push(Token { kind, text, line });
    }

    fn run(&mut self) {
        while let Some(b) = self.peek(0) {
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string_literal(),
                b'\'' => self.char_or_lifetime(),
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident_or_prefixed_literal(),
                b'0'..=b'9' => self.number(),
                _ if b >= 0x80 => self.ident_or_prefixed_literal(),
                _ => self.operator(),
            }
        }
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let start = self.pos;
        while let Some(b) = self.peek(0) {
            if b == b'\n' {
                break;
            }
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        // Doc comments (`///`, `//!`) are documentation, not directives:
        // prose *describing* the suppression syntax must not suppress.
        let is_doc = text.starts_with("///") || text.starts_with("//!");
        if !is_doc {
            if let Some(sup) = parse_suppression(&text, line) {
                self.out.suppressions.push(sup);
            }
        }
    }

    fn block_comment(&mut self) {
        // Rust block comments nest.
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some(b'*'), Some(b'/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
    }

    /// Consumes a `"…"` literal (escapes honored); the opening quote is at
    /// `self.pos`.
    fn string_literal(&mut self) {
        let line = self.line;
        self.bump();
        while let Some(b) = self.bump() {
            match b {
                b'\\' => {
                    self.bump();
                }
                b'"' => break,
                _ => {}
            }
        }
        self.push(TokenKind::Str, String::new(), line);
    }

    /// Consumes `r"…"` / `r#"…"#` with any number of `#`s; `self.pos` is on
    /// the first `#` or the quote.
    fn raw_string_literal(&mut self, line: usize) {
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.bump();
        }
        if self.peek(0) != Some(b'"') {
            // Callers verify the opening quote; never scan for a terminator
            // that was never opened (that would swallow the rest of the file).
            return;
        }
        self.bump();
        'scan: while let Some(b) = self.bump() {
            if b == b'"' {
                for k in 0..hashes {
                    if self.peek(k) != Some(b'#') {
                        continue 'scan;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
        self.push(TokenKind::Str, String::new(), line);
    }

    fn char_or_lifetime(&mut self) {
        let line = self.line;
        // Lifetime: 'ident not closed by a quote ('a, 'static). Char
        // literal: anything else ('x', '\n', '\u{1F600}').
        let is_ident_start = |b: u8| b.is_ascii_alphabetic() || b == b'_' || b >= 0x80;
        if self.peek(1).is_some_and(is_ident_start) && self.peek(2) != Some(b'\'') {
            self.bump();
            let start = self.pos;
            while self
                .peek(0)
                .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80)
            {
                self.bump();
            }
            let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
            self.push(TokenKind::Lifetime, text, line);
            return;
        }
        self.bump();
        while let Some(b) = self.bump() {
            match b {
                b'\\' => {
                    self.bump();
                }
                b'\'' => break,
                _ => {}
            }
        }
        self.push(TokenKind::Char, String::new(), line);
    }

    /// An identifier, or a literal introduced by an identifier-like prefix:
    /// `r"…"`, `r#"…"#`, `r#ident`, `b"…"`, `br#"…"#`, `b'x'`, `c"…"`.
    fn ident_or_prefixed_literal(&mut self) {
        let line = self.line;
        let start = self.pos;
        // Raw-string / raw-ident prefixes. The dispatch must only commit to
        // a literal when the *entire* opener is present — `r#` followed by
        // anything but `#`s-then-a-quote is not a raw string, and treating
        // it as one would swallow the rest of the file while hunting for a
        // terminator that was never opened (token-splitting everything
        // after it, or tripping a totality assertion).
        let b0 = self.peek(0).unwrap_or(0);
        if matches!(b0, b'r' | b'b' | b'c') {
            let p1 = self.peek(1);
            let two = matches!((b0, p1), (b'b', Some(b'r')) | (b'c', Some(b'r')));
            let prefix = if two { 2 } else { 1 };
            // `r`, `br`, `cr` admit hash-delimited raw strings; count the
            // hashes and look for the opening quote after them.
            let raw_capable = b0 == b'r' || two;
            let mut hashes = 0usize;
            if raw_capable {
                while self.peek(prefix + hashes) == Some(b'#') {
                    hashes += 1;
                }
            }
            if (b0 == b'b' || b0 == b'c') && !two && p1 == Some(b'"') {
                // b"…" / c"…": plain (escaped) byte / C string.
                self.bump();
                self.string_literal();
                return;
            }
            if raw_capable && self.peek(prefix + hashes) == Some(b'"') {
                for _ in 0..prefix {
                    self.bump();
                }
                self.raw_string_literal(line);
                return;
            }
            if b0 == b'r'
                && !two
                && hashes == 1
                && self
                    .peek(2)
                    .is_some_and(|b| b.is_ascii_alphabetic() || b == b'_')
            {
                // r#type → identifier "type".
                self.bump();
                self.bump();
                let id_start = self.pos;
                while self
                    .peek(0)
                    .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80)
                {
                    self.bump();
                }
                let text = String::from_utf8_lossy(&self.src[id_start..self.pos]).into_owned();
                self.push(TokenKind::Ident, text, line);
                return;
            }
            if b0 == b'b' && p1 == Some(b'\'') {
                // b'x' byte char literal.
                self.bump();
                self.char_or_lifetime();
                return;
            }
        }
        while self
            .peek(0)
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80)
        {
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push(TokenKind::Ident, text, line);
    }

    fn number(&mut self) {
        let line = self.line;
        let start = self.pos;
        if self.peek(0) == Some(b'0') && matches!(self.peek(1), Some(b'x' | b'X' | b'o' | b'O' | b'b' | b'B')) {
            // Non-decimal integer: digits, underscores and hex letters.
            self.bump();
            self.bump();
            while self
                .peek(0)
                .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
            {
                self.bump();
            }
            let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
            self.push(TokenKind::Num, text, line);
            return;
        }
        while self.peek(0).is_some_and(|b| b.is_ascii_digit() || b == b'_') {
            self.bump();
        }
        // Fractional part: a dot NOT followed by another dot (range) or an
        // identifier start (method call like `1.max(2)`).
        if self.peek(0) == Some(b'.') {
            let next = self.peek(1);
            let is_range = next == Some(b'.');
            let is_method = next.is_some_and(|b| b.is_ascii_alphabetic() || b == b'_');
            if !is_range && !is_method {
                self.bump();
                while self.peek(0).is_some_and(|b| b.is_ascii_digit() || b == b'_') {
                    self.bump();
                }
            }
        }
        // Exponent.
        if matches!(self.peek(0), Some(b'e' | b'E')) {
            let (n1, n2) = (self.peek(1), self.peek(2));
            let signed = matches!(n1, Some(b'+' | b'-')) && n2.is_some_and(|b| b.is_ascii_digit());
            let plain = n1.is_some_and(|b| b.is_ascii_digit());
            if signed || plain {
                self.bump();
                if signed {
                    self.bump();
                }
                while self.peek(0).is_some_and(|b| b.is_ascii_digit() || b == b'_') {
                    self.bump();
                }
            }
        }
        // Suffix (u32, i64, f32, f64, usize, …).
        while self
            .peek(0)
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
        {
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.push(TokenKind::Num, text, line);
    }

    fn operator(&mut self) {
        let line = self.line;
        for op in OPERATORS {
            let bytes = op.as_bytes();
            if self.src[self.pos..].starts_with(bytes) {
                for _ in 0..bytes.len() {
                    self.bump();
                }
                self.push(TokenKind::Op, (*op).to_string(), line);
                return;
            }
        }
        let b = self.bump().unwrap_or(b' ');
        self.push(TokenKind::Op, (b as char).to_string(), line);
    }
}

/// Parses `lint:allow(A002, R003) reason…` out of a line comment's text.
/// Only rule-ID-shaped names (uppercase letters then digits, e.g. `R003`)
/// count, so prose like `lint:allow(RULE)` in an ordinary comment is not a
/// directive; a comment with no valid rule IDs is not a suppression.
fn parse_suppression(comment: &str, line: usize) -> Option<Suppression> {
    let idx = comment.find("lint:allow(")?;
    let after = &comment[idx + "lint:allow(".len()..];
    let close = after.find(')')?;
    let rules: Vec<String> = after[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| is_rule_id(r))
        .collect();
    if rules.is_empty() {
        return None;
    }
    let reason = after[close + 1..].trim().to_string();
    Some(Suppression { line, rules, reason })
}

/// True for rule-ID-shaped names: one or more uppercase ASCII letters
/// followed by one or more ASCII digits (`A002`, `R003`, …).
fn is_rule_id(s: &str) -> bool {
    let letters: String = s.chars().take_while(|c| c.is_ascii_uppercase()).collect();
    let rest = &s[letters.len()..];
    !letters.is_empty() && !rest.is_empty() && rest.chars().all(|c| c.is_ascii_digit())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_produce_no_tokens() {
        let src = "// Instant::now()\n/* HashMap /* nested unwrap() */ still comment */ let x = 1;";
        assert_eq!(idents(src), vec!["let", "x"]);
    }

    #[test]
    fn strings_produce_no_ident_tokens() {
        let src = r##"let s = "Instant::now()"; let r = r#"HashMap "quoted" inside"#; let b = b"unwrap()";"##;
        assert_eq!(idents(src), vec!["let", "s", "let", "r", "let", "b"]);
    }

    #[test]
    fn raw_string_with_hashes_and_quotes() {
        let src = "r#\"a \" b\"# x";
        let toks = lex(src);
        assert_eq!(toks.tokens.len(), 2);
        assert_eq!(toks.tokens[0].kind, TokenKind::Str);
        assert_eq!(toks.tokens[1].text, "x");
    }

    #[test]
    fn raw_ident_is_ident() {
        assert_eq!(idents("r#type r#match"), vec!["type", "match"]);
    }

    #[test]
    fn multi_hash_raw_strings_terminate_correctly() {
        // `"#` inside an `r##…##` string is content, not a terminator.
        let toks = lex("let s = r##\"a \"# b\"##; x");
        let kinds: Vec<TokenKind> = toks.tokens.iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![TokenKind::Ident, TokenKind::Ident, TokenKind::Op, TokenKind::Str, TokenKind::Op, TokenKind::Ident]
        );
        // Terminator directly after a shorter quote-hash run.
        assert_eq!(idents("let s = r###\"ab\"## c\"###; x"), vec!["let", "s", "x"]);
    }

    #[test]
    fn block_comment_openers_inside_raw_strings_are_content() {
        // An (even unbalanced) `/*` inside a raw string must not start a
        // comment; the tokens after the literal survive.
        assert_eq!(idents("let s = r#\"has /* nested /* cm */ inside\"#; x"), vec!["let", "s", "x"]);
        assert_eq!(idents("let s = r#\"open /* only\"#; tail"), vec!["let", "s", "tail"]);
        // And a raw string inside a nested block comment stays comment text.
        assert_eq!(idents("/* a /* r#\"q\"# */ b */ x"), vec!["x"]);
    }

    #[test]
    fn incomplete_raw_prefixes_do_not_swallow_the_file() {
        // `r#` not followed by hashes-then-quote is NOT a raw-string opener;
        // the lexer previously committed to one and token-split (or, in
        // debug builds, panicked on) everything after it.
        assert_eq!(idents("r# x"), vec!["r", "x"]);
        assert_eq!(idents("r#1 x"), vec!["r", "x"]);
        assert_eq!(idents("r#"), vec!["r"]);
        assert_eq!(idents("br## y"), vec!["br", "y"]);
    }

    #[test]
    fn char_vs_lifetime() {
        let toks = lex("'a' 'x 'static '\\n'");
        let kinds: Vec<TokenKind> = toks.tokens.iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![TokenKind::Char, TokenKind::Lifetime, TokenKind::Lifetime, TokenKind::Char]
        );
    }

    #[test]
    fn numbers_are_single_tokens() {
        let texts: Vec<String> = lex("1.5 1. 1e-9 2f64 0x1E 1_000 0.5f32 7usize 1.max(2) 0..5")
            .tokens
            .into_iter()
            .map(|t| t.text)
            .collect();
        // `1.max(2)` is a method call on 1; `0..5` lexes a range.
        let want = "1.5 1. 1e-9 2f64 0x1E 1_000 0.5f32 7usize 1 . max ( 2 ) 0 .. 5";
        assert_eq!(texts, want.split(' ').collect::<Vec<_>>());
    }

    #[test]
    fn multichar_operators_are_single_tokens() {
        let texts: Vec<String> = lex("a == b != c :: d .. e ..= f")
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Op)
            .map(|t| t.text)
            .collect();
        assert_eq!(texts, vec!["==", "!=", "::", "..", "..="]);
    }

    #[test]
    fn lines_are_tracked_through_multiline_constructs() {
        let src = "let a = 1;\n/* two\nlines */\nlet b = \"x\ny\";\nlet c = 3;";
        let toks = lex(src);
        let line_of = |name: &str| toks.tokens.iter().find(|t| t.text == name).unwrap().line;
        assert_eq!(line_of("a"), 1);
        assert_eq!(line_of("b"), 4);
        assert_eq!(line_of("c"), 6);
    }

    #[test]
    fn suppressions_parse_rules_and_reason() {
        let lx = lex("let x = 1; // lint:allow(A002, R003) justified because reasons\n");
        assert_eq!(lx.suppressions.len(), 1);
        let s = &lx.suppressions[0];
        assert_eq!(s.line, 1);
        assert_eq!(s.rules, vec!["A002", "R003"]);
        assert_eq!(s.reason, "justified because reasons");
    }

    #[test]
    fn suppression_without_reason_has_empty_reason() {
        let lx = lex("// lint:allow(A002)\n");
        assert_eq!(lx.suppressions[0].reason, "");
    }

    #[test]
    fn lint_allow_inside_string_is_not_a_suppression() {
        let lx = lex("let s = \"// lint:allow(A002) nope\";\n");
        assert!(lx.suppressions.is_empty());
    }
}
