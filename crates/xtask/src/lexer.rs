//! A minimal Rust tokenizer for the static-analysis passes.
//!
//! The earlier line-based scanners had two blind spots: a marker inside
//! a string literal was a false positive, and truncating the scan at
//! the first `#[cfg(test)]` line meant library code *below* a mid-file
//! test module was never scanned at all. Lexing fixes both: comments
//! and literals become single tokens (never matched as code), and
//! test-gated items are stripped structurally — by brace matching the
//! gated item — instead of by truncation, however many lines or blank
//! gaps sit between the attribute and the item.
//!
//! This is a *lexer*, not a parser: it understands comments (line and
//! nested block), string / raw-string / char / byte literals, lifetimes
//! versus char literals, identifiers and numbers. Everything else is a
//! one-character punctuation token. That is exactly enough for the
//! token-sequence patterns the analysis passes match, while staying
//! dependency-free like the rest of the gate.

/// What a token is; the analysis passes match on kind + text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal (integer or float, any base, with suffix).
    Number,
    /// String, raw-string, byte-string or char literal (quotes kept).
    Literal,
    /// Lifetime such as `'a`.
    Lifetime,
    /// A single punctuation character.
    Punct,
}

/// One lexical token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token class.
    pub kind: TokenKind,
    /// Exact source text (for [`TokenKind::Punct`], one character).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
}

impl Token {
    /// `true` if this is an identifier with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// `true` if this is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// Lexes `src`, dropping comments entirely.
pub fn tokenize(src: &str) -> Vec<Token> {
    let chars: Vec<char> = src.chars().collect();
    let mut tokens = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && next == Some('/') {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && next == Some('*') {
            let mut depth = 1;
            i += 2;
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
        } else if let Some(end) = raw_string_end(&chars, i) {
            push_literal(&mut tokens, &chars, i, end, &mut line);
            i = end;
        } else if c == '"' {
            let end = quoted_end(&chars, i + 1, '"');
            push_literal(&mut tokens, &chars, i, end, &mut line);
            i = end;
        } else if c == '\'' {
            // Lifetime if an identifier follows without a closing quote
            // (`'a`, `'static`); otherwise a char literal (`'x'`, `'\n'`).
            if is_lifetime(&chars, i) {
                let start = i;
                i += 1;
                while i < chars.len() && is_ident_char(chars[i]) {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Lifetime,
                    text: chars[start..i].iter().collect(),
                    line,
                });
            } else {
                let end = quoted_end(&chars, i + 1, '\'');
                push_literal(&mut tokens, &chars, i, end, &mut line);
                i = end;
            }
        } else if is_ident_start(c) {
            let start = i;
            while i < chars.len() && is_ident_char(chars[i]) {
                i += 1;
            }
            tokens.push(Token {
                kind: TokenKind::Ident,
                text: chars[start..i].iter().collect(),
                line,
            });
        } else if c.is_ascii_digit() {
            let start = i;
            while i < chars.len()
                && (is_ident_char(chars[i])
                    // A dot continues the number only for a float like
                    // `1.5`; `0..n` must stay three separate tokens.
                    || (chars[i] == '.'
                        && chars.get(i + 1).is_some_and(|c| c.is_ascii_digit())
                        && !chars[start..i].contains(&'.')))
            {
                i += 1;
            }
            tokens.push(Token {
                kind: TokenKind::Number,
                text: chars[start..i].iter().collect(),
                line,
            });
        } else {
            tokens.push(Token {
                kind: TokenKind::Punct,
                text: c.to_string(),
                line,
            });
            i += 1;
        }
    }
    tokens
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// `'` starts a lifetime when an identifier follows and the quote is
/// not closed right after one character (which would be a char literal).
fn is_lifetime(chars: &[char], i: usize) -> bool {
    let Some(&first) = chars.get(i + 1) else {
        return false;
    };
    if !is_ident_start(first) {
        return false;
    }
    let mut j = i + 1;
    while j < chars.len() && is_ident_char(chars[j]) {
        j += 1;
    }
    chars.get(j) != Some(&'\'')
}

/// If position `i` starts a raw or byte string (`r"`, `r#"`, `br"`,
/// `b"`, …), returns the index one past its closing delimiter.
fn raw_string_end(chars: &[char], i: usize) -> Option<usize> {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    let raw = chars.get(j) == Some(&'r');
    if raw {
        j += 1;
    }
    let mut hashes = 0;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) != Some(&'"') || (!raw && (hashes > 0 || j == i)) {
        return None; // plain `"` strings are handled by the caller
    }
    j += 1;
    if raw {
        // Raw string: no escapes; ends at `"` followed by `hashes` #s.
        while j < chars.len() {
            if chars[j] == '"'
                && chars[j + 1..]
                    .iter()
                    .take(hashes)
                    .filter(|&&c| c == '#')
                    .count()
                    == hashes
            {
                return Some(j + 1 + hashes);
            }
            j += 1;
        }
        Some(chars.len())
    } else {
        Some(quoted_end(chars, j, '"'))
    }
}

/// Index one past the closing `delim`, honoring backslash escapes.
fn quoted_end(chars: &[char], mut i: usize, delim: char) -> usize {
    while i < chars.len() {
        if chars[i] == '\\' {
            i += 2;
        } else if chars[i] == delim {
            return i + 1;
        } else {
            i += 1;
        }
    }
    chars.len()
}

fn push_literal(
    tokens: &mut Vec<Token>,
    chars: &[char],
    start: usize,
    end: usize,
    line: &mut usize,
) {
    tokens.push(Token {
        kind: TokenKind::Literal,
        text: chars[start..end].iter().collect(),
        line: *line,
    });
    *line += chars[start..end].iter().filter(|&&c| c == '\n').count();
}

/// Removes every item gated behind a test `cfg` — `#[cfg(test)]`,
/// `#[cfg(all(test, …))]` and the like — by skipping the attribute, any
/// further attributes, and the gated item up to its matching `}` (or
/// `;` for brace-less items). `#[cfg(not(test))]` is *kept*: it is
/// library code by definition.
///
/// Unlike the old truncate-at-first-`#[cfg(test)]` line scan, code
/// after a mid-file test module is still analyzed.
pub fn strip_test_code(tokens: &[Token]) -> Vec<Token> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if let Some(after_attr) = test_cfg_attr_end(tokens, i) {
            i = skip_gated_item(tokens, after_attr);
        } else {
            out.push(tokens[i].clone());
            i += 1;
        }
    }
    out
}

/// If `tokens[i..]` starts a `#[cfg(...)]` attribute whose predicate
/// mentions `test` (and not `not`), returns the index one past `]`.
fn test_cfg_attr_end(tokens: &[Token], i: usize) -> Option<usize> {
    if !(tokens.get(i)?.is_punct('#')
        && tokens.get(i + 1)?.is_punct('[')
        && tokens.get(i + 2)?.is_ident("cfg")
        && tokens.get(i + 3)?.is_punct('('))
    {
        return None;
    }
    let close = match_forward(tokens, i + 3, '(', ')')?;
    let predicate = &tokens[i + 4..close];
    let mentions_test = predicate.iter().any(|t| t.is_ident("test"));
    let negated = predicate.iter().any(|t| t.is_ident("not"));
    if !mentions_test || negated {
        return None;
    }
    if tokens.get(close + 1)?.is_punct(']') {
        Some(close + 2)
    } else {
        None
    }
}

/// Skips any further `#[...]` attributes and then one item: everything
/// up to the matching `}` of its first brace, or up to `;` if a `;`
/// comes first (e.g. a gated `use`). Returns the index just past it.
fn skip_gated_item(tokens: &[Token], mut i: usize) -> usize {
    while tokens.get(i).is_some_and(|t| t.is_punct('#'))
        && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
    {
        match match_forward(tokens, i + 1, '[', ']') {
            Some(close) => i = close + 1,
            None => return tokens.len(),
        }
    }
    while i < tokens.len() {
        if tokens[i].is_punct(';') {
            return i + 1;
        }
        if tokens[i].is_punct('{') {
            return match match_forward(tokens, i, '{', '}') {
                Some(close) => close + 1,
                None => tokens.len(),
            };
        }
        i += 1;
    }
    tokens.len()
}

/// Index of the `close` matching the `open` at `tokens[at]`.
pub fn match_forward(tokens: &[Token], at: usize, open: char, close: char) -> Option<usize> {
    debug_assert!(tokens[at].is_punct(open));
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(at) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Index of the `open` matching the `close` at `tokens[at]`, scanning
/// backwards.
pub fn match_backward(tokens: &[Token], at: usize, open: char, close: char) -> Option<usize> {
    debug_assert!(tokens[at].is_punct(close));
    let mut depth = 0usize;
    for j in (0..=at).rev() {
        if tokens[j].is_punct(close) {
            depth += 1;
        } else if tokens[j].is_punct(open) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(tokens: &[Token]) -> Vec<&str> {
        tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect()
    }

    #[test]
    fn comments_and_strings_become_opaque() {
        let src = "fn f() { // let x = a.lock();\n  let s = \"a.lock().unwrap()\"; /* b.lock()\n still comment */ }\n";
        let toks = tokenize(src);
        assert_eq!(idents(&toks), vec!["fn", "f", "let", "s"]);
        let lit = toks.iter().find(|t| t.kind == TokenKind::Literal).unwrap();
        assert!(lit.text.contains("lock"));
    }

    #[test]
    fn nested_block_comments_and_lines_tracked() {
        let src = "/* outer /* inner */ still */ fn g() {}\nfn h() {}\n";
        let toks = tokenize(src);
        assert_eq!(idents(&toks), vec!["fn", "g", "fn", "h"]);
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks.iter().find(|t| t.is_ident("h")).unwrap().line, 2);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = tokenize("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Lifetime && t.text == "'a"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Literal && t.text == "'x'"));
    }

    #[test]
    fn raw_and_byte_strings_are_single_tokens() {
        let src = "let a = r#\"std::net \"quoted\" inside\"#; let b = b\"bytes\";";
        let toks = tokenize(src);
        let lits: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .collect();
        assert_eq!(lits.len(), 2, "{toks:?}");
        assert!(lits[0].text.contains("std::net"));
    }

    #[test]
    fn ranges_do_not_merge_into_floats() {
        let toks = tokenize("for i in 0..n {}");
        let dots = toks.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2);
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Number && t.text == "0"));
    }

    #[test]
    fn strip_removes_mid_file_test_module_but_keeps_code_after_it() {
        let src = "\
fn before() {}\n\
#[cfg(test)]\n\
\n\
mod tests {\n\
    fn inside() { oops(); }\n\
}\n\
fn after() {}\n";
        let stripped = strip_test_code(&tokenize(src));
        let names = idents(&stripped);
        assert!(names.contains(&"before"));
        assert!(
            names.contains(&"after"),
            "code after the test module must survive"
        );
        assert!(!names.contains(&"inside"));
        assert!(!names.contains(&"oops"));
    }

    #[test]
    fn strip_handles_cfg_all_test_feature() {
        let src = "#[cfg(all(test, feature = \"slow_tests\"))]\nmod slow_tests { fn gated() {} }\nfn kept() {}\n";
        let stripped = strip_test_code(&tokenize(src));
        let names = idents(&stripped);
        assert!(!names.contains(&"gated"));
        assert!(names.contains(&"kept"));
    }

    #[test]
    fn strip_keeps_cfg_not_test() {
        let src = "#[cfg(not(test))]\nfn prod_only() {}\n";
        let stripped = strip_test_code(&tokenize(src));
        let names = idents(&stripped);
        assert!(names.contains(&"prod_only"));
    }

    #[test]
    fn strip_skips_stacked_attributes_and_braceless_items() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nuse std::net::TcpStream;\nfn kept() {}\n";
        let stripped = strip_test_code(&tokenize(src));
        let names = idents(&stripped);
        assert!(!names.contains(&"TcpStream"));
        assert!(names.contains(&"kept"));
    }
}
