//! A hand-rolled Rust lexer, just deep enough for linting.
//!
//! The build environment is offline, so we cannot lean on `syn`. The
//! analyzers only need a faithful *token* view of each source file:
//! identifiers and punctuation with line numbers, with comments, string
//! literals, char literals and lifetimes correctly skipped so that a
//! `HashMap` inside a doc comment or a `"panic!"` inside a string never
//! trips a rule. Two comment forms are load-bearing and are captured
//! instead of discarded:
//!
//! - `// sphinx-lint: allow(<rule>, ...)` — suppresses findings of the
//!   named rules on the comment's line and the line below it.
//! - `// sphinx-fsa: <annotation>` — declares the intent of a state
//!   assignment site for the FSA checker (see [`crate::fsa`]).
//!
//! Code under `#[cfg(test)]` (a `mod ... { ... }` or any other item) is
//! stripped from the token stream: tests may use wall clocks, unwraps and
//! raw state pokes freely.

use std::collections::{BTreeMap, BTreeSet};

/// What a token is, at lint granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// Operator / delimiter. Multi-char operators (`::`, `->`, `==`, …)
    /// are a single token so patterns like `state =` cannot be confused
    /// with `state ==`.
    Punct,
    /// Numeric literal. (String and char literals are skipped entirely.)
    Number,
    /// A lifetime such as `'a` or `'static`.
    Lifetime,
    /// A string or char literal, one token (with empty text) per source
    /// line it covers. Only [`code_lines`] sees them: a [`SourceFile`]
    /// drops them, so the analyzers never match inside a literal.
    Literal,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokenKind,
    pub text: String,
    pub line: u32,
}

impl Token {
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == s
    }
}

/// Which directive family a captured comment belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectiveKind {
    /// `// sphinx-lint: ...`
    Lint,
    /// `// sphinx-fsa: ...`
    Fsa,
    /// `// sphinx-hot` — marks the next `fn` as a hot-path root for the
    /// call-graph analyzers (see [`crate::hotpath`]).
    Hot,
}

/// A captured `sphinx-lint:` / `sphinx-fsa:` comment.
#[derive(Debug, Clone)]
pub struct Directive {
    pub kind: DirectiveKind,
    /// Everything after the `sphinx-…:` marker, trimmed.
    pub body: String,
    pub line: u32,
}

/// A lexed source file: test items stripped, directives captured.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, for reporting.
    pub path: String,
    pub tokens: Vec<Token>,
    pub directives: Vec<Directive>,
}

impl SourceFile {
    /// Lex `src`, strip `#[cfg(test)]` items, capture directives.
    pub fn lex(path: &str, src: &str) -> SourceFile {
        let (tokens, directives) = tokenize(src);
        let mut tokens = strip_test_items(split_turbofish_shifts(tokens));
        tokens.retain(|t| t.kind != TokenKind::Literal);
        SourceFile {
            path: path.to_owned(),
            tokens,
            directives,
        }
    }

    /// Rules suppressed per line: an `allow(rule)` covers the comment's
    /// own line (trailing form) and the next line (standalone form).
    pub fn allows(&self) -> BTreeMap<u32, BTreeSet<&str>> {
        let mut map: BTreeMap<u32, BTreeSet<&str>> = BTreeMap::new();
        for d in &self.directives {
            if d.kind != DirectiveKind::Lint {
                continue;
            }
            let Some(rules) = d
                .body
                .strip_prefix("allow(")
                .and_then(|r| r.strip_suffix(')'))
            else {
                continue;
            };
            for rule in rules.split(',').map(str::trim).filter(|r| !r.is_empty()) {
                map.entry(d.line).or_default().insert(rule);
                map.entry(d.line + 1).or_default().insert(rule);
            }
        }
        map
    }

    /// The `sphinx-fsa:` annotation attached to `line`, if any: same line
    /// (trailing comment) or the line above (standalone comment).
    pub fn fsa_annotation(&self, line: u32) -> Option<&Directive> {
        self.directives
            .iter()
            .filter(|d| d.kind == DirectiveKind::Fsa)
            .find(|d| d.line == line || d.line + 1 == line)
    }
}

/// The number of lines of `src` that hold code: a token or part of a
/// literal, outside `#[cfg(test)]` items. Blank lines (a literal's too)
/// and comments do not count.
pub fn code_lines(src: &str) -> usize {
    let (tokens, _) = tokenize(src);
    let lines: BTreeSet<u32> = strip_test_items(tokens).iter().map(|t| t.line).collect();
    let text: Vec<&str> = src.lines().collect();
    let blank = |line: u32| {
        text.get(line as usize - 1)
            .is_none_or(|l| l.trim().is_empty())
    };
    lines.into_iter().filter(|&line| !blank(line)).count()
}

/// Push a [`TokenKind::Literal`] for each line from `first` to `last`.
fn literal(tokens: &mut Vec<Token>, first: u32, last: u32) {
    tokens.extend((first..=last).map(|line| Token {
        kind: TokenKind::Literal,
        text: String::new(),
        line,
    }));
}

/// Multi-char operators, longest first so greedy matching is correct.
const MULTI_PUNCT: &[&str] = &[
    "<<=", ">>=", "..=", "::", "->", "=>", "==", "!=", "<=", ">=", "..", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
];

fn tokenize(src: &str) -> (Vec<Token>, Vec<Directive>) {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut directives = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i + 2;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                let text = &src[start..i];
                capture_directive(text, line, &mut directives);
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                // Block comment; Rust block comments nest.
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                let first = line;
                i = skip_string(bytes, i + 1, &mut line);
                literal(&mut tokens, first, line);
            }
            'r' | 'b' if is_raw_string_start(bytes, i) => {
                let first = line;
                i = skip_raw_string(bytes, i, &mut line);
                literal(&mut tokens, first, line);
            }
            // Raw identifier `r#ident`: one Ident token with the `r#`
            // stripped, so `r#type` and `type` match the same patterns.
            'r' if bytes.get(i + 1) == Some(&b'#')
                && bytes
                    .get(i + 2)
                    .is_some_and(|&b| (b as char).is_alphabetic() || b == b'_') =>
            {
                let start = i + 2;
                i = start;
                while i < bytes.len() && ((bytes[i] as char).is_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: src[start..i].to_owned(),
                    line,
                });
            }
            'b' if matches!(bytes.get(i + 1), Some(b'"' | b'\'')) => {
                let first = line;
                i = match bytes[i + 1] {
                    b'"' => skip_string(bytes, i + 2, &mut line),
                    _ => skip_char(bytes, i + 2, &mut line),
                };
                literal(&mut tokens, first, line);
            }
            '\'' => {
                // Lifetime (`'a`, `'static`) vs char literal (`'x'`, `'\n'`,
                // `'é'`: a non-ASCII char is never read as a lifetime).
                let mut j = i + 1;
                while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                    j += 1;
                }
                if j > i + 1 && bytes.get(j) != Some(&b'\'') {
                    tokens.push(Token {
                        kind: TokenKind::Lifetime,
                        text: src[i..j].to_owned(),
                        line,
                    });
                    i = j;
                } else {
                    let first = line;
                    i = skip_char(bytes, i + 1, &mut line);
                    literal(&mut tokens, first, line);
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && ((bytes[i] as char).is_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: src[start..i].to_owned(),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_alphanumeric()
                        || bytes[i] == b'_'
                        || bytes[i] == b'.')
                {
                    // `1..2` range: stop before `..`.
                    if bytes[i] == b'.' && bytes.get(i + 1) == Some(&b'.') {
                        break;
                    }
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Number,
                    text: src[start..i].to_owned(),
                    line,
                });
            }
            _ => {
                let rest = &src[i..];
                let op = MULTI_PUNCT.iter().find(|op| rest.starts_with(**op));
                let text = op.map_or_else(|| c.to_string(), |op| (*op).to_owned());
                i += text.len();
                tokens.push(Token {
                    kind: TokenKind::Punct,
                    text,
                    line,
                });
            }
        }
    }
    (tokens, directives)
}

fn capture_directive(comment: &str, line: u32, out: &mut Vec<Directive>) {
    let trimmed = comment.trim_start_matches(['/', '!']).trim();
    for (marker, kind) in [
        ("sphinx-lint:", DirectiveKind::Lint),
        ("sphinx-fsa:", DirectiveKind::Fsa),
    ] {
        if let Some(body) = trimmed.strip_prefix(marker) {
            out.push(Directive {
                kind,
                body: body.trim().to_owned(),
                line,
            });
        }
    }
    // `// sphinx-hot` takes no body; accept an optional trailing note
    // after whitespace or a colon, but not `sphinx-hotfix`-style idents.
    if let Some(rest) = trimmed.strip_prefix("sphinx-hot") {
        if rest.is_empty() || rest.starts_with(char::is_whitespace) || rest.starts_with(':') {
            out.push(Directive {
                kind: DirectiveKind::Hot,
                body: rest.trim_start_matches(':').trim().to_owned(),
                line,
            });
        }
    }
}

/// Split `>>` closing nested turbofish generics (`collect::<Vec<Vec<_>>>`)
/// into two `>` tokens. The lexer greedily matches `>>` as one shift
/// operator, which is right for `a >> b` but wrong inside generic
/// arguments; without this pass the call-graph builder cannot tell where
/// a turbofish ends. We only track depth opened by a `::<` sequence —
/// plain `a < b` comparisons never enter the mode — and reset it at
/// statement boundaries, where unclosed generics are impossible.
fn split_turbofish_shifts(tokens: Vec<Token>) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut depth = 0usize;
    for tok in tokens {
        if depth > 0 {
            match tok.text.as_str() {
                ";" | "{" | "}" if tok.kind == TokenKind::Punct => depth = 0,
                "<" if tok.kind == TokenKind::Punct => depth += 1,
                ">" if tok.kind == TokenKind::Punct => depth -= 1,
                ">>" if tok.kind == TokenKind::Punct => {
                    depth = depth.saturating_sub(2);
                    for _ in 0..2 {
                        out.push(Token {
                            kind: TokenKind::Punct,
                            text: ">".to_owned(),
                            line: tok.line,
                        });
                    }
                    continue;
                }
                _ => {}
            }
        } else if tok.is_punct("<") && out.last().is_some_and(|p: &Token| p.is_punct("::")) {
            depth = 1;
        }
        out.push(tok);
    }
    out
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    // r"..."  r#"..."#  br"..."  br#"..."#
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return false;
    }
    j += 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

fn skip_raw_string(bytes: &[u8], mut i: usize, line: &mut u32) -> usize {
    if bytes[i] == b'b' {
        i += 1;
    }
    i += 1; // 'r'
    let mut hashes = 0usize;
    while bytes.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    i += 1; // opening quote
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            *line += 1;
            i += 1;
        } else if bytes[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while seen < hashes && bytes.get(j) == Some(&b'#') {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    i
}

fn skip_string(bytes: &[u8], mut i: usize, line: &mut u32) -> usize {
    while i < bytes.len() {
        match bytes[i] {
            // An escaped newline (a line continuation) is still a line.
            b'\\' => {
                *line += u32::from(bytes.get(i + 1) == Some(&b'\n'));
                i += 2;
            }
            b'\n' => {
                *line += 1;
                i += 1;
            }
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

fn skip_char(bytes: &[u8], mut i: usize, line: &mut u32) -> usize {
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            b'\'' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Drop every `#[cfg(test)]` item: the attribute, any attributes after
/// it, and the item itself.
fn strip_test_items(tokens: Vec<Token>) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0usize;
    while i < tokens.len() {
        if is_cfg_test_attr(&tokens, i) {
            let mut j = i + 7; // past `# [ cfg ( test ) ]`
            while tokens.get(j).is_some_and(|t| t.is_punct("#")) {
                j = skip_attr(&tokens, j);
            }
            i = skip_item(&tokens, j);
            continue;
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// The index just past the item (or statement, field or arm) starting at
/// `i`: through its first top-level `{ ... }` block and a `;` right after
/// it, or through a top-level `;` or `,`, or up to the bracket that closes
/// the group it is in. Angle brackets are not counted (`<` may be a
/// comparison), so a `,` between generic arguments ends the item early.
fn skip_item(tokens: &[Token], mut i: usize) -> usize {
    let mut depth = 0usize;
    while let Some(t) = tokens.get(i) {
        i += 1;
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" if depth == 0 => return i - 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 && t.text == "}" {
                    return i + usize::from(tokens.get(i).is_some_and(|t| t.is_punct(";")));
                }
            }
            ";" | "," if depth == 0 => return i,
            _ => {}
        }
    }
    i
}

fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct("#"))
        && tokens.get(i + 1).is_some_and(|t| t.is_punct("["))
        && tokens.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
        && tokens.get(i + 3).is_some_and(|t| t.is_punct("("))
        && tokens.get(i + 4).is_some_and(|t| t.is_ident("test"))
        && tokens.get(i + 5).is_some_and(|t| t.is_punct(")"))
        && tokens.get(i + 6).is_some_and(|t| t.is_punct("]"))
}

/// Skip one `#[...]` attribute (bracket-balanced), returning the index
/// just past its closing `]`.
fn skip_attr(tokens: &[Token], i: usize) -> usize {
    debug_assert!(tokens[i].is_punct("#"));
    let mut j = i + 1;
    let mut depth = 0usize;
    while j < tokens.len() {
        if tokens[j].is_punct("[") {
            depth += 1;
        } else if tokens[j].is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_strings_and_lifetimes_are_skipped() {
        let src = r##"
// HashMap in a line comment
/* HashMap in /* a nested */ block comment */
fn f<'a>(s: &'a str) -> char {
    let _x = "HashMap in a string";
    let _y = r#"HashMap in a raw "string""#;
    'h'
}
"##;
        let f = SourceFile::lex("t.rs", src);
        assert!(!f.tokens.iter().any(|t| t.is_ident("HashMap")));
        assert!(f.tokens.iter().any(|t| t.kind == TokenKind::Lifetime));
        assert!(f.tokens.iter().any(|t| t.is_ident("str")));
    }

    #[test]
    fn multi_char_punct_is_one_token() {
        let f = SourceFile::lex("t.rs", "a == b; c = d; e -> f; g::h");
        let puncts: Vec<&str> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Punct)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(puncts, vec!["==", ";", "=", ";", "->", ";", "::"]);
    }

    #[test]
    fn line_numbers_track_all_literal_forms() {
        let src = "fn a() {}\nlet s = \"x\ny\";\nfn b() {}\n";
        let f = SourceFile::lex("t.rs", src);
        let b = f.tokens.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 4);
    }

    #[test]
    fn test_items_are_stripped() {
        let src = "struct S {\n    a: u8,\n    #[cfg(test)]\n    probe: Vec<u8>,\n    b: u8,\n}\n\
                   #[cfg(test)]\n#[derive(Debug)]\nenum E { A { x: u8 }, B }\n\
                   #[cfg(test)]\nuse m::{a, b};\n\
                   #[cfg(test)]\nconst N: [u8; 2] = [1, 2];\nfn after() {}\n";
        assert_eq!(
            texts(src),
            [
                "struct", "S", "{", "a", ":", "u8", ",", "b", ":", "u8", ",", "}", "fn", "after",
                "(", ")", "{", "}"
            ]
        );
    }

    #[test]
    fn code_lines_count_code_and_literals_but_not_comments_or_tests() {
        let src = "//! Docs.\n\nfn f() -> &'static str {\n    /* a\n       block */\n    \"multi\n\n     line\"\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        // `fn f`, the two non-blank lines of the literal, and the closing
        // brace.
        assert_eq!(code_lines(src), 4);
    }

    #[test]
    fn non_ascii_char_literals_are_literals() {
        assert_eq!(
            texts("let c = '😀'; let d = 'é';"),
            ["let", "c", "=", ";", "let", "d", "=", ";"]
        );
    }

    #[test]
    fn continued_strings_keep_their_lines() {
        let src = "let s = \"a \\\n   b\";\nfn after() {}\n";
        let f = SourceFile::lex("t.rs", src);
        assert_eq!(
            f.tokens.iter().find(|t| t.is_ident("after")).unwrap().line,
            3
        );
        assert_eq!(code_lines(src), 3);
    }

    #[test]
    fn test_modules_are_stripped() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn fake() { let m = HashMap::new(); }\n}\nfn after() {}\n";
        let f = SourceFile::lex("t.rs", src);
        assert!(!f.tokens.iter().any(|t| t.is_ident("HashMap")));
        assert!(f.tokens.iter().any(|t| t.is_ident("real")));
        assert!(f.tokens.iter().any(|t| t.is_ident("after")));
    }

    fn texts(src: &str) -> Vec<String> {
        SourceFile::lex("t.rs", src)
            .tokens
            .into_iter()
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn raw_identifiers_lex_as_one_token() {
        assert_eq!(
            texts("let r#type = r#match.clone();"),
            ["let", "type", "=", "match", ".", "clone", "(", ")", ";"]
        );
        // `r#"…"#` must still be a raw string, not a raw identifier.
        assert_eq!(texts(r##"let x = r#"type"#;"##), ["let", "x", "=", ";"]);
    }

    #[test]
    fn turbofish_shift_splits_into_closing_angles() {
        assert_eq!(
            texts("v.collect::<Vec<Vec<u32>>>()"),
            [
                "v", ".", "collect", "::", "<", "Vec", "<", "Vec", "<", "u32", ">", ">", ">", "(",
                ")"
            ]
        );
        // Outside a turbofish, `>>` stays one shift token.
        assert_eq!(
            texts("let y = a >> 2;"),
            ["let", "y", "=", "a", ">>", "2", ";"]
        );
        // A statement boundary resets the mode.
        assert_eq!(
            texts("x::<u8>; a >> b"),
            ["x", "::", "<", "u8", ">", ";", "a", ">>", "b"]
        );
    }

    #[test]
    fn method_names_spanning_lines_keep_their_own_line() {
        let src = "frontier\n    .ready_iter()\n    .take(3);\n";
        let f = SourceFile::lex("t.rs", src);
        let texts: Vec<(&str, u32)> = f.tokens.iter().map(|t| (t.text.as_str(), t.line)).collect();
        assert_eq!(
            texts,
            [
                ("frontier", 1),
                (".", 2),
                ("ready_iter", 2),
                ("(", 2),
                (")", 2),
                (".", 3),
                ("take", 3),
                ("(", 3),
                ("3", 3),
                (")", 3),
                (";", 3),
            ]
        );
    }

    #[test]
    fn hot_directive_is_captured() {
        let src = "// sphinx-hot\nfn plan() {}\n// sphinx-hotfix not a directive\nfn other() {}\n";
        let f = SourceFile::lex("t.rs", src);
        let hot: Vec<&Directive> = f
            .directives
            .iter()
            .filter(|d| d.kind == DirectiveKind::Hot)
            .collect();
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].line, 1);
    }

    #[test]
    fn directives_are_captured_with_lines() {
        let src = "// sphinx-lint: allow(wall-clock)\nlet t = now();\nx(); // sphinx-fsa: Ready -> Submitted\n";
        let f = SourceFile::lex("t.rs", src);
        assert_eq!(f.directives.len(), 2);
        assert_eq!(f.directives[0].kind, DirectiveKind::Lint);
        assert_eq!(f.directives[0].line, 1);
        assert_eq!(f.directives[1].kind, DirectiveKind::Fsa);
        assert_eq!(f.directives[1].body, "Ready -> Submitted");
        assert_eq!(f.directives[1].line, 3);
        let allows = f.allows();
        assert!(allows[&1].contains("wall-clock"));
        assert!(allows[&2].contains("wall-clock"));
    }
}
