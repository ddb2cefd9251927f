//! A small line/token-level lexer for Rust sources.
//!
//! The rules in [`crate::rules`] are textual, so they must never fire on
//! text inside string literals, char literals or comments (a doc example
//! mentioning `.unwrap()` is not a violation). This lexer splits every
//! physical line into *code* — with comments removed and the contents of
//! string/char literals blanked — and *comment text*, which is where the
//! `lint:allow(...)` suppressions live.
//!
//! Handled: `//`-style comments (incl. `///` and `//!` docs), nestable
//! `/* */` block comments, string literals with escapes, raw strings
//! `r"…"` / `r#"…"#` (any hash depth, multi-line), byte strings, char
//! literals vs. lifetimes, and multi-line literals of every kind.

/// One physical source line after lexical classification.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LineScan {
    /// Source code with comments stripped and literal contents blanked
    /// (string literals collapse to `""`, char literals to `' '`).
    pub code: String,
    /// Concatenated comment text appearing on this line, without the
    /// `//` / `/*` markers.
    pub comment: String,
}

/// Lexer state that survives a line break.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    /// Inside a (possibly nested) block comment, with nesting depth.
    Block(u32),
    /// Inside a `"…"` string literal.
    Str,
    /// Inside a raw string closed by `"` followed by this many `#`.
    RawStr(u32),
}

/// True if `c` can be part of an identifier.
#[inline]
fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Scan `source` into per-line code/comment splits.
pub fn scan(source: &str) -> Vec<LineScan> {
    let chars: Vec<char> = source.chars().collect();
    let mut lines = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut state = State::Code;
    let mut i = 0usize;
    while let Some(&c) = chars.get(i) {
        if c == '\n' {
            lines.push(LineScan {
                code: std::mem::take(&mut code),
                comment: std::mem::take(&mut comment),
            });
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    // Line comment: consume to end of line.
                    i += 2;
                    while let Some(&cc) = chars.get(i) {
                        if cc == '\n' {
                            break;
                        }
                        comment.push(cc);
                        i += 1;
                    }
                } else if c == '/' && next == Some('*') {
                    state = State::Block(1);
                    i += 2;
                } else if c == '"' {
                    code.push('"');
                    state = State::Str;
                    i += 1;
                } else if c == 'r'
                    && match chars.get(i.wrapping_sub(1)).copied() {
                        // `r` must start the token: `configure"` is not a raw
                        // string, but the `r` of `br"` is (when the `b`
                        // itself starts the token).
                        Some(p) if is_ident(p) => {
                            p == 'b' && !chars.get(i.wrapping_sub(2)).copied().is_some_and(is_ident)
                        }
                        _ => true,
                    }
                    && matches!(next, Some('"') | Some('#'))
                {
                    // Possible raw string r"…" / r#"…"#.
                    let mut hashes = 0u32;
                    let mut j = i + 1;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        code.push('"');
                        state = State::RawStr(hashes);
                        i = j + 1;
                    } else {
                        code.push(c);
                        i += 1;
                    }
                } else if c == '\'' {
                    // Char literal vs. lifetime.
                    if next == Some('\\') {
                        // Escaped char literal: consume to closing quote.
                        code.push_str("' '");
                        i += 2;
                        while let Some(&cc) = chars.get(i) {
                            i += 1;
                            if cc == '\\' {
                                i += 1;
                            } else if cc == '\'' {
                                break;
                            }
                        }
                    } else if chars.get(i + 2) == Some(&'\'') {
                        // 'x' char literal.
                        code.push_str("' '");
                        i += 3;
                    } else {
                        // Lifetime: emit as code.
                        code.push('\'');
                        i += 1;
                    }
                } else {
                    code.push(c);
                    i += 1;
                }
            }
            State::Block(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    state = State::Block(depth + 1);
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    state = if depth <= 1 {
                        State::Code
                    } else {
                        State::Block(depth - 1)
                    };
                    i += 2;
                } else {
                    comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    // Keep escaped line breaks visible to the line splitter.
                    if chars.get(i + 1) == Some(&'\n') {
                        i += 1;
                    } else {
                        i += 2;
                    }
                } else if c == '"' {
                    code.push('"');
                    state = State::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes as usize {
                        if chars.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        code.push('"');
                        state = State::Code;
                        i += 1 + hashes as usize;
                    } else {
                        i += 1;
                    }
                } else {
                    i += 1;
                }
            }
        }
    }
    if !code.is_empty() || !comment.is_empty() {
        lines.push(LineScan { code, comment });
    }
    lines
}

/// Find occurrences of `word` in `code` at identifier boundaries; returns
/// the byte offsets of each match.
pub fn find_word(code: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut start = 0usize;
    while let Some(pos) = code.get(start..).and_then(|s| s.find(word)) {
        let at = start + pos;
        let before_ok = code[..at].chars().next_back().is_none_or(|c| !is_ident(c));
        let after_ok = code[at + word.len()..]
            .chars()
            .next()
            .is_none_or(|c| !is_ident(c));
        if before_ok && after_ok {
            out.push(at);
        }
        start = at + word.len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<String> {
        scan(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn strips_line_and_doc_comments() {
        let ls = scan("let x = 1; // trailing .unwrap()\n/// doc .expect(\nlet y = 2;\n");
        assert_eq!(ls[0].code, "let x = 1; ");
        assert!(ls[0].comment.contains(".unwrap()"));
        assert_eq!(ls[1].code, "");
        assert!(ls[1].comment.contains(".expect("));
        assert_eq!(ls[2].code, "let y = 2;");
    }

    #[test]
    fn blanks_string_and_char_literals() {
        let ls = codes("let s = \"panic!(.unwrap())\"; let c = '\\n'; let l: &'static str;\n");
        assert_eq!(ls[0], "let s = \"\"; let c = ' '; let l: &'static str;");
    }

    #[test]
    fn handles_raw_strings_across_lines() {
        let src = "let s = r#\"line .unwrap()\nmore HashMap\"#;\nlet t = 3;\n";
        let ls = codes(src);
        assert_eq!(ls[0], "let s = \"");
        assert_eq!(ls[1], "\";");
        assert_eq!(ls[2], "let t = 3;");
    }

    #[test]
    fn nested_block_comments_and_multiline_strings() {
        let src = "a /* x /* y */ .unwrap() */ b\nlet s = \"one\ntwo\";\n";
        let ls = scan(src);
        assert_eq!(ls[0].code, "a  b");
        assert!(ls[0].comment.contains(".unwrap()"));
        assert_eq!(ls[1].code, "let s = \"");
        assert_eq!(ls[2].code, "\";");
    }

    #[test]
    fn word_boundaries() {
        assert_eq!(find_word("HashMap<u64, u32>", "HashMap").len(), 1);
        assert_eq!(find_word("MyHashMap<u64, u32>", "HashMap").len(), 0);
        assert_eq!(find_word("HashMapX", "HashMap").len(), 0);
        assert_eq!(find_word("a HashMap b HashMap", "HashMap").len(), 2);
    }

    #[test]
    fn lifetime_heavy_generics_survive() {
        let ls = codes("fn f<'a, 'b: 'a>(x: &'a str) -> &'b str { x }\n");
        assert_eq!(ls[0], "fn f<'a, 'b: 'a>(x: &'a str) -> &'b str { x }");
    }
}
