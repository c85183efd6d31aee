//! A minimal Rust lexer: just enough structure for the lint rules.
//!
//! The goal is *not* a conforming tokenizer — it is to classify every byte
//! of a source file as code, comment, or literal so the rules never fire on
//! text inside strings or comments, and to attach a line number to every
//! code token. Raw strings (any `#` depth), byte strings, nested block
//! comments, char-literal/lifetime disambiguation, and raw identifiers are
//! handled; everything else degrades to single-character punctuation
//! tokens, which is all the pattern matchers in [`crate::rules`] need.

/// What a token is, coarsely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `HashMap`, `self`, …).
    Ident,
    /// String / char / byte / numeric literal (contents opaque).
    Literal,
    /// A single punctuation character.
    Punct,
    /// A lifetime marker such as `'a` (kept distinct so char-literal
    /// heuristics never leak into identifier matching).
    Lifetime,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Coarse classification.
    pub kind: TokenKind,
    /// Source text (for [`TokenKind::Literal`], a placeholder).
    pub text: String,
    /// 1-based line where the token starts.
    pub line: u32,
}

impl Token {
    /// True if this token is the identifier `s`.
    #[must_use]
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// True if this token is the punctuation character `c`.
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// One comment with its 1-based starting line. Doc comments (`///`, `//!`,
/// `/** */`, `/*! */`) are included — rules that care inspect the prefix.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line where the comment starts.
    pub line: u32,
    /// Full comment text, including the `//` / `/*` markers.
    pub text: String,
}

/// The output of [`lex`]: code tokens plus the comment side-channel.
#[derive(Debug, Default)]
pub struct LexedFile {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

impl LexedFile {
    /// Concatenated text of every comment that *starts* on `line`.
    #[must_use]
    pub fn comment_on_line(&self, line: u32) -> Option<String> {
        let mut out = String::new();
        for c in self.comments.iter().filter(|c| c.line == line) {
            out.push_str(&c.text);
            out.push(' ');
        }
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }

    /// True when an escape-hatch marker `lint: <tag>(` with a non-empty
    /// reason appears in a comment on `line` or the `lookback` lines above.
    #[must_use]
    pub fn has_escape(&self, line: u32, tag: &str, lookback: u32) -> bool {
        let lo = line.saturating_sub(lookback);
        let needle = format!("lint: {tag}(");
        self.comments
            .iter()
            .filter(|c| c.line >= lo && c.line <= line)
            .any(|c| {
                c.text.find(&needle).is_some_and(|at| {
                    let rest = &c.text[at + needle.len()..];
                    // Demand a non-empty reason before the closing paren.
                    rest.find(')')
                        .is_some_and(|end| !rest[..end].trim().is_empty())
                })
            })
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into tokens and comments.
#[must_use]
pub fn lex(src: &str) -> LexedFile {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut out = LexedFile::default();

    let count_lines = |s: &[char]| s.iter().filter(|&&c| c == '\n').count() as u32;

    while i < n {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let start = i;
            while i < n && b[i] != '\n' {
                i += 1;
            }
            out.comments.push(Comment {
                line,
                text: b[start..i].iter().collect(),
            });
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let start = i;
            let start_line = line;
            let mut depth = 1;
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    if b[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            out.comments.push(Comment {
                line: start_line,
                text: b[start..i].iter().collect(),
            });
            continue;
        }
        // Raw / byte strings: r"..", r#".."#, br".."  b"..".
        if c == 'r' || c == 'b' {
            let mut j = i;
            if b[j] == 'b' && j + 1 < n && b[j + 1] == 'r' {
                j += 1;
            }
            if b[j] == 'r' || b[j] == 'b' {
                let mut k = j + 1;
                let mut hashes = 0usize;
                while k < n && b[k] == '#' && b[j] == 'r' {
                    hashes += 1;
                    k += 1;
                }
                if k < n && b[k] == '"' && (b[j] == 'r' || hashes == 0) {
                    if b[j] == 'r' {
                        // Raw string: scan for `"` + hashes, no escapes.
                        let start_line = line;
                        k += 1;
                        'raw: while k < n {
                            if b[k] == '"' {
                                let mut h = 0usize;
                                while h < hashes && k + 1 + h < n && b[k + 1 + h] == '#' {
                                    h += 1;
                                }
                                if h == hashes {
                                    k += 1 + hashes;
                                    break 'raw;
                                }
                            }
                            k += 1;
                        }
                        line += count_lines(&b[i..k]);
                        out.tokens.push(Token {
                            kind: TokenKind::Literal,
                            text: "\"raw\"".into(),
                            line: start_line,
                        });
                        i = k;
                        continue;
                    }
                    // b"..." — fall through to the cooked-string scanner
                    // below by advancing past the `b`.
                    i = j;
                    // The next loop iteration sees `"`. To make that true we
                    // emit nothing and let the cooked scanner run now:
                }
            }
        }
        // Cooked string (also reached as b"...").
        if c == '"' || (c == 'b' && i + 1 < n && b[i + 1] == '"') {
            let start_line = line;
            let mut k = if c == 'b' { i + 2 } else { i + 1 };
            while k < n {
                if b[k] == '\\' {
                    // An escaped `\n` (line continuation) still ends a
                    // source line — count it, or every line number after
                    // the string drifts and escape tags misattach.
                    if k + 1 < n && b[k + 1] == '\n' {
                        line += 1;
                    }
                    k += 2;
                    continue;
                }
                if b[k] == '"' {
                    k += 1;
                    break;
                }
                if b[k] == '\n' {
                    line += 1;
                }
                k += 1;
            }
            out.tokens.push(Token {
                kind: TokenKind::Literal,
                text: "\"str\"".into(),
                line: start_line,
            });
            i = k;
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            // `'\x'`-style or `'x'` → char literal; otherwise lifetime.
            let is_char = if i + 1 < n && b[i + 1] == '\\' {
                true
            } else {
                i + 2 < n && b[i + 2] == '\'' && b[i + 1] != '\''
            };
            if is_char {
                let mut k = i + 1;
                if k < n && b[k] == '\\' {
                    k += 2;
                    // \u{...}
                    while k < n && b[k] != '\'' {
                        k += 1;
                    }
                } else {
                    k += 1;
                }
                while k < n && b[k] != '\'' {
                    k += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: "'c'".into(),
                    line,
                });
                i = (k + 1).min(n);
            } else {
                let mut k = i + 1;
                while k < n && is_ident_continue(b[k]) {
                    k += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Lifetime,
                    text: b[i..k].iter().collect(),
                    line,
                });
                i = k;
            }
            continue;
        }
        // Number.
        if c.is_ascii_digit() {
            let mut k = i + 1;
            while k < n {
                let d = b[k];
                if d.is_alphanumeric() || d == '_' {
                    k += 1;
                } else if d == '.' && k + 1 < n && b[k + 1].is_ascii_digit() {
                    // Consume a decimal point but never a `..` range.
                    k += 1;
                } else {
                    break;
                }
            }
            out.tokens.push(Token {
                kind: TokenKind::Literal,
                text: b[i..k].iter().collect(),
                line,
            });
            i = k;
            continue;
        }
        // Identifier / keyword (incl. raw identifiers `r#type`).
        if is_ident_start(c) {
            let mut k = i + 1;
            while k < n && is_ident_continue(b[k]) {
                k += 1;
            }
            let mut text: String = b[i..k].iter().collect();
            if text == "r" && k + 1 < n && b[k] == '#' && is_ident_start(b[k + 1]) {
                let mut m = k + 2;
                while m < n && is_ident_continue(b[m]) {
                    m += 1;
                }
                text = b[k + 1..m].iter().collect();
                i = m;
            } else {
                i = k;
            }
            out.tokens.push(Token {
                kind: TokenKind::Ident,
                text,
                line,
            });
            continue;
        }
        // Everything else: single punctuation char.
        out.tokens.push(Token {
            kind: TokenKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_not_code() {
        let lexed = lex(r##"
            // a comment with unwrap() inside
            let s = "unwrap() in a string";
            let r = r#"panic!("x") in a raw string"#;
            /* block with HashMap */
            map.iter();
        "##);
        let idents: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert!(idents.contains(&"iter"));
        assert!(!idents.contains(&"unwrap"));
        assert!(!idents.contains(&"panic"));
        assert!(!idents.contains(&"HashMap"));
        assert_eq!(lexed.comments.len(), 2);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        assert_eq!(lifetimes, 2);
        let chars = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal && t.text == "'c'")
            .count();
        assert_eq!(chars, 1);
    }

    #[test]
    fn line_numbers_are_tracked() {
        let lexed = lex("a\nb\n\nc");
        let lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn escape_hatch_requires_reason() {
        let lexed = lex("// lint: drop-ok(flush is infallible here)\nx.flush();\n// lint: drop-ok()\ny.flush();");
        assert!(lexed.has_escape(2, "drop-ok", 2));
        assert!(!lexed.has_escape(4, "drop-ok", 1));
    }

    #[test]
    fn raw_strings_hide_contents_at_any_hash_depth() {
        // `"#` inside a `##`-delimited raw string must not close it, and
        // no identifier inside any raw form may leak into the stream.
        let lexed = lex("let a = r\"plain unwrap()\";\n\
             let b = r##\"inner \"# panic!(\"x\") quote\"##;\n\
             let c = br#\"bytes with unwrap()\"#;\n\
             tail();");
        let idents: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert!(!idents.contains(&"unwrap"), "{idents:?}");
        assert!(!idents.contains(&"panic"), "{idents:?}");
        assert!(idents.contains(&"tail"), "{idents:?}");
    }

    #[test]
    fn multiline_raw_strings_keep_line_numbers() {
        let lexed = lex("let s = r#\"one\ntwo\nthree\"#;\nafter();");
        let after = lexed
            .tokens
            .iter()
            .find(|t| t.is_ident("after"))
            .expect("after token");
        assert_eq!(after.line, 4);
    }

    #[test]
    fn nested_block_comments_close_at_matching_depth() {
        let lexed = lex("/* outer /* inner unwrap() */ still comment */ code();");
        let idents: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, vec!["code"], "{idents:?}");
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.comments[0].text.contains("still comment"));
    }

    #[test]
    fn nested_block_comment_lines_are_counted() {
        let lexed = lex("/* a\n/* b\n*/\nc */\nafter();");
        let after = lexed
            .tokens
            .iter()
            .find(|t| t.is_ident("after"))
            .expect("after token");
        assert_eq!(after.line, 5);
    }

    #[test]
    fn escaped_newline_in_string_still_counts_the_line() {
        // A `\` line continuation inside a cooked string ends a source
        // line; tokens after the string must not drift up by one.
        let lexed = lex("let s = \"a \\\nb\";\nafter();");
        let after = lexed
            .tokens
            .iter()
            .find(|t| t.is_ident("after"))
            .expect("after token");
        assert_eq!(after.line, 3);
    }

    #[test]
    fn byte_strings_are_opaque_literals() {
        let lexed = lex("let k = b\"payload unwrap()\"; go();");
        let idents: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert!(!idents.contains(&"unwrap"), "{idents:?}");
        assert!(idents.contains(&"go"));
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let lexed = lex("for i in 0..10 {}");
        let puncts: String = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Punct)
            .map(|t| t.text.as_str())
            .collect();
        assert!(puncts.contains(".."));
    }
}
