//! A lightweight Rust lexer: just enough tokenization for line-anchored
//! lints, with none of `syn`/`quote` (the vendor policy forbids proc-macro
//! infrastructure, and the lints only need token kinds and line numbers).
//!
//! The hard part of lexing Rust for a linter is not the grammar — it is
//! making sure that a `HashMap` inside a string literal, a `// SAFETY:`
//! inside a raw string, or an `unsafe` inside a comment can never
//! confuse a lint. So the lexer's one job is to classify every byte of
//! the file into exactly one of: comment, string/char literal, number,
//! identifier, punctuation — with correct handling of the constructs
//! that break naive scanners:
//!
//! * nested block comments (`/* a /* b */ c */` is ONE comment);
//! * raw strings with arbitrary hash fences (`r#"..."#`, `r##"..."##`),
//!   including raw byte strings (`br#"..."#`);
//! * raw identifiers (`r#fn` is an identifier, not a raw string);
//! * char literals vs lifetimes (`'a'` vs `'a`), including `'"'`, `'{'`
//!   and escapes like `'\''`;
//! * floats vs ranges (`1.5` is one float; `0..n` is int-punct-punct).
//!
//! Every token carries its 1-based start line and column, so lints can
//! anchor findings and look up nearby comments without drift.

/// What a token is. Comments are tokens too — the annotation lints
/// (`// SAFETY:`, `// ORDERING:`, `// DETERMINISM:`) read them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// A plain identifier or keyword (`fn`, `unsafe`, `HashMap`, ...).
    Ident,
    /// A raw identifier (`r#fn`); `text` holds the part after `r#`.
    RawIdent,
    /// A lifetime (`'a`, `'static`); `text` holds the part after `'`.
    Lifetime,
    /// An integer literal (including its suffix, e.g. `42u64`).
    Int,
    /// A float literal (`1.5`, `2.0e-3`, `1f64`).
    Float,
    /// A `"..."` string literal (text excludes the quotes).
    Str,
    /// A raw string literal (`r"..."`, `r#"..."#`).
    RawStr,
    /// A byte-string literal (`b"..."`, `br#"..."#`).
    ByteStr,
    /// A char literal (`'x'`, `'\''`, `'"'`).
    Char,
    /// A byte literal (`b'x'`).
    Byte,
    /// A single punctuation character. Multi-char operators arrive as
    /// adjacent tokens (`+=` is `+` then `=` with consecutive columns).
    Punct,
    /// A `//` comment; `text` is the body after the slashes (so doc
    /// comments keep their extra `/` or `!` as the first char).
    LineComment,
    /// A `/* */` comment (nesting handled); `text` is the body between
    /// the outermost delimiters, newlines preserved.
    BlockComment,
}

/// One lexed token with its anchor position.
#[derive(Clone, Debug)]
pub(crate) struct Token {
    /// Classification.
    pub(crate) kind: TokenKind,
    /// 1-based line of the token's first character.
    pub(crate) line: usize,
    /// 1-based column (in chars) of the token's first character.
    pub(crate) col: usize,
    /// The token text (see the kind docs for what is included).
    pub(crate) text: String,
}

impl Token {
    /// `true` for the comment kinds.
    pub(crate) fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }

    /// `true` when this is punctuation `c`.
    pub(crate) fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.as_bytes().first() == Some(&(c as u8))
    }

    /// `true` when this is an identifier with exactly this text (raw
    /// identifiers compare by their unprefixed name).
    pub(crate) fn is_ident(&self, s: &str) -> bool {
        matches!(self.kind, TokenKind::Ident | TokenKind::RawIdent) && self.text == s
    }
}

struct Cursor<'a> {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    col: usize,
    src: std::marker::PhantomData<&'a str>,
}

impl Cursor<'_> {
    fn new(src: &str) -> Self {
        Self {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
            src: std::marker::PhantomData,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn eat_while(&mut self, pred: impl Fn(char) -> bool, out: &mut String) {
        while let Some(c) = self.peek(0) {
            if pred(c) {
                out.push(c);
                self.bump();
            } else {
                break;
            }
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Lexes a Rust source file into a flat token stream (comments
/// included). The lexer never fails: unterminated literals are closed at
/// end of file, and any byte it cannot classify becomes punctuation —
/// a linter must keep going where a compiler would stop.
pub(crate) fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor::new(src);
    let mut out = Vec::new();
    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        let tok = |kind, text| Token {
            kind,
            line,
            col,
            text,
        };
        match c {
            c if c.is_whitespace() => {
                cur.bump();
            }
            '/' if cur.peek(1) == Some('/') => {
                cur.bump();
                cur.bump();
                let mut text = String::new();
                cur.eat_while(|c| c != '\n', &mut text);
                out.push(tok(TokenKind::LineComment, text));
            }
            '/' if cur.peek(1) == Some('*') => {
                cur.bump();
                cur.bump();
                let mut text = String::new();
                let mut depth = 1usize;
                while depth > 0 {
                    match (cur.peek(0), cur.peek(1)) {
                        (Some('/'), Some('*')) => {
                            depth += 1;
                            text.push('/');
                            text.push('*');
                            cur.bump();
                            cur.bump();
                        }
                        (Some('*'), Some('/')) => {
                            depth -= 1;
                            cur.bump();
                            cur.bump();
                            if depth > 0 {
                                text.push('*');
                                text.push('/');
                            }
                        }
                        (Some(ch), _) => {
                            text.push(ch);
                            cur.bump();
                        }
                        (None, _) => break, // unterminated: close at EOF
                    }
                }
                out.push(tok(TokenKind::BlockComment, text));
            }
            '"' => {
                cur.bump();
                out.push(tok(TokenKind::Str, lex_quoted(&mut cur, '"')));
            }
            '\'' => {
                cur.bump();
                out.push(lex_quote_tail(&mut cur, line, col));
            }
            'r' if matches!(cur.peek(1), Some('"') | Some('#')) => {
                if let Some(t) = try_raw_string(&mut cur, TokenKind::RawStr, 1, line, col) {
                    out.push(t);
                } else if cur.peek(1) == Some('#') && cur.peek(2).is_some_and(is_ident_start) {
                    cur.bump();
                    cur.bump();
                    let mut text = String::new();
                    cur.eat_while(is_ident_continue, &mut text);
                    out.push(tok(TokenKind::RawIdent, text));
                } else {
                    cur.bump();
                    out.push(tok(TokenKind::Ident, "r".into()));
                }
            }
            'b' if cur.peek(1) == Some('\'') => {
                cur.bump();
                cur.bump();
                let mut t = lex_quote_tail(&mut cur, line, col);
                t.kind = TokenKind::Byte;
                out.push(t);
            }
            'b' if cur.peek(1) == Some('"') => {
                cur.bump();
                cur.bump();
                out.push(tok(TokenKind::ByteStr, lex_quoted(&mut cur, '"')));
            }
            'b' if cur.peek(1) == Some('r') && matches!(cur.peek(2), Some('"') | Some('#')) => {
                if let Some(t) = try_raw_string(&mut cur, TokenKind::ByteStr, 2, line, col) {
                    out.push(t);
                } else {
                    cur.bump();
                    let mut text = String::from("b");
                    cur.eat_while(is_ident_continue, &mut text);
                    out.push(tok(TokenKind::Ident, text));
                }
            }
            c if is_ident_start(c) => {
                let mut text = String::new();
                cur.eat_while(is_ident_continue, &mut text);
                out.push(tok(TokenKind::Ident, text));
            }
            c if c.is_ascii_digit() => {
                let mut text = String::new();
                cur.eat_while(|c| c.is_ascii_alphanumeric() || c == '_', &mut text);
                let mut kind = TokenKind::Int;
                // `1.5` continues the literal; `0..n` and `x.0.1` do not.
                if cur.peek(0) == Some('.') && cur.peek(1).is_some_and(|c| c.is_ascii_digit()) {
                    kind = TokenKind::Float;
                    text.push('.');
                    cur.bump();
                    cur.eat_while(|c| c.is_ascii_alphanumeric() || c == '_', &mut text);
                    // Exponent sign: `1.0e-3`.
                    if text.ends_with(['e', 'E']) && matches!(cur.peek(0), Some('+') | Some('-')) {
                        text.push(cur.bump().unwrap_or('-'));
                        cur.eat_while(|c| c.is_ascii_alphanumeric() || c == '_', &mut text);
                    }
                }
                if text.ends_with("f32") || text.ends_with("f64") {
                    kind = TokenKind::Float;
                }
                out.push(tok(kind, text));
            }
            c => {
                cur.bump();
                out.push(tok(TokenKind::Punct, c.to_string()));
            }
        }
    }
    out
}

/// Consumes a `"`-quoted body (opening quote already consumed),
/// honoring backslash escapes. Returns the body text.
fn lex_quoted(cur: &mut Cursor<'_>, close: char) -> String {
    let mut text = String::new();
    while let Some(c) = cur.peek(0) {
        if c == '\\' {
            text.push(c);
            cur.bump();
            if let Some(esc) = cur.bump() {
                text.push(esc);
            }
        } else if c == close {
            cur.bump();
            break;
        } else {
            text.push(c);
            cur.bump();
        }
    }
    text
}

/// Disambiguates what follows a consumed `'`: a char literal (`'x'`,
/// `'\n'`, `'"'`) or a lifetime (`'a`, `'static`).
fn lex_quote_tail(cur: &mut Cursor<'_>, line: usize, col: usize) -> Token {
    let mk = |kind, text: String| Token {
        kind,
        line,
        col,
        text,
    };
    match cur.peek(0) {
        Some('\\') => {
            // Escaped char literal: consume escape then closing quote.
            let mut text = String::new();
            text.push(cur.bump().unwrap_or('\\'));
            if let Some(esc) = cur.bump() {
                text.push(esc);
            }
            if cur.peek(0) == Some('\'') {
                cur.bump();
            }
            mk(TokenKind::Char, text)
        }
        Some(c) if is_ident_start(c) && cur.peek(1) != Some('\'') => {
            // Lifetime: ident-start not followed by a closing quote.
            let mut text = String::new();
            cur.eat_while(is_ident_continue, &mut text);
            mk(TokenKind::Lifetime, text)
        }
        Some(c) => {
            // Plain char literal — including `'"'` and `'{'`.
            cur.bump();
            if cur.peek(0) == Some('\'') {
                cur.bump();
            }
            mk(TokenKind::Char, c.to_string())
        }
        None => mk(TokenKind::Char, String::new()),
    }
}

/// Attempts to lex a raw (byte) string starting at the current `r` /
/// `br`. Returns `None` without consuming anything when the hashes are
/// not followed by a quote (i.e. it is a raw identifier like `r#match`).
fn try_raw_string(
    cur: &mut Cursor<'_>,
    kind: TokenKind,
    prefix_len: usize,
    line: usize,
    col: usize,
) -> Option<Token> {
    // Count fence hashes after the prefix.
    let mut hashes = 0usize;
    while cur.peek(prefix_len + hashes) == Some('#') {
        hashes += 1;
    }
    if cur.peek(prefix_len + hashes) != Some('"') {
        return None;
    }
    for _ in 0..prefix_len + hashes + 1 {
        cur.bump();
    }
    let mut text = String::new();
    'body: while let Some(c) = cur.peek(0) {
        if c == '"' {
            // A close candidate: `"` followed by `hashes` hashes.
            let mut ok = true;
            for i in 0..hashes {
                if cur.peek(1 + i) != Some('#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                for _ in 0..hashes + 1 {
                    cur.bump();
                }
                break 'body;
            }
        }
        text.push(c);
        cur.bump();
    }
    Some(Token {
        kind,
        line,
        col,
        text,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn raw_strings_with_fences_hide_their_contents() {
        // A `// SAFETY:` or `unsafe` inside a raw string must never
        // surface as an ident or comment token.
        let src = r####"let x = r#"unsafe // SAFETY: not a comment"#;"####;
        let toks = kinds(src);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::RawStr && t.contains("SAFETY")));
        assert!(!toks.iter().any(|(k, _)| *k == TokenKind::LineComment));
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "unsafe"));

        // Double-hash fence with an embedded single-hash close.
        let src2 = r####"r##"inner "# still raw"##"####;
        let toks2 = kinds(src2);
        assert_eq!(toks2.len(), 1);
        assert_eq!(toks2[0].0, TokenKind::RawStr);
        assert_eq!(toks2[0].1, r##"inner "# still raw"##);
    }

    #[test]
    fn nested_block_comments_stay_one_token() {
        let src = "/* outer /* inner */ tail */ fn x() {}";
        let toks = lex(src);
        assert_eq!(toks[0].kind, TokenKind::BlockComment);
        assert_eq!(toks[0].text, " outer /* inner */ tail ");
        assert!(toks[1].is_ident("fn"));
    }

    #[test]
    fn multiline_block_comment_anchors_at_its_start_line() {
        let src = "a\n/* one\ntwo\nthree */\nb";
        let toks = lex(src);
        assert_eq!(toks[1].kind, TokenKind::BlockComment);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].text, "b");
        assert_eq!(toks[2].line, 5, "lines inside the comment still count");
    }

    #[test]
    fn raw_identifiers_are_idents_not_strings() {
        let toks = lex("let r#fn = r#struct; r#\"raw\"#");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::RawIdent && t.text == "fn"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::RawIdent && t.text == "struct"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::RawStr && t.text == "raw"));
        assert!(
            lex("r#fn")[0].is_ident("fn"),
            "raw idents compare unprefixed"
        );
    }

    #[test]
    fn char_literals_with_quote_and_brace_do_not_derail() {
        // '"' then '{' then a normal string: if the lexer mistook either
        // char literal for a string opener, `not_a_string` would vanish
        // into a string token.
        let src = "let a = '\"'; let b = '{'; let c = not_a_string;";
        let toks = lex(src);
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Char && t.text == "\""));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Char && t.text == "{"));
        assert!(toks.iter().any(|t| t.is_ident("not_a_string")));
        assert!(!toks.iter().any(|t| t.kind == TokenKind::Str));
    }

    #[test]
    fn escaped_char_literals_and_lifetimes_disambiguate() {
        let toks = lex(r"fn f<'a>(x: &'a str) { let q = '\''; let n = '\n'; }");
        assert_eq!(
            toks.iter()
                .filter(|t| t.kind == TokenKind::Lifetime)
                .count(),
            2
        );
        assert_eq!(toks.iter().filter(|t| t.kind == TokenKind::Char).count(), 2);
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Lifetime && t.text == "a"));
    }

    #[test]
    fn floats_versus_ranges() {
        let toks = lex("let a = 1.5; for i in 0..n {} let b = 2.0e-3f64; let c = x.0;");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Float && t.text == "1.5"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Float && t.text == "2.0e-3f64"));
        // `0..n`: int 0, two dot puncts.
        let zero = toks
            .iter()
            .position(|t| t.kind == TokenKind::Int && t.text == "0");
        let z = zero.expect("int 0 from the range");
        assert!(toks[z + 1].is_punct('.') && toks[z + 2].is_punct('.'));
        // `x.0`: tuple access stays an int, not a float.
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Int && t.text == "42" || t.text == "0"));
        assert!(toks.iter().any(|t| t.is_ident("n")));
    }

    #[test]
    fn float_suffix_without_dot_is_a_float() {
        let toks = lex("let a = 1f64; let b = 3f32; let c = 7u32;");
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokenKind::Float).count(),
            2
        );
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Int && t.text == "7u32"));
    }

    #[test]
    fn byte_strings_and_byte_literals() {
        let toks = lex(r##"let a = b"bytes"; let b = b'\n'; let c = br#"raw bytes"#;"##);
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::ByteStr && t.text == "bytes"));
        assert!(toks.iter().any(|t| t.kind == TokenKind::Byte));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::ByteStr && t.text == "raw bytes"));
    }

    #[test]
    fn compound_operators_arrive_as_adjacent_columns() {
        let toks = lex("acc += 1;");
        let plus = toks.iter().position(|t| t.is_punct('+')).expect("plus");
        assert!(toks[plus + 1].is_punct('='));
        assert_eq!(toks[plus + 1].col, toks[plus].col + 1);
        // `a + -b` is NOT a compound assignment: columns are not adjacent.
        let toks2 = lex("a + -b;");
        let p = toks2.iter().position(|t| t.is_punct('+')).expect("plus");
        assert!(toks2[p + 1].is_punct('-'));
        assert!(toks2[p + 1].col > toks2[p].col + 1);
    }

    #[test]
    fn line_comments_keep_doc_markers_and_positions() {
        let src = "/// # Safety\n//! inner\n// SAFETY: fine\nfn f() {}";
        let toks = lex(src);
        assert_eq!(toks[0].kind, TokenKind::LineComment);
        assert_eq!(toks[0].text, "/ # Safety");
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].text, "! inner");
        assert_eq!(toks[2].text, " SAFETY: fine");
        assert_eq!(toks[2].line, 3);
        assert_eq!(toks[3].line, 4);
    }

    #[test]
    fn unterminated_literals_do_not_loop_forever() {
        // A linter must survive malformed input.
        assert!(!lex("let s = \"unterminated").is_empty());
        assert!(!lex("/* unterminated").is_empty());
        assert!(!lex("r#\"unterminated").is_empty());
    }
}
