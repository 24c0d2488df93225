//! The per-file line/function model the lints anchor on.
//!
//! A [`SourceFile`] wraps the raw token stream from [`crate::lexer`]
//! with the three structures every lint needs:
//!
//! * a per-line classification (blank / comment-only / attribute /
//!   code) so annotation blocks can be walked upward without regex;
//! * function spans (name, declaration line, body token range) found
//!   by tracking brace depth, so findings can be attributed to the
//!   function that contains them and fn-level annotations resolve;
//! * `#[cfg(test)]` / `#[test]` regions, so lints skip test code —
//!   tests are allowed `HashMap`s, `Relaxed` probes and the rest.
//!
//! Annotation resolution (`has_marker`) is deliberately strict about
//! *where* a justification may live: on the offending line itself, in
//! the contiguous comment/attribute block directly above it, or at the
//! head of the enclosing function. A comment three blank lines away
//! does not count — the justification must stay glued to the code it
//! justifies, or it rots.

use crate::lexer::{lex, Token, TokenKind};

/// Classification of a single source line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LineKind {
    /// Nothing but whitespace.
    Blank,
    /// Only comment content (including interior lines of a block
    /// comment).
    CommentOnly,
    /// An attribute line (`#[...]` / `#![...]`), possibly with a
    /// trailing comment.
    Attr,
    /// Anything with real code on it.
    Code,
}

/// A function found by the brace tracker.
#[derive(Clone, Debug)]
pub(crate) struct FnSpan {
    /// The declared name (raw idents unprefixed).
    pub(crate) name: String,
    /// 1-based line of the `fn` keyword.
    pub(crate) decl_line: usize,
    /// Token index of the `fn` keyword.
    pub(crate) sig_start_tok: usize,
    /// Token index of the `{` opening the body (== `sig_end`), or the
    /// token count when the fn has no body (trait method ending in `;`).
    pub(crate) body_open_tok: usize,
    /// Token index of the matching `}` (exclusive bound for body
    /// tokens); equals `body_open_tok` when there is no body.
    pub(crate) body_close_tok: usize,
    /// 1-based line range of the body, inclusive.
    pub(crate) body_lines: (usize, usize),
    /// Whether this fn sits inside `#[cfg(test)]` / is `#[test]`.
    pub(crate) is_test: bool,
}

impl FnSpan {
    /// Whether this function has a body containing `line`.
    pub(crate) fn body_contains(&self, line: usize) -> bool {
        self.body_open_tok < self.body_close_tok
            && line >= self.body_lines.0
            && line <= self.body_lines.1
    }
}

/// A lexed + structured source file.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub(crate) rel_path: String,
    /// The full token stream, comments included.
    pub(crate) tokens: Vec<Token>,
    /// Per-line classification, index 0 == line 1.
    pub(crate) line_kinds: Vec<LineKind>,
    /// Functions in declaration order.
    pub(crate) fns: Vec<FnSpan>,
    /// Line ranges (inclusive) of `#[cfg(test)] mod` bodies.
    pub(crate) test_ranges: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lexes and structures one file.
    pub(crate) fn parse(rel_path: String, text: &str) -> Self {
        let tokens = lex(text);
        let lines: Vec<String> = text.lines().map(|l| l.to_string()).collect();
        let line_kinds = classify_lines(&lines, &tokens);
        let (fns, test_ranges) = find_fns(&tokens);
        Self {
            rel_path,
            tokens,
            line_kinds,
            fns,
            test_ranges,
        }
    }

    /// The crate this file belongs to, derived from its workspace
    /// path: `crates/<dir>/src/...` → the dir name, `src/...` → the
    /// facade crate.
    pub(crate) fn crate_name(&self) -> &str {
        let mut parts = self.rel_path.split('/');
        match parts.next() {
            Some("crates") => parts.next().unwrap_or("unknown"),
            Some("src") => "man-repro",
            _ => "unknown",
        }
    }

    /// Whether `line` falls inside test code (a `#[cfg(test)]` module
    /// or a `#[test]` function).
    pub(crate) fn in_test_code(&self, line: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(lo, hi)| line >= lo && line <= hi)
            || self.fns.iter().any(|f| f.is_test && f.body_contains(line))
    }

    /// The innermost function whose body contains `line`.
    pub(crate) fn enclosing_fn(&self, line: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.body_contains(line))
            .max_by_key(|f| f.body_lines.0)
    }

    /// Concatenated text of comment tokens *starting* on `line`.
    fn comment_text_on(&self, line: usize) -> String {
        let mut out = String::new();
        for t in &self.tokens {
            if t.line == line && t.is_comment() {
                out.push_str(&t.text);
                out.push('\n');
            }
        }
        out
    }

    /// Collects comment text from the contiguous comment/attribute
    /// block ending directly above `line` (stops at the first blank or
    /// code line).
    fn block_above(&self, line: usize) -> String {
        let mut out = String::new();
        let mut l = line;
        while l > 1 {
            l -= 1;
            match self.line_kinds.get(l - 1) {
                Some(LineKind::CommentOnly) | Some(LineKind::Attr) => {
                    out.push_str(&self.comment_text_on(l));
                }
                _ => break,
            }
        }
        out
    }

    /// Whether a justification containing `marker` (e.g. `"SAFETY:"`)
    /// is attached to `line`: same line, contiguous block above, or
    /// the head of the enclosing function (its decl line, the block
    /// above it, or a `# Safety`-style doc section — doc comments are
    /// comment tokens too).
    pub(crate) fn has_marker(&self, line: usize, markers: &[&str]) -> bool {
        let hit = |text: &str| markers.iter().any(|m| text.contains(m));
        if hit(&self.comment_text_on(line)) || hit(&self.block_above(line)) {
            return true;
        }
        if let Some(f) = self.enclosing_fn(line) {
            if hit(&self.comment_text_on(f.decl_line)) || hit(&self.block_above(f.decl_line)) {
                return true;
            }
        }
        false
    }

    /// Iterator over non-comment tokens with their indices.
    pub(crate) fn code_tokens(&self) -> impl Iterator<Item = (usize, &Token)> {
        self.tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
    }
}

fn classify_lines(lines: &[String], tokens: &[Token]) -> Vec<LineKind> {
    let mut kinds = vec![LineKind::Blank; lines.len()];
    let mark = |kinds: &mut Vec<LineKind>, line: usize, k: LineKind| {
        if line >= 1 && line <= kinds.len() {
            let cur = &mut kinds[line - 1];
            // Code beats Attr beats CommentOnly beats Blank.
            let rank = |k: &LineKind| match k {
                LineKind::Blank => 0,
                LineKind::CommentOnly => 1,
                LineKind::Attr => 2,
                LineKind::Code => 3,
            };
            if rank(&k) > rank(cur) {
                *cur = k;
            }
        }
    };
    // Track whether the current code run is an attribute: `#` (optional
    // `!`) `[` ... matching `]`.
    let mut attr_bracket_depth = 0usize;
    let mut prev_was_hash = false;
    for t in tokens {
        let span_lines = t.text.matches('\n').count();
        if t.is_comment() {
            for l in t.line..=t.line + span_lines {
                mark(&mut kinds, l, LineKind::CommentOnly);
            }
            continue;
        }
        let in_attr = attr_bracket_depth > 0
            || t.is_punct('#')
            || (prev_was_hash && (t.is_punct('!') || t.is_punct('[')));
        let kind = if in_attr {
            LineKind::Attr
        } else {
            LineKind::Code
        };
        for l in t.line..=t.line + span_lines {
            mark(&mut kinds, l, kind);
        }
        if t.is_punct('[') && (attr_bracket_depth > 0 || prev_was_hash) {
            attr_bracket_depth += 1;
        } else if t.is_punct(']') && attr_bracket_depth > 0 {
            attr_bracket_depth -= 1;
        }
        prev_was_hash = t.is_punct('#') || (prev_was_hash && t.is_punct('!'));
    }
    kinds
}

/// Single pass over the token stream: finds fn spans via a brace stack
/// and `#[cfg(test)] mod` / `#[test] fn` regions.
fn find_fns(tokens: &[Token]) -> (Vec<FnSpan>, Vec<(usize, usize)>) {
    #[derive(Clone, Copy)]
    enum Open {
        Plain,
        FnBody(usize), // index into fns
        TestMod,
    }
    let mut fns: Vec<FnSpan> = Vec::new();
    let mut test_ranges: Vec<(usize, usize)> = Vec::new();
    let mut stack: Vec<Open> = Vec::new();
    let mut pending_fn: Option<usize> = None;
    let mut sig_bracket_depth = 0usize; // `[..]` nesting inside a pending signature
    let mut pending_test_attr = false; // saw #[test] or #[cfg(test)]
    let mut pending_test_mod = false; // ... and then `mod`
    let mut test_depth = 0usize; // nested inside any test region?

    let code: Vec<(usize, &Token)> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .collect();
    let at = |i: usize| code.get(i).map(|(_, t)| *t);

    let mut i = 0usize;
    while i < code.len() {
        let (tok_idx, t) = code[i];
        if t.is_ident("fn") {
            // Name is the next ident (skip nothing else: `fn name`).
            if let Some(name_tok) = at(i + 1) {
                if matches!(name_tok.kind, TokenKind::Ident | TokenKind::RawIdent) {
                    fns.push(FnSpan {
                        name: name_tok.text.clone(),
                        decl_line: t.line,
                        sig_start_tok: tok_idx,
                        body_open_tok: tokens.len(),
                        body_close_tok: tokens.len(),
                        body_lines: (t.line, t.line),
                        is_test: pending_test_attr || test_depth > 0,
                    });
                    pending_fn = Some(fns.len() - 1);
                    sig_bracket_depth = 0;
                    pending_test_attr = false;
                }
            }
        } else if t.is_ident("cfg") {
            // `#[cfg(test)]` — look for `(` `test`.
            if at(i + 1).is_some_and(|t| t.is_punct('('))
                && at(i + 2).is_some_and(|t| t.is_ident("test"))
            {
                pending_test_attr = true;
            }
        } else if t.is_ident("test") {
            // Bare `#[test]`: previous code token is `[`, next is `]`.
            let prev_is_open = i > 0 && code[i - 1].1.is_punct('[');
            let next_is_close = at(i + 1).is_some_and(|t| t.is_punct(']'));
            if prev_is_open && next_is_close {
                pending_test_attr = true;
            }
        } else if t.is_ident("mod") {
            if pending_test_attr {
                pending_test_mod = true;
                pending_test_attr = false;
            }
        } else if t.is_punct('[') {
            if pending_fn.is_some() {
                sig_bracket_depth += 1;
            }
        } else if t.is_punct(']') {
            if pending_fn.is_some() {
                sig_bracket_depth = sig_bracket_depth.saturating_sub(1);
            }
        } else if t.is_punct(';') {
            // A `;` before any `{` cancels a pending bodiless fn
            // (trait method) or a `mod foo;` declaration — unless it is
            // the length separator of an array type (`[u64; N]`) inside
            // the signature.
            if sig_bracket_depth == 0 {
                pending_fn = None;
                pending_test_mod = false;
            }
        } else if t.is_punct('{') {
            let open = if let Some(fi) = pending_fn.take() {
                fns[fi].body_open_tok = tok_idx;
                fns[fi].body_lines.0 = t.line;
                Open::FnBody(fi)
            } else if pending_test_mod {
                pending_test_mod = false;
                test_depth += 1;
                test_ranges.push((t.line, t.line));
                Open::TestMod
            } else {
                Open::Plain
            };
            stack.push(open);
        } else if t.is_punct('}') {
            match stack.pop() {
                Some(Open::FnBody(fi)) => {
                    fns[fi].body_close_tok = tok_idx;
                    fns[fi].body_lines.1 = t.line;
                }
                Some(Open::TestMod) => {
                    test_depth = test_depth.saturating_sub(1);
                    if let Some(last) = test_ranges.last_mut() {
                        last.1 = t.line;
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }
    (fns, test_ranges)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse("crates/x/src/lib.rs".into(), src)
    }

    #[test]
    fn fn_spans_track_names_and_bodies() {
        let sf = parse("fn alpha() {\n    inner();\n}\n\nfn beta(x: u32) -> u32 {\n    x\n}\n");
        assert_eq!(sf.fns.len(), 2);
        assert_eq!(sf.fns[0].name, "alpha");
        assert_eq!(sf.fns[0].body_lines, (1, 3));
        assert_eq!(sf.fns[1].name, "beta");
        assert_eq!(sf.fns[1].body_lines, (5, 7));
        assert_eq!(sf.enclosing_fn(2).map(|f| f.name.as_str()), Some("alpha"));
        assert_eq!(sf.enclosing_fn(6).map(|f| f.name.as_str()), Some("beta"));
        assert!(sf.enclosing_fn(4).is_none());
    }

    #[test]
    fn array_type_semicolon_in_signature_keeps_the_fn_body() {
        // The `;` in `[u64; 4]` is an array-length separator, not a
        // bodiless-fn terminator — `load`'s body must still be tracked.
        let sf = parse("fn load(&self) -> ([u64; 4], u64) {\n    inner();\n}\n");
        assert_eq!(sf.fns.len(), 1);
        assert_eq!(sf.fns[0].name, "load");
        assert_eq!(sf.enclosing_fn(2).map(|f| f.name.as_str()), Some("load"));
    }

    #[test]
    fn nested_fns_resolve_to_the_innermost() {
        let sf = parse("fn outer() {\n    fn inner() {\n        x();\n    }\n    y();\n}\n");
        assert_eq!(sf.enclosing_fn(3).map(|f| f.name.as_str()), Some("inner"));
        assert_eq!(sf.enclosing_fn(5).map(|f| f.name.as_str()), Some("outer"));
    }

    #[test]
    fn trait_methods_without_bodies_do_not_swallow_the_next_brace() {
        let sf = parse("trait T {\n    fn sig(&self);\n}\nfn real() {\n    z();\n}\n");
        let real = sf.fns.iter().find(|f| f.name == "real").expect("real fn");
        assert_eq!(real.body_lines, (4, 6));
        let sig = sf.fns.iter().find(|f| f.name == "sig").expect("sig fn");
        assert_eq!(sig.body_open_tok, sig.body_close_tok, "no body");
    }

    #[test]
    fn cfg_test_modules_and_test_fns_are_detected() {
        let src = "fn prod() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        probe();\n    }\n}\n";
        let sf = parse(src);
        assert!(!sf.in_test_code(1));
        assert!(sf.in_test_code(7));
        let t = sf.fns.iter().find(|f| f.name == "t").expect("test fn");
        assert!(t.is_test);
        assert!(!sf.fns.iter().find(|f| f.name == "prod").unwrap().is_test);
    }

    #[test]
    fn line_kinds_classify_blank_comment_attr_code() {
        let src = "// comment\n\n#[derive(Debug)]\nstruct S;\n/* multi\nline */\n";
        let sf = parse(src);
        assert_eq!(sf.line_kinds[0], LineKind::CommentOnly);
        assert_eq!(sf.line_kinds[1], LineKind::Blank);
        assert_eq!(sf.line_kinds[2], LineKind::Attr);
        assert_eq!(sf.line_kinds[3], LineKind::Code);
        assert_eq!(sf.line_kinds[4], LineKind::CommentOnly);
        assert_eq!(sf.line_kinds[5], LineKind::CommentOnly);
    }

    #[test]
    fn markers_resolve_same_line_block_above_and_fn_level() {
        let src = concat!(
            "fn a() {\n",
            "    work(); // SAFETY: same line\n",
            "}\n",
            "fn b() {\n",
            "    // SAFETY: block above\n",
            "    #[allow(dead_code)]\n",
            "    work();\n",
            "}\n",
            "/// docs\n",
            "/// # Safety\n",
            "/// fn-level justification\n",
            "fn c() {\n",
            "    work();\n",
            "}\n",
            "fn d() {\n",
            "    // SAFETY: too far — blank line breaks the block\n",
            "\n",
            "    work();\n",
            "}\n",
        );
        let sf = parse(src);
        let markers = &["SAFETY:", "# Safety"];
        assert!(sf.has_marker(2, markers), "same line");
        assert!(sf.has_marker(7, markers), "block above, through an attr");
        assert!(sf.has_marker(13, markers), "fn-level doc section");
        assert!(!sf.has_marker(18, markers), "blank line breaks the block");
    }

    #[test]
    fn crate_name_derivation() {
        let a = SourceFile::parse("crates/par/src/lib.rs".into(), "");
        assert_eq!(a.crate_name(), "par");
        let b = SourceFile::parse("src/session.rs".into(), "");
        assert_eq!(b.crate_name(), "man-repro");
    }
}
