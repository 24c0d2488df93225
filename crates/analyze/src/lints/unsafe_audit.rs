//! Lint class 1: the unsafe audit.
//!
//! Three rules:
//!
//! * every `unsafe` keyword in non-test code must carry a `// SAFETY:`
//!   justification (or a `# Safety` doc section on the enclosing fn) —
//!   the §9 latch transmute set the precedent:
//!   an unsafe block is only as sound as its written argument;
//! * every crate root (`lib.rs` / `main.rs` / `src/bin/*.rs`) must
//!   carry `#![deny(unsafe_code)]` or `#![forbid(unsafe_code)]`, so
//!   new unsafe cannot appear without a deliberate, reviewable opt-out;
//! * a scoped `#[allow(unsafe_code)]` may only appear in files on the
//!   config allowlist (today: the `man-par` latch transmute and the
//!   `man-serve` poll(2) shim).

use crate::findings::Finding;
use crate::{Config, Workspace};

pub(crate) const LINT: &str = "unsafe";

pub fn run(ws: &Workspace, config: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for sf in &ws.files {
        let is_crate_root = sf.rel_path.ends_with("/lib.rs")
            || sf.rel_path == "src/lib.rs"
            || sf.rel_path.ends_with("/main.rs")
            || sf.rel_path.contains("/src/bin/");

        // Rule 2: crate roots must deny unsafe code.
        if is_crate_root && !has_crate_level_unsafe_gate(sf) {
            out.push(Finding::new(
                LINT,
                &sf.rel_path,
                1,
                "crate root lacks #![deny(unsafe_code)] or #![forbid(unsafe_code)]".to_string(),
            ));
        }

        let toks: Vec<_> = sf.code_tokens().map(|(_, t)| t).collect();
        for (i, t) in toks.iter().enumerate() {
            // Rule 1: `unsafe` needs a SAFETY story.
            if t.is_ident("unsafe")
                && !sf.in_test_code(t.line)
                && !sf.has_marker(t.line, &["SAFETY:", "# Safety"])
            {
                out.push(Finding::new(
                    LINT,
                    &sf.rel_path,
                    t.line,
                    "unsafe without a // SAFETY: justification".to_string(),
                ));
            }
            // Rule 3: scoped allow(unsafe_code) must be allowlisted.
            if t.is_ident("allow")
                && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                && toks.get(i + 2).is_some_and(|t| t.is_ident("unsafe_code"))
                && !config.allow_unsafe_files.contains(&sf.rel_path.as_str())
            {
                out.push(Finding::new(
                    LINT,
                    &sf.rel_path,
                    t.line,
                    "#[allow(unsafe_code)] in a file not on the unsafe allowlist".to_string(),
                ));
            }
        }
    }
    out
}

/// Looks for `#![deny(unsafe_code)]` / `#![forbid(unsafe_code)]`
/// anywhere in the file (crate-root inner attributes sit at the top,
/// but position is not load-bearing for the guarantee).
fn has_crate_level_unsafe_gate(sf: &crate::model::SourceFile) -> bool {
    let toks: Vec<_> = sf.code_tokens().map(|(_, t)| t).collect();
    toks.windows(6).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && (w[3].is_ident("deny") || w[3].is_ident("forbid"))
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
    })
}
