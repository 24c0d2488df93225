//! Lint class 2: determinism lints, scoped to the bit-identity-critical
//! modules (DESIGN.md §8/§10 — the quartet datapath, the fixed-point
//! engine, the shard engine, and the `man-par` pool).
//!
//! Four sub-lints, each a way nondeterminism sneaks into a numeric
//! pipeline:
//!
//! * **hash-collections** — `HashMap`/`HashSet` iteration order is
//!   randomized per process (SipHash seeding), so any use inside a
//!   bit-identity module is suspect. Keyed-lookup-only uses are fine
//!   but must say so with a `// DETERMINISM:` comment;
//! * **float-accumulation** — `x += <float>` style compound updates
//!   reorder under parallelism and re-association; the MAC datapath is
//!   integer-only by §8, so a float accumulator needs a written reason
//!   (e.g. a reporting-only energy estimate);
//! * **time** — `Instant`/`SystemTime` values must not feed anything
//!   bit-identical (timing belongs in `man-bench`);
//! * **env-reads** — `std::env::var` calls outside the documented
//!   `MAN_OBS` seeding site (`level_from_env`) would let the
//!   environment silently change numeric results.

use crate::findings::Finding;
use crate::lexer::TokenKind;
use crate::{Config, Workspace};

pub(crate) const LINT: &str = "determinism";

const MARKER: &[&str] = &["DETERMINISM:"];

pub fn run(ws: &Workspace, config: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for sf in &ws.files {
        if !config.determinism_scope.contains(&sf.rel_path.as_str()) {
            continue;
        }
        let toks: Vec<_> = sf.code_tokens().map(|(_, t)| t).collect();
        for (i, t) in toks.iter().enumerate() {
            if t.is_comment() || sf.in_test_code(t.line) {
                continue;
            }
            // Hash collections.
            if (t.is_ident("HashMap") || t.is_ident("HashSet")) && !sf.has_marker(t.line, MARKER) {
                out.push(Finding::new(
                    LINT,
                    &sf.rel_path,
                    t.line,
                    format!(
                        "{} in a bit-identity module (iteration order is randomized) without a // DETERMINISM: justification",
                        t.text
                    ),
                ));
            }
            // Time sources.
            if (t.is_ident("Instant") || t.is_ident("SystemTime")) && !sf.has_marker(t.line, MARKER)
            {
                out.push(Finding::new(
                    LINT,
                    &sf.rel_path,
                    t.line,
                    format!(
                        "{} in a bit-identity module without a // DETERMINISM: justification",
                        t.text
                    ),
                ));
            }
            // Env reads: `env :: var` / `env :: var_os` outside the
            // blessed dispatch fn.
            if t.is_ident("env")
                && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && toks
                    .get(i + 3)
                    .is_some_and(|t| t.is_ident("var") || t.is_ident("var_os"))
            {
                let allowed = sf
                    .enclosing_fn(t.line)
                    .map(|f| {
                        config
                            .env_read_allowed
                            .contains(&(sf.rel_path.as_str(), f.name.as_str()))
                    })
                    .unwrap_or(false);
                if !allowed && !sf.has_marker(t.line, MARKER) {
                    out.push(Finding::new(
                        LINT,
                        &sf.rel_path,
                        t.line,
                        "env read outside a documented env-seeding site".to_string(),
                    ));
                }
            }
            // Float accumulation: compound assign (`+=`, `-=`, `*=` as
            // two column-adjacent puncts) whose RHS (up to `;`) contains
            // a float literal or an f32/f64 ident (covers `as f64`).
            let compound = matches!(t.text.as_str(), "+" | "-" | "*")
                && t.kind == TokenKind::Punct
                && toks
                    .get(i + 1)
                    .is_some_and(|n| n.is_punct('=') && n.line == t.line && n.col == t.col + 1);
            if compound {
                let mut rhs_float = false;
                for n in toks.iter().skip(i + 2) {
                    if n.is_punct(';') || n.is_punct('{') {
                        break;
                    }
                    if n.kind == TokenKind::Float || n.is_ident("f32") || n.is_ident("f64") {
                        rhs_float = true;
                        break;
                    }
                }
                if rhs_float && !sf.has_marker(t.line, MARKER) {
                    out.push(Finding::new(
                        LINT,
                        &sf.rel_path,
                        t.line,
                        "float accumulation in a bit-identity module without a // DETERMINISM: justification"
                            .to_string(),
                    ));
                }
            }
        }
    }
    out
}
