//! Lint class 4: the atomic-ordering audit.
//!
//! `Ordering::Relaxed` is the one memory ordering whose correctness is
//! never local: it is only sound when some *other* mechanism provides
//! the visibility the atomic itself gives up (a latch's Acquire/Release
//! pair, a value-based benign race over a pure function, a monotonic
//! counter nobody reads for synchronization). That argument lives in
//! the author's head unless it is written down — so every `Relaxed` in
//! non-test code must carry an `// ORDERING:` comment (same line,
//! block above, or fn-level) stating why relaxed is enough.
//!
//! `SeqCst`/`Acquire`/`Release` are not flagged: they are the safe,
//! self-documenting defaults. Note `std::cmp::Ordering` never matches —
//! the pattern requires the literal `Ordering::Relaxed` path.

use crate::findings::Finding;
use crate::{Config, Workspace};

pub(crate) const LINT: &str = "atomics";

pub fn run(ws: &Workspace, _config: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for sf in &ws.files {
        let toks: Vec<_> = sf.code_tokens().map(|(_, t)| t).collect();
        for w in toks.windows(4) {
            if w[0].is_ident("Ordering")
                && w[1].is_punct(':')
                && w[2].is_punct(':')
                && w[3].is_ident("Relaxed")
                && !sf.in_test_code(w[0].line)
                && !sf.has_marker(w[0].line, &["ORDERING:"])
            {
                out.push(Finding::new(
                    LINT,
                    &sf.rel_path,
                    w[0].line,
                    "Ordering::Relaxed without an // ORDERING: justification".to_string(),
                ));
            }
        }
    }
    out
}
