#![forbid(unsafe_code)]
//! `man-analyze`: the workspace invariant auditor.
//!
//! The compiler proves memory safety; it cannot prove the contracts this
//! reproduction actually rests on — bit-identity of the integer MAC path
//! and every shard plan against the ASM reference (DESIGN.md §8/§10), the
//! latch argument that makes the one `man-par` transmute sound (§9), and
//! the absence of lock cycles in the serve tier. This crate audits those
//! contracts statically, with four lint classes:
//!
//! 1. **unsafe audit** — every `unsafe` needs a `// SAFETY:` story and
//!    every crate root must deny unsafe code (scoped `allow`s are
//!    allowlisted per file);
//! 2. **determinism** — bit-identity-critical modules must not reach for
//!    `HashMap`/`HashSet`, float accumulation, `Instant`, or env reads
//!    outside the documented `MAN_OBS` seeding site;
//! 3. **lock-order** — the interprocedural lock acquisition graph across
//!    serve + the facade session must stay acyclic;
//! 4. **atomics** — every `Ordering::Relaxed` needs an `// ORDERING:`
//!    justification.
//!
//! Findings diff against `ANALYZE_BASELINE.json` in the same spirit as
//! the bench regression gates: new findings fail CI, fixed findings
//! require a baseline refresh (`analyze --write-baseline`).

pub mod findings;
mod lexer;
pub mod lints;
mod model;

use findings::Finding;
use model::SourceFile;
use std::path::{Path, PathBuf};

/// Which files each scoped lint applies to, and which exceptions are
/// blessed. Paths are workspace-relative with `/` separators.
pub struct Config {
    /// Files where the determinism lints apply (bit-identity-critical
    /// modules per DESIGN.md §8/§10).
    pub(crate) determinism_scope: Vec<&'static str>,
    /// Files allowed to carry a scoped `#[allow(unsafe_code)]` (each
    /// must still justify every `unsafe` with `// SAFETY:`).
    pub(crate) allow_unsafe_files: Vec<&'static str>,
    /// The blessed env-read sites: `(file, callee ident)` — the
    /// `MAN_OBS` level seeding may read the environment.
    pub(crate) env_read_allowed: Vec<(&'static str, &'static str)>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            determinism_scope: vec![
                "crates/core/src/engine.rs",
                "crates/core/src/asm.rs",
                "crates/core/src/quartet.rs",
                "crates/core/src/fixed.rs",
                "crates/par/src/lib.rs",
                // The observability plane sits on the serving hot path
                // (DESIGN.md §12): its clock reads and env peeks must
                // carry the same justification markers.
                "crates/obs/src/lib.rs",
                "crates/obs/src/flight.rs",
            ],
            allow_unsafe_files: vec![
                // The §9 latch transmute.
                "crates/par/src/lib.rs",
                // The reactor's poll(2) shim (§13): the serve crate's
                // single unsafe expression, one audited syscall.
                "crates/serve/src/reactor/poll.rs",
            ],
            env_read_allowed: vec![
                // ObsLevel seeding — the documented MAN_OBS dispatch.
                ("crates/obs/src/lib.rs", "level_from_env"),
            ],
        }
    }
}

/// A parsed workspace: every non-vendor source file, lexed and modeled.
pub struct Workspace {
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Walks `root` for workspace sources: `src/**/*.rs` of the facade
    /// crate and of every `crates/*` member except `crates/vendor/` and
    /// this crate's own `fixtures/`. Files are visited in sorted path
    /// order so findings and reports are stable.
    pub fn load(root: &Path) -> std::io::Result<Self> {
        let mut paths: Vec<PathBuf> = Vec::new();
        let facade = root.join("src");
        if facade.is_dir() {
            collect_rs(&facade, &mut paths)?;
        }
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut members: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .filter(|p| p.file_name().and_then(|n| n.to_str()) != Some("vendor"))
                .collect();
            members.sort();
            for member in members {
                let src = member.join("src");
                if src.is_dir() {
                    collect_rs(&src, &mut paths)?;
                }
            }
        }
        paths.sort();
        let mut files = Vec::with_capacity(paths.len());
        for path in paths {
            let text = std::fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            files.push(SourceFile::parse(rel, &text));
        }
        Ok(Self { files })
    }

    /// Builds a workspace directly from `(rel_path, source)` pairs —
    /// the fixture tests use this to audit snippets without touching
    /// the filesystem layout.
    pub fn from_sources(sources: &[(&str, &str)]) -> Self {
        Self {
            files: sources
                .iter()
                .map(|(rel, text)| SourceFile::parse(rel.to_string(), text))
                .collect(),
        }
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            collect_rs(&entry, out)?;
        } else if entry.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// Runs every lint class over the workspace and returns the findings,
/// sorted by (file, line, lint) for stable output.
pub fn run_all(ws: &Workspace, config: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    findings.extend(lints::unsafe_audit::run(ws, config));
    findings.extend(lints::determinism::run(ws, config));
    findings.extend(lints::lock_order::run(ws, config));
    findings.extend(lints::atomics::run(ws, config));
    findings.sort_by(|a, b| {
        (&a.file, a.line, &a.lint, &a.message).cmp(&(&b.file, b.line, &b.lint, &b.message))
    });
    findings
}

/// Runs the fixture suite: each lint class must flag exactly the lines
/// marked `//~ <lint>` in its violating fixture and nothing at all in
/// its clean twin. This is what `analyze --self-check` (and the CI
/// `static-analysis` job) executes — a broken lint fails loudly instead
/// of silently passing the workspace.
pub fn self_check(fixtures_dir: &Path) -> Result<String, String> {
    use std::collections::BTreeSet;
    type Runner = fn(&Workspace, &Config) -> Vec<Finding>;
    let cfg = Config::default();
    let read = |name: &str| -> Result<String, String> {
        std::fs::read_to_string(fixtures_dir.join(name))
            .map_err(|e| format!("cannot read fixture {name}: {e}"))
    };
    let mut checks = 0usize;

    // Marker-based classes: (lint, violating fixture, its mapped path,
    // clean fixture, its mapped path, runner). Mapped paths matter:
    // the determinism lints are path-scoped and the unsafe allowlist is
    // per-file.
    let classes: [(&str, &str, &str, &str, &str, Runner); 3] = [
        (
            "unsafe",
            "unsafe_violating.rs",
            "crates/fx/src/lib.rs",
            "unsafe_clean.rs",
            "crates/par/src/lib.rs",
            lints::unsafe_audit::run,
        ),
        (
            "determinism",
            "determinism_violating.rs",
            "crates/obs/src/lib.rs",
            "determinism_clean.rs",
            "crates/obs/src/lib.rs",
            lints::determinism::run,
        ),
        (
            "atomics",
            "atomics_violating.rs",
            "crates/fx/src/atomics.rs",
            "atomics_clean.rs",
            "crates/fx/src/atomics.rs",
            lints::atomics::run,
        ),
    ];
    for (lint, bad_file, bad_path, clean_file, clean_path, runner) in classes {
        let bad_src = read(bad_file)?;
        let marker = format!("//~ {lint}");
        let expected: BTreeSet<usize> = bad_src
            .lines()
            .enumerate()
            .filter(|(_, l)| l.contains(&marker))
            .map(|(i, _)| i + 1)
            .collect();
        if expected.is_empty() {
            return Err(format!("{bad_file}: no `{marker}` markers found"));
        }
        let ws = Workspace::from_sources(&[(bad_path, &bad_src)]);
        let got: BTreeSet<usize> = runner(&ws, &cfg)
            .into_iter()
            .map(|f| f.line as usize)
            .collect();
        if got != expected {
            return Err(format!(
                "{lint}: flagged lines {got:?} in {bad_file}, expected {expected:?}"
            ));
        }
        let clean_src = read(clean_file)?;
        let ws = Workspace::from_sources(&[(clean_path, &clean_src)]);
        let clean_findings = runner(&ws, &cfg);
        if !clean_findings.is_empty() {
            return Err(format!(
                "{lint}: clean twin {clean_file} produced findings: {clean_findings:?}"
            ));
        }
        checks += 2;
    }

    // Lock-order: the cycle finding is whole-file (line 0), so assert
    // on content instead of marker lines.
    let bad_src = read("lock_violating.rs")?;
    let ws = Workspace::from_sources(&[("crates/fx/src/locks.rs", &bad_src)]);
    let got = lints::lock_order::run(&ws, &cfg);
    if got.len() != 1 || !got[0].message.contains("fx/alpha") || !got[0].message.contains("fx/beta")
    {
        return Err(format!(
            "lock-order: expected one alpha/beta cycle finding, got {got:?}"
        ));
    }
    let clean_src = read("lock_clean.rs")?;
    let ws = Workspace::from_sources(&[("crates/fx/src/locks.rs", &clean_src)]);
    let clean_findings = lints::lock_order::run(&ws, &cfg);
    if !clean_findings.is_empty() {
        return Err(format!(
            "lock-order: clean twin produced findings: {clean_findings:?}"
        ));
    }
    checks += 2;

    Ok(format!("{checks} fixture checks passed"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_from_sources_parses_every_file() {
        let ws =
            Workspace::from_sources(&[("a.rs", "fn main() {}"), ("b.rs", "// just a comment\n")]);
        assert_eq!(ws.files.len(), 2);
        assert_eq!(ws.files[0].rel_path, "a.rs");
    }

    #[test]
    fn default_config_scopes_are_consistent() {
        let cfg = Config::default();
        for f in &cfg.allow_unsafe_files {
            assert!(f.ends_with(".rs"), "allowlist entries are files: {f}");
        }
        assert!(cfg.determinism_scope.contains(&"crates/par/src/lib.rs"));
        // A scope entry naming a deleted file would silently check
        // nothing: every configured path must exist in the workspace.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let paths = cfg
            .determinism_scope
            .iter()
            .chain(&cfg.allow_unsafe_files)
            .chain(cfg.env_read_allowed.iter().map(|(f, _)| f));
        for f in paths {
            assert!(
                root.join(f).is_file(),
                "configured path does not exist: {f}"
            );
        }
    }
}
