//! Fixture-backed tests for the four lint classes: each must flag
//! exactly the marked lines in its violating fixture and nothing in the
//! clean twin — the same contract `analyze --self-check` enforces in CI.

use man_analyze::{lints, self_check, Config, Workspace};
use std::path::PathBuf;

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn fixture(name: &str) -> String {
    std::fs::read_to_string(fixtures_dir().join(name)).expect("fixture readable")
}

#[test]
fn self_check_passes_on_the_checked_in_fixtures() {
    let summary = self_check(&fixtures_dir()).expect("self-check clean");
    assert!(summary.contains("8 fixture checks passed"), "{summary}");
}

#[test]
fn unsafe_audit_flags_each_violation_kind() {
    let src = fixture("unsafe_violating.rs");
    let ws = Workspace::from_sources(&[("crates/fx/src/lib.rs", &src)]);
    let findings = lints::unsafe_audit::run(&ws, &Config::default());
    let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert!(
        messages.iter().any(|m| m.contains("crate root lacks")),
        "missing root-gate finding: {messages:?}"
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("unsafe without a // SAFETY:")),
        "missing SAFETY finding: {messages:?}"
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("not on the unsafe allowlist")),
        "missing allowlist finding: {messages:?}"
    );
}

#[test]
fn determinism_lints_respect_the_path_scope() {
    // The same violating source outside the determinism scope produces
    // zero findings — the lints are scoped, not global.
    let src = fixture("determinism_violating.rs");
    let ws = Workspace::from_sources(&[("crates/serve/src/registry.rs", &src)]);
    let findings = lints::determinism::run(&ws, &Config::default());
    assert!(
        findings.is_empty(),
        "out-of-scope file flagged: {findings:?}"
    );
}

#[test]
fn determinism_env_allowlist_is_per_function() {
    // In the obs crate root the env read inside `level_from_env` is
    // blessed; the one inside `tally` is not.
    let src = fixture("determinism_violating.rs");
    let ws = Workspace::from_sources(&[("crates/obs/src/lib.rs", &src)]);
    let findings = lints::determinism::run(&ws, &Config::default());
    let env_findings: Vec<_> = findings
        .iter()
        .filter(|f| f.message.contains("env read"))
        .collect();
    assert_eq!(env_findings.len(), 1, "{findings:?}");
}

#[test]
fn atomics_audit_ignores_cmp_ordering_and_test_code() {
    let src = concat!(
        "use std::sync::atomic::{AtomicU64, Ordering};\n",
        "pub fn f(a: u32, b: u32) -> std::cmp::Ordering { a.cmp(&b) }\n",
        "#[cfg(test)]\n",
        "mod tests {\n",
        "    use super::*;\n",
        "    #[test]\n",
        "    fn probe() {\n",
        "        let c = AtomicU64::new(0);\n",
        "        let _ = c.load(Ordering::Relaxed);\n",
        "    }\n",
        "}\n",
    );
    let ws = Workspace::from_sources(&[("crates/fx/src/x.rs", src)]);
    let findings = lints::atomics::run(&ws, &Config::default());
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn lock_order_reports_the_inversion_pair_with_witnesses() {
    let src = fixture("lock_violating.rs");
    let ws = Workspace::from_sources(&[("crates/fx/src/locks.rs", &src)]);
    let findings = lints::lock_order::run(&ws, &Config::default());
    assert_eq!(findings.len(), 1, "{findings:?}");
    let msg = &findings[0].message;
    assert!(msg.contains("potential deadlock"), "{msg}");
    assert!(msg.contains("fx/alpha") && msg.contains("fx/beta"), "{msg}");
    assert!(
        msg.contains("crates/fx/src/locks.rs:"),
        "witness lines missing: {msg}"
    );
}

#[test]
fn lock_order_sees_interprocedural_cycles() {
    // f holds alpha and calls helper; helper locks beta. g holds beta
    // and locks alpha directly. The cycle only exists through the call
    // graph.
    let src = concat!(
        "use std::sync::Mutex;\n",
        "pub struct S { alpha: Mutex<u32>, beta: Mutex<u32> }\n",
        "impl S {\n",
        "    pub fn f(&self) -> u32 {\n",
        "        let a = self.alpha.lock().unwrap();\n",
        "        self.helper() + *a\n",
        "    }\n",
        "    fn helper(&self) -> u32 {\n",
        "        let b = self.beta.lock().unwrap();\n",
        "        *b\n",
        "    }\n",
        "    pub fn g(&self) -> u32 {\n",
        "        let b = self.beta.lock().unwrap();\n",
        "        let a = self.alpha.lock().unwrap();\n",
        "        *a + *b\n",
        "    }\n",
        "}\n",
    );
    let ws = Workspace::from_sources(&[("crates/fx/src/locks.rs", src)]);
    let findings = lints::lock_order::run(&ws, &Config::default());
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("via helper"), "{findings:?}");
}

#[test]
fn lock_order_statement_temporary_guards_do_not_hold() {
    // `self.q.lock().unwrap().push(..)` releases at the semicolon, so
    // the later beta lock creates no alpha-held edge.
    let src = concat!(
        "use std::sync::Mutex;\n",
        "pub struct S { q: Mutex<Vec<u32>>, beta: Mutex<u32> }\n",
        "impl S {\n",
        "    pub fn f(&self) {\n",
        "        self.q.lock().unwrap().push(1);\n",
        "        let b = self.beta.lock().unwrap();\n",
        "        let _ = *b;\n",
        "    }\n",
        "    pub fn g(&self) {\n",
        "        let b = self.beta.lock().unwrap();\n",
        "        self.q.lock().unwrap().push(*b);\n",
        "    }\n",
        "}\n",
    );
    // f: q is a temporary, so no q->beta edge survives the `;`.
    // g: beta->q is real — but without f's reverse edge there is no
    // cycle, hence no finding.
    let ws = Workspace::from_sources(&[("crates/fx/src/locks.rs", src)]);
    let findings = lints::lock_order::run(&ws, &Config::default());
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn lock_order_guard_returning_fn_transfers_to_caller() {
    // lock_cache returns a MutexGuard; the caller holds `caches` while
    // locking `beta`. reverse() locks beta then calls lock_cache —
    // cycle through the transferred guard.
    let src = concat!(
        "use std::sync::{Mutex, MutexGuard};\n",
        "pub struct S { caches: Vec<Mutex<u32>>, beta: Mutex<u32> }\n",
        "impl S {\n",
        "    fn lock_cache(&self, i: usize) -> MutexGuard<'_, u32> {\n",
        "        self.caches[i].lock().unwrap()\n",
        "    }\n",
        "    pub fn forward(&self) -> u32 {\n",
        "        let c = self.lock_cache(0);\n",
        "        let b = self.beta.lock().unwrap();\n",
        "        *c + *b\n",
        "    }\n",
        "    pub fn reverse(&self) -> u32 {\n",
        "        let b = self.beta.lock().unwrap();\n",
        "        let c = self.lock_cache(1);\n",
        "        *c + *b\n",
        "    }\n",
        "}\n",
    );
    let ws = Workspace::from_sources(&[("crates/fx/src/locks.rs", src)]);
    let findings = lints::lock_order::run(&ws, &Config::default());
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(
        findings[0].message.contains("fx/caches") && findings[0].message.contains("fx/beta"),
        "{findings:?}"
    );
}

#[test]
fn lock_order_annotation_suppresses_a_site() {
    let src = concat!(
        "use std::sync::Mutex;\n",
        "pub struct S { alpha: Mutex<u32>, beta: Mutex<u32> }\n",
        "impl S {\n",
        "    pub fn forward(&self) -> u32 {\n",
        "        let a = self.alpha.lock().unwrap();\n",
        "        let b = self.beta.lock().unwrap();\n",
        "        *a + *b\n",
        "    }\n",
        "    pub fn backward(&self) -> u32 {\n",
        "        let b = self.beta.lock().unwrap();\n",
        "        // LOCK-ORDER: provably unreachable while forward runs (doc'd invariant).\n",
        "        let a = self.alpha.lock().unwrap();\n",
        "        *a + *b\n",
        "    }\n",
        "}\n",
    );
    let ws = Workspace::from_sources(&[("crates/fx/src/locks.rs", src)]);
    let findings = lints::lock_order::run(&ws, &Config::default());
    assert!(findings.is_empty(), "{findings:?}");
}
