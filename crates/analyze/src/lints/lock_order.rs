//! Lint class 3: interprocedural lock-order analysis.
//!
//! Deadlock by lock-order inversion is the one concurrency bug the
//! serve tier can ship without any test noticing: registry, metrics
//! and batcher each own locks, sessions own a sharded cache lock, and
//! a future PR that calls "one harmless method" while holding the
//! wrong guard creates a cycle that only fires under production
//! interleavings. This pass makes the acquisition *graph* a checked
//! artifact:
//!
//! 1. **Acquisition sites** — `recv.lock()`, `recv.read()`,
//!    `recv.write()` with *empty* argument lists (a lock acquisition
//!    never takes arguments, which screens out `io::Read::read(&mut
//!    buf)`-style calls). The lock's identity is `crate/receiver` —
//!    field names are unique enough per crate in this workspace.
//! 2. **Guard liveness** — a guard chained straight into
//!    `unwrap`/`expect`/`unwrap_or_else` and bound by `let` lives to
//!    the end of its enclosing block; a guard consumed further in the
//!    same statement (`.clone()`, `.insert(..)`) dies at the `;`; a
//!    guard inside `drop(...)` dies immediately; `drop(name)` releases
//!    a named binding early.
//! 3. **Interprocedural edges** — calls are resolved by name against
//!    the set of workspace functions that (transitively) acquire
//!    locks; calling `g` while holding `L` adds edges `L -> every lock
//!    g can acquire`. Functions *returning* a guard (a
//!    `MutexGuard`/`RwLock*Guard` in the signature, e.g. the session
//!    `lock_cache`) transfer their acquisition to the caller instead.
//!    `wait` is never resolved (`Condvar::wait(guard)` would collide
//!    with any workspace `wait` and manufacture self-cycles).
//! 4. **Cycles** — strongly connected components of the edge graph
//!    with more than one lock (or a self-edge) are findings. An
//!    `// LOCK-ORDER:` comment on an acquisition site excludes it,
//!    for inversions that are provably unreachable.
//!
//! The analysis is deliberately conservative (block-scoped liveness is
//! an over-approximation of NLL; name resolution unions ambiguous
//! callees) — a reported cycle is "order these locks or prove it
//! can't happen", not necessarily a reproducible hang.

use crate::findings::Finding;
use crate::model::SourceFile;
use crate::{Config, Workspace};
use std::collections::{BTreeMap, BTreeSet};

pub(crate) const LINT: &str = "lock-order";

/// Method names that are never resolved to workspace functions.
/// `wait` collides with `Condvar::wait(guard)`; the rest are std-trait
/// names too generic to resolve by name.
const NO_RESOLVE: &[&str] = &[
    "wait", "lock", "read", "write", "drop", "clone", "fmt", "next", "get", "insert", "remove",
    "push", "pop", "len", "iter",
];

/// One event observed while scanning a function body, in source order.
#[derive(Debug)]
enum Event {
    /// Acquired `lock` at `line`; the set of locks already held at
    /// that moment is reconstructed during the scan.
    Acquire {
        lock: String,
        line: usize,
        held: Vec<String>,
    },
    /// Called a resolvable function while holding `held`.
    Call {
        callee: String,
        line: usize,
        held: Vec<String>,
    },
}

/// Per-function analysis summary.
#[derive(Debug, Default)]
struct FnInfo {
    file: String,
    events: Vec<Event>,
    /// Locks this fn acquires directly (annotation-suppressed sites
    /// excluded).
    direct: BTreeSet<String>,
    /// Whether the signature returns a guard (MutexGuard / RwLock
    /// guards) — its acquisitions transfer to the caller.
    returns_guard: bool,
}

/// Renders the full acquisition graph (`analyze --lock-graph`): every
/// edge with its witness, plus each function's transitive lock set.
/// This is the evidence trail for auditing a reported cycle — and for
/// writing the lock-order section of DESIGN.md §11.
pub fn dump_graph(ws: &Workspace, config: &Config) -> String {
    let (edges, totals) = build_graph(ws, config);
    if std::env::var("ANALYZE_DEBUG_CALLS").is_ok() {
        return dump_calls(ws, config);
    }
    let mut out = String::new();
    out.push_str("lock acquisition edges (held -> acquired @ witness):\n");
    for ((a, b), w) in &edges {
        out.push_str(&format!("  {a} -> {b} @ {w}\n"));
    }
    out.push_str("transitive lock sets per function:\n");
    for (name, locks) in &totals {
        if !locks.is_empty() {
            let list: Vec<&str> = locks.iter().map(|s| s.as_str()).collect();
            out.push_str(&format!("  {name}: {}\n", list.join(", ")));
        }
    }
    out
}

pub fn run(ws: &Workspace, config: &Config) -> Vec<Finding> {
    let (edges, _totals) = build_graph(ws, config);
    findings_from_edges(&edges)
}

/// Debug view (ANALYZE_DEBUG_CALLS=1 with --lock-graph): each fn's
/// direct lock set and resolved callees.
fn dump_calls(ws: &Workspace, config: &Config) -> String {
    let (_, _) = (ws, config);
    let mut guard_fns = BTreeSet::new();
    for sf in &ws.files {
        for f in &sf.fns {
            if f.is_test {
                continue;
            }
            let sig = &sf.tokens[f.sig_start_tok..f.body_open_tok.min(sf.tokens.len())];
            if sig.iter().any(|t| {
                t.is_ident("MutexGuard")
                    || t.is_ident("RwLockReadGuard")
                    || t.is_ident("RwLockWriteGuard")
            }) {
                guard_fns.insert(f.name.clone());
            }
        }
    }
    let mut out = String::new();
    for sf in &ws.files {
        for f in &sf.fns {
            if f.is_test || f.body_open_tok >= f.body_close_tok {
                continue;
            }
            let info = scan_fn(sf, f, &guard_fns);
            let direct: Vec<&str> = info.direct.iter().map(|s| s.as_str()).collect();
            let calls: Vec<String> = info
                .events
                .iter()
                .filter_map(|e| match e {
                    Event::Call { callee, .. } => Some(callee.clone()),
                    _ => None,
                })
                .collect();
            if !direct.is_empty() || !calls.is_empty() {
                out.push_str(&format!(
                    "{} ({}): direct=[{}] calls=[{}]\n",
                    f.name,
                    sf.rel_path,
                    direct.join(","),
                    calls.join(",")
                ));
            }
        }
    }
    out
}

type LockGraph = (
    BTreeMap<(String, String), String>,
    BTreeMap<String, BTreeSet<String>>,
);

fn build_graph(ws: &Workspace, _config: &Config) -> LockGraph {
    // Pass A: signatures — which fn names return guards, and how many
    // times each name is defined. Calls only resolve to names defined
    // EXACTLY once: a name like `load` (five definitions across serve,
    // the facade, and bench) cannot be attributed by a token-level
    // analysis, and a conservative union would smear one definition's
    // lock set over every caller of the others, manufacturing cycles.
    // Unresolved calls are simply dropped (an under-approximation,
    // documented in DESIGN.md §11).
    let mut guard_fns: BTreeSet<String> = BTreeSet::new();
    let mut defined: BTreeMap<String, usize> = BTreeMap::new();
    for sf in &ws.files {
        for f in &sf.fns {
            if f.is_test {
                continue;
            }
            if f.body_open_tok < f.body_close_tok {
                *defined.entry(f.name.clone()).or_insert(0) += 1;
            }
            let sig = &sf.tokens[f.sig_start_tok..f.body_open_tok.min(sf.tokens.len())];
            if sig.iter().any(|t| {
                t.is_ident("MutexGuard")
                    || t.is_ident("RwLockReadGuard")
                    || t.is_ident("RwLockWriteGuard")
            }) {
                guard_fns.insert(f.name.clone());
            }
        }
    }
    // Guard transfer is name-based too, so it obeys the same rule.
    guard_fns.retain(|n| defined.get(n).copied() == Some(1));
    let unique = |name: &str| defined.get(name).copied() == Some(1);

    // Pass B: scan every non-test fn body for acquisition/call events.
    let mut fns: BTreeMap<String, FnInfo> = BTreeMap::new();
    for sf in &ws.files {
        for f in &sf.fns {
            if f.is_test || f.body_open_tok >= f.body_close_tok {
                continue;
            }
            let info = scan_fn(sf, f, &guard_fns);
            let entry = fns.entry(f.name.clone()).or_default();
            if entry.file.is_empty() {
                entry.file = sf.rel_path.clone();
            }
            entry.direct.extend(info.direct.iter().cloned());
            entry.returns_guard |= info.returns_guard;
            entry.events.extend(info.events);
        }
    }

    // Fixpoint: total lock set each fn can (transitively) acquire.
    let mut total: BTreeMap<String, BTreeSet<String>> = fns
        .iter()
        .map(|(name, info)| (name.clone(), info.direct.clone()))
        .collect();
    loop {
        let mut changed = false;
        for (name, info) in &fns {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for ev in &info.events {
                if let Event::Call { callee, .. } = ev {
                    if !unique(callee) {
                        continue;
                    }
                    if let Some(t) = total.get(callee) {
                        add.extend(t.iter().cloned());
                    }
                }
            }
            let mine = total.get_mut(name).expect("fn name present");
            let before = mine.len();
            mine.extend(add);
            changed |= mine.len() != before;
        }
        if !changed {
            break;
        }
    }

    // A held id of the form `guard:NAME` is the synthetic hold a call
    // to a guard-returning fn creates; it expands to that fn's direct
    // lock set.
    let expand = |h: &str| -> Vec<String> {
        match h.strip_prefix("guard:") {
            Some(name) => fns
                .get(name)
                .map(|i| i.direct.iter().cloned().collect())
                .unwrap_or_default(),
            None => vec![h.to_string()],
        }
    };

    // Edge construction: (from, to) -> deterministic witness.
    let mut edges: BTreeMap<(String, String), String> = BTreeMap::new();
    let mut add_edge = |from: &str, to: &str, witness: String| {
        edges
            .entry((from.to_string(), to.to_string()))
            .or_insert(witness);
    };
    for info in fns.values() {
        for ev in &info.events {
            match ev {
                Event::Acquire { lock, line, held } => {
                    for h in held.iter().flat_map(|h| expand(h)) {
                        add_edge(&h, lock, format!("{}:{}", info.file, line));
                    }
                }
                Event::Call { callee, line, held } => {
                    if !unique(callee) {
                        continue;
                    }
                    if let Some(t) = total.get(callee) {
                        for h in held.iter().flat_map(|h| expand(h)) {
                            for l in t {
                                add_edge(&h, l, format!("{}:{} (via {})", info.file, line, callee));
                            }
                        }
                    }
                }
            }
        }
    }

    (edges, total)
}

/// Cycle detection over the lock graph (iterative Tarjan SCC) plus
/// self-edge reporting.
fn findings_from_edges(edges: &BTreeMap<(String, String), String>) -> Vec<Finding> {
    let nodes: Vec<String> = edges
        .keys()
        .flat_map(|(a, b)| [a.clone(), b.clone()])
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let index_of: BTreeMap<&str, usize> = nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (a, b) in edges.keys() {
        if a != b {
            adj[index_of[a.as_str()]].push(index_of[b.as_str()]);
        }
    }
    let sccs = tarjan(&adj);

    let mut out = Vec::new();
    // Self-edges are cycles of length one.
    for ((a, b), witness) in edges {
        if a == b {
            out.push(Finding::new(
                LINT,
                witness.split(':').next().unwrap_or(""),
                witness
                    .split(':')
                    .nth(1)
                    .and_then(|s| s.split(' ').next())
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0),
                format!("lock {a} re-acquired while already held (self-deadlock risk)"),
            ));
        }
    }
    for scc in sccs {
        if scc.len() < 2 {
            continue;
        }
        let mut names: Vec<&str> = scc.iter().map(|&i| nodes[i].as_str()).collect();
        names.sort_unstable();
        // Witnesses: every edge inside the SCC, sorted.
        let mut witnesses: Vec<String> = edges
            .iter()
            .filter(|((a, b), _)| names.contains(&a.as_str()) && names.contains(&b.as_str()))
            .map(|((a, b), w)| format!("{a} -> {b} at {w}"))
            .collect();
        witnesses.sort();
        let anchor_file = witnesses
            .first()
            .and_then(|w| w.split(" at ").nth(1))
            .and_then(|w| w.split(':').next())
            .unwrap_or("")
            .to_string();
        out.push(Finding::new(
            LINT,
            &anchor_file,
            0,
            format!(
                "potential deadlock: lock cycle {{{}}}; {}",
                names.join(", "),
                witnesses.join("; ")
            ),
        ));
    }
    out
}

/// Scans one fn body, reconstructing the held-lock set as it goes.
fn scan_fn(sf: &SourceFile, f: &crate::model::FnSpan, guard_fns: &BTreeSet<String>) -> FnInfo {
    let krate = sf.crate_name().to_string();
    let mut info = FnInfo {
        file: sf.rel_path.clone(),
        returns_guard: guard_fns.contains(&f.name),
        ..FnInfo::default()
    };

    // Code tokens inside the body, with original indices dropped — we
    // work positionally on this slice.
    let toks: Vec<&crate::lexer::Token> = sf.tokens[f.body_open_tok + 1..f.body_close_tok]
        .iter()
        .filter(|t| !t.is_comment())
        .collect();

    /// A guard currently held in this fn.
    struct Held {
        lock: String,
        /// Brace depth at binding; released when depth drops below.
        depth: usize,
        /// Released at the next `;` when not let-bound.
        until_semi: bool,
        /// `let` binding name, for `drop(name)` release.
        binding: Option<String>,
    }
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0usize;

    // Statement tracking: is the current statement a `let`, and what
    // name does it bind?
    let mut stmt_is_let = false;
    let mut stmt_binding: Option<String> = None;
    let mut expect_binding = false;

    let held_ids = |held: &[Held]| -> Vec<String> {
        let mut ids: Vec<String> = held.iter().map(|h| h.lock.clone()).collect();
        ids.sort();
        ids.dedup();
        ids
    };

    let mut i = 0usize;
    while i < toks.len() {
        let t = toks[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            held.retain(|h| h.depth <= depth);
        } else if t.is_punct(';') {
            held.retain(|h| !h.until_semi);
            stmt_is_let = false;
            stmt_binding = None;
            expect_binding = false;
        } else if t.is_ident("let") {
            stmt_is_let = true;
            stmt_binding = None;
            expect_binding = true;
        } else if expect_binding
            && matches!(
                t.kind,
                crate::lexer::TokenKind::Ident | crate::lexer::TokenKind::RawIdent
            )
        {
            if t.text != "mut" {
                stmt_binding = Some(t.text.clone());
                expect_binding = false;
            }
        } else if t.is_ident("drop")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
        {
            // `drop(name)` releases the binding early.
            if let Some(name) = toks.get(i + 2) {
                held.retain(|h| h.binding.as_deref() != Some(name.text.as_str()));
            }
        }

        // Acquisition: `. lock|read|write ( )` — empty args only.
        let is_acq = t.is_punct('.')
            && toks
                .get(i + 1)
                .is_some_and(|m| m.is_ident("lock") || m.is_ident("read") || m.is_ident("write"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(')'));
        if is_acq {
            let line = toks[i + 1].line;
            let suppressed = sf.has_marker(line, &["LOCK-ORDER:"]);
            if let Some(recv) = receiver_name(&toks, i) {
                if !suppressed {
                    let lock = format!("{krate}/{recv}");
                    info.direct.insert(lock.clone());
                    info.events.push(Event::Acquire {
                        lock: lock.clone(),
                        line,
                        held: held_ids(&held),
                    });
                    // Liveness: inside drop(..)? chained past
                    // unwrap/expect? let-bound?
                    let (lives_to_block, immediate) = guard_liveness(&toks, i + 3, stmt_is_let);
                    if !immediate {
                        held.push(Held {
                            lock,
                            depth,
                            until_semi: !lives_to_block,
                            binding: if lives_to_block {
                                stmt_binding.clone()
                            } else {
                                None
                            },
                        });
                    }
                }
                i += 4;
                continue;
            }
        }

        // Call: `name (` where name is resolvable. Skip declarations
        // (`fn name(`) and the NO_RESOLVE stoplist.
        if matches!(
            t.kind,
            crate::lexer::TokenKind::Ident | crate::lexer::TokenKind::RawIdent
        ) && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && !NO_RESOLVE.contains(&t.text.as_str())
            && !(i > 0 && toks[i - 1].is_ident("fn"))
        {
            if guard_fns.contains(&t.text) {
                // Calling a guard-returning fn: the caller now holds
                // whatever it locks (e.g. `let g = self.lock_cache(i)`).
                // The lock id is resolved at graph-build time via the
                // callee's direct set; here we record the call and a
                // synthetic hold using the callee name as a marker that
                // graph construction expands.
                info.events.push(Event::Call {
                    callee: t.text.clone(),
                    line: t.line,
                    held: held_ids(&held),
                });
                held.push(Held {
                    lock: format!("guard:{}", t.text),
                    depth,
                    until_semi: !stmt_is_let,
                    binding: stmt_binding.clone(),
                });
            } else {
                info.events.push(Event::Call {
                    callee: t.text.clone(),
                    line: t.line,
                    held: held_ids(&held),
                });
            }
        }
        i += 1;
    }
    info
}

/// Walks back from the `.` of `.lock()` to name the receiver:
/// `self.queue.lock()` → `queue`; `self.caches[i & m].lock()` →
/// `caches`; `guard_var.lock()` → `guard_var`.
fn receiver_name(toks: &[&crate::lexer::Token], dot: usize) -> Option<String> {
    let mut j = dot;
    // Step over a closing bracket chain: `caches[i]` → position of `[`.
    if j > 0 && toks[j - 1].is_punct(']') {
        let mut bdepth = 1usize;
        j -= 1;
        while j > 0 && bdepth > 0 {
            j -= 1;
            if toks[j].is_punct(']') {
                bdepth += 1;
            } else if toks[j].is_punct('[') {
                bdepth -= 1;
            }
        }
    }
    if j == 0 {
        return None;
    }
    let cand = toks[j - 1];
    if matches!(
        cand.kind,
        crate::lexer::TokenKind::Ident | crate::lexer::TokenKind::RawIdent
    ) && cand.text != "self"
    {
        Some(cand.text.clone())
    } else {
        None
    }
}

/// Classifies the guard produced by the acquisition whose closing `)`
/// sits at `close`: `(lives_to_block_end, immediately_dropped)`.
fn guard_liveness(toks: &[&crate::lexer::Token], close: usize, stmt_is_let: bool) -> (bool, bool) {
    // Chain forward over guard-preserving adaptors.
    let mut j = close + 1;
    loop {
        let is_adapter = toks.get(j).is_some_and(|t| t.is_punct('.'))
            && toks.get(j + 1).is_some_and(|t| {
                t.is_ident("unwrap") || t.is_ident("expect") || t.is_ident("unwrap_or_else")
            })
            && toks.get(j + 2).is_some_and(|t| t.is_punct('('));
        if !is_adapter {
            break;
        }
        // Skip to the matching `)` of the adaptor call.
        let mut pdepth = 0usize;
        let mut k = j + 2;
        while k < toks.len() {
            if toks[k].is_punct('(') {
                pdepth += 1;
            } else if toks[k].is_punct(')') {
                pdepth -= 1;
                if pdepth == 0 {
                    break;
                }
            }
            k += 1;
        }
        j = k + 1;
    }
    match toks.get(j) {
        // Chain ends the statement or expression: a let-bound guard
        // lives to block end; otherwise it is a temporary.
        Some(t) if t.is_punct(';') => (stmt_is_let, false),
        // Chain continues (`.insert(..)`, `.clone()`, `?`): the guard
        // is a statement temporary.
        Some(_) => (false, false),
        None => (stmt_is_let, false),
    }
}

/// Iterative Tarjan strongly-connected components.
fn tarjan(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    let mut counter = 0usize;

    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        // (node, next-child-index)
        let mut call: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&(v, ci)) = call.last() {
            if ci == 0 {
                index[v] = counter;
                low[v] = counter;
                counter += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if ci < adj[v].len() {
                call.last_mut().expect("frame present").1 += 1;
                let w = adj[v][ci];
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    low[parent] = low[parent].min(low[v]);
                }
            }
        }
    }
    sccs
}
