//! The cross-file concurrency pass: lock-order graph construction,
//! condvar predicate discipline, and the atomic-ordering audit
//! (DESIGN.md §13).
//!
//! Unlike the per-file rules in [`crate::rules`], this pass reads the
//! whole [`crate::config::CONCURRENCY_SCOPE`] file set as one program:
//! lock identity is by declared field name (`state`, `incoming`,
//! `registry`, …), so a function in `gateway.rs` and one in
//! `reactor.rs` acquiring the same locks in opposite orders form a
//! cycle no single file shows. The pass is two-phase:
//!
//! 1. **Symbols** ([`crate::model::Symbols`]): every `Mutex`/`RwLock`/
//!    `Condvar`/`Atomic*` struct field and lock-typed alias across the
//!    set, plus *guard-returning function summaries* — a function whose
//!    return type names `MutexGuard`/`RwLock*Guard` and whose body
//!    acquires a known lock is itself an acquisition site at every
//!    call (`lock_registry()` → `registry`).
//! 2. **Scan**: a linear walk per file over the scope tree
//!    ([`crate::model::ScopeTree`]) tracking live guards. A guard
//!    bound by `let` lives until its scope closes or it is `drop`ped;
//!    an unbound (temporary) guard lives to the end of its statement.
//!    Acquiring lock B while a guard on lock A is live adds the edge
//!    `A → B` with a witness (file, function, line).
//!
//! Guard liveness over-approximates (see `model.rs`): extra edges are
//! possible, missing edges are not — the safe direction for a
//! deadlock detector. `#[cfg(test)]` spans are excluded entirely
//! (tests lock freely and on purpose).

use std::collections::{BTreeMap, BTreeSet};

use crate::config::CONCURRENCY_SCOPE;
use crate::diagnostics::{Diagnostic, Rule};
use crate::directives;
use crate::model::{ScopeKind, ScopeTree, Symbols};
use crate::rules::test_excluded_spans;
use crate::tokenizer::{tokenize, Token, TokenKind};

/// One observed "held A, acquired B" site.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Witness {
    pub file: String,
    pub func: String,
    pub line: u32,
}

/// An aggregated lock-order edge with every witness site.
#[derive(Debug, Clone)]
pub struct Edge {
    pub from: String,
    pub to: String,
    pub witnesses: Vec<Witness>,
}

/// The global lock-order graph: one node per declared lock name, one
/// edge per observed acquisition order. Exported as DOT by
/// `occusense-lint --graph-dot`.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// Every declared lock, edges or not — the DOT export shows
    /// coverage, not just conflicts.
    pub nodes: Vec<String>,
    pub edges: Vec<Edge>,
}

impl LockGraph {
    /// Elementary cycles, each as the node sequence `[a, b, …]`
    /// meaning `a → b → … → a`, canonicalized (smallest node first)
    /// and deduplicated.
    pub fn cycles(&self) -> Vec<Vec<String>> {
        let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for e in &self.edges {
            adj.entry(&e.from).or_default().insert(&e.to);
        }
        let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
        let mut out = Vec::new();
        for start in adj.keys().copied().collect::<Vec<_>>() {
            // BFS for the shortest path start → … → start.
            let mut queue: Vec<Vec<&str>> = vec![vec![start]];
            'bfs: while !queue.is_empty() {
                let mut next = Vec::new();
                for path in queue.drain(..) {
                    let last = *path.last().unwrap_or(&start);
                    for &succ in adj.get(last).into_iter().flatten() {
                        if succ == start {
                            let cycle = canonical(&path);
                            if seen.insert(cycle.clone()) {
                                out.push(cycle);
                            }
                            break 'bfs;
                        }
                        if !path.contains(&succ) {
                            let mut p = path.clone();
                            p.push(succ);
                            next.push(p);
                        }
                    }
                }
                queue = next;
            }
        }
        out
    }

    /// Witnesses of the edge `from → to`, empty when absent.
    pub fn edge_witnesses(&self, from: &str, to: &str) -> &[Witness] {
        self.edges
            .iter()
            .find(|e| e.from == from && e.to == to)
            .map(|e| e.witnesses.as_slice())
            .unwrap_or(&[])
    }

    /// Graphviz DOT rendering, deterministically ordered. Cyclic
    /// edges are drawn red so the CI artifact shows the inversion at
    /// a glance.
    pub fn to_dot(&self) -> String {
        let cyclic: BTreeSet<(String, String)> = self
            .cycles()
            .iter()
            .flat_map(|cycle| {
                let mut pairs = Vec::new();
                for i in 0..cycle.len() {
                    let from = cycle[i].clone();
                    let to = cycle[(i + 1) % cycle.len()].clone();
                    pairs.push((from, to));
                }
                pairs
            })
            .collect();
        let mut out = String::from("digraph lock_order {\n  rankdir=LR;\n  node [shape=box];\n");
        for n in &self.nodes {
            out.push_str(&format!("  \"{n}\";\n"));
        }
        for e in &self.edges {
            let label = e
                .witnesses
                .first()
                .map(|w| format!("{}:{} ({})", w.file, w.line, w.func))
                .unwrap_or_default();
            let color = if cyclic.contains(&(e.from.clone(), e.to.clone())) {
                ", color=red"
            } else {
                ""
            };
            out.push_str(&format!(
                "  \"{}\" -> \"{}\" [label=\"{}\"{}];\n",
                e.from, e.to, label, color
            ));
        }
        out.push_str("}\n");
        out
    }
}

fn canonical(path: &[&str]) -> Vec<String> {
    let min = path
        .iter()
        .enumerate()
        .min_by_key(|(_, s)| **s)
        .map(|(i, _)| i)
        .unwrap_or(0);
    (0..path.len())
        .map(|k| path[(min + k) % path.len()].to_string())
        .collect()
}

/// Atomic methods whose arguments carry a memory ordering.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

const ORDERED: &[&str] = &["Acquire", "Release", "AcqRel", "SeqCst"];

/// Guard-acquisition methods on `Mutex`/`RwLock`.
const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];

#[derive(Debug)]
struct AtomicSite {
    field: String,
    file: String,
    func: String,
    line: u32,
    col: u32,
    relaxed: bool,
    ordered: bool,
    /// `.load(Relaxed)` inside the header of a `while` loop that
    /// parks on a condvar — the lost-wakeup shape the rule bans even
    /// without a conflicting site.
    gates_wait: bool,
    waived: bool,
}

#[derive(Debug)]
struct LiveGuard {
    lock: String,
    name: Option<String>,
    scope: usize,
    temp: bool,
}

/// Runs the concurrency pass over `(rel_path, source)` pairs. Files
/// outside [`CONCURRENCY_SCOPE`] are ignored, so callers can feed the
/// whole tree.
pub fn analyze(files: &[(String, String)]) -> (Vec<Diagnostic>, LockGraph) {
    let in_scope: Vec<(&str, Vec<Token>)> = files
        .iter()
        .filter(|(rel, _)| CONCURRENCY_SCOPE.contains(rel))
        .map(|(rel, src)| (rel.as_str(), tokenize(src)))
        .collect();

    // Phase 1: symbols (aliases across every file first), then
    // guard-returning function summaries.
    let mut symbols = Symbols::default();
    let codes: Vec<Vec<&Token>> = in_scope
        .iter()
        .map(|(_, toks)| toks.iter().filter(|t| !t.is_comment()).collect())
        .collect();
    for code in &codes {
        symbols.collect_aliases(code);
    }
    for code in &codes {
        symbols.collect_struct_fields(code);
    }
    let mut summaries: BTreeMap<String, String> = BTreeMap::new();
    for code in &codes {
        collect_guard_summaries(code, &symbols, &mut summaries);
    }

    // Phase 2: per-file scan.
    let mut diags = Vec::new();
    let mut edges: BTreeMap<(String, String), Vec<Witness>> = BTreeMap::new();
    let mut sites: Vec<AtomicSite> = Vec::new();
    for ((rel, tokens), code) in in_scope.iter().zip(&codes) {
        scan_file(
            rel, tokens, code, &symbols, &summaries, &mut diags, &mut edges, &mut sites,
        );
    }

    // Atomic-ordering audit: a field with both Relaxed and ordered
    // sites flags every (unwaived) Relaxed site; a Relaxed load
    // gating a condvar wait loop flags unconditionally.
    let mut ordered_by: BTreeMap<&str, &AtomicSite> = BTreeMap::new();
    for s in &sites {
        if s.ordered {
            ordered_by.entry(&s.field).or_insert(s);
        }
    }
    for s in &sites {
        if !s.relaxed || s.waived {
            continue;
        }
        if s.gates_wait {
            diags.push(Diagnostic::new(
                &s.file,
                s.line,
                s.col,
                Rule::Atomics,
                format!(
                    "`Ordering::Relaxed` load of `{}` gates a condvar wait loop; the predicate \
                     must synchronise with the release store it watches (use Acquire/SeqCst)",
                    s.field
                ),
            ));
        } else if let Some(o) = ordered_by.get(s.field.as_str()) {
            if (o.file.as_str(), o.line, o.col) != (s.file.as_str(), s.line, s.col) {
                diags.push(Diagnostic::new(
                    &s.file,
                    s.line,
                    s.col,
                    Rule::Atomics,
                    format!(
                        "`Ordering::Relaxed` on `{}`, which {}:{} (in `{}`) accesses with an \
                         acquire/release ordering; mixed orderings on one atomic hide the \
                         synchronisation contract",
                        s.field, o.file, o.line, o.func
                    ),
                ));
            }
        }
    }

    // The graph, then its cycles.
    let graph = LockGraph {
        nodes: symbols.locks.iter().cloned().collect(),
        edges: edges
            .into_iter()
            .map(|((from, to), mut witnesses)| {
                witnesses.sort();
                witnesses.dedup();
                Edge {
                    from,
                    to,
                    witnesses,
                }
            })
            .collect(),
    };
    for cycle in graph.cycles() {
        let mut legs = Vec::new();
        for i in 0..cycle.len() {
            let from = &cycle[i];
            let to = &cycle[(i + 1) % cycle.len()];
            let w = graph.edge_witnesses(from, to).first();
            legs.push(match w {
                Some(w) => format!("{from} -> {to} at {}:{} (in `{}`)", w.file, w.line, w.func),
                None => format!("{from} -> {to}"),
            });
        }
        let anchor = cycle
            .first()
            .and_then(|a| {
                let b = cycle.get(1).unwrap_or(a);
                graph.edge_witnesses(a, b).first()
            })
            .cloned();
        let (file, line) = anchor
            .as_ref()
            .map(|w| (w.file.clone(), w.line))
            .unwrap_or_else(|| ("<graph>".to_string(), 1));
        diags.push(Diagnostic::new(
            &file,
            line,
            1,
            Rule::LockOrder,
            format!(
                "lock-order cycle {}: {}",
                cycle.join(" -> "),
                legs.join("; ")
            ),
        ));
    }

    diags.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    (diags, graph)
}

/// Functions whose return type names a guard and whose body acquires a
/// known lock: calling them *is* acquiring that lock.
fn collect_guard_summaries(
    code: &[&Token],
    symbols: &Symbols,
    summaries: &mut BTreeMap<String, String>,
) {
    let tree = ScopeTree::build(code);
    for node in &tree.nodes {
        if node.kind != ScopeKind::Fn {
            continue;
        }
        let Some(name) = &node.fn_name else { continue };
        let header = &code[node.kw..node.open];
        let returns_guard = header.iter().any(|t| {
            t.is_ident("MutexGuard")
                || t.is_ident("RwLockReadGuard")
                || t.is_ident("RwLockWriteGuard")
        });
        if !returns_guard {
            continue;
        }
        let body = &code[node.open..=node.close.min(code.len() - 1)];
        for i in 2..body.len() {
            if body[i].kind == TokenKind::Ident
                && ACQUIRE_METHODS.contains(&body[i].text.as_str())
                && body[i - 1].is_punct('.')
                && body[i - 2].kind == TokenKind::Ident
                && symbols.locks.contains(&body[i - 2].text)
                && body.get(i + 1).is_some_and(|t| t.is_punct('('))
            {
                summaries.insert(name.clone(), body[i - 2].text.clone());
                break;
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn scan_file(
    rel: &str,
    tokens: &[Token],
    code: &[&Token],
    symbols: &Symbols,
    summaries: &BTreeMap<String, String>,
    diags: &mut Vec<Diagnostic>,
    edges: &mut BTreeMap<(String, String), Vec<Witness>>,
    sites: &mut Vec<AtomicSite>,
) {
    let dirs = directives::parse(rel, tokens);
    let test_spans = test_excluded_spans(tokens);
    let in_test = |line: u32| test_spans.iter().any(|&(s, e)| s <= line && line <= e);
    let tree = ScopeTree::build(code);

    let fn_name_at = |i: usize| {
        tree.enclosing_fn(i)
            .and_then(|n| n.fn_name.clone())
            .unwrap_or_else(|| "<file>".to_string())
    };

    // Wait sites, collected first so while-headers can be checked for
    // gating Relaxed loads afterwards.
    let mut wait_whiles: BTreeSet<usize> = BTreeSet::new();

    let mut live: Vec<LiveGuard> = Vec::new();
    for i in 0..code.len() {
        // Retire guards whose scope has closed behind us.
        live.retain(|g| tree.nodes[g.scope].close >= i);
        let tok = code[i];

        // End-of-statement retires temporaries of the current scope.
        if tok.is_punct(';') {
            if let Some(scope) = tree.innermost(i) {
                live.retain(|g| !(g.temp && g.scope == scope));
            }
        }

        // `drop(name)` retires a named guard early.
        if tok.is_ident("drop")
            && code.get(i + 1).is_some_and(|t| t.is_punct('('))
            && code.get(i + 3).is_some_and(|t| t.is_punct(')'))
        {
            if let Some(name) = code.get(i + 2).filter(|t| t.kind == TokenKind::Ident) {
                live.retain(|g| g.name.as_deref() != Some(name.text.as_str()));
            }
        }

        if tok.kind != TokenKind::Ident || in_test(tok.line) {
            continue;
        }
        let next_is_call = code.get(i + 1).is_some_and(|t| t.is_punct('('));
        let prev_dot = i > 0 && code[i - 1].is_punct('.');

        // Acquisition, direct or through a guard-returning summary.
        let acquired: Option<(String, usize)> = if ACQUIRE_METHODS.contains(&tok.text.as_str())
            && next_is_call
            && prev_dot
            && i >= 2
            && code[i - 2].kind == TokenKind::Ident
            && symbols.locks.contains(&code[i - 2].text)
        {
            Some((code[i - 2].text.clone(), i))
        } else if next_is_call
            && summaries.contains_key(&tok.text)
            && !(i > 0 && code[i - 1].is_ident("fn"))
        {
            // A call of a guard-returning function, free or as a method
            // (after a `.` the previous token is never `fn`).
            Some((summaries[&tok.text].clone(), i))
        } else {
            None
        };
        if let Some((lock, site)) = acquired {
            let func = fn_name_at(site);
            for g in &live {
                if g.lock != lock {
                    edges
                        .entry((g.lock.clone(), lock.clone()))
                        .or_default()
                        .push(Witness {
                            file: rel.to_string(),
                            func: func.clone(),
                            line: code[site].line,
                        });
                }
            }
            let scope = tree.innermost(site).unwrap_or(0);
            let bound = binding_name(code, site);
            live.push(LiveGuard {
                lock,
                temp: bound.is_none(),
                name: bound,
                scope,
            });
            continue;
        }

        // Condvar wait discipline.
        if matches!(tok.text.as_str(), "wait" | "wait_timeout")
            && next_is_call
            && prev_dot
            && i >= 2
            && symbols.condvars.contains(&code[i - 2].text)
        {
            let inner = tree.innermost(i);
            let mut looped = false;
            if let Some(inner) = inner {
                for anc in tree.ancestors(inner) {
                    match anc.kind {
                        ScopeKind::While | ScopeKind::Loop => {
                            looped = true;
                            // Remember the loop header for the
                            // gating-load audit.
                            if anc.kind == ScopeKind::While {
                                wait_whiles.insert(anc.kw);
                            }
                            break;
                        }
                        ScopeKind::Fn => break,
                        _ => {}
                    }
                }
            }
            if !looped {
                diags.push(Diagnostic::new(
                    rel,
                    tok.line,
                    tok.col,
                    Rule::Condvar,
                    format!(
                        "`{}.{}` without an enclosing `while`/`loop` re-checking the predicate: \
                         condvar waits can wake spuriously, so an `if`-guarded or bare wait \
                         loses wakeups (or acts on a stale predicate)",
                        code[i - 2].text,
                        tok.text
                    ),
                ));
            }
            continue;
        }

        // Atomic-ordering sites.
        if ATOMIC_METHODS.contains(&tok.text.as_str())
            && next_is_call
            && prev_dot
            && i >= 2
            && symbols.atomics.contains(&code[i - 2].text)
        {
            let (relaxed, ordered) = orderings_in_args(code, i + 1);
            sites.push(AtomicSite {
                field: code[i - 2].text.clone(),
                file: rel.to_string(),
                func: fn_name_at(i),
                line: tok.line,
                col: tok.col,
                relaxed,
                ordered,
                gates_wait: false, // patched below
                waived: dirs.allowed(Rule::Atomics, tok.line),
            });
        }
    }

    // Mark Relaxed loads that sit in the header of a while loop whose
    // body parks on a condvar.
    for &kw in &wait_whiles {
        let open = tree
            .nodes
            .iter()
            .find(|n| n.kw == kw && n.kind == ScopeKind::While)
            .map(|n| n.open)
            .unwrap_or(kw);
        for s in sites.iter_mut() {
            if s.file != rel || !s.relaxed {
                continue;
            }
            let in_header = code[kw..open]
                .iter()
                .any(|t| t.line == s.line && t.col == s.col);
            if in_header {
                s.gates_wait = true;
            }
        }
    }
}

/// If the statement containing the acquisition at `site` starts with
/// `let [mut] <name> =`, returns the bound name.
fn binding_name(code: &[&Token], site: usize) -> Option<String> {
    let mut j = site;
    let mut steps = 0;
    while j > 0 && steps < 48 {
        let t = code[j - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        j -= 1;
        steps += 1;
    }
    if !code.get(j).is_some_and(|t| t.is_ident("let")) {
        return None;
    }
    let mut k = j + 1;
    if code.get(k).is_some_and(|t| t.is_ident("mut")) {
        k += 1;
    }
    let name = code.get(k).filter(|t| t.kind == TokenKind::Ident)?;
    code.get(k + 1)
        .filter(|t| t.is_punct('='))
        .map(|_| name.text.clone())
}

/// Scans the argument list opening at `open_paren` for ordering
/// idents; returns `(any_relaxed, any_ordered)`.
fn orderings_in_args(code: &[&Token], open_paren: usize) -> (bool, bool) {
    let mut depth = 0usize;
    let mut relaxed = false;
    let mut ordered = false;
    for t in code.iter().skip(open_paren) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokenKind::Ident {
            if t.text == "Relaxed" {
                relaxed = true;
            } else if ORDERED.contains(&t.text.as_str()) {
                ordered = true;
            }
        }
    }
    (relaxed, ordered)
}
