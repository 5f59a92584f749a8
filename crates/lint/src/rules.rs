//! The source-level rule families: panic-freedom, slice-indexing,
//! determinism, allocation hygiene, and the `unsafe` contract.
//!
//! Every rule walks the token stream of [`crate::tokenizer`] — never
//! raw text — so occurrences inside strings, char literals and
//! comments are invisible to it. `#[cfg(test)]` modules and `#[test]`
//! functions are exempt from the behavioural rules (tests unwrap
//! freely); the `unsafe` rule has no exemptions at all.

use crate::config::{DETERMINISM_SCOPE, INDEX_SCOPE, PANIC_SCOPE, SPAWN_SCOPE, SWALLOW_SCOPE};
use crate::diagnostics::{Diagnostic, Rule};
use crate::directives;
use crate::tokenizer::{tokenize, Token, TokenKind};

/// Methods that panic on `None`/`Err` (flagged when called, i.e.
/// preceded by `.` and followed by `(`).
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Macros that unconditionally panic when reached.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Identifiers whose presence in a numeric path threatens
/// reproducibility, with the suggested replacement.
const NONDETERMINISM: &[(&str, &str)] = &[
    (
        "HashMap",
        "iteration order varies per process; use BTreeMap",
    ),
    (
        "HashSet",
        "iteration order varies per process; use BTreeSet",
    ),
    ("RandomState", "per-process random hasher seed"),
    ("Instant", "wall-clock readings are not reproducible"),
    ("SystemTime", "wall-clock readings are not reproducible"),
    (
        "available_parallelism",
        "output must not depend on the host's core count",
    ),
    (
        "thread_rng",
        "unseeded RNG; thread a seeded StdRng through instead",
    ),
    ("from_entropy", "OS-entropy seeding; use seed_from_u64"),
];

/// Methods that (may) allocate, flagged inside `lint:no_alloc` regions
/// when called.
const ALLOC_METHODS: &[&str] = &[
    "push",
    "extend",
    "collect",
    "to_vec",
    "to_owned",
    "to_string",
    "reserve",
    "resize",
    "resize_with",
    "insert",
    "append",
];

/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Types whose associated constructors allocate (`X::new`,
/// `X::with_capacity`, `X::from`).
const ALLOC_TYPES: &[&str] = &[
    "Vec", "VecDeque", "String", "Box", "BTreeMap", "BTreeSet", "HashMap", "HashSet",
];

/// Keywords after which a `[` opens an array literal or pattern, not an
/// index expression.
const ARRAY_CONTEXT_KEYWORDS: &[&str] = &[
    "in", "return", "break", "else", "match", "move", "ref", "mut", "let", "const", "static", "as",
    "yield",
];

/// Runs every source rule that applies to `rel` over `src` and returns
/// the surviving diagnostics (allow-annotated and test-module hits
/// already filtered), sorted by position.
pub fn analyze_source(rel: &str, src: &str) -> Vec<Diagnostic> {
    let tokens = tokenize(src);
    let dir = directives::parse(rel, &tokens);
    let test_spans = test_excluded_spans(&tokens);
    let in_test = |line: u32| test_spans.iter().any(|&(s, e)| s <= line && line <= e);

    let mut diags = Vec::new();
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();

    if PANIC_SCOPE.contains(rel) {
        scan_panic(rel, &code, &mut diags);
    }
    if INDEX_SCOPE.contains(rel) {
        scan_index(rel, &code, &mut diags);
    }
    if DETERMINISM_SCOPE.contains(rel) {
        scan_determinism(rel, &code, &mut diags);
    }
    if SPAWN_SCOPE.contains(rel) {
        scan_spawn(rel, &code, &mut diags);
    }
    if SWALLOW_SCOPE.contains(rel) {
        scan_swallow(rel, &code, &mut diags);
    }
    if dir.has_no_alloc_regions() {
        scan_alloc(rel, &code, &dir, &mut diags);
    }
    scan_unsafe(rel, &code, &mut diags);

    diags.retain(|d| {
        let test_exempt = in_test(d.line) && d.rule != Rule::Unsafe;
        let waived = Rule::allowable(d.rule.name()) && dir.allowed(d.rule, d.line);
        !test_exempt && !waived
    });
    diags.extend(dir.diags);
    diags.sort_by_key(|d| (d.line, d.col, d.rule));
    diags
}

/// Line spans (inclusive) covered by `#[cfg(test)]` items or `#[test]`
/// functions — token-based, so braces in strings cannot derail the
/// matcher. Shared with [`crate::concurrency`], whose rules exempt
/// test code the same way.
pub(crate) fn test_excluded_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let toks: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        let attr_line = toks[i].line;
        // Collect the attribute's tokens up to its matching `]`.
        let mut j = i + 2;
        let mut depth = 1usize;
        let attr_start = j;
        while j < toks.len() {
            if toks[j].is_punct('[') {
                depth += 1;
            } else if toks[j].is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        let attr = &toks[attr_start..j.min(toks.len())];
        if !is_test_attr(attr) {
            i = j + 1;
            continue;
        }
        // Find the item body: first `{` (then match braces) or a
        // top-level `;` (body-less item). Square brackets are tracked
        // so a `[u8; 4]` return type cannot fake an item end.
        let mut k = j + 1;
        let mut sq = 0usize;
        let mut end_line = attr_line;
        while k < toks.len() {
            let t = toks[k];
            if t.is_punct('[') {
                sq += 1;
            } else if t.is_punct(']') {
                sq = sq.saturating_sub(1);
            } else if t.is_punct(';') && sq == 0 {
                end_line = t.line;
                break;
            } else if t.is_punct('{') && sq == 0 {
                let mut braces = 1usize;
                k += 1;
                while k < toks.len() && braces > 0 {
                    if toks[k].is_punct('{') {
                        braces += 1;
                    } else if toks[k].is_punct('}') {
                        braces -= 1;
                    }
                    end_line = toks[k].line;
                    k += 1;
                }
                break;
            }
            k += 1;
        }
        spans.push((attr_line, end_line.max(attr_line)));
        i = k.max(j + 1);
    }
    spans
}

/// `#[test]` exactly, or any attribute containing the `cfg ( test )`
/// sequence (`#[cfg(not(test))]` does not match).
fn is_test_attr(attr: &[&Token]) -> bool {
    if attr.len() == 1 && attr[0].is_ident("test") {
        return true;
    }
    attr.windows(4).any(|w| {
        w[0].is_ident("cfg") && w[1].is_punct('(') && w[2].is_ident("test") && w[3].is_punct(')')
    })
}

fn scan_panic(rel: &str, code: &[&Token], diags: &mut Vec<Diagnostic>) {
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let next_is = |c: char| code.get(i + 1).is_some_and(|t| t.is_punct(c));
        let prev_is_dot = i > 0 && code[i - 1].is_punct('.');
        if PANIC_METHODS.contains(&tok.text.as_str()) && prev_is_dot && next_is('(') {
            diags.push(Diagnostic::new(
                rel,
                tok.line,
                tok.col,
                Rule::Panic,
                format!(
                    "`.{}()` in a panic-free scope; return a Result or handle the None case",
                    tok.text
                ),
            ));
        } else if PANIC_MACROS.contains(&tok.text.as_str()) && next_is('!') {
            diags.push(Diagnostic::new(
                rel,
                tok.line,
                tok.col,
                Rule::Panic,
                format!("`{}!` in a panic-free scope", tok.text),
            ));
        }
    }
}

fn scan_index(rel: &str, code: &[&Token], diags: &mut Vec<Diagnostic>) {
    for (i, tok) in code.iter().enumerate() {
        if !tok.is_punct('[') || i == 0 {
            continue;
        }
        let prev = code[i - 1];
        let indexes = match prev.kind {
            TokenKind::Ident => !ARRAY_CONTEXT_KEYWORDS.contains(&prev.text.as_str()),
            TokenKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
            _ => false,
        };
        if indexes {
            diags.push(Diagnostic::new(
                rel,
                tok.line,
                tok.col,
                Rule::Index,
                "slice/array indexing in a panic-free scope; use get()/iterators or annotate \
                 the bounds proof",
            ));
        }
    }
}

fn scan_determinism(rel: &str, code: &[&Token], diags: &mut Vec<Diagnostic>) {
    for tok in code {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        if let Some((name, why)) = NONDETERMINISM.iter().find(|(n, _)| *n == tok.text) {
            diags.push(Diagnostic::new(
                rel,
                tok.line,
                tok.col,
                Rule::Determinism,
                format!("`{name}` in a numeric path: {why}"),
            ));
        }
    }
}

/// Thread-creation calls banned in the single-threaded tensor kernels.
const SPAWN_CALLS: &[&str] = &["spawn", "scope", "Builder"];

fn scan_spawn(rel: &str, code: &[&Token], diags: &mut Vec<Diagnostic>) {
    for (i, tok) in code.iter().enumerate() {
        if !tok.is_ident("thread") {
            continue;
        }
        let is_path_sep = code.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && code.get(i + 2).is_some_and(|t| t.is_punct(':'));
        if !is_path_sep {
            continue;
        }
        if let Some(what) = code
            .get(i + 3)
            .filter(|t| SPAWN_CALLS.contains(&t.text.as_str()))
        {
            diags.push(Diagnostic::new(
                rel,
                what.line,
                what.col,
                Rule::Spawn,
                format!(
                    "raw `thread::{}` in the tensor kernels, which are single-threaded; \
                     parallelise independent units (folds, seeds, tables) in the caller",
                    what.text
                ),
            ));
        }
    }
}

fn scan_alloc(
    rel: &str,
    code: &[&Token],
    dir: &directives::Directives,
    diags: &mut Vec<Diagnostic>,
) {
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokenKind::Ident || !dir.in_no_alloc(tok.line) {
            continue;
        }
        let next_is = |c: char| code.get(i + 1).is_some_and(|t| t.is_punct(c));
        let prev_is_dot = i > 0 && code[i - 1].is_punct('.');
        let flagged = if ALLOC_METHODS.contains(&tok.text.as_str()) && prev_is_dot && next_is('(') {
            Some(format!("`.{}()` allocates", tok.text))
        } else if ALLOC_MACROS.contains(&tok.text.as_str()) && next_is('!') {
            Some(format!("`{}!` allocates", tok.text))
        } else if ALLOC_TYPES.contains(&tok.text.as_str())
            && next_is(':')
            && code.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && code
                .get(i + 3)
                .is_some_and(|t| matches!(t.text.as_str(), "new" | "with_capacity" | "from"))
        {
            Some(format!("`{}::{}` allocates", tok.text, code[i + 3].text))
        } else {
            None
        };
        if let Some(what) = flagged {
            diags.push(Diagnostic::new(
                rel,
                tok.line,
                tok.col,
                Rule::Alloc,
                format!("{what} inside a lint:no_alloc region"),
            ));
        }
    }
}

/// `Result`-bearing calls whose discarded outcome hides a shutdown-
/// ordering or backpressure bug on the serve/wire hot paths: a
/// swallowed `join` loses a worker panic, a swallowed `push`/`send`
/// loses a frame with no counter recording it.
const SWALLOW_METHODS: &[&str] = &[
    "lock", "read", "write", "join", "send", "try_send", "push", "try_push",
];

fn scan_swallow(rel: &str, code: &[&Token], diags: &mut Vec<Diagnostic>) {
    let mut i = 0;
    while i < code.len() {
        let tok = code[i];

        // `let _ = <expr calling .m(...)>;` — scan the discarded
        // expression (to its `;` at bracket depth 0, so closure bodies
        // cannot end the statement early) for the first swallowed call.
        if tok.is_ident("let")
            && code.get(i + 1).is_some_and(|t| t.is_ident("_"))
            && code.get(i + 2).is_some_and(|t| t.is_punct('='))
        {
            let mut j = i + 3;
            let mut depth = 0usize;
            let mut hit: Option<&Token> = None;
            while j < code.len() {
                let t = code[j];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                } else if t.is_punct(';') && depth == 0 {
                    break;
                }
                if hit.is_none()
                    && t.kind == TokenKind::Ident
                    && SWALLOW_METHODS.contains(&t.text.as_str())
                    && code[j - 1].is_punct('.')
                    && code.get(j + 1).is_some_and(|p| p.is_punct('('))
                {
                    hit = Some(t);
                }
                j += 1;
            }
            if let Some(t) = hit {
                diags.push(Diagnostic::new(
                    rel,
                    t.line,
                    t.col,
                    Rule::Swallow,
                    format!(
                        "`let _ =` discards the `{}` result on a hot path; propagate the error \
                         or count the failure in a metric",
                        t.text
                    ),
                ));
            }
            i = j;
            continue;
        }

        // `<expr>.m(...).ok();` with no binding — the trailing-`.ok()`
        // discard idiom. A `let`-bound `.ok()` observes the outcome and
        // stays legal.
        if tok.is_ident("ok")
            && i > 0
            && code[i - 1].is_punct('.')
            && code.get(i + 1).is_some_and(|t| t.is_punct('('))
            && code.get(i + 2).is_some_and(|t| t.is_punct(')'))
            && code.get(i + 3).is_some_and(|t| t.is_punct(';'))
        {
            let mut s = i;
            let mut steps = 0;
            while s > 0 && steps < 64 {
                let t = code[s - 1];
                if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                    break;
                }
                s -= 1;
                steps += 1;
            }
            let bound = code.get(s).is_some_and(|t| t.is_ident("let"));
            let swallowed = (s.max(1)..i).find_map(|k| {
                (code[k].kind == TokenKind::Ident
                    && SWALLOW_METHODS.contains(&code[k].text.as_str())
                    && code[k - 1].is_punct('.')
                    && code.get(k + 1).is_some_and(|p| p.is_punct('(')))
                .then(|| code[k].text.clone())
            });
            if !bound {
                if let Some(m) = swallowed {
                    diags.push(Diagnostic::new(
                        rel,
                        tok.line,
                        tok.col,
                        Rule::Swallow,
                        format!(
                            "`.ok()` discards the `{m}` error on a hot path; propagate the \
                             error or count the failure in a metric"
                        ),
                    ));
                }
            }
        }
        i += 1;
    }
}

fn scan_unsafe(rel: &str, code: &[&Token], diags: &mut Vec<Diagnostic>) {
    for tok in code {
        if tok.is_ident("unsafe") {
            diags.push(Diagnostic::new(
                rel,
                tok.line,
                tok.col,
                Rule::Unsafe,
                "`unsafe` is banned workspace-wide (no escape hatch)",
            ));
        }
    }
    if rel.starts_with("crates/") && rel.ends_with("/src/lib.rs") && !has_deny_unsafe(code) {
        diags.push(Diagnostic::new(
            rel,
            1,
            1,
            Rule::Unsafe,
            "crate root is missing `#![deny(unsafe_code)]`",
        ));
    }
}

/// Looks for `#![deny(unsafe_code)]` / `#![forbid(unsafe_code)]`.
fn has_deny_unsafe(code: &[&Token]) -> bool {
    for i in 0..code.len() {
        if code[i].is_punct('#')
            && code.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && code.get(i + 2).is_some_and(|t| t.is_punct('['))
            && code
                .get(i + 3)
                .is_some_and(|t| t.is_ident("deny") || t.is_ident("forbid"))
        {
            let mut j = i + 4;
            while j < code.len() && !code[j].is_punct(']') {
                if code[j].is_ident("unsafe_code") {
                    return true;
                }
                j += 1;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_modules_are_excluded() {
        let src = "fn hot() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n    fn t() { y.unwrap(); }\n}\n";
        let diags = analyze_source("crates/serve/src/worker.rs", src);
        let panics: Vec<_> = diags.iter().filter(|d| d.rule == Rule::Panic).collect();
        assert_eq!(panics.len(), 1);
        assert_eq!(panics[0].line, 1);
    }

    #[test]
    fn cfg_not_test_is_not_excluded() {
        let src = "#[cfg(not(test))]\nfn hot() { x.unwrap(); }\n";
        let diags = analyze_source("crates/serve/src/worker.rs", src);
        assert!(diags.iter().any(|d| d.rule == Rule::Panic));
    }

    #[test]
    fn array_literals_after_keywords_are_not_indexing() {
        let src = "fn f() { for t in [2, 4] { g(t); } let a = x[t]; }";
        let diags = analyze_source("crates/serve/src/worker.rs", src);
        let idx: Vec<_> = diags.iter().filter(|d| d.rule == Rule::Index).collect();
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn out_of_scope_files_are_silent() {
        let src = "fn f() { x.unwrap(); let h = HashMap::new(); }";
        assert!(analyze_source("crates/channel/tests/proptests.rs", src).is_empty());
    }
}
