//! A lightweight structural model over the token stream: the brace
//! scope tree and the concurrency symbol table the cross-file pass
//! ([`crate::concurrency`]) runs on.
//!
//! This is deliberately *not* a Rust parser. It classifies each brace
//! scope by the keyword that introduced it (`fn`/`while`/`loop`/…),
//! which is exactly the shape information the condvar-predicate rule
//! needs ("is this wait re-checked by an enclosing loop?") and the
//! lock-order pass needs ("which function does this acquisition belong
//! to, and when does its guard's scope close?"). Token streams the
//! tokenizer produces are already string/comment-clean, so a `{` in a
//! string literal can never open a phantom scope.
//!
//! Known approximations, chosen for a dependency-free analyzer:
//!
//! * A closure body is a plain `Block` — acquisitions inside it are
//!   attributed to the enclosing named function.
//! * A brace-bearing closure *inside a loop condition* would consume
//!   the pending loop keyword; none of the audited files do this.
//! * Guard liveness (in the concurrency pass) over-approximates: a
//!   `let`-bound acquisition is considered held until its scope ends
//!   or it is `drop`ped, even if the binding was actually a value
//!   projected out of a temporary guard. Over-approximation can only
//!   add lock-order edges, never hide one.

use crate::tokenizer::{Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// What introduced a brace scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeKind {
    /// `fn name(...) { ... }` — a function body.
    Fn,
    /// `while cond { ... }` (including `while let`).
    While,
    /// `loop { ... }`.
    Loop,
    /// `for pat in iter { ... }`.
    For,
    /// `if cond { ... }` (including `if let`).
    If,
    /// `else { ... }`.
    Else,
    /// `match expr { ... }`.
    Match,
    /// Anything else: plain blocks, struct/impl bodies, match arms,
    /// closure bodies.
    Block,
}

/// One brace scope: `open`/`close` are indices into the comment-free
/// token slice the tree was built from (`close` points at the `}`, or
/// the last token when unterminated at EOF).
#[derive(Debug, Clone)]
pub struct ScopeNode {
    pub kind: ScopeKind,
    pub parent: Option<usize>,
    pub open: usize,
    pub close: usize,
    /// Token index of the introducing keyword (`while`, `fn`, …) —
    /// `open` for plain blocks. The span `kw..open` is the header
    /// (condition / signature) of the scope.
    pub kw: usize,
    /// For `Fn` scopes: the function's name.
    pub fn_name: Option<String>,
}

/// The scope tree of one file.
#[derive(Debug, Default)]
pub struct ScopeTree {
    pub nodes: Vec<ScopeNode>,
}

impl ScopeTree {
    /// Builds the tree over a comment-free token slice.
    pub fn build(code: &[&Token]) -> ScopeTree {
        let mut nodes: Vec<ScopeNode> = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        // The keyword waiting for its `{`, with the paren/bracket
        // depth at which it was seen (a `;` at that depth cancels it:
        // a body-less trait fn, `fn f() -> T;`).
        let mut pending: Option<(ScopeKind, usize, Option<String>)> = None;
        let mut depth = 0usize;

        for (i, tok) in code.iter().enumerate() {
            match tok.kind {
                TokenKind::Ident => {
                    let kind = match tok.text.as_str() {
                        "fn" => Some(ScopeKind::Fn),
                        "while" => Some(ScopeKind::While),
                        "loop" => Some(ScopeKind::Loop),
                        "for" => Some(ScopeKind::For),
                        "if" => Some(ScopeKind::If),
                        "else" => Some(ScopeKind::Else),
                        "match" => Some(ScopeKind::Match),
                        _ => None,
                    };
                    if let Some(kind) = kind {
                        let name = (kind == ScopeKind::Fn)
                            .then(|| {
                                code.get(i + 1)
                                    .filter(|t| t.kind == TokenKind::Ident)
                                    .map(|t| t.text.clone())
                            })
                            .flatten();
                        pending = Some((kind, depth, name));
                    }
                }
                TokenKind::Punct => match tok.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth = depth.saturating_sub(1),
                    ";" => {
                        if let Some((_, d, _)) = pending {
                            if depth <= d {
                                pending = None;
                            }
                        }
                    }
                    "{" => {
                        let (kind, kw, fn_name) = match pending.take() {
                            Some((k, _, name)) => {
                                // Recover the keyword index: scan back
                                // for the nearest introducing keyword
                                // at this statement.
                                let kw = find_kw_back(code, i, k);
                                (k, kw, name)
                            }
                            None => (ScopeKind::Block, i, None),
                        };
                        let idx = nodes.len();
                        nodes.push(ScopeNode {
                            kind,
                            parent: stack.last().copied(),
                            open: i,
                            close: code.len().saturating_sub(1),
                            kw,
                            fn_name,
                        });
                        stack.push(idx);
                    }
                    "}" => {
                        if let Some(idx) = stack.pop() {
                            nodes[idx].close = i;
                        }
                    }
                    _ => {}
                },
                _ => {}
            }
        }
        ScopeTree { nodes }
    }

    /// Index of the innermost scope containing token `tok` (strictly
    /// inside: the `{`/`}` themselves belong to the scope).
    pub fn innermost(&self, tok: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, n) in self.nodes.iter().enumerate() {
            if n.open <= tok && tok <= n.close {
                match best {
                    Some(b) if self.nodes[b].open >= n.open => {}
                    _ => best = Some(i),
                }
            }
        }
        best
    }

    /// Walks `scope` and its ancestors, innermost first.
    pub fn ancestors(&self, scope: usize) -> impl Iterator<Item = &ScopeNode> {
        let mut cur = Some(scope);
        std::iter::from_fn(move || {
            let idx = cur?;
            cur = self.nodes[idx].parent;
            Some(&self.nodes[idx])
        })
    }

    /// The enclosing `Fn` scope of token `tok`, if any.
    pub fn enclosing_fn(&self, tok: usize) -> Option<&ScopeNode> {
        let inner = self.innermost(tok)?;
        self.ancestors(inner).find(|n| n.kind == ScopeKind::Fn)
    }
}

/// Finds the introducing keyword token for the scope whose `{` sits at
/// `open`, scanning backwards no further than the previous `;`/`{`/`}`.
fn find_kw_back(code: &[&Token], open: usize, kind: ScopeKind) -> usize {
    let kw_text = match kind {
        ScopeKind::Fn => "fn",
        ScopeKind::While => "while",
        ScopeKind::Loop => "loop",
        ScopeKind::For => "for",
        ScopeKind::If => "if",
        ScopeKind::Else => "else",
        ScopeKind::Match => "match",
        ScopeKind::Block => return open,
    };
    let mut j = open;
    while j > 0 {
        j -= 1;
        let t = code[j];
        if t.kind == TokenKind::Ident && t.text == kw_text {
            return j;
        }
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
    }
    open
}

/// The concurrency symbol table of a file set: every named lock,
/// condvar and atomic the audited subsystems declare. Identity is by
/// *field name* — `state` in the queue and `state` in a fixture are the
/// same node — which is what makes the graph cross-file without type
/// resolution. The scope config keeps unrelated modules out, so the
/// name space stays honest.
#[derive(Debug, Default)]
pub struct Symbols {
    /// Field (or alias-derived) names of `Mutex`/`RwLock` values.
    pub locks: BTreeSet<String>,
    /// Field names of `Condvar` values.
    pub condvars: BTreeSet<String>,
    /// Field names of `Atomic*` values.
    pub atomics: BTreeSet<String>,
    /// Type aliases whose right-hand side contains a lock
    /// (`type Registry = Arc<Mutex<…>>`): alias name → snake_case
    /// binding convention (`Registry` → `registry`), both of which
    /// register a lock name.
    pub lock_aliases: BTreeMap<String, String>,
}

impl Symbols {
    /// Collects declarations from one file's comment-free tokens into
    /// the table. For a multi-file set, run [`Self::collect_aliases`]
    /// over every file *first*, then [`Self::collect_struct_fields`] —
    /// a field typed by another file's lock alias resolves regardless
    /// of walk order.
    pub fn collect(&mut self, code: &[&Token]) {
        self.collect_aliases(code);
        self.collect_struct_fields(code);
    }

    /// Sweep 1: `type Name = … Mutex/RwLock …;` aliases.
    pub fn collect_aliases(&mut self, code: &[&Token]) {
        let mut i = 0;
        while i < code.len() {
            if code[i].is_ident("type")
                && code.get(i + 1).is_some_and(|t| t.kind == TokenKind::Ident)
            {
                let name = code[i + 1].text.clone();
                let mut j = i + 2;
                let mut is_lock = false;
                while j < code.len() && !code[j].is_punct(';') {
                    if code[j].is_ident("Mutex") || code[j].is_ident("RwLock") {
                        is_lock = true;
                    }
                    j += 1;
                }
                if is_lock {
                    let snake = snake_case(&name);
                    self.locks.insert(snake.clone());
                    self.lock_aliases.insert(name, snake);
                }
                i = j;
            }
            i += 1;
        }
    }

    /// Sweep 2: struct fields, classified by their type tokens.
    pub fn collect_struct_fields(&mut self, code: &[&Token]) {
        let mut i = 0;
        while i < code.len() {
            if !code[i].is_ident("struct") {
                i += 1;
                continue;
            }
            // Skip to the body `{` (tuple structs and unit structs hit
            // `;`/`(` first and are skipped — none of the audited
            // primitives are tuple structs).
            let mut j = i + 1;
            while j < code.len() && !code[j].is_punct('{') && !code[j].is_punct(';') {
                if code[j].is_punct('(') {
                    break;
                }
                j += 1;
            }
            if j >= code.len() || !code[j].is_punct('{') {
                i = j + 1;
                continue;
            }
            // Walk the body at depth 1, splitting `name : type…` runs.
            let mut depth = 1usize;
            let mut k = j + 1;
            while k < code.len() && depth > 0 {
                let t = code[k];
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                } else if depth == 1
                    && t.kind == TokenKind::Ident
                    && code.get(k + 1).is_some_and(|n| n.is_punct(':'))
                    && !code.get(k + 2).is_some_and(|n| n.is_punct(':'))
                    && field_position(code, k)
                {
                    let field = t.text.clone();
                    // Type tokens run to the `,` at angle-depth 0 or
                    // the closing `}`.
                    let mut angle = 0i32;
                    let mut m = k + 2;
                    let mut kind = FieldKind::Other;
                    while m < code.len() {
                        let ty = code[m];
                        if ty.is_punct('<') {
                            angle += 1;
                        } else if ty.is_punct('>') {
                            angle -= 1;
                        } else if (ty.is_punct(',') && angle <= 0) || ty.is_punct('}') {
                            break;
                        } else if ty.kind == TokenKind::Ident {
                            if ty.text == "Mutex"
                                || ty.text == "RwLock"
                                || self.lock_aliases.contains_key(&ty.text)
                            {
                                kind = FieldKind::Lock;
                            } else if ty.text == "Condvar" {
                                kind = FieldKind::Condvar;
                            } else if ty.text.starts_with("Atomic") {
                                kind = FieldKind::Atomic;
                            }
                        }
                        m += 1;
                    }
                    match kind {
                        FieldKind::Lock => {
                            self.locks.insert(field);
                        }
                        FieldKind::Condvar => {
                            self.condvars.insert(field);
                        }
                        FieldKind::Atomic => {
                            self.atomics.insert(field);
                        }
                        FieldKind::Other => {}
                    }
                    k = m;
                    continue;
                }
                k += 1;
            }
            i = k;
        }
    }
}

#[derive(PartialEq)]
enum FieldKind {
    Lock,
    Condvar,
    Atomic,
    Other,
}

/// Whether the ident at `k` sits in field-name position: preceded by
/// `{`, `,`, `pub` or the `)` of `pub(crate)` — never by `:` (which
/// would make it a path segment inside a type).
fn field_position(code: &[&Token], k: usize) -> bool {
    let Some(prev) = k.checked_sub(1).and_then(|p| code.get(p)) else {
        return false;
    };
    prev.is_punct('{') || prev.is_punct(',') || prev.is_ident("pub") || prev.is_punct(')')
}

/// `Registry` → `registry`, `DeadLetterQueue` → `dead_letter_queue`:
/// the binding-name convention lock-typed aliases register under.
pub fn snake_case(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    for (i, c) in name.chars().enumerate() {
        if c.is_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.extend(c.to_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn tree(src: &str) -> (Vec<crate::tokenizer::Token>, ScopeTree) {
        let tokens = tokenize(src);
        let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
        let tree = ScopeTree::build(&code);
        (tokens, tree)
    }

    #[test]
    fn loops_conditionals_and_fns_are_classified() {
        let src = "fn f() { while x { if y { loop { } } else { } } match z { _ => { } } }";
        let (_, t) = tree(src);
        let kinds: Vec<ScopeKind> = t.nodes.iter().map(|n| n.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ScopeKind::Fn,
                ScopeKind::While,
                ScopeKind::If,
                ScopeKind::Loop,
                ScopeKind::Else,
                ScopeKind::Match,
                ScopeKind::Block, // the match arm
            ]
        );
        assert_eq!(t.nodes[0].fn_name.as_deref(), Some("f"));
    }

    #[test]
    fn while_let_and_struct_bodies() {
        let src = "struct S { a: u32 }\nfn g() { while let Some(v) = it.next() { use_(v); } }";
        let (_, t) = tree(src);
        let kinds: Vec<ScopeKind> = t.nodes.iter().map(|n| n.kind).collect();
        assert_eq!(
            kinds,
            vec![ScopeKind::Block, ScopeKind::Fn, ScopeKind::While]
        );
    }

    #[test]
    fn bodyless_trait_fns_do_not_leak_their_keyword() {
        let src = "trait T { fn a(&self) -> u32; }\nfn b() { }";
        let (_, t) = tree(src);
        // trait body = Block, then b's Fn — a's `fn` must not claim
        // the trait's or b's braces.
        let fns: Vec<_> = t.nodes.iter().filter(|n| n.kind == ScopeKind::Fn).collect();
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].fn_name.as_deref(), Some("b"));
    }

    #[test]
    fn enclosing_fn_walks_past_blocks_and_arms() {
        let src = "fn outer() { match x { _ => { inner_site(); } } }";
        let tokens = tokenize(src);
        let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
        let t = ScopeTree::build(&code);
        let site = code
            .iter()
            .position(|tk| tk.is_ident("inner_site"))
            .unwrap();
        assert_eq!(
            t.enclosing_fn(site).and_then(|n| n.fn_name.as_deref()),
            Some("outer")
        );
    }

    #[test]
    fn symbols_classify_fields_and_aliases() {
        let src = "type Registry = Arc<Mutex<BTreeMap<String, Q>>>;\n\
                   struct Shared { ctrl: Mutex<Ctrl>, work_ready: Condvar,\n\
                   epoch: AtomicU64, inputs: RwLock<Inputs>,\n\
                   staging: Vec<Mutex<Staging>>, map: BTreeMap<String, u64>,\n\
                   reg: Registry }";
        let tokens = tokenize(src);
        let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
        let mut sym = Symbols::default();
        sym.collect(&code);
        for lock in ["ctrl", "inputs", "staging", "registry", "reg"] {
            assert!(sym.locks.contains(lock), "{lock}: {sym:?}");
        }
        assert!(sym.condvars.contains("work_ready"));
        assert!(sym.atomics.contains("epoch"));
        assert!(!sym.locks.contains("map"));
        assert!(!sym.locks.contains("work_ready"));
    }

    #[test]
    fn generic_commas_do_not_split_fields() {
        let src = "struct S { m: Mutex<BTreeMap<String, Arc<Q>>>, n: u32 }";
        let tokens = tokenize(src);
        let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
        let mut sym = Symbols::default();
        sym.collect(&code);
        assert!(sym.locks.contains("m"));
        assert!(!sym.locks.contains("n"));
        assert!(!sym.locks.contains("String"));
    }

    #[test]
    fn snake_case_convention() {
        assert_eq!(snake_case("Registry"), "registry");
        assert_eq!(snake_case("DeadLetterQueue"), "dead_letter_queue");
        assert_eq!(snake_case("already_snake"), "already_snake");
    }
}
