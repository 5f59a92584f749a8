//! # occusense-lint
//!
//! The workspace's own static analyzer: a dependency-free source and
//! manifest checker that turns the contracts PRs 1–3 established —
//! bitwise-deterministic kernels, panic-supervised serve workers,
//! allocation-free steady-state hot paths, `tensor → nn → core →
//! serve` layering — into rules a CI gate can fail on. One stray
//! `unwrap()`, `HashMap` iteration or `Instant::now()` in a numeric
//! path silently breaks the reproducibility the paper's five
//! temporally-disjoint folds depend on; this crate makes that a
//! build-breaking diagnostic instead.
//!
//! The analyzer depends only on the std-only command-line harness
//! (`occusense-driver`, for its flags and its JSON report). It
//! carries its own lightweight Rust tokenizer
//! ([`tokenizer`] — string/char/raw-string/comment aware, no `syn`;
//! the build environment is offline), so rules can never be fooled by
//! `unwrap(` inside a string literal or a doc comment.
//!
//! ## Rule families
//!
//! | family | rules | scope |
//! |---|---|---|
//! | panic-freedom | `panic`, `index` | serve hot path, `tensor::kernels` |
//! | determinism | `determinism` | every numeric crate's `src` |
//! | allocation | `alloc` | `// lint:no_alloc` regions |
//! | unsafe/layering | `unsafe`, `layering` | crate roots + manifests |
//! | concurrency | `lock-order`, `condvar`, `atomics`, `swallow` | the hand-rolled concurrency subsystems |
//! | the hatch itself | `directive` | everywhere |
//!
//! The concurrency family is a **two-pass, cross-file** analysis
//! ([`concurrency`], DESIGN.md §13): pass one builds a symbol table of
//! lock/condvar/atomic fields over the whole
//! [`config::CONCURRENCY_SCOPE`] file set, pass two walks each file's
//! scope tree ([`model`]) tracking live guards, producing a global
//! lock-order graph (`--graph-dot` exports it as Graphviz DOT).
//!
//! Waivers are inline and **must carry a reason**:
//! `lint:allow(<rule>, reason = "...")` (see [`directives`]). The
//! `unsafe`, `layering`, `spawn`, `lock-order` and `condvar` rules
//! have no waiver. DESIGN.md §9 holds the full rule table and the
//! how-to-add-a-rule walkthrough.
//!
//! ## Exit codes
//!
//! The binary exits with the OR of the offended families' bits —
//! panic `1`, determinism `2`, alloc `4`, unsafe/layering `8`,
//! directive `16`, concurrency `32` — so a CI log identifies the
//! broken contract from the code alone. `0` is a clean tree.

#![deny(unsafe_code)]

pub mod concurrency;
pub mod config;
pub mod diagnostics;
pub mod directives;
pub mod manifest;
pub mod model;
pub mod rules;
pub mod tokenizer;
pub mod walk;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use diagnostics::{byte_offset, Diagnostic};
use occusense_driver::{obj, Value};

/// Result of linting a whole tree.
#[derive(Debug, Default)]
pub struct LintReport {
    /// All surviving violations, sorted by
    /// (file, byte offset, line, col, rule) — see [`Self::normalize`].
    pub diagnostics: Vec<Diagnostic>,
    /// The cross-file lock-order graph of the concurrency pass.
    pub lock_graph: concurrency::LockGraph,
    /// Number of Rust sources scanned.
    pub sources_scanned: usize,
    /// Number of manifests checked.
    pub manifests_checked: usize,
}

impl LintReport {
    /// OR of the offended rule families' exit bits; `0` when clean.
    pub fn exit_code(&self) -> i32 {
        self.diagnostics
            .iter()
            .fold(0, |code, d| code | d.rule.exit_bit())
    }

    /// Human-readable rustc-style rendering, one line per violation
    /// plus a summary trailer.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "occusense-lint: {} violation(s) across {} source file(s) and {} manifest(s)\n",
            self.diagnostics.len(),
            self.sources_scanned,
            self.manifests_checked
        ));
        out
    }

    /// Re-establishes the report's ordering invariant: diagnostics
    /// sorted by (file, byte offset, line, col, rule). The byte offset
    /// leads so the JSON artifact's order is stable under any future
    /// change to how rules report columns; line/col follow as
    /// tie-breakers for synthetic positions whose offset saturated.
    pub fn normalize(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            (&a.file, a.offset, a.line, a.col, a.rule)
                .cmp(&(&b.file, b.offset, b.line, b.col, b.rule))
        });
    }

    /// Machine-readable report (the CI artifact).
    pub fn to_json(&self) -> String {
        let violations = self.diagnostics.iter().map(|d| {
            obj([
                ("file", d.file.as_str().into()),
                ("offset", d.offset.into()),
                ("line", d.line.into()),
                ("col", d.col.into()),
                ("rule", d.rule.name().into()),
                ("message", d.message.as_str().into()),
            ])
        });
        let report = obj([
            ("violations", Value::Array(violations.collect())),
            ("sources_scanned", self.sources_scanned.into()),
            ("manifests_checked", self.manifests_checked.into()),
            ("exit_code", self.exit_code().unsigned_abs().into()),
        ]);
        format!("{report}\n")
    }
}

/// Lints the workspace rooted at `root`: every in-scope Rust source
/// through the source rules, every crate manifest through the layering
/// rule.
pub fn run(root: &Path) -> io::Result<LintReport> {
    let mut report = LintReport::default();
    let mut texts: BTreeMap<String, String> = BTreeMap::new();

    let aliases = match fs::read_to_string(root.join("Cargo.toml")) {
        Ok(ws) => manifest::workspace_aliases(&ws),
        Err(_) => Default::default(),
    };

    for path in walk::crate_manifests(root)? {
        let rel = walk::rel_path(root, &path);
        let contents = fs::read_to_string(&path)?;
        report
            .diagnostics
            .extend(manifest::check_manifest(&rel, &contents, &aliases));
        report.manifests_checked += 1;
        texts.insert(rel, contents);
    }

    // Pass one: the per-file rules, keeping every source so pass two
    // can read the concurrency scope as one program.
    let mut sources: Vec<(String, String)> = Vec::new();
    for path in walk::rust_sources(root)? {
        let rel = walk::rel_path(root, &path);
        let src = fs::read_to_string(&path)?;
        report.diagnostics.extend(rules::analyze_source(&rel, &src));
        report.sources_scanned += 1;
        sources.push((rel, src));
    }

    // Pass two: the cross-file concurrency analysis.
    let (conc_diags, lock_graph) = concurrency::analyze(&sources);
    report.diagnostics.extend(conc_diags);
    report.lock_graph = lock_graph;

    // Fill in byte offsets from the retained texts, then sort.
    for (rel, src) in sources {
        texts.entry(rel).or_insert(src);
    }
    for d in &mut report.diagnostics {
        if let Some(src) = texts.get(&d.file) {
            d.offset = byte_offset(src, d.line, d.col);
        }
    }
    report.normalize();
    Ok(report)
}

/// Finds the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(contents) = fs::read_to_string(&manifest) {
            if contents.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}
