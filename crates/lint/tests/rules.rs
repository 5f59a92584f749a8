//! Fixture-corpus tests: every rule family must fire on its seeded
//! violation fixture and stay silent on the clean twin.
//!
//! Fixtures live under `tests/fixtures/` — a directory the repo walk
//! explicitly excludes ([`occusense_lint::config::WALK_EXCLUDE`]), so
//! the corpus never trips the gate on the real tree. Each fixture is
//! analyzed under a *pretended* in-scope path (rule scopes match on
//! root-relative paths, not file contents), which also pins the scope
//! table itself: a fixture scored under a serve path must behave
//! differently from one scored under an out-of-scope path.

use occusense_lint::concurrency::{self, LockGraph};
use occusense_lint::diagnostics::{Diagnostic, Rule};
use occusense_lint::manifest;
use occusense_lint::rules::analyze_source;

const SERVE_PATH: &str = "crates/serve/src/fixture.rs";
const SERVE_ROOT: &str = "crates/serve/src/lib.rs";
const NUMERIC_PATH: &str = "crates/nn/src/fixture.rs";
const NO_SCOPE_PATH: &str = "crates/lint/src/fixture.rs";
const STATE_TABLE_PATH: &str = "crates/serve/src/state.rs";
const KERNELS_PATH: &str = "crates/tensor/src/kernels.rs";
const REACTOR_PATH: &str = "crates/wire/src/reactor.rs";
const QUEUE_PATH: &str = "crates/serve/src/queue.rs";

fn count(diags: &[Diagnostic], rule: Rule) -> usize {
    diags.iter().filter(|d| d.rule == rule).count()
}

/// Runs the cross-file concurrency pass on fixtures under pretended
/// in-scope paths.
fn conc(files: &[(&str, &str)]) -> (Vec<Diagnostic>, LockGraph) {
    let files: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    concurrency::analyze(&files)
}

// ---------------------------------------------------------------- panic

#[test]
fn panic_rule_fires_on_every_seeded_site() {
    let diags = analyze_source(SERVE_PATH, include_str!("fixtures/panic_violation.rs"));
    // unwrap, expect, panic!, unreachable!, todo!
    assert_eq!(count(&diags, Rule::Panic), 5, "{diags:?}");
}

#[test]
fn panic_rule_is_silent_on_the_clean_twin() {
    let diags = analyze_source(SERVE_PATH, include_str!("fixtures/panic_clean.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn panic_rule_respects_scope() {
    // The same violations under an out-of-scope path are not panic
    // violations (the file has no directives, so nothing else fires).
    let diags = analyze_source(NO_SCOPE_PATH, include_str!("fixtures/panic_violation.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------- index

#[test]
fn index_rule_fires_on_every_seeded_site() {
    let diags = analyze_source(SERVE_PATH, include_str!("fixtures/index_violation.rs"));
    // v[i], rows[0], [1] chained, as_slice()[2]
    assert_eq!(count(&diags, Rule::Index), 4, "{diags:?}");
}

#[test]
fn index_rule_is_silent_on_the_clean_twin() {
    // Array literals, types, attributes and slice patterns all use `[`
    // without being indexing.
    let diags = analyze_source(SERVE_PATH, include_str!("fixtures/index_clean.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------- determinism

#[test]
fn determinism_rule_fires_on_every_seeded_source() {
    let diags = analyze_source(
        NUMERIC_PATH,
        include_str!("fixtures/determinism_violation.rs"),
    );
    // HashMap and HashSet appear in use + annotation + constructor
    // positions; clocks and thread-count once each.
    assert!(count(&diags, Rule::Determinism) >= 5, "{diags:?}");
    for needle in [
        "HashMap",
        "HashSet",
        "Instant",
        "SystemTime",
        "available_parallelism",
    ] {
        assert!(
            diags.iter().any(|d| d.message.contains(needle)),
            "no diagnostic mentions {needle}: {diags:?}"
        );
    }
}

#[test]
fn determinism_rule_is_silent_on_the_clean_twin() {
    let diags = analyze_source(NUMERIC_PATH, include_str!("fixtures/determinism_clean.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn determinism_rule_respects_scope() {
    // serve is allowed wall clocks and hash maps (it is not a numeric
    // path); the same source under the serve path raises nothing.
    let diags = analyze_source(
        SERVE_PATH,
        include_str!("fixtures/determinism_violation.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn determinism_rule_fires_on_a_hashmap_state_table() {
    // The one serve file inside the determinism scope, by exact path:
    // a hasher-keyed state table makes temporal batch assembly depend
    // on the per-process seed. `HashMap` appears in use, annotation
    // and constructor position.
    let diags = analyze_source(
        STATE_TABLE_PATH,
        include_str!("fixtures/state_table_violation.rs"),
    );
    assert_eq!(count(&diags, Rule::Determinism), 3, "{diags:?}");
    assert!(
        diags.iter().all(|d| d.message.contains("HashMap")),
        "{diags:?}"
    );
}

#[test]
fn determinism_rule_is_silent_on_the_btreemap_state_table() {
    let diags = analyze_source(
        STATE_TABLE_PATH,
        include_str!("fixtures/state_table_clean.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn the_state_table_entry_does_not_leak_onto_other_serve_files() {
    // The same HashMap table under any *other* serve path is legal —
    // the exact-file entry must not widen into a directory scope.
    let diags = analyze_source(
        SERVE_PATH,
        include_str!("fixtures/state_table_violation.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------- alloc

#[test]
fn alloc_rule_fires_inside_declared_regions() {
    let diags = analyze_source(NUMERIC_PATH, include_str!("fixtures/alloc_violation.rs"));
    // Vec::new, push, extend, to_vec, format!, vec!
    assert_eq!(count(&diags, Rule::Alloc), 6, "{diags:?}");
}

#[test]
fn alloc_rule_is_silent_on_the_clean_twin() {
    // Allocation outside a region (cold paths) is legal; inside, the
    // waived one-time growth is excused.
    let diags = analyze_source(NUMERIC_PATH, include_str!("fixtures/alloc_clean.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------- spawn

#[test]
fn spawn_rule_fires_on_every_raw_threading_site() {
    let diags = analyze_source(KERNELS_PATH, include_str!("fixtures/spawn_violation.rs"));
    // thread::scope, thread::spawn, thread::Builder
    assert_eq!(count(&diags, Rule::Spawn), 3, "{diags:?}");
    assert!(
        diags
            .iter()
            .filter(|d| d.rule == Rule::Spawn)
            .all(|d| d.message.contains("which are single-threaded")),
        "{diags:?}"
    );
}

#[test]
fn spawn_rule_is_silent_on_the_clean_twin() {
    let diags = analyze_source(KERNELS_PATH, include_str!("fixtures/spawn_clean.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn spawn_rule_has_no_escape_hatch() {
    // A lint:allow(spawn, ...) is itself a directive violation, and the
    // spawn diagnostic still stands.
    let src = "use std::thread;\n\
               pub fn f() {\n\
               // lint:allow(spawn, reason = \"testing the hatch\")\n\
               thread::spawn(|| 1);\n\
               }\n";
    let diags = analyze_source(KERNELS_PATH, src);
    assert_eq!(count(&diags, Rule::Spawn), 1, "{diags:?}");
    assert_eq!(count(&diags, Rule::Directive), 1, "{diags:?}");
}

// --------------------------------------------------------------- unsafe

#[test]
fn unsafe_rule_fires_on_block_and_missing_deny() {
    let diags = analyze_source(SERVE_ROOT, include_str!("fixtures/unsafe_violation.rs"));
    assert_eq!(count(&diags, Rule::Unsafe), 2, "{diags:?}");
    assert!(
        diags.iter().any(|d| d.message.contains("crate root")),
        "{diags:?}"
    );
}

#[test]
fn unsafe_rule_is_silent_on_the_clean_twin() {
    let diags = analyze_source(SERVE_ROOT, include_str!("fixtures/unsafe_clean.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn missing_deny_only_applies_to_crate_roots() {
    // A non-root file without the attribute is fine (the attribute is
    // crate-level; inner files cannot carry it).
    let diags = analyze_source(SERVE_PATH, include_str!("fixtures/unsafe_clean.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

// ------------------------------------------------------------ directive

#[test]
fn directive_rule_fires_on_every_malformed_hatch() {
    let diags = analyze_source(
        NO_SCOPE_PATH,
        include_str!("fixtures/directive_violation.rs"),
    );
    // missing reason, empty reason, unknown rule, unwaivable rule,
    // unknown directive, unmatched end-region, unclosed no_alloc
    assert_eq!(count(&diags, Rule::Directive), 7, "{diags:?}");
}

#[test]
fn directive_rule_is_silent_on_well_formed_hatches() {
    // Includes the grammar quoted inside doc comments, which must
    // never parse as directives — and live waivers that suppress real
    // violations under the panic scope.
    let diags = analyze_source(SERVE_PATH, include_str!("fixtures/directive_clean.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

// ------------------------------------------------------------- layering

#[test]
fn layering_rule_fires_on_a_back_edge() {
    let diags = manifest::check_manifest(
        "crates/tensor/Cargo.toml",
        include_str!("fixtures/layering_violation.toml"),
        &Default::default(),
    );
    assert_eq!(count(&diags, Rule::Layering), 1, "{diags:?}");
    assert!(diags[0].message.contains("occusense-serve"), "{diags:?}");
}

#[test]
fn layering_rule_is_silent_on_downward_edges() {
    let diags = manifest::check_manifest(
        "crates/serve/Cargo.toml",
        include_str!("fixtures/layering_clean.toml"),
        &Default::default(),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn layering_rule_fires_when_serve_reaches_into_wire() {
    let diags = manifest::check_manifest(
        "crates/serve/Cargo.toml",
        include_str!("fixtures/layering_wire_violation.toml"),
        &Default::default(),
    );
    assert_eq!(count(&diags, Rule::Layering), 1, "{diags:?}");
    assert!(diags[0].message.contains("occusense-wire"), "{diags:?}");
}

#[test]
fn layering_rule_is_silent_on_the_wire_crates_real_edges() {
    let diags = manifest::check_manifest(
        "crates/wire/Cargo.toml",
        include_str!("fixtures/layering_wire_clean.toml"),
        &Default::default(),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

// ----------------------------------------------------------- lock-order

#[test]
fn lock_order_fires_on_the_two_function_inversion() {
    let (diags, graph) = conc(&[(QUEUE_PATH, include_str!("fixtures/lock_order_violation.rs"))]);
    assert_eq!(count(&diags, Rule::LockOrder), 1, "{diags:?}");
    let msg = &diags[0].message;
    // Both witness paths are in the one diagnostic: the forward leg
    // and the inverted leg, each with its function.
    for needle in ["ctrl", "inputs", "`forward`", "`backward`"] {
        assert!(msg.contains(needle), "missing {needle} in: {msg}");
    }
    assert_eq!(graph.cycles().len(), 1, "{:?}", graph.cycles());
}

#[test]
fn lock_order_is_silent_on_the_clean_twin() {
    let (diags, graph) = conc(&[(QUEUE_PATH, include_str!("fixtures/lock_order_clean.rs"))]);
    assert!(diags.is_empty(), "{diags:?}");
    // The acyclic order is still recorded: one `ctrl -> inputs` edge
    // (the block-scoped and dropped guards contribute none).
    assert_eq!(graph.nodes, vec!["ctrl".to_string(), "inputs".to_string()]);
    assert_eq!(graph.edges.len(), 1, "{:?}", graph.edges);
    assert_eq!(
        (graph.edges[0].from.as_str(), graph.edges[0].to.as_str()),
        ("ctrl", "inputs")
    );
    assert!(graph.cycles().is_empty());
}

#[test]
fn lock_order_fires_across_files() {
    let reactor = include_str!("fixtures/lock_order_cross_reactor.rs");
    let queue = include_str!("fixtures/lock_order_cross_queue.rs");
    // Each half alone is clean...
    let (alone, _) = conc(&[(REACTOR_PATH, reactor)]);
    assert!(alone.is_empty(), "{alone:?}");
    let (alone, _) = conc(&[(QUEUE_PATH, queue)]);
    assert!(alone.is_empty(), "{alone:?}");
    // ...together they invert, and the diagnostic names both files.
    let (diags, graph) = conc(&[(REACTOR_PATH, reactor), (QUEUE_PATH, queue)]);
    assert_eq!(count(&diags, Rule::LockOrder), 1, "{diags:?}");
    let msg = &diags[0].message;
    assert!(msg.contains("reactor.rs"), "{msg}");
    assert!(msg.contains("queue.rs"), "{msg}");
    assert_eq!(graph.cycles().len(), 1);
}

#[test]
fn lock_order_respects_scope() {
    // The same inversion outside the concurrency scope is invisible —
    // no diagnostics, no graph nodes.
    let (diags, graph) = conc(&[(
        NO_SCOPE_PATH,
        include_str!("fixtures/lock_order_violation.rs"),
    )]);
    assert!(diags.is_empty(), "{diags:?}");
    assert!(graph.nodes.is_empty());
}

#[test]
fn lock_graph_dot_export_marks_the_cycle() {
    let (_, graph) = conc(&[(QUEUE_PATH, include_str!("fixtures/lock_order_violation.rs"))]);
    let dot = graph.to_dot();
    assert!(dot.starts_with("digraph lock_order {"), "{dot}");
    assert!(dot.contains("\"ctrl\" -> \"inputs\""), "{dot}");
    assert!(dot.contains("\"inputs\" -> \"ctrl\""), "{dot}");
    assert!(dot.contains("color=red"), "{dot}");
    // Determinism: two renders are byte-identical.
    assert_eq!(dot, graph.to_dot());
}

// -------------------------------------------------------------- condvar

#[test]
fn condvar_fires_on_unlooped_waits_and_ignores_the_hatch() {
    let (diags, _) = conc(&[(QUEUE_PATH, include_str!("fixtures/condvar_violation.rs"))]);
    // Bare wait (its lint:allow is inert — condvar has no hatch),
    // if-guarded wait, if-guarded wait_timeout.
    assert_eq!(count(&diags, Rule::Condvar), 3, "{diags:?}");
}

#[test]
fn condvar_is_silent_on_the_clean_twin() {
    let (diags, _) = conc(&[(QUEUE_PATH, include_str!("fixtures/condvar_clean.rs"))]);
    assert!(diags.is_empty(), "{diags:?}");
}

// -------------------------------------------------------------- atomics

#[test]
fn atomics_fires_on_mixed_orderings_and_gated_waits() {
    let (diags, _) = conc(&[(QUEUE_PATH, include_str!("fixtures/atomics_violation.rs"))]);
    assert_eq!(count(&diags, Rule::Atomics), 3, "{diags:?}");
    assert!(
        diags
            .iter()
            .any(|d| d.message.contains("gates a condvar wait loop")),
        "{diags:?}"
    );
    assert!(
        diags
            .iter()
            .filter(|d| d.message.contains("mixed orderings"))
            .count()
            == 2,
        "{diags:?}"
    );
}

#[test]
fn atomics_is_silent_on_consistent_or_waived_sites() {
    let (diags, _) = conc(&[(QUEUE_PATH, include_str!("fixtures/atomics_clean.rs"))]);
    assert!(diags.is_empty(), "{diags:?}");
}

// -------------------------------------------------------------- swallow

#[test]
fn swallow_fires_on_discarded_results() {
    let diags = analyze_source(SERVE_PATH, include_str!("fixtures/swallow_violation.rs"));
    // let _ = push, let _ = join, trailing send(...).ok()
    assert_eq!(count(&diags, Rule::Swallow), 3, "{diags:?}");
}

#[test]
fn swallow_is_silent_on_handled_bound_or_waived_results() {
    let diags = analyze_source(SERVE_PATH, include_str!("fixtures/swallow_clean.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn swallow_respects_scope() {
    // The swallow rule is a serve/wire hot-path contract; the tensor
    // kernels are outside it.
    let diags = analyze_source(KERNELS_PATH, include_str!("fixtures/swallow_violation.rs"));
    assert_eq!(count(&diags, Rule::Swallow), 0, "{diags:?}");
}

// ------------------------------------------------------------ exit bits

#[test]
fn concurrency_family_sets_exit_bit_32() {
    let mut report = occusense_lint::LintReport::default();
    report.diagnostics.extend(analyze_source(
        SERVE_PATH,
        include_str!("fixtures/swallow_violation.rs"),
    ));
    assert_eq!(report.exit_code(), 32);
    let (diags, _) = conc(&[(QUEUE_PATH, include_str!("fixtures/lock_order_violation.rs"))]);
    report.diagnostics.extend(diags);
    assert_eq!(report.exit_code(), 32);
}

#[test]
fn exit_code_is_the_or_of_offended_families() {
    let mut report = occusense_lint::LintReport::default();
    assert_eq!(report.exit_code(), 0);
    report.diagnostics.extend(analyze_source(
        SERVE_PATH,
        include_str!("fixtures/panic_violation.rs"),
    ));
    assert_eq!(report.exit_code(), 1);
    report.diagnostics.extend(analyze_source(
        NUMERIC_PATH,
        include_str!("fixtures/determinism_violation.rs"),
    ));
    assert_eq!(report.exit_code(), 1 | 2);
    report.diagnostics.extend(analyze_source(
        NO_SCOPE_PATH,
        include_str!("fixtures/directive_violation.rs"),
    ));
    assert_eq!(report.exit_code(), 1 | 2 | 16);
}

// --------------------------------------------------------- report order

#[test]
fn report_orders_by_path_then_offset_then_rule_and_json_is_stable() {
    let mk = |file: &str, offset: u32, rule: Rule| {
        let mut d = Diagnostic::new(file, 1, 1, rule, "x");
        d.offset = offset;
        d
    };
    let mut report = occusense_lint::LintReport {
        // Deliberately shuffled input.
        diagnostics: vec![
            mk("b.rs", 10, Rule::Panic),
            mk("a.rs", 20, Rule::Swallow),
            mk("a.rs", 5, Rule::Atomics),
            mk("a.rs", 5, Rule::Panic),
        ],
        ..Default::default()
    };
    report.normalize();
    let order: Vec<(&str, u32, Rule)> = report
        .diagnostics
        .iter()
        .map(|d| (d.file.as_str(), d.offset, d.rule))
        .collect();
    assert_eq!(
        order,
        vec![
            // Same file and offset: rule order breaks the tie.
            ("a.rs", 5, Rule::Panic),
            ("a.rs", 5, Rule::Atomics),
            ("a.rs", 20, Rule::Swallow),
            ("b.rs", 10, Rule::Panic),
        ]
    );
    // The JSON artifact carries the offset and renders in that order,
    // byte-identically across calls.
    let json = report.to_json();
    assert_eq!(json, report.to_json());
    let first_a = json.find("\"offset\": 5").expect("offset field");
    let then_a = json.find("\"offset\": 20").expect("offset field");
    let then_b = json.find("\"file\": \"b.rs\"").expect("file field");
    assert!(first_a < then_a && then_a < then_b, "{json}");
}
