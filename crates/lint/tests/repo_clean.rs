//! The gate itself: linting the real workspace tree must come back
//! clean. This is the in-test mirror of the CI job, so a PR that
//! introduces a violation fails `cargo test` locally before it ever
//! reaches CI.

use std::path::Path;

#[test]
fn the_workspace_tree_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate lives two levels under the workspace root");
    let report = occusense_lint::run(root).expect("walk the workspace");
    assert!(
        report.sources_scanned > 100,
        "suspiciously few sources scanned ({}) — walk broken?",
        report.sources_scanned
    );
    assert!(
        report.manifests_checked >= 10,
        "suspiciously few manifests checked ({})",
        report.manifests_checked
    );
    assert_eq!(
        report.exit_code(),
        0,
        "workspace has lint violations:\n{}",
        report.render_text()
    );
}

#[test]
fn the_real_lock_graph_is_populated_and_acyclic() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate lives two levels under the workspace root");
    let report = occusense_lint::run(root).expect("walk the workspace");
    // The declared locks of the two concurrency subsystems all show
    // up as nodes — the graph covers the scope even when (as today)
    // no path holds two named locks at once.
    for lock in ["state", "entries", "panics", "registry", "incoming"] {
        assert!(
            report.lock_graph.nodes.iter().any(|n| n == lock),
            "lock `{lock}` missing from graph nodes: {:?}",
            report.lock_graph.nodes
        );
    }
    assert!(
        report.lock_graph.cycles().is_empty(),
        "the real tree has a lock-order cycle:\n{}",
        report.lock_graph.to_dot()
    );
    // The DOT export renders and is deterministic.
    let dot = report.lock_graph.to_dot();
    assert!(dot.starts_with("digraph lock_order {"));
    assert_eq!(dot, report.lock_graph.to_dot());
}

#[test]
fn report_diagnostics_come_back_sorted() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate lives two levels under the workspace root");
    let report = occusense_lint::run(root).expect("walk the workspace");
    let keys: Vec<_> = report
        .diagnostics
        .iter()
        .map(|d| (d.file.clone(), d.offset, d.line, d.col, d.rule))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "run() must return normalized diagnostics");
}
