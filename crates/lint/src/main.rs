//! `occusense-lint` — the CLI entry point.
//!
//! ```text
//! cargo run -p occusense-lint             # lint the workspace, rustc-style output
//! cargo run -p occusense-lint -- --json   # machine-readable report on stdout
//! cargo run -p occusense-lint -- --graph-dot lock_order.dot
//! cargo run -p occusense-lint -- --root <dir>
//! ```
//!
//! `--graph-dot <path>` writes the cross-file lock-order graph as
//! Graphviz DOT (cyclic edges drawn red) — CI uploads it as a build
//! artifact.
//!
//! Exit code: OR of the offended rule families' bits (panic `1`,
//! determinism `2`, alloc `4`, unsafe/layering `8`, directive `16`,
//! concurrency `32`); `0` on a clean tree, `64` on usage errors.

#![deny(unsafe_code)]

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use occusense_driver::{CliError, Parser, Usage};
use occusense_lint::{find_workspace_root, run};

/// Usage errors exit 64: the low bits are the rule families'.
const USAGE: Usage = Usage {
    name: "occusense-lint",
    text: "usage: occusense-lint [--json] [--graph-dot <path>] [--root <workspace-dir>]",
    exit_code: 64,
};

/// `(--json, --root, --graph-dot)`.
type Args = (bool, Option<PathBuf>, Option<PathBuf>);

fn parse_cli(p: &mut Parser) -> Result<Args, CliError> {
    let (mut json, mut root, mut graph_dot) = (false, None, None);
    while let Some(flag) = p.next() {
        match flag.as_str() {
            "--json" => json = true,
            "--root" => root = Some(p.value(&flag)?),
            "--graph-dot" => graph_dot = Some(p.value(&flag)?),
            _ => return Err(CliError::unexpected(flag)),
        }
    }
    Ok((json, root, graph_dot))
}

fn main() -> ExitCode {
    let (json, root, graph_dot) = USAGE.parse(parse_cli);
    let root = root
        .or_else(|| find_workspace_root(&env::current_dir().ok()?))
        .unwrap_or_else(|| USAGE.abort("no workspace root found (try --root)"));
    let report = run(&root).unwrap_or_else(|err| USAGE.abort(format!("io error: {err}")));
    if let Some(path) = graph_dot {
        fs::write(&path, report.lock_graph.to_dot())
            .unwrap_or_else(|err| USAGE.abort(format!("cannot write {}: {err}", path.display())));
    }
    if json {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.render_text());
    }
    ExitCode::from(report.exit_code().clamp(0, 255) as u8)
}
