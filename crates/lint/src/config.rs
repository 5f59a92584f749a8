//! Rule scopes and the crate layering — the single place that encodes
//! *where* each contract applies.
//!
//! Scopes are path predicates over workspace-root-relative paths
//! (forward slashes). An entry ending in `/` matches as a directory
//! prefix; anything else matches the exact file. `exclude` entries win
//! over `include` entries.
//!
//! # Adding a crate
//!
//! New workspace crates must be given a layer in [`LAYERS`] — the
//! layering rule fails on manifests whose package it does not know,
//! which is deliberate: an unplaced crate has an unchecked dependency
//! direction. Pick the smallest layer strictly above everything the
//! crate depends on (dev-dependencies included).

/// A set of include/exclude path patterns.
pub struct Scope {
    include: &'static [&'static str],
    exclude: &'static [&'static str],
}

impl Scope {
    pub const fn new(include: &'static [&'static str], exclude: &'static [&'static str]) -> Self {
        Self { include, exclude }
    }

    /// Whether `rel` (root-relative, forward slashes) is in scope.
    pub fn contains(&self, rel: &str) -> bool {
        let matches = |pat: &str| {
            if let Some(dir) = pat.strip_suffix('/') {
                rel.starts_with(dir) && rel.as_bytes().get(dir.len()) == Some(&b'/')
            } else {
                rel == pat
            }
        };
        self.include.iter().any(|p| matches(p)) && !self.exclude.iter().any(|p| matches(p))
    }
}

/// Panic-freedom scope: the serve library hot path, the wire
/// codec/transport/gateway (a malformed network frame must become a
/// typed error or a NACK, never an abort), and the tensor
/// micro-kernels. Driver binaries are excluded — a CLI may abort on
/// misuse. `#[cfg(test)]` modules are always exempt.
pub const PANIC_SCOPE: Scope = Scope::new(
    &[
        "crates/serve/src/",
        "crates/wire/src/",
        "crates/tensor/src/kernels.rs",
    ],
    &["crates/serve/src/bin/", "crates/wire/src/bin/"],
);

/// Slice-indexing scope — same surface as [`PANIC_SCOPE`]: an
/// out-of-bounds index is a panic with worse diagnostics.
pub const INDEX_SCOPE: Scope = PANIC_SCOPE;

/// Determinism scope: every numeric path that feeds the paper's
/// reproduction or the bitwise-reproducibility contracts. Driver
/// binaries are excluded (flag parsing over a `HashMap` cannot change
/// a score); serve and bench are excluded because wall-clock timing is
/// their job — scores stay deterministic because everything they call
/// lives inside this scope. One serve file is pulled *in* by exact
/// path: the per-sensor state table, whose iteration order assembles
/// the temporal scoring batches and must be a pure function of the
/// sensor ids (`BTreeMap`, never a seeded hasher).
pub const DETERMINISM_SCOPE: Scope = Scope::new(
    &[
        "crates/tensor/src/",
        "crates/nn/src/",
        "crates/stats/src/",
        "crates/channel/src/",
        "crates/dataset/src/",
        "crates/baselines/src/",
        "crates/sim/src/",
        "crates/core/src/",
        "crates/serve/src/state.rs",
    ],
    &["crates/core/src/bin/"],
);

/// Raw-threading ban: the whole tensor crate. The tensor kernels are
/// single-threaded — splitting one GEMM across threads lost to running
/// it inline at this model's shapes — and parallelism belongs to the
/// caller, over independent units (folds, seeds, tables) that share
/// no state. A `thread::spawn`/`thread::scope` in the tensor sources
/// would bring intra-op threading back, so the ban is structural (no
/// `lint:allow` escape hatch).
pub const SPAWN_SCOPE: Scope = Scope::new(&["crates/tensor/src/"], &[]);

/// Concurrency-model scope: the files the cross-file pass (lock-order
/// graph, condvar predicate discipline, atomic-ordering audit of
/// DESIGN.md §13) reads as one program. Exactly the two hand-rolled
/// concurrency subsystems — the readiness reactor gateway and the
/// supervised serve pipeline — by
/// explicit file list: lock identity is by field *name*, so widening
/// this to unrelated modules would merge unrelated names into one
/// graph.
pub const CONCURRENCY_SCOPE: Scope = Scope::new(
    &[
        "crates/wire/src/reactor.rs",
        "crates/wire/src/gateway.rs",
        "crates/serve/src/queue.rs",
        "crates/serve/src/supervisor.rs",
        "crates/serve/src/worker.rs",
        "crates/serve/src/trainer.rs",
        "crates/serve/src/runtime.rs",
    ],
    &[],
);

/// Result-swallow scope: the serve and wire hot paths, where a
/// `let _ =` on a lock, join or send result silently converts a
/// shutdown-ordering bug into a hang or a lost panic. Driver binaries
/// are excluded (a CLI may discard its final flush).
pub const SWALLOW_SCOPE: Scope = Scope::new(
    &["crates/serve/src/", "crates/wire/src/"],
    &["crates/serve/src/bin/", "crates/wire/src/bin/"],
);

/// Paths the file walker skips entirely. The fixture corpus contains
/// *deliberate* violations the self-tests assert on.
pub const WALK_EXCLUDE: &[&str] = &["crates/lint/tests/fixtures/", "target/"];

/// The dependency layering, lowest (most fundamental) first. Every
/// manifest dependency edge must point to a **strictly lower** layer:
/// `tensor → nn → core → serve` with no back- or lateral edges.
pub const LAYERS: &[(&str, u32)] = &[
    // The rand shim and the command-line harness: depend on nothing
    // in-tree.
    ("occusense-rand", 0),
    ("occusense-driver", 0),
    // proptest-shim sits above rand-shim (seeded case generation); the
    // bench shim and the linter write JSON and parse flags through the
    // harness.
    ("occusense-proptest", 1),
    ("occusense-criterion", 1),
    ("occusense-lint", 1),
    // The numeric substrate.
    ("occusense-tensor", 2),
    // Domain crates over tensor.
    ("occusense-stats", 3),
    ("occusense-channel", 3),
    ("occusense-dataset", 3),
    ("occusense-nn", 3),
    ("occusense-baselines", 3),
    // The simulator composes channel + dataset.
    ("occusense-sim", 4),
    // The paper pipeline composes everything below.
    ("occusense-core", 5),
    // The serving runtime sits on core.
    ("occusense-serve", 6),
    // The wire protocol + gateway feed records into serve.
    ("occusense-wire", 7),
    // The fleet controller orchestrates whole wire gateways as
    // processes.
    ("occusense-fleet", 8),
    // Harnesses see the whole stack, wire included.
    ("occusense-bench", 8),
    ("occusense-integration", 8),
];

/// Layer of `package`, if known.
pub fn layer_of(package: &str) -> Option<u32> {
    LAYERS
        .iter()
        .find(|(name, _)| *name == package)
        .map(|&(_, layer)| layer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directory_scopes_match_prefixes_not_substrings() {
        assert!(PANIC_SCOPE.contains("crates/serve/src/worker.rs"));
        assert!(PANIC_SCOPE.contains("crates/wire/src/codec.rs"));
        // The readiness reactor sits on the network boundary: its
        // in-place frame parsing and write-ring arithmetic must stay
        // panic- and index-free like the codec beneath it.
        assert!(PANIC_SCOPE.contains("crates/wire/src/reactor.rs"));
        assert!(INDEX_SCOPE.contains("crates/wire/src/reactor.rs"));
        assert!(PANIC_SCOPE.contains("crates/wire/src/gateway.rs"));
        assert!(PANIC_SCOPE.contains("crates/tensor/src/kernels.rs"));
        assert!(!PANIC_SCOPE.contains("crates/serve/src/bin/serve_sim.rs"));
        assert!(!PANIC_SCOPE.contains("crates/wire/src/bin/wire_storm.rs"));
        assert!(!PANIC_SCOPE.contains("crates/serve/srcx/worker.rs"));
        assert!(!PANIC_SCOPE.contains("crates/tensor/src/lib.rs"));
    }

    #[test]
    fn spawn_scope_bans_raw_threading_in_the_kernels_only() {
        // Every tensor source is single-threaded; callers above it
        // (the nn trainer's prefetcher, the serve workers) may thread.
        assert!(SPAWN_SCOPE.contains("crates/tensor/src/kernels.rs"));
        assert!(SPAWN_SCOPE.contains("crates/tensor/src/matrix.rs"));
        assert!(!SPAWN_SCOPE.contains("crates/tensor/tests/proptests.rs"));
        assert!(!SPAWN_SCOPE.contains("crates/nn/src/train.rs"));
    }

    #[test]
    fn concurrency_scope_is_the_exact_file_list() {
        for file in [
            "crates/wire/src/reactor.rs",
            "crates/wire/src/gateway.rs",
            "crates/serve/src/queue.rs",
            "crates/serve/src/supervisor.rs",
            "crates/serve/src/worker.rs",
            "crates/serve/src/trainer.rs",
            "crates/serve/src/runtime.rs",
        ] {
            assert!(CONCURRENCY_SCOPE.contains(file), "{file}");
        }
        // Exact files, not directories: other serve modules carry no
        // locks and must not leak their field names into the graph.
        assert!(!CONCURRENCY_SCOPE.contains("crates/serve/src/state.rs"));
        assert!(!CONCURRENCY_SCOPE.contains("crates/tensor/src/kernels.rs"));
        assert!(!CONCURRENCY_SCOPE.contains("crates/wire/src/bin/wire_storm.rs"));
    }

    #[test]
    fn swallow_scope_covers_serve_and_wire_sources_not_bins() {
        assert!(SWALLOW_SCOPE.contains("crates/serve/src/worker.rs"));
        assert!(SWALLOW_SCOPE.contains("crates/wire/src/gateway.rs"));
        assert!(!SWALLOW_SCOPE.contains("crates/serve/src/bin/serve_sim.rs"));
        assert!(!SWALLOW_SCOPE.contains("crates/wire/src/bin/wire_storm.rs"));
        assert!(!SWALLOW_SCOPE.contains("crates/tensor/src/kernels.rs"));
    }

    #[test]
    fn determinism_scope_covers_the_gru_and_the_serve_state_table() {
        assert!(DETERMINISM_SCOPE.contains("crates/nn/src/gru.rs"));
        // The one exact-file serve entry: temporal batch assembly.
        assert!(DETERMINISM_SCOPE.contains("crates/serve/src/state.rs"));
        // ...and it pulls in nothing else from serve, which keeps its
        // wall clocks and timing histograms legal.
        assert!(!DETERMINISM_SCOPE.contains("crates/serve/src/worker.rs"));
        assert!(!DETERMINISM_SCOPE.contains("crates/serve/src/metrics.rs"));
        assert!(!DETERMINISM_SCOPE.contains("crates/serve/src/state.rs/nested.rs"));
    }

    #[test]
    fn layers_are_known_for_every_workspace_crate() {
        for name in [
            "occusense-tensor",
            "occusense-nn",
            "occusense-core",
            "occusense-serve",
            "occusense-wire",
        ] {
            assert!(layer_of(name).is_some(), "{name}");
        }
        assert!(layer_of("left-pad").is_none());
    }

    #[test]
    fn wire_sits_between_serve_and_the_harnesses() {
        let serve = layer_of("occusense-serve").unwrap();
        let wire = layer_of("occusense-wire").unwrap();
        let bench = layer_of("occusense-bench").unwrap();
        let integration = layer_of("occusense-integration").unwrap();
        assert!(serve < wire, "serve must never depend on wire");
        assert!(
            wire < bench && wire < integration,
            "harnesses may bench/test wire"
        );
    }
}
