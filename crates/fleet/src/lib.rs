//! # occusense-fleet — multi-tenant, multi-process sharded serving
//!
//! The deployment layer above `occusense-wire`: one machine (or rack)
//! running N worker *processes*, each hosting one tenant-labelled
//! gateway + serving runtime per registered tenant, with a controller
//! that routes sensors, supervises health, and proves the accounting
//! identity closes across process restarts.
//!
//! ```text
//!  FleetController ──spawn/stdin──▶ fleet_worker (proc 0) ── tenant-a gateway :p0
//!        │  ▲                            │                └─ tenant-b gateway :p1
//!        │  └──stdout JSON event lines───┘
//!        │        …                      fleet_worker (proc N-1) …
//!        │
//!   place(tenant, sensor) ─▶ consistent-hash ring ─▶ worker addr
//!                             (FNV-1a virtual nodes)
//!  sensors ──────────── wire protocol, Hello carries tenant ──▶ workers
//! ```
//!
//! * [`ring`] — consistent-hash routing (`tenant/sensor → process`)
//!   over shared-FNV virtual nodes; a dead worker remaps only its own
//!   keys.
//! * [`registry`] — [`TenantSpec`]s: model architecture, checkpoint
//!   lineage directory (recovered through
//!   `persist::load_latest_compatible`'s quarantine gate), SLO budget.
//! * [`protocol`] — the worker stdio protocol: one versioned JSON
//!   event per stdout line, final reports included, so a kill
//!   mid-write is a typed truncation.
//! * [`supervisor`] — one supervised child process: spawn, heartbeat
//!   tracking, stop/kill, report collection.
//! * [`controller`] — the fleet control plane: placement with
//!   per-tenant admission control, health sweeps, ring rebalancing,
//!   drain-and-handoff, shutdown roll-up.
//! * [`report`] — [`FleetReport`]: per-tenant roll-up whose
//!   `unaccounted_records()` stays zero even when a worker is killed
//!   mid-storm (in-flight records re-book as shed).
//!
//! The `fleet_worker` binary is the supervised process; `fleet_storm`
//! is the chaos driver — multi-tenant load with one saturated tenant,
//! a mid-storm worker kill, and a verifier that demands exactly-once
//! resolution of every sequenced record, bitwise-correct per-tenant
//! predictions, a closed fleet residue, and non-saturated p99 within
//! budget of an unloaded baseline.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod controller;
pub mod protocol;
pub mod registry;
pub mod report;
pub mod ring;
pub mod supervisor;

pub use controller::{
    policy_name, worker_args, FleetConfig, FleetController, FleetError, PlaceError, Placement,
};
pub use protocol::{EventError, WorkerEvent, CMD_DRAIN, CMD_STOP};
pub use registry::{
    bootstrap_detector, feature_name, parse_features, valid_tenant_id, SloBudget, SpecError,
    TenantRegistry, TenantSpec, MAX_TENANT_LEN,
};
pub use report::{FleetReport, TenantRollup};
pub use ring::HashRing;
pub use supervisor::{StoppedWorker, WorkerError, WorkerHandle};
