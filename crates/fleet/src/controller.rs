//! The fleet controller: N worker processes, one consistent-hash ring,
//! per-tenant admission control, and the end-of-run roll-up.
//!
//! The controller is a pure *control plane*: sensors ask it where to
//! connect ([`FleetController::place`]), then speak the wire protocol
//! directly to the worker's per-tenant gateway — no record ever flows
//! through the controller. Placement is consistent-hash routing over
//! the live workers keyed by `tenant/sensor`, gated by the tenant's
//! admission budget; a dead worker ([`FleetController::poll`]) leaves
//! the ring, its placements are forgotten (the sensor re-places onto a
//! survivor), and its in-flight records are the driver's to re-book as
//! shed — the roll-up's `rebooked_shed` lane.

use crate::protocol::CMD_DRAIN;
use crate::registry::{TenantRegistry, TenantSpec};
use crate::report::FleetReport;
use crate::ring::HashRing;
use crate::supervisor::{WorkerError, WorkerHandle};
use occusense_serve::BackpressurePolicy;
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::time::Duration;

/// Controller tuning knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Path to the `fleet_worker` binary.
    pub worker_bin: PathBuf,
    /// Worker processes to spawn.
    pub procs: usize,
    /// Virtual nodes per worker on the routing ring.
    pub vnodes: usize,
    /// Worker shards per tenant runtime (passed to every worker).
    pub shards: usize,
    /// Worker heartbeat period, milliseconds.
    pub hb_ms: u64,
    /// How stale a heartbeat may get before the worker counts as dead.
    pub hb_timeout: Duration,
    /// How long each worker gets to print its `ready` event.
    pub ready_timeout: Duration,
    /// How long each worker gets to stop and report at shutdown.
    pub stop_timeout: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            worker_bin: PathBuf::from("fleet_worker"),
            procs: 2,
            vnodes: 64,
            shards: 2,
            hb_ms: 100,
            hb_timeout: Duration::from_secs(5),
            ready_timeout: Duration::from_secs(120),
            stop_timeout: Duration::from_secs(60),
        }
    }
}

/// Where a placed sensor should connect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// The worker that owns the sensor.
    pub worker: String,
    /// The `host:port` of that worker's gateway for the tenant.
    pub addr: String,
}

/// Why a placement was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// No spec registered under the tenant id.
    UnknownTenant {
        /// The unregistered id.
        tenant: String,
    },
    /// Admission control: the tenant is at its `max_sensors` budget.
    /// Counted in the roll-up's `placements_shed`.
    Saturated {
        /// Active placements.
        active: usize,
        /// The budget they exhausted.
        cap: usize,
    },
    /// Every worker is dead.
    NoWorkers,
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::UnknownTenant { tenant } => write!(f, "unknown tenant {tenant:?}"),
            PlaceError::Saturated { active, cap } => {
                write!(
                    f,
                    "tenant saturated: {active} of {cap} sensor placements in use"
                )
            }
            PlaceError::NoWorkers => write!(f, "no live workers"),
        }
    }
}

impl Error for PlaceError {}

/// Why the fleet failed to launch.
#[derive(Debug)]
pub enum FleetError {
    /// Spawning a worker failed.
    Spawn(io::Error),
    /// A worker never became ready.
    Worker(WorkerError),
    /// The registry is empty or `procs` is zero.
    EmptyFleet,
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Spawn(e) => write!(f, "fleet spawn: {e}"),
            FleetError::Worker(e) => write!(f, "fleet worker: {e}"),
            FleetError::EmptyFleet => write!(f, "fleet needs at least one tenant and one worker"),
        }
    }
}

impl Error for FleetError {}

/// One worker slot: the process handle plus its routing addresses.
struct WorkerSlot {
    handle: Option<WorkerHandle>,
    ports: BTreeMap<String, String>,
}

/// The fleet control plane. See the module docs for the data flow.
pub struct FleetController {
    config: FleetConfig,
    registry: TenantRegistry,
    workers: Vec<WorkerSlot>,
    ring: HashRing,
    /// `tenant → sensors currently placed` (admission bookkeeping).
    placements: BTreeMap<String, BTreeSet<String>>,
    /// `tenant/sensor → worker index`, so a worker's death releases
    /// exactly its own placements.
    owners: BTreeMap<String, usize>,
    report: FleetReport,
}

/// The kebab-case CLI spelling of a backpressure policy — shared with
/// `fleet_worker`'s argv so specs survive the process boundary.
pub fn policy_name(policy: BackpressurePolicy) -> &'static str {
    match policy {
        BackpressurePolicy::Block => "block",
        BackpressurePolicy::DropOldest => "drop-oldest",
        BackpressurePolicy::RejectNewest => "reject-newest",
    }
}

/// Builds the `fleet_worker` argv for one worker serving `specs`.
pub fn worker_args(config: &FleetConfig, specs: &[&TenantSpec]) -> Vec<String> {
    let mut args = vec![
        "--hb-ms".to_string(),
        config.hb_ms.to_string(),
        "--shards".to_string(),
        config.shards.to_string(),
    ];
    for spec in specs {
        args.push("--tenant".to_string());
        args.push(spec.tenant.clone());
        args.push("--features".to_string());
        args.push(crate::registry::feature_name(spec.features).to_string());
        args.push("--seed".to_string());
        args.push(spec.seed.to_string());
        args.push("--policy".to_string());
        args.push(policy_name(spec.slo.policy).to_string());
        args.push("--capacity".to_string());
        args.push(spec.slo.queue_capacity.to_string());
        if let Some(dir) = &spec.lineage {
            args.push("--lineage".to_string());
            args.push(dir.display().to_string());
        }
    }
    args
}

impl FleetController {
    /// Spawns `config.procs` workers, each hosting one gateway per
    /// registered tenant, waits for every `ready` event, and seeds the ring.
    ///
    /// # Errors
    ///
    /// [`FleetError`] if the registry or fleet is empty, a spawn
    /// fails, or a worker never reports ready (already-spawned workers
    /// are reaped before returning).
    pub fn launch(config: FleetConfig, registry: TenantRegistry) -> Result<Self, FleetError> {
        if registry.is_empty() || config.procs == 0 {
            return Err(FleetError::EmptyFleet);
        }
        let specs: Vec<&TenantSpec> = registry.specs().collect();
        let args = worker_args(&config, &specs);
        let mut workers = Vec::with_capacity(config.procs);
        let mut ring = HashRing::new(config.vnodes);
        for i in 0..config.procs {
            let name = format!("worker-{i}");
            let handle =
                WorkerHandle::spawn(&name, &config.worker_bin, &args).map_err(FleetError::Spawn)?;
            workers.push(WorkerSlot {
                handle: Some(handle),
                ports: BTreeMap::new(),
            });
        }
        for (i, slot) in workers.iter_mut().enumerate() {
            let handle = slot.handle.as_ref().expect("just spawned");
            slot.ports = handle
                .await_ready(config.ready_timeout)
                .map_err(FleetError::Worker)?;
            ring.insert(&format!("worker-{i}"));
        }
        let report = FleetReport {
            workers_spawned: config.procs as u64,
            ..FleetReport::default()
        };
        Ok(Self {
            config,
            registry,
            workers,
            ring,
            placements: BTreeMap::new(),
            owners: BTreeMap::new(),
            report,
        })
    }

    /// The registered tenant specs.
    pub fn registry(&self) -> &TenantRegistry {
        &self.registry
    }

    /// Live worker count.
    pub fn live_workers(&self) -> usize {
        self.ring.len()
    }

    fn worker_index(name: &str) -> Option<usize> {
        name.strip_prefix("worker-")?.parse().ok()
    }

    /// Routes `tenant/sensor` to a live worker, enforcing the tenant's
    /// admission budget. Re-placing an already-placed sensor is
    /// idempotent (reconnection after a worker death re-routes it).
    ///
    /// # Errors
    ///
    /// [`PlaceError`]; `Saturated` refusals are counted in the
    /// roll-up's `placements_shed`.
    pub fn place(&mut self, tenant: &str, sensor: &str) -> Result<Placement, PlaceError> {
        let spec = self
            .registry
            .get(tenant)
            .ok_or_else(|| PlaceError::UnknownTenant {
                tenant: tenant.to_string(),
            })?;
        let placed = self.placements.entry(tenant.to_string()).or_default();
        if !placed.contains(sensor) && placed.len() >= spec.slo.max_sensors {
            self.report.placements_shed += 1;
            return Err(PlaceError::Saturated {
                active: placed.len(),
                cap: spec.slo.max_sensors,
            });
        }
        let key = format!("{tenant}/{sensor}");
        let worker = self
            .ring
            .route(&key)
            .ok_or(PlaceError::NoWorkers)?
            .to_string();
        let index = Self::worker_index(&worker).expect("ring holds worker-N names");
        let addr = self.workers[index]
            .ports
            .get(tenant)
            .expect("every worker serves every registered tenant")
            .clone();
        placed.insert(sensor.to_string());
        self.owners.insert(key, index);
        Ok(Placement { worker, addr })
    }

    /// Releases a placement (sensor finished cleanly).
    pub fn release(&mut self, tenant: &str, sensor: &str) {
        if let Some(placed) = self.placements.get_mut(tenant) {
            placed.remove(sensor);
        }
        self.owners.remove(&format!("{tenant}/{sensor}"));
    }

    /// Health sweep: workers that exited, lost their stdout, or went
    /// heartbeat-silent leave the ring and forget their placements
    /// (the affected sensors re-place onto survivors). Returns the
    /// names of newly dead workers.
    pub fn poll(&mut self) -> Vec<String> {
        let mut dead = Vec::new();
        for i in 0..self.workers.len() {
            let name = format!("worker-{i}");
            let Some(handle) = self.workers[i].handle.as_mut() else {
                continue;
            };
            let stale = handle
                .heartbeat_age()
                .is_some_and(|age| age > self.config.hb_timeout);
            if handle.is_alive() && !stale {
                continue;
            }
            // Reap and absorb whatever the worker managed to say.
            let stopped = self.workers[i]
                .handle
                .take()
                .expect("checked Some above")
                .kill();
            self.absorb_stopped(stopped, false);
            self.ring.remove(&name);
            self.forget_placements(i);
            dead.push(name);
        }
        dead
    }

    /// Kills worker `index` outright (the chaos lever). Returns
    /// whether there was a live worker to kill.
    pub fn kill_worker(&mut self, index: usize) -> bool {
        let Some(slot) = self.workers.get_mut(index) else {
            return false;
        };
        let Some(handle) = slot.handle.take() else {
            return false;
        };
        let stopped = handle.kill();
        self.absorb_stopped(stopped, false);
        self.ring.remove(&format!("worker-{index}"));
        self.forget_placements(index);
        true
    }

    /// Asks worker `index` to drain: its gateways refuse new
    /// handshakes (retryable `Shutdown` NACK) while live connections
    /// keep serving. Routing is *not* changed — drain is the graceful
    /// first half of a hand-off; callers typically re-place sensors
    /// and then stop the worker.
    ///
    /// # Errors
    ///
    /// Pipe errors (a dead worker cannot drain).
    pub fn drain_worker(&mut self, index: usize) -> io::Result<()> {
        let handle = self
            .workers
            .get_mut(index)
            .and_then(|s| s.handle.as_mut())
            .ok_or_else(|| io::Error::other("no live worker at that index"))?;
        handle.send(CMD_DRAIN)
    }

    /// Sensors currently placed for `tenant`.
    pub fn active_placements(&self, tenant: &str) -> usize {
        self.placements.get(tenant).map_or(0, BTreeSet::len)
    }

    fn forget_placements(&mut self, index: usize) {
        let orphaned: Vec<String> = self
            .owners
            .iter()
            .filter(|&(_, &i)| i == index)
            .map(|(key, _)| key.clone())
            .collect();
        for key in orphaned {
            self.owners.remove(&key);
            if let Some((tenant, sensor)) = key.split_once('/') {
                if let Some(placed) = self.placements.get_mut(tenant) {
                    placed.remove(sensor);
                }
            }
        }
    }

    fn absorb_stopped(&mut self, stopped: crate::supervisor::StoppedWorker, expected: bool) {
        self.report.heartbeats += stopped.heartbeats;
        self.report.truncated_reports += stopped.truncated_reports;
        if stopped.clean && expected {
            self.report.workers_stopped_clean += 1;
        } else {
            self.report.workers_lost += 1;
        }
        for report in stopped.reports {
            self.report.absorb(report);
        }
    }

    /// Stops every live worker, collects and rolls up their reports,
    /// and returns the fleet summary. Client-side bookkeeping
    /// (`rebooked_shed`, `unresolved_records`) is the caller's to fill
    /// in on the returned report before judging it.
    pub fn shutdown(mut self) -> FleetReport {
        let stop_timeout = self.config.stop_timeout;
        for i in 0..self.workers.len() {
            let Some(handle) = self.workers[i].handle.take() else {
                continue;
            };
            let stopped = handle.stop(stop_timeout);
            self.absorb_stopped(stopped, true);
        }
        self.report
    }
}
