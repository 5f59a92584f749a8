//! One fleet worker process: hosts a tenant-labelled wire gateway per
//! `--tenant` group, speaks the stdio protocol of
//! `occusense_fleet::protocol` to its supervisor, and on `stop` (or
//! stdin EOF — a dead controller must never orphan workers) shuts
//! every gateway down and ships the per-tenant `ServeReport`s up the
//! pipe through the versioned report codec.
//!
//! ```text
//! fleet_worker --hb-ms 100 --shards 2 \
//!   --tenant acme --features csi --seed 7 --policy block \
//!       --capacity 1024 --lineage /var/lineage/acme \
//!   --tenant globex --features csi --seed 8 --policy reject-newest \
//!       --capacity 8
//! ```
//!
//! Each tenant's model is recovered from its lineage directory via
//! `load_latest_compatible` — the architecture predicate (feature-view
//! match) quarantines polluted checkpoints instead of serving them —
//! and falls back to the shared deterministic `bootstrap_detector`
//! recipe when the directory is empty or absent, so a fleet driver
//! holding the same `(seed, features)` always knows the worker's exact
//! weights.

use occusense_core::persist::load_latest_compatible;
use occusense_fleet::protocol::{ready_line, CMD_DRAIN, CMD_STOP};
use occusense_fleet::registry::{bootstrap_detector, parse_features, valid_tenant_id};
use occusense_serve::{BackpressurePolicy, ServeConfig};
use occusense_wire::{tcp_listen, Gateway, GatewayConfig, TcpConfig};
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

const USAGE: &str = "fleet_worker — supervised multi-tenant serving process

  --hb-ms N        heartbeat period, milliseconds (default 100)
  --shards N       worker shards per tenant runtime (default 2)
  --tenant ID      starts a tenant group; the flags below apply to the
                   most recent --tenant
  --features F     csi | env | csi-env | time (default csi)
  --seed S         bootstrap training seed (default 7)
  --policy P       block | drop-oldest | reject-newest (default block)
  --capacity N     per-shard ingress queue capacity (default 1024)
  --lineage DIR    checkpoint lineage directory (default: train fresh)
  -h, --help       print this help

Protocol: stdout READY/HB/DRAINING/REPORT/BYE, stdin drain/stop;
stdin EOF is treated as stop.";

/// One `--tenant` group from argv.
struct TenantArgs {
    tenant: String,
    features: occusense_dataset::FeatureView,
    seed: u64,
    policy: BackpressurePolicy,
    capacity: usize,
    lineage: Option<PathBuf>,
}

impl TenantArgs {
    fn new(tenant: String) -> Self {
        Self {
            tenant,
            features: occusense_dataset::FeatureView::Csi,
            seed: 7,
            policy: BackpressurePolicy::Block,
            capacity: 1024,
            lineage: None,
        }
    }
}

struct Args {
    hb_ms: u64,
    shards: usize,
    tenants: Vec<TenantArgs>,
}

/// The `--tenant` group a per-tenant flag applies to.
fn tenant_scope<'a>(
    tenants: &'a mut [TenantArgs],
    flag: &str,
) -> Result<&'a mut TenantArgs, String> {
    tenants
        .last_mut()
        .ok_or_else(|| format!("{flag} before any --tenant"))
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        hb_ms: 100,
        shards: 2,
        tenants: Vec::new(),
    };
    let mut it = argv;
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            println!("{USAGE}");
            std::process::exit(0);
        }
        let raw = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--hb-ms" => {
                args.hb_ms = raw
                    .parse()
                    .map_err(|e| format!("bad --hb-ms {raw:?}: {e}"))?;
            }
            "--shards" => {
                args.shards = raw
                    .parse()
                    .map_err(|e| format!("bad --shards {raw:?}: {e}"))?;
            }
            "--tenant" => {
                if !valid_tenant_id(&raw) {
                    return Err(format!("bad tenant id {raw:?}"));
                }
                args.tenants.push(TenantArgs::new(raw));
            }
            "--features" => {
                tenant_scope(&mut args.tenants, &flag)?.features =
                    parse_features(&raw).ok_or_else(|| format!("bad --features {raw:?}"))?;
            }
            "--seed" => {
                tenant_scope(&mut args.tenants, &flag)?.seed = raw
                    .parse()
                    .map_err(|e| format!("bad --seed {raw:?}: {e}"))?;
            }
            "--policy" => {
                tenant_scope(&mut args.tenants, &flag)?.policy = BackpressurePolicy::parse(&raw)
                    .ok_or_else(|| format!("bad --policy {raw:?}"))?;
            }
            "--capacity" => {
                tenant_scope(&mut args.tenants, &flag)?.capacity = raw
                    .parse()
                    .map_err(|e| format!("bad --capacity {raw:?}: {e}"))?;
            }
            "--lineage" => {
                tenant_scope(&mut args.tenants, &flag)?.lineage = Some(PathBuf::from(raw));
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.tenants.is_empty() {
        return Err("at least one --tenant is required".into());
    }
    if args.shards == 0 {
        return Err("--shards must be >= 1".into());
    }
    Ok(args)
}

/// Prints one protocol line and flushes — the supervisor reads a pipe,
/// so unflushed status is indistinguishable from a hung worker.
fn say(line: &str) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("fleet_worker: {message}\n\n{USAGE}");
            std::process::exit(2);
        }
    };

    // Boot one tenant-labelled gateway per spec, each on its own
    // OS-assigned TCP port.
    let mut gateways: Vec<(String, Gateway)> = Vec::with_capacity(args.tenants.len());
    let mut ports: BTreeMap<String, String> = BTreeMap::new();
    for spec in &args.tenants {
        let detector = match &spec.lineage {
            Some(dir) => {
                let want = spec.features;
                match load_latest_compatible(dir, |d| d.features() == want) {
                    Ok(Some((version, _, detector))) => {
                        eprintln!(
                            "fleet_worker: tenant {} serving lineage checkpoint v{version}",
                            spec.tenant
                        );
                        detector
                    }
                    Ok(None) | Err(_) => bootstrap_detector(spec.seed, spec.features),
                }
            }
            None => bootstrap_detector(spec.seed, spec.features),
        };
        let (acceptor, local) = match tcp_listen("127.0.0.1:0", TcpConfig::default()) {
            Ok(bound) => bound,
            Err(e) => {
                eprintln!("fleet_worker: tenant {}: cannot listen: {e}", spec.tenant);
                std::process::exit(2);
            }
        };
        let serve = ServeConfig {
            tenant: spec.tenant.clone(),
            n_shards: args.shards,
            queue_capacity: spec.capacity,
            policy: spec.policy,
            online: None,
            ..ServeConfig::default()
        };
        let gateway_cfg = GatewayConfig {
            outbound_policy: BackpressurePolicy::Block,
            ..GatewayConfig::default()
        };
        match Gateway::start(detector, serve, gateway_cfg, Box::new(acceptor)) {
            Ok(gateway) => {
                ports.insert(spec.tenant.clone(), local.to_string());
                gateways.push((spec.tenant.clone(), gateway));
            }
            Err(e) => {
                eprintln!("fleet_worker: tenant {}: {e}", spec.tenant);
                std::process::exit(2);
            }
        }
    }
    say(&ready_line(&ports));

    // Command reader: forwards stdin lines; EOF means the supervisor
    // is gone, which must stop the worker (never orphan a process).
    let (cmd_tx, cmd_rx) = mpsc::channel::<String>();
    std::thread::Builder::new()
        .name("fleet-stdin".into())
        .spawn(move || {
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                let Ok(line) = line else { break };
                if cmd_tx.send(line).is_err() {
                    return;
                }
            }
            let _ = cmd_tx.send(CMD_STOP.to_string());
        })
        .expect("spawn stdin reader");

    let beat = Duration::from_millis(args.hb_ms.max(1));
    let mut seq = 0u64;
    loop {
        match cmd_rx.recv_timeout(beat) {
            Ok(cmd) if cmd == CMD_STOP => break,
            Ok(cmd) if cmd == CMD_DRAIN => {
                for (tenant, gateway) in &gateways {
                    let live = gateway.drain().len() as u64;
                    say(&format!("DRAINING {tenant} {live}"));
                }
            }
            Ok(other) => eprintln!("fleet_worker: ignoring unknown command {other:?}"),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                say(&format!("HB {seq}"));
                seq += 1;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }

    // Shutdown: one REPORT block per tenant, then BYE. The report
    // codec's `end` line frames each block for the supervisor.
    for (tenant, gateway) in gateways {
        let report = gateway.shutdown();
        let mut block = format!("REPORT {tenant}\n");
        block.push_str(&report.encode_wire());
        // One write for the whole block keeps a concurrent HB from
        // ever splitting a report (there is none by now, but cheap).
        let mut out = std::io::stdout().lock();
        let _ = out.write_all(block.as_bytes());
        let _ = out.flush();
    }
    say("BYE");
}
