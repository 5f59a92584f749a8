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
use occusense_driver::{CliError, Parser, Usage};
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

/// One `--tenant` group from argv: the tenant's runtime (id, queue,
/// policy) and where its model comes from.
struct TenantArgs {
    serve: ServeConfig,
    features: occusense_dataset::FeatureView,
    seed: u64,
    lineage: Option<PathBuf>,
}

impl TenantArgs {
    fn new(tenant: String) -> Self {
        Self {
            serve: ServeConfig {
                tenant,
                queue_capacity: 1024,
                policy: BackpressurePolicy::Block,
                online: None,
                ..ServeConfig::default()
            },
            features: occusense_dataset::FeatureView::Csi,
            seed: 7,
            lineage: None,
        }
    }
}

struct Args {
    hb_ms: u64,
    shards: usize,
    tenants: Vec<TenantArgs>,
}

fn parse_cli(p: &mut Parser) -> Result<Args, CliError> {
    let mut args = Args {
        hb_ms: 100,
        shards: 2,
        tenants: Vec::new(),
    };
    while let Some(flag) = p.next() {
        match flag.as_str() {
            "--hb-ms" => args.hb_ms = p.value(&flag)?,
            "--shards" => args.shards = p.nonzero(&flag)?,
            "--tenant" => {
                let id =
                    p.value_with(&flag, |raw| valid_tenant_id(raw).then(|| raw.to_string()))?;
                args.tenants.push(TenantArgs::new(id));
            }
            "--features" | "--seed" | "--policy" | "--capacity" | "--lineage" => {
                // Per-tenant flags apply to the most recent --tenant.
                let Some(t) = args.tenants.last_mut() else {
                    return Err(CliError::Invalid(format!("{flag} before any --tenant")));
                };
                match flag.as_str() {
                    "--features" => t.features = p.value_with(&flag, parse_features)?,
                    "--seed" => t.seed = p.value(&flag)?,
                    "--policy" => {
                        t.serve.policy = p.value_with(&flag, BackpressurePolicy::parse)?
                    }
                    "--capacity" => t.serve.queue_capacity = p.value(&flag)?,
                    _ => t.lineage = Some(p.value(&flag)?),
                }
            }
            _ => return Err(CliError::unexpected(flag)),
        }
    }
    if args.tenants.is_empty() {
        return Err(CliError::Invalid(
            "at least one --tenant is required".into(),
        ));
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
    let cli = Usage::new("fleet_worker", USAGE);
    let args = cli.parse(parse_cli);

    // Boot one tenant-labelled gateway per spec, each on its own
    // OS-assigned TCP port.
    let mut gateways: Vec<(String, Gateway)> = Vec::with_capacity(args.tenants.len());
    let mut ports: BTreeMap<String, String> = BTreeMap::new();
    for spec in &args.tenants {
        let want = spec.features;
        let recovered = spec.lineage.as_ref().and_then(|dir| {
            load_latest_compatible(dir, |d| d.features() == want)
                .ok()
                .flatten()
        });
        let detector = match recovered {
            Some((version, _, detector)) => {
                eprintln!(
                    "fleet_worker: tenant {} serving lineage checkpoint v{version}",
                    spec.serve.tenant
                );
                detector
            }
            None => bootstrap_detector(spec.seed, spec.features),
        };
        let tenant = &spec.serve.tenant;
        let (acceptor, local) = tcp_listen("127.0.0.1:0", TcpConfig::default())
            .unwrap_or_else(|e| cli.abort(format!("tenant {tenant}: cannot listen: {e}")));
        let serve = ServeConfig {
            n_shards: args.shards,
            ..spec.serve.clone()
        };
        let gateway_cfg = GatewayConfig {
            outbound_policy: BackpressurePolicy::Block,
            ..GatewayConfig::default()
        };
        let gateway = Gateway::start(detector, serve, gateway_cfg, Box::new(acceptor))
            .unwrap_or_else(|e| cli.abort(format!("tenant {tenant}: {e}")));
        ports.insert(tenant.clone(), local.to_string());
        gateways.push((tenant.clone(), gateway));
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
