//! Fleet-level accounting roll-up.
//!
//! Every worker process that stops cleanly hands back one
//! [`ServeReport`] per tenant; the roll-up sums them under the tenant
//! label, and [`FleetReport::unaccounted_records`] extends the
//! per-process identity across the whole fleet *including* processes
//! that never got to report:
//!
//! ```text
//!   fleet residue = Σ worker-report residues     (surviving processes)
//!                 + unresolved_records           (client-side bookings
//!                                                 that never resolved)
//! ```
//!
//! A record in flight to a killed worker cannot appear in any worker
//! report, so the driver's client bookkeeping re-books it as
//! `rebooked_shed` — shed by the fleet, resolved exactly once — and
//! only a record that is neither predicted, NACKed, *nor* re-booked
//! lands in `unresolved_records` and keeps the residue open. Chaos
//! (`fleet_storm --kill-one`) asserts the residue closes anyway.

use occusense_serve::ServeReport;
use std::collections::BTreeMap;
use std::fmt;

/// One tenant's aggregated accounting across every reporting worker.
#[derive(Debug, Clone, Default)]
pub struct TenantRollup {
    /// The per-worker reports collected for this tenant.
    pub reports: Vec<ServeReport>,
}

impl TenantRollup {
    /// Records scored, summed across workers.
    pub fn records_served(&self) -> u64 {
        self.reports.iter().map(|r| r.records_served).sum()
    }

    /// Predictions that left a gateway, summed across workers.
    pub fn predictions_sent(&self) -> u64 {
        self.reports.iter().map(|r| r.wire.predictions_sent).sum()
    }

    /// Wire-level sheds (runtime shutdown races, panic containment),
    /// summed across workers.
    pub fn records_shed(&self) -> u64 {
        self.reports.iter().map(|r| r.wire.records_shed).sum()
    }

    /// `RejectNewest` refusals NACKed back to sensors — the load-shed
    /// counter of a saturated tenant.
    pub fn records_rejected(&self) -> u64 {
        self.reports.iter().map(|r| r.wire.records_rejected).sum()
    }

    /// Worst p99 latency any worker reported for this tenant, ns.
    pub fn latency_p99_ns(&self) -> u64 {
        self.reports
            .iter()
            .map(|r| r.latency_p99_ns)
            .max()
            .unwrap_or(0)
    }

    /// Summed accounting residue of the collected reports.
    pub fn unaccounted_records(&self) -> i64 {
        self.reports
            .iter()
            .map(ServeReport::unaccounted_records)
            .sum()
    }
}

/// The fleet's end-of-run summary.
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// Per-tenant roll-ups, keyed by tenant id.
    pub tenants: BTreeMap<String, TenantRollup>,
    /// Worker processes the controller launched.
    pub workers_spawned: u64,
    /// Workers that stopped on command and said `bye`.
    pub workers_stopped_clean: u64,
    /// Workers that died (or were killed) without a clean stop.
    pub workers_lost: u64,
    /// Torn lines and `report` events that would not decode.
    pub truncated_reports: u64,
    /// Heartbeats observed across all workers.
    pub heartbeats: u64,
    /// Sensor placements refused by per-tenant admission control.
    pub placements_shed: u64,
    /// In-flight records re-booked as shed by client bookkeeping when
    /// their worker died before resolving them.
    pub rebooked_shed: u64,
    /// Client-booked records that never resolved at all — predictions,
    /// NACKs and re-bookings all missing. Non-zero means the fleet
    /// *lost* records.
    pub unresolved_records: u64,
}

impl FleetReport {
    /// Files `report` under its tenant label, the report's own
    /// `tenant` field.
    pub fn absorb(&mut self, report: ServeReport) {
        self.tenants
            .entry(report.tenant.clone())
            .or_default()
            .reports
            .push(report);
    }

    /// The fleet-wide accounting residue: worker-report residues plus
    /// client-side bookings that never resolved. Zero means every
    /// record the fleet accepted is explained — scored, NACKed, shed,
    /// or re-booked as shed when its process died.
    pub fn unaccounted_records(&self) -> i64 {
        let worker_residue: i64 = self
            .tenants
            .values()
            .map(TenantRollup::unaccounted_records)
            .sum();
        worker_residue + self.unresolved_records as i64
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet: {} workers spawned, {} stopped clean, {} lost, {} heartbeats",
            self.workers_spawned, self.workers_stopped_clean, self.workers_lost, self.heartbeats
        )?;
        for (tenant, roll) in &self.tenants {
            writeln!(
                f,
                "tenant {tenant}: {} reports, {} served, {} predictions, {} rejected, {} shed, p99 {:.2} ms",
                roll.reports.len(),
                roll.records_served(),
                roll.predictions_sent(),
                roll.records_rejected(),
                roll.records_shed(),
                roll.latency_p99_ns() as f64 / 1e6,
            )?;
        }
        writeln!(
            f,
            "admission shed {} placements · rebooked as shed {} · unresolved {} · truncated reports {}",
            self.placements_shed, self.rebooked_shed, self.unresolved_records, self.truncated_reports
        )?;
        writeln!(
            f,
            "fleet unaccounted records: {}",
            self.unaccounted_records()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A balanced report: every record pushed was popped and served,
    /// so its own accounting residue is zero.
    fn report(tenant: &str, served: u64) -> ServeReport {
        let mut r = ServeReport {
            tenant: tenant.into(),
            records_served: served,
            ..ServeReport::default()
        };
        r.shard_queues.push(occusense_serve::QueueCounters {
            pushed: served,
            popped: served,
            dropped: 0,
            rejected: 0,
            depth: 0,
            high_watermark: served,
        });
        r
    }

    #[test]
    fn absorb_files_reports_under_their_own_tenant_label() {
        let mut fleet = FleetReport::default();
        fleet.absorb(report("acme", 100));
        fleet.absorb(report("acme", 50));
        fleet.absorb(report("globex", 7));
        assert_eq!(fleet.tenants.len(), 2);
        assert_eq!(fleet.tenants["acme"].records_served(), 150);
        assert_eq!(fleet.tenants["acme"].reports.len(), 2);
        assert_eq!(fleet.tenants["globex"].records_served(), 7);
        assert_eq!(fleet.unaccounted_records(), 0);
    }

    #[test]
    fn residue_sums_worker_reports_and_client_bookkeeping() {
        let mut fleet = FleetReport::default();
        let mut leaky = report("acme", 10);
        // A queue that accepted 13 while only 10 were scored: residue 3.
        leaky.shard_queues.push(occusense_serve::QueueCounters {
            pushed: 13,
            popped: 10,
            dropped: 0,
            rejected: 0,
            depth: 0,
            high_watermark: 10,
        });
        let leak = leaky.unaccounted_records();
        assert!(leak > 0, "fixture must actually leak");
        fleet.absorb(leaky);
        fleet.unresolved_records = 2;
        assert_eq!(fleet.unaccounted_records(), leak + 2);
        // Re-booked sheds are *resolved* — they never add residue.
        fleet.rebooked_shed = 40;
        assert_eq!(fleet.unaccounted_records(), leak + 2);
    }

    #[test]
    fn p99_rollup_takes_the_worst_worker() {
        let mut roll = TenantRollup::default();
        for p99 in [10_000, 90_000, 40_000] {
            let mut r = report("t", 1);
            r.latency_p99_ns = p99;
            roll.reports.push(r);
        }
        assert_eq!(roll.latency_p99_ns(), 90_000);
    }
}
