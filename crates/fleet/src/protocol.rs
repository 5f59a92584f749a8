//! The worker's stdio control protocol.
//!
//! A `fleet_worker` process talks to its supervisor over plain pipes:
//! commands arrive as single lines on stdin, status leaves as single
//! lines on stdout — except the final per-tenant [`ServeReport`]s,
//! which reuse the versioned line codec of
//! [`occusense_serve::report`] verbatim (its `end` terminator frames
//! the block, and its typed `Truncated` refusal is exactly what a
//! worker killed mid-write should produce on the supervisor side).
//!
//! ```text
//!   worker stdout                      supervisor stdin (commands)
//!   READY t0=127.0.0.1:4421 t1=…      drain
//!   HB 0                              stop
//!   HB 1
//!   DRAINING t0 3
//!   REPORT t0
//!   servereport v1
//!   …
//!   end
//!   BYE
//! ```
//!
//! Unknown stdout lines are surfaced as [`WorkerEvent::Unrecognized`]
//! rather than dropped, so a worker drifting off-protocol is visible
//! in the supervisor's diagnostics instead of silently ignored.
//!
//! [`ServeReport`]: occusense_serve::ServeReport

use crate::registry::valid_tenant_id;
use occusense_serve::{ReportParseError, ServeReport};
use std::collections::BTreeMap;

/// Command line asking the worker to refuse new handshakes while
/// serving live connections (the gateway drain from `occusense-wire`).
pub const CMD_DRAIN: &str = "drain";
/// Command line asking the worker to shut down, emit one `REPORT`
/// block per tenant, say `BYE` and exit.
pub const CMD_STOP: &str = "stop";

/// One event decoded from the worker's stdout stream.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerEvent {
    /// All gateways are listening: `tenant → address`.
    Ready(BTreeMap<String, String>),
    /// Liveness beat with a monotone sequence number.
    Heartbeat(u64),
    /// A tenant's gateway entered drain with this many live sensors.
    Draining {
        /// The drained tenant.
        tenant: String,
        /// Registered sensors still being served.
        live: u64,
    },
    /// A complete, parsed per-tenant shutdown report.
    Report {
        /// The tenant the report rolls up under.
        tenant: String,
        /// The worker-side accounting.
        report: Box<ServeReport>,
    },
    /// A `REPORT` block that would not parse — a torn write from a
    /// killed worker surfaces here as [`ReportParseError::Truncated`].
    BadReport {
        /// The tenant whose report was unusable.
        tenant: String,
        /// The typed refusal.
        error: ReportParseError,
    },
    /// Clean shutdown acknowledgement; stdout ends after this.
    Bye,
    /// A line outside the protocol, kept for diagnostics.
    Unrecognized(String),
}

/// Formats the `READY` line for `ports` (worker side).
pub fn ready_line(ports: &BTreeMap<String, String>) -> String {
    let mut line = String::from("READY");
    for (tenant, addr) in ports {
        line.push(' ');
        line.push_str(tenant);
        line.push('=');
        line.push_str(addr);
    }
    line
}

/// Incremental decoder for the worker's stdout stream. Feed it one
/// line at a time (without the newline); `REPORT` blocks span many
/// lines, so not every line yields an event.
#[derive(Debug, Default)]
pub struct EventParser {
    /// `Some((tenant, collected lines))` while inside a `REPORT` block.
    pending: Option<(String, String)>,
}

impl EventParser {
    /// A parser at the start of the stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes one stdout line.
    pub fn feed(&mut self, line: &str) -> Option<WorkerEvent> {
        if let Some((_, body)) = self.pending.as_mut() {
            body.push_str(line);
            body.push('\n');
            if line != "end" {
                return None;
            }
            let (tenant, body) = self.pending.take().expect("checked Some above");
            return Some(match ServeReport::decode_wire(&body) {
                Ok(report) => WorkerEvent::Report {
                    tenant,
                    report: Box::new(report),
                },
                Err(error) => WorkerEvent::BadReport { tenant, error },
            });
        }
        if let Some(rest) = line.strip_prefix("READY") {
            let mut ports = BTreeMap::new();
            for pair in rest.split_whitespace() {
                let Some((tenant, addr)) = pair.split_once('=') else {
                    return Some(WorkerEvent::Unrecognized(line.to_string()));
                };
                if !valid_tenant_id(tenant) || addr.is_empty() {
                    return Some(WorkerEvent::Unrecognized(line.to_string()));
                }
                ports.insert(tenant.to_string(), addr.to_string());
            }
            return Some(WorkerEvent::Ready(ports));
        }
        if let Some(rest) = line.strip_prefix("HB ") {
            return Some(match rest.parse() {
                Ok(seq) => WorkerEvent::Heartbeat(seq),
                Err(_) => WorkerEvent::Unrecognized(line.to_string()),
            });
        }
        if let Some(rest) = line.strip_prefix("DRAINING ") {
            if let Some((tenant, live)) = rest.split_once(' ') {
                if let (true, Ok(live)) = (valid_tenant_id(tenant), live.parse()) {
                    return Some(WorkerEvent::Draining {
                        tenant: tenant.to_string(),
                        live,
                    });
                }
            }
            return Some(WorkerEvent::Unrecognized(line.to_string()));
        }
        if let Some(tenant) = line.strip_prefix("REPORT ") {
            if valid_tenant_id(tenant) {
                self.pending = Some((tenant.to_string(), String::new()));
                return None;
            }
            return Some(WorkerEvent::Unrecognized(line.to_string()));
        }
        if line == "BYE" {
            return Some(WorkerEvent::Bye);
        }
        Some(WorkerEvent::Unrecognized(line.to_string()))
    }

    /// Flushes stream end: a `REPORT` block cut off mid-body (the
    /// worker died before its `end` line) becomes a typed
    /// [`WorkerEvent::BadReport`] with [`ReportParseError::Truncated`].
    pub fn finish(&mut self) -> Option<WorkerEvent> {
        let (tenant, body) = self.pending.take()?;
        Some(match ServeReport::decode_wire(&body) {
            Ok(report) => WorkerEvent::Report {
                tenant,
                report: Box::new(report),
            },
            Err(error) => WorkerEvent::BadReport { tenant, error },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_all(parser: &mut EventParser, text: &str) -> Vec<WorkerEvent> {
        let mut events: Vec<WorkerEvent> = text.lines().filter_map(|l| parser.feed(l)).collect();
        events.extend(parser.finish());
        events
    }

    #[test]
    fn control_lines_parse() {
        let mut p = EventParser::new();
        let mut ports = BTreeMap::new();
        ports.insert("t0".to_string(), "127.0.0.1:4421".to_string());
        ports.insert("t1".to_string(), "127.0.0.1:4422".to_string());
        assert_eq!(p.feed(&ready_line(&ports)), Some(WorkerEvent::Ready(ports)));
        assert_eq!(p.feed("HB 17"), Some(WorkerEvent::Heartbeat(17)));
        assert_eq!(
            p.feed("DRAINING t0 3"),
            Some(WorkerEvent::Draining {
                tenant: "t0".into(),
                live: 3
            })
        );
        assert_eq!(p.feed("BYE"), Some(WorkerEvent::Bye));
        assert_eq!(
            p.feed("stray noise"),
            Some(WorkerEvent::Unrecognized("stray noise".into()))
        );
        assert_eq!(
            p.feed("HB not-a-number"),
            Some(WorkerEvent::Unrecognized("HB not-a-number".into()))
        );
    }

    #[test]
    fn report_blocks_round_trip_through_the_stream() {
        let report = ServeReport {
            tenant: "acme".into(),
            ..ServeReport::default()
        };
        let text = format!("HB 0\nREPORT acme\n{}BYE\n", report.encode_wire());
        let mut p = EventParser::new();
        let events = feed_all(&mut p, &text);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0], WorkerEvent::Heartbeat(0));
        match &events[1] {
            WorkerEvent::Report { tenant, report } => {
                assert_eq!(tenant, "acme");
                assert_eq!(report.tenant, "acme");
                assert_eq!(report.unaccounted_records(), 0);
            }
            other => panic!("expected a report, got {other:?}"),
        }
        assert_eq!(events[2], WorkerEvent::Bye);
    }

    #[test]
    fn a_torn_report_is_a_typed_truncation_never_a_half_summed_report() {
        let report = ServeReport {
            tenant: "acme".into(),
            ..ServeReport::default()
        };
        let encoded = report.encode_wire();
        let lines: Vec<&str> = encoded.lines().collect();
        // The worker was killed after emitting only half its report.
        let torn = lines[..lines.len() / 2].join("\n");
        let text = format!("REPORT acme\n{torn}\n");
        let mut p = EventParser::new();
        let events = feed_all(&mut p, &text);
        assert_eq!(events.len(), 1);
        // Exactly *which* parse refusal depends on where the kill cut
        // the stream; the contract is that a torn block is a typed
        // BadReport, never a half-summed Report.
        assert!(
            matches!(&events[0], WorkerEvent::BadReport { tenant, .. } if tenant == "acme"),
            "expected a BadReport, got {:?}",
            events[0]
        );
        // A block missing only its `end` terminator is the canonical
        // truncation.
        let body = lines[..lines.len() - 1].join("\n");
        let mut p = EventParser::new();
        let events = feed_all(&mut p, &format!("REPORT acme\n{body}\n"));
        assert_eq!(
            events,
            vec![WorkerEvent::BadReport {
                tenant: "acme".into(),
                error: ReportParseError::Truncated,
            }]
        );
    }
}
