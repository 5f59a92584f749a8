//! The worker's stdio control protocol.
//!
//! A `fleet_worker` process talks to its supervisor over plain pipes.
//! Commands arrive on stdin as the bare words [`CMD_DRAIN`] and
//! [`CMD_STOP`]. Every event leaves on stdout as one JSON object on one
//! line, written and read by `occusense_driver::json`; the final
//! per-tenant [`ServeReport`]s travel inside `report` events as
//! [`ServeReport::to_json`] objects.
//!
//! ```text
//!   worker stdout                                          stdin
//!   {"v": 2, "event": "ready", "ports": {"t0": "127.0.0.1:4421"}}   drain
//!   {"v": 2, "event": "hb", "seq": 0}                               stop
//!   {"v": 2, "event": "draining", "tenant": "t0", "live": 3}
//!   {"v": 2, "event": "report", "report": {"tenant": "t0", …}}
//!   {"v": 2, "event": "bye"}
//! ```
//!
//! A line that fails to decode is kept as [`WorkerEvent::Refused`]
//! with a typed [`EventError`]. A line that ended without its newline
//! is [`EventError::Truncated`] whatever it holds: that is the torn
//! write of a worker killed mid-report, and it must never be absorbed
//! as a half-summed report.

use crate::registry::valid_tenant_id;
use occusense_driver::json::{self, ParseError, Value};
use occusense_serve::{ReportParseError, ServeReport};
use std::collections::BTreeMap;
use std::fmt;

/// Command line asking the worker to refuse new handshakes while
/// serving live connections (the gateway drain from `occusense-wire`).
pub const CMD_DRAIN: &str = "drain";
/// Command line asking the worker to shut down, emit one `report`
/// event per tenant, say `bye` and exit.
pub const CMD_STOP: &str = "stop";

/// The `"v"` every event line carries; a line of any other version is
/// refused, so the supervisor never mis-sums a foreign revision.
pub const PROTOCOL_VERSION: u64 = 2;

/// Why a stdout line was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventError {
    /// The line ended without its newline: the worker died mid-write.
    Truncated,
    /// `"v"` is missing or not [`PROTOCOL_VERSION`].
    BadVersion,
    /// The line is not one JSON document.
    Json(ParseError),
    /// Valid JSON, but not a known event with well-formed fields.
    Event(&'static str),
    /// A `report` event whose report would not decode.
    Report(ReportParseError),
}

impl fmt::Display for EventError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventError::Truncated => write!(f, "line ended without its newline (torn write?)"),
            EventError::BadVersion => write!(f, "not a protocol v{PROTOCOL_VERSION} event"),
            EventError::Json(e) => e.fmt(f),
            EventError::Event(what) => f.write_str(what),
            EventError::Report(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for EventError {}

/// One event of the worker's stdout stream.
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
    /// A per-tenant shutdown report; it rolls up under its own
    /// `tenant` field.
    Report(Box<ServeReport>),
    /// Clean shutdown acknowledgement; stdout ends after this.
    Bye,
    /// A line that would not decode, kept with the reason.
    Refused {
        /// The line as read, without its newline.
        line: String,
        /// The typed refusal.
        error: EventError,
    },
}

impl WorkerEvent {
    /// The event as one JSON line, without the newline. A
    /// [`Refused`](Self::Refused) event gives back the line it came from.
    pub fn to_line(&self) -> String {
        let (event, fields): (&str, Vec<(&str, Value)>) = match self {
            WorkerEvent::Ready(ports) => {
                let ports = ports.iter().map(|(t, a)| (t.clone(), a.as_str().into()));
                ("ready", vec![("ports", Value::Object(ports.collect()))])
            }
            WorkerEvent::Heartbeat(seq) => ("hb", vec![("seq", (*seq).into())]),
            WorkerEvent::Draining { tenant, live } => (
                "draining",
                vec![("tenant", tenant.as_str().into()), ("live", (*live).into())],
            ),
            WorkerEvent::Report(report) => ("report", vec![("report", report.to_json())]),
            WorkerEvent::Bye => ("bye", Vec::new()),
            WorkerEvent::Refused { line, .. } => return line.clone(),
        };
        let head = [("v", PROTOCOL_VERSION.into()), ("event", event.into())];
        let fields = head.into_iter().chain(fields);
        Value::Object(fields.map(|(k, v)| (k.to_string(), v)).collect()).to_line()
    }

    /// Decodes one stdout line, given without its newline; `complete`
    /// says whether the newline was there. Never fails: a line that
    /// does not decode is [`Refused`](Self::Refused).
    pub fn parse(line: &str, complete: bool) -> WorkerEvent {
        let decoded = match complete {
            true => decode(line),
            false => Err(EventError::Truncated),
        };
        decoded.unwrap_or_else(|error| WorkerEvent::Refused {
            line: line.to_string(),
            error,
        })
    }
}

fn decode(line: &str) -> Result<WorkerEvent, EventError> {
    let value = json::parse(line).map_err(EventError::Json)?;
    if value.get("v").and_then(Value::as_u64) != Some(PROTOCOL_VERSION) {
        return Err(EventError::BadVersion);
    }
    let u64_field = |key| value.get(key).and_then(Value::as_u64);
    match value.get("event").and_then(Value::as_str) {
        Some("ready") => {
            let Some(Value::Object(ports)) = value.get("ports") else {
                return Err(EventError::Event("ready without a ports object"));
            };
            let ports = ports.iter().map(|(tenant, addr)| match addr.as_str() {
                Some(addr) if valid_tenant_id(tenant) && !addr.is_empty() => {
                    Ok((tenant.clone(), addr.to_string()))
                }
                _ => Err(EventError::Event("ready with a bad tenant or address")),
            });
            ports.collect::<Result<_, _>>().map(WorkerEvent::Ready)
        }
        Some("hb") => u64_field("seq")
            .map(WorkerEvent::Heartbeat)
            .ok_or(EventError::Event("hb without a seq")),
        Some("draining") => match (
            value.get("tenant").and_then(Value::as_str),
            u64_field("live"),
        ) {
            (Some(tenant), Some(live)) if valid_tenant_id(tenant) => Ok(WorkerEvent::Draining {
                tenant: tenant.to_string(),
                live,
            }),
            _ => Err(EventError::Event("draining without a tenant or live count")),
        },
        Some("report") => {
            let report = value
                .get("report")
                .ok_or(EventError::Event("report without a report object"))?;
            let report = ServeReport::from_json(report).map_err(EventError::Report)?;
            Ok(WorkerEvent::Report(Box::new(report)))
        }
        Some("bye") => Ok(WorkerEvent::Bye),
        _ => Err(EventError::Event("unknown event")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occusense_serve::{FaultReport, QueueCounters, WireCounters};
    use proptest::prelude::*;
    use std::time::Duration;

    /// Decodes a stdout stream the way the supervisor reads it.
    fn parse_all(text: &str) -> Vec<WorkerEvent> {
        text.split_inclusive('\n')
            .map(|l| WorkerEvent::parse(l.trim_end_matches('\n'), l.ends_with('\n')))
            .collect()
    }

    fn acme() -> ServeReport {
        ServeReport {
            tenant: "acme".into(),
            ..ServeReport::default()
        }
    }

    #[test]
    fn control_lines_parse() {
        let mut ports = BTreeMap::new();
        ports.insert("t0".to_string(), "127.0.0.1:4421".to_string());
        ports.insert("t1".to_string(), "127.0.0.1:4422".to_string());
        let draining = WorkerEvent::Draining {
            tenant: "t0".into(),
            live: 3,
        };
        for event in [
            WorkerEvent::Ready(ports),
            WorkerEvent::Heartbeat(17),
            draining,
            WorkerEvent::Bye,
        ] {
            let line = event.to_line();
            assert_eq!(WorkerEvent::parse(&line, true), event, "{line}");
        }
        assert_eq!(
            WorkerEvent::Heartbeat(17).to_line(),
            r#"{"v": 2, "event": "hb", "seq": 17}"#
        );
        for (line, error) in [
            (r#"{"v": 2, "event": "hb", "seq": "x"}"#, "hb without a seq"),
            (r#"{"v": 2, "event": "nap"}"#, "unknown event"),
            (
                r#"{"v": 2, "event": "ready", "ports": {"T0": "a:1"}}"#,
                "ready with a bad tenant or address",
            ),
            (
                r#"{"v": 2, "event": "draining", "tenant": "t0"}"#,
                "draining without a tenant or live count",
            ),
        ] {
            assert_eq!(
                WorkerEvent::parse(line, true),
                WorkerEvent::Refused {
                    line: line.into(),
                    error: EventError::Event(error)
                }
            );
        }
        assert!(matches!(
            WorkerEvent::parse("stray noise", true),
            WorkerEvent::Refused {
                error: EventError::Json(_),
                ..
            }
        ));
    }

    #[test]
    fn report_blocks_round_trip_through_the_stream() {
        let text = [
            WorkerEvent::Heartbeat(0),
            WorkerEvent::Report(Box::new(acme())),
            WorkerEvent::Bye,
        ]
        .map(|e| e.to_line() + "\n")
        .concat();
        let events = parse_all(&text);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0], WorkerEvent::Heartbeat(0));
        match &events[1] {
            WorkerEvent::Report(report) => {
                assert_eq!(report.tenant, "acme");
                assert_eq!(report.unaccounted_records(), 0);
            }
            other => panic!("expected a report, got {other:?}"),
        }
        assert_eq!(events[2], WorkerEvent::Bye);
    }

    #[test]
    fn a_torn_report_is_a_typed_truncation_never_a_half_summed_report() {
        let line = WorkerEvent::Report(Box::new(acme())).to_line();
        // The worker was killed after writing `cut` bytes of its report.
        for cut in 0..line.len() {
            let torn = String::from_utf8_lossy(&line.as_bytes()[..cut]);
            assert_eq!(
                WorkerEvent::parse(&torn, false),
                WorkerEvent::Refused {
                    line: torn.to_string(),
                    error: EventError::Truncated
                }
            );
            // Even if the cut happened to land a newline after it, a
            // torn line is refused, never read as a report.
            assert!(
                matches!(WorkerEvent::parse(&torn, true), WorkerEvent::Refused { .. }),
                "{torn}"
            );
        }
        // The stream's last line, missing only its newline.
        let events = parse_all(&format!("{}\n{line}", WorkerEvent::Heartbeat(0).to_line()));
        assert_eq!(
            events[1],
            WorkerEvent::Refused {
                line,
                error: EventError::Truncated
            }
        );
    }

    #[test]
    fn foreign_versions_and_broken_reports_are_refused_typed() {
        for line in [
            r#"{"v": 1, "event": "bye"}"#,
            r#"{"event": "bye"}"#,
            r#"{"v": 2.0, "event": "bye"}"#,
            "[2]",
        ] {
            assert_eq!(
                WorkerEvent::parse(line, true),
                WorkerEvent::Refused {
                    line: line.into(),
                    error: EventError::BadVersion
                }
            );
        }
        let line = WorkerEvent::Report(Box::new(acme()))
            .to_line()
            .replace(r#""panics": [], "#, "");
        assert_eq!(
            WorkerEvent::parse(&line, true),
            WorkerEvent::Refused {
                line: line.clone(),
                error: EventError::Report(ReportParseError::Missing("faults.panics".into()))
            }
        );
    }

    /// SplitMix64: a stream of well-mixed words from one seed.
    struct Words(u64);

    impl Words {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[(self.next() % from.len() as u64) as usize]
        }

        /// A counter, often at an edge JSON must carry exactly.
        fn counter(&mut self) -> u64 {
            let w = self.next();
            self.pick(&[0, 1, u64::MAX, (1 << 53) + 1, w, w >> 40])
        }

        fn counters(&mut self) -> Vec<u64> {
            (0..self.next() % 4).map(|_| self.counter()).collect()
        }

        /// Text that a line codec has to escape.
        fn text(&mut self) -> String {
            let parts = [
                "\"",
                "\\",
                "\n",
                "\r\t",
                "\u{0}\u{1f}\u{7f}",
                "é ✓ 🦀",
                "acme",
            ];
            (0..self.next() % 6).map(|_| self.pick(&parts)).collect()
        }

        fn queue(&mut self) -> QueueCounters {
            QueueCounters {
                pushed: self.counter(),
                popped: self.counter(),
                dropped: self.counter(),
                rejected: self.counter(),
                depth: self.counter(),
                high_watermark: self.counter(),
            }
        }

        fn report(&mut self) -> ServeReport {
            let bits = f64::from_bits(self.next());
            let throughput_rps = self.pick(&[
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                -0.0,
                f64::MAX,
                5e-324,
                // Any non-NaN bit pattern; NaN payloads are not kept.
                if bits.is_nan() { f64::NAN } else { bits },
            ]);
            let c = self.counters();
            ServeReport {
                tenant: self.text(),
                elapsed: Duration::from_nanos(self.counter()),
                records_served: self.counter(),
                throughput_rps,
                latency_p50_ns: self.counter(),
                latency_p95_ns: self.counter(),
                latency_p99_ns: self.counter(),
                shard_queues: c.iter().map(|_| self.queue()).collect(),
                trainer_queue: self.next().is_multiple_of(2).then(|| self.queue()),
                model_version: self.counter(),
                model_publishes: self.counter(),
                faults: FaultReport {
                    shard_restarts: self.counters(),
                    trainer_restarts: self.counter(),
                    poisoned_records: self.counter(),
                    trainer_poisoned: self.counter(),
                    dead_letters_evicted: self.counter(),
                    dead_letters: Vec::new(),
                    panics: self.counters().iter().map(|_| self.text()).collect(),
                    uncontained_panics: self.counter(),
                    checkpoints_written: self.counter(),
                    checkpoint_failures: self.counter(),
                    transport_rejections: self.counter(),
                    transport_timeouts: self.counter(),
                    connection_panics: self.counter(),
                },
                wire: WireCounters {
                    connections: self.counter(),
                    frames_received: self.counter(),
                    records_decoded: self.counter(),
                    records_ingested: self.counter(),
                    records_rejected: self.counter(),
                    records_shed: self.counter(),
                    malformed_frames: self.counter(),
                    predictions_routed: self.counter(),
                    predictions_sent: self.counter(),
                    predictions_unrouted: self.counter(),
                    connection_panics: self.counter(),
                    lock_recoveries: self.counter(),
                    thread_panics: self.counter(),
                },
                metrics_text: String::new(),
            }
        }
    }

    proptest! {
        /// Any report survives the pipe: one line, no raw newline, and
        /// every field back exactly (`throughput_rps` bit for bit).
        #[test]
        fn arbitrary_reports_round_trip_through_one_line(seed in 0u64..u64::MAX) {
            let report = Words(seed).report();
            let line = WorkerEvent::Report(Box::new(report.clone())).to_line();
            prop_assert!(!line.contains('\n'), "{}", line);
            let WorkerEvent::Report(back) = WorkerEvent::parse(&line, true) else {
                panic!("refused: {line}");
            };
            prop_assert_eq!(back.throughput_rps.to_bits(), report.throughput_rps.to_bits());
            // The bits are checked; compare the rest (NaN is never `==`).
            let rest = |r: ServeReport| ServeReport { throughput_rps: 0.0, ..r };
            prop_assert_eq!(rest(*back), rest(report));
        }
    }
}
