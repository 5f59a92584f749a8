//! [`ServeReport`] as a JSON object, for crossing a process boundary:
//! the fleet controller supervises worker *processes*, and each
//! worker's final report must reach it intact for the fleet-level
//! accounting identity to close (`occusense-fleet` sums
//! `unaccounted_records()` across workers).
//!
//! The object is written and read by `occusense_driver::json`, so every
//! `u64` counter is an exact JSON integer and `throughput_rps` travels
//! in the shortest form that round-trips bit for bit. It is
//! *accounting-complete but diagnostically lossy*: every counter that
//! [`ServeReport::unaccounted_records`] or a fleet roll-up reads
//! round-trips exactly, and panic messages travel as strings; the
//! dead-letter record bodies and the rendered `metrics_text` stay in
//! the worker process (their *counts* are in `poisoned_records` /
//! `dead_letters_evicted`, which do travel).

use crate::queue::QueueCounters;
use crate::runtime::{ServeReport, WireCounters};
use crate::supervisor::FaultReport;
use occusense_driver::{obj, Value};
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Why a report object was refused, naming the first offending field
/// by its dotted path (e.g. `faults.panics`, `shard_queues[1].pushed`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportParseError {
    /// The field is absent.
    Missing(String),
    /// The field is present but not of its type (a `u64` counter must
    /// be a non-negative JSON integer).
    Mistyped(String),
}

impl fmt::Display for ReportParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (field, problem) = match self {
            ReportParseError::Missing(field) => (field, "is missing"),
            ReportParseError::Mistyped(field) => (field, "has the wrong type"),
        };
        write!(f, "report field `{field}` {problem}")
    }
}

impl Error for ReportParseError {}

/// One JSON value of a report and its dotted path (`""` at the top).
struct Fields<'a>(&'a Value, String);

impl<'a> Fields<'a> {
    fn path(&self, key: &str) -> String {
        match self.1.as_str() {
            "" => key.to_string(),
            name => format!("{name}.{key}"),
        }
    }

    /// Field `key` of this object, as read by `read`.
    fn typed<T>(
        &self,
        key: &str,
        read: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, ReportParseError> {
        let value = (self.0.get(key)).ok_or_else(|| ReportParseError::Missing(self.path(key)))?;
        read(value).ok_or_else(|| ReportParseError::Mistyped(self.path(key)))
    }

    fn u64(&self, key: &str) -> Result<u64, ReportParseError> {
        self.typed(key, Value::as_u64)
    }

    fn object(&self, key: &str) -> Result<Fields<'a>, ReportParseError> {
        let value = self.typed(key, |v| matches!(v, Value::Object(_)).then_some(v))?;
        Ok(Fields(value, self.path(key)))
    }

    /// Every element of array `key`, as read by `read` (an element's
    /// path is `key[i]`).
    fn array<T>(
        &self,
        key: &str,
        read: impl Fn(Fields<'a>) -> Result<T, ReportParseError>,
    ) -> Result<Vec<T>, ReportParseError> {
        let items = self.typed(key, Value::as_array)?.iter().enumerate();
        (items.map(|(i, v)| read(Fields(v, format!("{}[{i}]", self.path(key)))))).collect()
    }

    /// This value itself, as read by `read`.
    fn this<T>(&self, read: impl FnOnce(&'a Value) -> Option<T>) -> Result<T, ReportParseError> {
        read(self.0).ok_or_else(|| ReportParseError::Mistyped(self.1.clone()))
    }
}

/// Writes (`$write`) and reads (`Fields::$read`) a struct of `u64`
/// counters, one JSON key per field, named as the field.
macro_rules! counters {
    ($write:ident, $read:ident, $ty:ident { $($field:ident),* $(,)? }) => {
        fn $write(c: &$ty) -> Value {
            obj([$((stringify!($field), c.$field.into())),*])
        }

        impl Fields<'_> {
            fn $read(&self) -> Result<$ty, ReportParseError> {
                Ok($ty { $($field: self.u64(stringify!($field))?),* })
            }
        }
    };
}

counters! { queue_json, queue, QueueCounters {
    pushed, popped, dropped, rejected, depth, high_watermark,
} }

counters! { wire_json, wire, WireCounters {
    connections, frames_received, records_decoded, records_ingested, records_rejected,
    records_shed, malformed_frames, predictions_routed, predictions_sent,
    predictions_unrouted, connection_panics, lock_recoveries, thread_panics,
} }

impl ServeReport {
    /// This report as one JSON object (see the module docs for what
    /// travels and what stays behind).
    pub fn to_json(&self) -> Value {
        let fr = &self.faults;
        let elapsed_ns = u64::try_from(self.elapsed.as_nanos()).unwrap_or(u64::MAX);
        let shard_queues = self.shard_queues.iter().map(queue_json).collect();
        let trainer_queue = self.trainer_queue.as_ref().map_or(Value::Null, queue_json);
        let shard_restarts = fr.shard_restarts.iter().map(|&r| r.into()).collect();
        let panics = fr.panics.iter().map(|p| p.as_str().into()).collect();
        let faults = obj([
            ("shard_restarts", Value::Array(shard_restarts)),
            ("trainer_restarts", fr.trainer_restarts.into()),
            ("poisoned_records", fr.poisoned_records.into()),
            ("trainer_poisoned", fr.trainer_poisoned.into()),
            ("dead_letters_evicted", fr.dead_letters_evicted.into()),
            ("panics", Value::Array(panics)),
            ("uncontained_panics", fr.uncontained_panics.into()),
            ("checkpoints_written", fr.checkpoints_written.into()),
            ("checkpoint_failures", fr.checkpoint_failures.into()),
            ("transport_rejections", fr.transport_rejections.into()),
            ("transport_timeouts", fr.transport_timeouts.into()),
            ("connection_panics", fr.connection_panics.into()),
        ]);
        obj([
            ("tenant", self.tenant.as_str().into()),
            ("elapsed_ns", elapsed_ns.into()),
            ("records_served", self.records_served.into()),
            ("throughput_rps", self.throughput_rps.into()),
            ("latency_p50_ns", self.latency_p50_ns.into()),
            ("latency_p95_ns", self.latency_p95_ns.into()),
            ("latency_p99_ns", self.latency_p99_ns.into()),
            ("model_version", self.model_version.into()),
            ("model_publishes", self.model_publishes.into()),
            ("shard_queues", Value::Array(shard_queues)),
            ("trainer_queue", trainer_queue),
            ("faults", faults),
            ("wire", wire_json(&self.wire)),
        ])
    }

    /// Reads a report written by [`to_json`](Self::to_json). The
    /// dead-letter bodies and `metrics_text` do not travel: they read
    /// back empty (their counts are in the numeric fields).
    ///
    /// # Errors
    ///
    /// [`ReportParseError`] naming the first missing or mistyped field.
    pub fn from_json(value: &Value) -> Result<Self, ReportParseError> {
        let top = Fields(value, String::new());
        let trainer_queue = match top.typed("trainer_queue", Some)? {
            Value::Null => None,
            _ => Some(top.object("trainer_queue")?.queue()?),
        };
        let fr = top.object("faults")?;
        Ok(ServeReport {
            tenant: top.typed("tenant", Value::as_str)?.to_string(),
            elapsed: Duration::from_nanos(top.u64("elapsed_ns")?),
            records_served: top.u64("records_served")?,
            throughput_rps: top.typed("throughput_rps", Value::as_f64)?,
            latency_p50_ns: top.u64("latency_p50_ns")?,
            latency_p95_ns: top.u64("latency_p95_ns")?,
            latency_p99_ns: top.u64("latency_p99_ns")?,
            model_version: top.u64("model_version")?,
            model_publishes: top.u64("model_publishes")?,
            shard_queues: top.array("shard_queues", |q| q.queue())?,
            trainer_queue,
            faults: FaultReport {
                shard_restarts: fr.array("shard_restarts", |r| r.this(Value::as_u64))?,
                trainer_restarts: fr.u64("trainer_restarts")?,
                poisoned_records: fr.u64("poisoned_records")?,
                trainer_poisoned: fr.u64("trainer_poisoned")?,
                dead_letters_evicted: fr.u64("dead_letters_evicted")?,
                dead_letters: Vec::new(),
                panics: fr.array("panics", |p| p.this(|v| v.as_str().map(str::to_string)))?,
                uncontained_panics: fr.u64("uncontained_panics")?,
                checkpoints_written: fr.u64("checkpoints_written")?,
                checkpoint_failures: fr.u64("checkpoint_failures")?,
                transport_rejections: fr.u64("transport_rejections")?,
                transport_timeouts: fr.u64("transport_timeouts")?,
                connection_panics: fr.u64("connection_panics")?,
            },
            wire: top.object("wire")?.wire()?,
            metrics_text: String::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occusense_driver::json;

    fn sample_report() -> ServeReport {
        ServeReport {
            tenant: "acme-labs".into(),
            elapsed: Duration::from_nanos(1_234_567_891),
            records_served: 4_000,
            throughput_rps: 3240.125,
            latency_p50_ns: 52_000,
            latency_p95_ns: 210_000,
            latency_p99_ns: 612_345,
            shard_queues: vec![
                QueueCounters {
                    pushed: 2_000,
                    popped: 1_990,
                    dropped: 7,
                    rejected: 3,
                    depth: 3,
                    high_watermark: 512,
                },
                QueueCounters {
                    pushed: 2_010,
                    popped: 2_010,
                    dropped: 0,
                    rejected: 0,
                    depth: 0,
                    high_watermark: 96,
                },
            ],
            trainer_queue: Some(QueueCounters {
                pushed: 100,
                popped: 98,
                dropped: 2,
                rejected: 0,
                depth: 0,
                high_watermark: 40,
            }),
            model_version: 3,
            model_publishes: 2,
            faults: FaultReport {
                shard_restarts: vec![1, 0],
                trainer_restarts: 1,
                poisoned_records: 10,
                trainer_poisoned: 2,
                dead_letters_evicted: 4,
                dead_letters: Vec::new(),
                panics: vec![
                    "worker 0 panicked: boom".into(),
                    "multi\nline\\payload \"quoted\"".into(),
                ],
                uncontained_panics: 0,
                checkpoints_written: 5,
                checkpoint_failures: 1,
                transport_rejections: 3,
                transport_timeouts: 1,
                connection_panics: 1,
            },
            wire: WireCounters {
                connections: 6,
                frames_received: 900,
                records_decoded: 4_020,
                records_ingested: 4_010,
                records_rejected: 3,
                records_shed: 7,
                malformed_frames: 1,
                predictions_routed: 4_000,
                predictions_sent: 3_998,
                predictions_unrouted: 2,
                connection_panics: 1,
                lock_recoveries: 0,
                thread_panics: 0,
            },
            metrics_text: String::new(),
        }
    }

    /// Writes `report` on one line and reads it back.
    fn round_trip(report: &ServeReport) -> (String, ServeReport) {
        let line = report.to_json().to_line();
        assert!(!line.contains('\n'), "{line}");
        let back = ServeReport::from_json(&json::parse(&line).expect("valid JSON"));
        (line, back.expect("decode"))
    }

    #[test]
    fn every_accounting_field_round_trips_exactly() {
        let report = sample_report();
        let (line, back) = round_trip(&report);
        assert_eq!(back, report, "every travelling field survives");
        assert_eq!(
            back.throughput_rps.to_bits(),
            report.throughput_rps.to_bits(),
            "f64 must survive bit-for-bit"
        );
        assert_eq!(
            back.unaccounted_records(),
            report.unaccounted_records(),
            "the identity must be computable on the decoded side"
        );
        // Canonical on the encoded form.
        assert_eq!(back.to_json().to_line(), line);
    }

    #[test]
    fn minimal_untenanted_report_round_trips() {
        let mut report = sample_report();
        report.tenant = String::new();
        report.trainer_queue = None;
        report.shard_queues.clear();
        report.faults.shard_restarts.clear();
        report.faults.panics.clear();
        let (line, back) = round_trip(&report);
        assert_eq!(back, report);
        assert_eq!(back.to_json().to_line(), line);
    }

    #[test]
    fn every_truncation_is_refused_never_half_summed() {
        let line = sample_report().to_json().to_line();
        // Cut at every character short of the full line.
        for (cut, _) in line.char_indices() {
            let decoded = json::parse(&line[..cut])
                .ok()
                .map(|v| ServeReport::from_json(&v));
            assert!(
                !matches!(decoded, Some(Ok(_))),
                "a report cut after {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn missing_and_mistyped_fields_are_named() {
        let full = sample_report().to_json();
        // Drop each field in turn, nested ones included.
        let mut paths = Vec::new();
        let Value::Object(top) = &full else {
            unreachable!("to_json writes an object")
        };
        for (key, value) in top {
            paths.push((key.clone(), None));
            if let Value::Object(inner) = value {
                paths.extend(inner.iter().map(|(k, _)| (key.clone(), Some(k.clone()))));
            }
        }
        for (key, inner) in paths {
            let mut cut = full.clone();
            let Value::Object(top) = &mut cut else {
                unreachable!()
            };
            let name = match &inner {
                None => {
                    top.retain(|(k, _)| *k != key);
                    key
                }
                Some(inner) => {
                    let field = top.iter_mut().find(|(k, _)| *k == key);
                    let Some((_, Value::Object(fields))) = field else {
                        unreachable!()
                    };
                    fields.retain(|(k, _)| k != inner);
                    format!("{key}.{inner}")
                }
            };
            assert_eq!(
                ServeReport::from_json(&cut),
                Err(ReportParseError::Missing(name))
            );
        }

        let garbled = full
            .to_line()
            .replace("\"records_served\": 4000", "\"records_served\": \"four\"");
        let err = ServeReport::from_json(&json::parse(&garbled).unwrap()).unwrap_err();
        assert_eq!(err, ReportParseError::Mistyped("records_served".into()));
        // A negative or fractional counter is not a u64.
        let negative = full.to_line().replace("\"pushed\": 2010", "\"pushed\": -1");
        let err = ServeReport::from_json(&json::parse(&negative).unwrap()).unwrap_err();
        assert_eq!(
            err,
            ReportParseError::Mistyped("shard_queues[1].pushed".into())
        );
        let panics = full.to_line().replace("\"worker 0 panicked: boom\"", "7");
        let err = ServeReport::from_json(&json::parse(&panics).unwrap()).unwrap_err();
        assert_eq!(err, ReportParseError::Mistyped("faults.panics[0]".into()));
    }
}
