//! A process-boundary codec for [`ServeReport`]: the fleet controller
//! supervises worker *processes*, and each worker's final report must
//! cross that boundary intact for the fleet-level accounting identity
//! to close (`occusense-fleet` sums `unaccounted_records()` across
//! workers).
//!
//! The format is a versioned, line-oriented text encoding — one
//! `key value…` line per field, strict field order, `f64`s as the hex
//! of [`f64::to_bits`] so throughput survives bit-for-bit. It is
//! *accounting-complete but diagnostically lossy*: every numeric
//! counter that [`ServeReport::unaccounted_records`] or a fleet
//! roll-up reads round-trips exactly, and panic messages travel
//! escaped; the dead-letter record bodies and the rendered
//! `metrics_text` stay in the worker process (their *counts* are in
//! `poisoned_records` / `dead_letters_evicted`, which do travel).
//! Canonicality therefore holds on the encoded form:
//! `encode(decode(s)) == s` for every accepted `s`.

use crate::queue::QueueCounters;
use crate::runtime::{ServeReport, WireCounters};
use crate::supervisor::FaultReport;
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// First line of every encoded report; bumped on layout changes so a
/// fleet controller never mis-sums a foreign revision.
pub const REPORT_WIRE_VERSION: &str = "servereport v1";

/// Why an encoded report was refused. Typed so the fleet supervisor
/// can distinguish a torn pipe (a killed worker mid-write) from a
/// revision mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportParseError {
    /// The first line was not [`REPORT_WIRE_VERSION`].
    BadVersion {
        /// The first line found.
        found: String,
    },
    /// A field line was missing, out of order, or malformed.
    BadField {
        /// The key the decoder expected next.
        expected: &'static str,
        /// The line found (empty when the input ended).
        found: String,
    },
    /// A numeric token failed to parse.
    BadNumber {
        /// The field being decoded.
        field: &'static str,
        /// The offending token.
        token: String,
    },
    /// No `end` terminator — the classic torn write of a worker killed
    /// mid-report.
    Truncated,
}

impl fmt::Display for ReportParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportParseError::BadVersion { found } => {
                write!(
                    f,
                    "report version mismatch: expected {REPORT_WIRE_VERSION:?}, found {found:?}"
                )
            }
            ReportParseError::BadField { expected, found } => {
                write!(
                    f,
                    "expected report field {expected:?}, found line {found:?}"
                )
            }
            ReportParseError::BadNumber { field, token } => {
                write!(f, "bad number {token:?} in report field {field:?}")
            }
            ReportParseError::Truncated => {
                write!(f, "report ended without the `end` terminator (torn write?)")
            }
        }
    }
}

impl Error for ReportParseError {}

/// Escapes a free-form string onto one line: `\` → `\\`, newline →
/// `\n`, carriage return → `\r`.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            // A dangling or unknown escape decodes literally; encode
            // never produces one, so canonicality is unaffected.
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

fn queue_line(out: &mut String, key: &str, q: &QueueCounters) {
    out.push_str(&format!(
        "{key} {} {} {} {} {} {}\n",
        q.pushed, q.popped, q.dropped, q.rejected, q.depth, q.high_watermark
    ));
}

impl ServeReport {
    /// Encodes this report for transport across a process boundary
    /// (see the module docs for what travels and what stays behind).
    pub fn encode_wire(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(REPORT_WIRE_VERSION);
        out.push('\n');
        out.push_str(&format!("tenant {}\n", escape(&self.tenant)));
        out.push_str(&format!(
            "elapsed_ns {}\n",
            self.elapsed.as_nanos().min(u128::from(u64::MAX)) as u64
        ));
        out.push_str(&format!("records_served {}\n", self.records_served));
        out.push_str(&format!(
            "throughput_rps {:016x}\n",
            self.throughput_rps.to_bits()
        ));
        out.push_str(&format!("latency_p50_ns {}\n", self.latency_p50_ns));
        out.push_str(&format!("latency_p95_ns {}\n", self.latency_p95_ns));
        out.push_str(&format!("latency_p99_ns {}\n", self.latency_p99_ns));
        out.push_str(&format!("model_version {}\n", self.model_version));
        out.push_str(&format!("model_publishes {}\n", self.model_publishes));
        for q in &self.shard_queues {
            queue_line(&mut out, "shard", q);
        }
        if let Some(t) = &self.trainer_queue {
            queue_line(&mut out, "trainer_queue", t);
        }
        let fr = &self.faults;
        out.push_str("shard_restarts");
        for r in &fr.shard_restarts {
            out.push_str(&format!(" {r}"));
        }
        out.push('\n');
        out.push_str(&format!("trainer_restarts {}\n", fr.trainer_restarts));
        out.push_str(&format!("poisoned_records {}\n", fr.poisoned_records));
        out.push_str(&format!("trainer_poisoned {}\n", fr.trainer_poisoned));
        out.push_str(&format!(
            "dead_letters_evicted {}\n",
            fr.dead_letters_evicted
        ));
        out.push_str(&format!("uncontained_panics {}\n", fr.uncontained_panics));
        out.push_str(&format!("checkpoints_written {}\n", fr.checkpoints_written));
        out.push_str(&format!("checkpoint_failures {}\n", fr.checkpoint_failures));
        out.push_str(&format!(
            "transport_rejections {}\n",
            fr.transport_rejections
        ));
        out.push_str(&format!("transport_timeouts {}\n", fr.transport_timeouts));
        out.push_str(&format!(
            "fault_connection_panics {}\n",
            fr.connection_panics
        ));
        for p in &fr.panics {
            out.push_str(&format!("panic {}\n", escape(p)));
        }
        let w = &self.wire;
        out.push_str(&format!(
            "wire {} {} {} {} {} {} {} {} {} {} {} {} {}\n",
            w.connections,
            w.frames_received,
            w.records_decoded,
            w.records_ingested,
            w.records_rejected,
            w.records_shed,
            w.malformed_frames,
            w.predictions_routed,
            w.predictions_sent,
            w.predictions_unrouted,
            w.connection_panics,
            w.lock_recoveries,
            w.thread_panics,
        ));
        out.push_str("end\n");
        out
    }

    /// Decodes a report previously written by [`encode_wire`].
    ///
    /// The dead-letter bodies and `metrics_text` do not travel: they
    /// decode as empty (their counts are in the numeric fields).
    ///
    /// # Errors
    ///
    /// [`ReportParseError`]; a worker killed mid-write surfaces as
    /// [`ReportParseError::Truncated`], never a half-summed report.
    ///
    /// [`encode_wire`]: Self::encode_wire
    pub fn decode_wire(text: &str) -> Result<Self, ReportParseError> {
        let mut lines = text.lines().peekable();
        let version = lines.next().unwrap_or_default();
        if version != REPORT_WIRE_VERSION {
            return Err(ReportParseError::BadVersion {
                found: version.to_string(),
            });
        }

        fn split_kv<'a>(
            line: &'a str,
            expected: &'static str,
        ) -> Result<&'a str, ReportParseError> {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            if key != expected {
                return Err(ReportParseError::BadField {
                    expected,
                    found: line.to_string(),
                });
            }
            Ok(rest)
        }

        fn next_field<'a, I: Iterator<Item = &'a str>>(
            lines: &mut I,
            expected: &'static str,
        ) -> Result<&'a str, ReportParseError> {
            let line = lines.next().ok_or(ReportParseError::BadField {
                expected,
                found: String::new(),
            })?;
            split_kv(line, expected)
        }

        fn num(field: &'static str, token: &str) -> Result<u64, ReportParseError> {
            token.parse().map_err(|_| ReportParseError::BadNumber {
                field,
                token: token.to_string(),
            })
        }

        fn queue_counters(
            field: &'static str,
            rest: &str,
        ) -> Result<QueueCounters, ReportParseError> {
            let mut it = rest.split(' ');
            let mut take =
                || -> Result<u64, ReportParseError> { num(field, it.next().unwrap_or_default()) };
            let q = QueueCounters {
                pushed: take()?,
                popped: take()?,
                dropped: take()?,
                rejected: take()?,
                depth: take()?,
                high_watermark: take()?,
            };
            match it.next() {
                None => Ok(q),
                Some(extra) => Err(ReportParseError::BadNumber {
                    field,
                    token: extra.to_string(),
                }),
            }
        }

        let tenant = unescape(next_field(&mut lines, "tenant")?);
        let elapsed =
            Duration::from_nanos(num("elapsed_ns", next_field(&mut lines, "elapsed_ns")?)?);
        let records_served = num("records_served", next_field(&mut lines, "records_served")?)?;
        let rps_raw = next_field(&mut lines, "throughput_rps")?;
        let throughput_rps = f64::from_bits(u64::from_str_radix(rps_raw, 16).map_err(|_| {
            ReportParseError::BadNumber {
                field: "throughput_rps",
                token: rps_raw.to_string(),
            }
        })?);
        let latency_p50_ns = num("latency_p50_ns", next_field(&mut lines, "latency_p50_ns")?)?;
        let latency_p95_ns = num("latency_p95_ns", next_field(&mut lines, "latency_p95_ns")?)?;
        let latency_p99_ns = num("latency_p99_ns", next_field(&mut lines, "latency_p99_ns")?)?;
        let model_version = num("model_version", next_field(&mut lines, "model_version")?)?;
        let model_publishes = num(
            "model_publishes",
            next_field(&mut lines, "model_publishes")?,
        )?;

        let mut shard_queues = Vec::new();
        while let Some(line) = lines.peek() {
            let Some(rest) = line.strip_prefix("shard ") else {
                break;
            };
            shard_queues.push(queue_counters("shard", rest)?);
            lines.next();
        }
        let mut trainer_queue = None;
        if let Some(line) = lines.peek() {
            if let Some(rest) = line.strip_prefix("trainer_queue ") {
                trainer_queue = Some(queue_counters("trainer_queue", rest)?);
                lines.next();
            }
        }

        let restarts_line = lines.next().ok_or(ReportParseError::BadField {
            expected: "shard_restarts",
            found: String::new(),
        })?;
        if restarts_line != "shard_restarts" && !restarts_line.starts_with("shard_restarts ") {
            return Err(ReportParseError::BadField {
                expected: "shard_restarts",
                found: restarts_line.to_string(),
            });
        }
        let mut shard_restarts = Vec::new();
        for token in restarts_line
            .strip_prefix("shard_restarts")
            .unwrap_or_default()
            .split(' ')
            .filter(|t| !t.is_empty())
        {
            shard_restarts.push(num("shard_restarts", token)?);
        }

        let trainer_restarts = num(
            "trainer_restarts",
            next_field(&mut lines, "trainer_restarts")?,
        )?;
        let poisoned_records = num(
            "poisoned_records",
            next_field(&mut lines, "poisoned_records")?,
        )?;
        let trainer_poisoned = num(
            "trainer_poisoned",
            next_field(&mut lines, "trainer_poisoned")?,
        )?;
        let dead_letters_evicted = num(
            "dead_letters_evicted",
            next_field(&mut lines, "dead_letters_evicted")?,
        )?;
        let uncontained_panics = num(
            "uncontained_panics",
            next_field(&mut lines, "uncontained_panics")?,
        )?;
        let checkpoints_written = num(
            "checkpoints_written",
            next_field(&mut lines, "checkpoints_written")?,
        )?;
        let checkpoint_failures = num(
            "checkpoint_failures",
            next_field(&mut lines, "checkpoint_failures")?,
        )?;
        let transport_rejections = num(
            "transport_rejections",
            next_field(&mut lines, "transport_rejections")?,
        )?;
        let transport_timeouts = num(
            "transport_timeouts",
            next_field(&mut lines, "transport_timeouts")?,
        )?;
        let fault_connection_panics = num(
            "fault_connection_panics",
            next_field(&mut lines, "fault_connection_panics")?,
        )?;

        let mut panics = Vec::new();
        while let Some(line) = lines.peek() {
            let Some(rest) = line.strip_prefix("panic ") else {
                break;
            };
            panics.push(unescape(rest));
            lines.next();
        }

        let wire_rest = next_field(&mut lines, "wire")?;
        let mut it = wire_rest.split(' ');
        let mut take =
            || -> Result<u64, ReportParseError> { num("wire", it.next().unwrap_or_default()) };
        let wire = WireCounters {
            connections: take()?,
            frames_received: take()?,
            records_decoded: take()?,
            records_ingested: take()?,
            records_rejected: take()?,
            records_shed: take()?,
            malformed_frames: take()?,
            predictions_routed: take()?,
            predictions_sent: take()?,
            predictions_unrouted: take()?,
            connection_panics: take()?,
            lock_recoveries: take()?,
            thread_panics: take()?,
        };
        if let Some(extra) = it.next() {
            return Err(ReportParseError::BadNumber {
                field: "wire",
                token: extra.to_string(),
            });
        }

        match lines.next() {
            Some("end") => {}
            Some(other) => {
                return Err(ReportParseError::BadField {
                    expected: "end",
                    found: other.to_string(),
                })
            }
            None => return Err(ReportParseError::Truncated),
        }

        Ok(ServeReport {
            tenant,
            elapsed,
            records_served,
            throughput_rps,
            latency_p50_ns,
            latency_p95_ns,
            latency_p99_ns,
            shard_queues,
            trainer_queue,
            model_version,
            model_publishes,
            faults: FaultReport {
                shard_restarts,
                trainer_restarts,
                poisoned_records,
                trainer_poisoned,
                dead_letters_evicted,
                dead_letters: Vec::new(),
                panics,
                uncontained_panics,
                checkpoints_written,
                checkpoint_failures,
                transport_rejections,
                transport_timeouts,
                connection_panics: fault_connection_panics,
            },
            wire,
            metrics_text: String::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
                    "multi\nline\\payload".into(),
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

    #[test]
    fn every_accounting_field_round_trips_exactly() {
        let report = sample_report();
        let encoded = report.encode_wire();
        let back = ServeReport::decode_wire(&encoded).expect("decode");

        assert_eq!(back.tenant, report.tenant);
        assert_eq!(back.elapsed, report.elapsed);
        assert_eq!(back.records_served, report.records_served);
        assert_eq!(
            back.throughput_rps.to_bits(),
            report.throughput_rps.to_bits(),
            "f64 must survive bit-for-bit"
        );
        assert_eq!(back.latency_p50_ns, report.latency_p50_ns);
        assert_eq!(back.latency_p95_ns, report.latency_p95_ns);
        assert_eq!(back.latency_p99_ns, report.latency_p99_ns);
        assert_eq!(back.shard_queues, report.shard_queues);
        assert_eq!(back.trainer_queue, report.trainer_queue);
        assert_eq!(back.model_version, report.model_version);
        assert_eq!(back.model_publishes, report.model_publishes);
        assert_eq!(back.faults.shard_restarts, report.faults.shard_restarts);
        assert_eq!(back.faults.panics, report.faults.panics);
        assert_eq!(back.faults.poisoned_records, report.faults.poisoned_records);
        assert_eq!(back.wire, report.wire);
        assert_eq!(
            back.unaccounted_records(),
            report.unaccounted_records(),
            "the identity must be computable on the decoded side"
        );

        // Canonical on the encoded form.
        assert_eq!(back.encode_wire(), encoded);
    }

    #[test]
    fn minimal_untenanted_report_round_trips() {
        let mut report = sample_report();
        report.tenant = String::new();
        report.trainer_queue = None;
        report.shard_queues.clear();
        report.faults.shard_restarts.clear();
        report.faults.panics.clear();
        let encoded = report.encode_wire();
        let back = ServeReport::decode_wire(&encoded).expect("decode");
        assert_eq!(back.tenant, "");
        assert_eq!(back.trainer_queue, None);
        assert!(back.shard_queues.is_empty());
        assert!(back.faults.shard_restarts.is_empty());
        assert_eq!(back.encode_wire(), encoded);
    }

    #[test]
    fn every_truncation_is_refused_never_half_summed() {
        let encoded = sample_report().encode_wire();
        // Cut at every line boundary short of the full report.
        let lines: Vec<&str> = encoded.lines().collect();
        for keep in 0..lines.len() {
            let partial = lines[..keep]
                .iter()
                .map(|l| format!("{l}\n"))
                .collect::<String>();
            assert!(
                ServeReport::decode_wire(&partial).is_err(),
                "a report cut after {keep} lines must not decode"
            );
        }
    }

    #[test]
    fn version_and_field_refusals_are_typed() {
        let err = ServeReport::decode_wire("servereport v0\n").unwrap_err();
        assert_eq!(
            err,
            ReportParseError::BadVersion {
                found: "servereport v0".into()
            }
        );
        let garbled = sample_report()
            .encode_wire()
            .replace("records_served 4000", "records_served four");
        let err = ServeReport::decode_wire(&garbled).unwrap_err();
        assert_eq!(
            err,
            ReportParseError::BadNumber {
                field: "records_served",
                token: "four".into()
            }
        );
    }
}
