//! Payload codec: the deterministic little-endian byte layout of every
//! frame body, with typed decode errors and no panicking paths.
//!
//! The codec is the *inner* layer of the protocol — it knows how a
//! `Hello` or a `Record` body is laid out, but nothing about magic
//! numbers, lengths or checksums; that envelope lives in
//! [`crate::frame`]. Keeping the two layers separate means property
//! tests can corrupt exactly one of them at a time and assert on the
//! exact error class that comes back.
//!
//! Layout rules (DESIGN.md §10 has the full tables):
//!
//! * every integer is little-endian, every `f64` travels as the
//!   little-endian bytes of [`f64::to_bits`] — so NaN payloads and
//!   negative zeros round-trip bit-for-bit, which is what makes the
//!   `wire_storm --verify` bitwise comparison against in-process
//!   scoring meaningful;
//! * variable-length fields carry an explicit length prefix with a
//!   hard upper bound ([`MAX_SENSOR_ID_BYTES`], [`MAX_BATCH_RECORDS`]);
//! * encodings are canonical: a decoder rejects padding games (a label
//!   byte under a "no label" flag, trailing bytes after the last
//!   field), so `decode(encode(x)) == x` *and* `encode(decode(b)) == b`
//!   for every accepted `b`.

use occusense_dataset::{CsiRecord, N_SUBCARRIERS};
use std::error::Error;
use std::fmt;

/// Protocol revision spoken by this codec and its envelope. Bumped on
/// any layout or checksum change; a decoder refuses other versions
/// rather than guessing. Version 2 replaced version 1's FNV-1a envelope
/// checksum with XXH64 (see [`crate::frame`]); payload layouts are
/// unchanged.
pub const PROTOCOL_VERSION: u8 = 2;

/// Longest admissible `Hello` sensor id, in UTF-8 bytes.
pub const MAX_SENSOR_ID_BYTES: usize = 256;

/// Longest admissible `Hello` tenant id, in UTF-8 bytes. Tenant ids
/// are operator-chosen fleet labels, not sensor names, so the bound is
/// deliberately tighter than [`MAX_SENSOR_ID_BYTES`].
pub const MAX_TENANT_ID_BYTES: usize = 64;

/// Most records one `Batch` frame may carry.
pub const MAX_BATCH_RECORDS: usize = 512;

/// Encoded size of one [`CsiRecord`] body: timestamp + 64 subcarrier
/// amplitudes + temperature + humidity, all `f64`, plus the occupant
/// count byte.
pub const RECORD_BYTES: usize = 8 * (3 + N_SUBCARRIERS) + 1;

/// Why a byte sequence was refused. Every variant is a *typed* refusal
/// — the codec never panics on wire input, a contract enforced by the
/// occusense-lint panic/index rules over this crate and fuzzed by the
/// proptest suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The frame did not start with [`crate::frame::MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The version byte is not [`PROTOCOL_VERSION`].
    UnsupportedVersion {
        /// The version byte found.
        found: u8,
    },
    /// The reserved flags field was non-zero (no version defines flags).
    ReservedFlags {
        /// The flags value found.
        found: u16,
    },
    /// The frame-type byte names no known frame.
    UnknownFrameType {
        /// The type byte found.
        found: u8,
    },
    /// The input ended before a field (or the payload itself) was
    /// complete.
    Truncated {
        /// Bytes the next field needed.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The header checksum does not match the payload.
    ChecksumMismatch {
        /// Checksum claimed by the header.
        expected: u64,
        /// Checksum computed over the received payload.
        computed: u64,
    },
    /// The declared payload length exceeds the receiver's limit.
    Oversize {
        /// Declared payload length.
        len: usize,
        /// The receiver's configured maximum.
        max: usize,
    },
    /// A `Hello` sensor id longer than [`MAX_SENSOR_ID_BYTES`].
    SensorIdTooLong {
        /// Declared id length.
        len: usize,
    },
    /// A `Hello` tenant id longer than [`MAX_TENANT_ID_BYTES`].
    TenantIdTooLong {
        /// Declared tenant id length.
        len: usize,
    },
    /// A `Hello` sensor or tenant id that is not valid UTF-8.
    BadUtf8,
    /// A `Batch` declaring more than [`MAX_BATCH_RECORDS`] records.
    BatchTooLarge {
        /// Declared record count.
        count: usize,
    },
    /// A label-presence flag that is neither 0 nor 1, or a non-zero
    /// label byte under flag 0 (non-canonical encoding).
    BadLabelFlag {
        /// The flag byte found.
        found: u8,
    },
    /// A NACK reason byte naming no [`NackReason`].
    BadNackReason {
        /// The reason byte found.
        found: u8,
    },
    /// Bytes left over after the last field of the payload.
    TrailingBytes {
        /// How many bytes remained.
        extra: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic { found } => write!(f, "bad frame magic {found:02x?}"),
            DecodeError::UnsupportedVersion { found } => {
                write!(f, "unsupported protocol version {found} (speak v{PROTOCOL_VERSION})")
            }
            DecodeError::ReservedFlags { found } => {
                write!(f, "reserved flags must be zero, found {found:#06x}")
            }
            DecodeError::UnknownFrameType { found } => write!(f, "unknown frame type {found}"),
            DecodeError::Truncated { needed, have } => {
                write!(f, "truncated input: needed {needed} bytes, have {have}")
            }
            DecodeError::ChecksumMismatch { expected, computed } => write!(
                f,
                "checksum mismatch: header says {expected:#018x}, payload hashes to {computed:#018x}"
            ),
            DecodeError::Oversize { len, max } => {
                write!(f, "payload of {len} bytes exceeds the {max}-byte limit")
            }
            DecodeError::SensorIdTooLong { len } => {
                write!(f, "sensor id of {len} bytes exceeds {MAX_SENSOR_ID_BYTES}")
            }
            DecodeError::TenantIdTooLong { len } => {
                write!(f, "tenant id of {len} bytes exceeds {MAX_TENANT_ID_BYTES}")
            }
            DecodeError::BadUtf8 => write!(f, "sensor or tenant id is not valid UTF-8"),
            DecodeError::BatchTooLarge { count } => {
                write!(f, "batch of {count} records exceeds {MAX_BATCH_RECORDS}")
            }
            DecodeError::BadLabelFlag { found } => {
                write!(f, "non-canonical label flag byte {found}")
            }
            DecodeError::BadNackReason { found } => write!(f, "unknown NACK reason {found}"),
            DecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the last payload field")
            }
        }
    }
}

impl Error for DecodeError {}

/// Why a frame refused to *encode*. Encoding is fallible only for the
/// two dynamic bounds of the protocol; a conforming producer (the
/// client library chunks batches at [`MAX_BATCH_RECORDS`]) never sees
/// these. Before this error existed the encoder silently truncated the
/// offending field — possibly mid-UTF-8-codepoint for a sensor id, and
/// desynchronizing `first_seq` accounting for a batch — so the refusal
/// is typed and loud instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// A `Hello` sensor id longer than [`MAX_SENSOR_ID_BYTES`].
    SensorIdTooLong {
        /// The id's UTF-8 length in bytes.
        len: usize,
    },
    /// A `Hello` tenant id longer than [`MAX_TENANT_ID_BYTES`].
    TenantIdTooLong {
        /// The tenant id's UTF-8 length in bytes.
        len: usize,
    },
    /// A `Batch` holding more than [`MAX_BATCH_RECORDS`] records.
    BatchTooLarge {
        /// The batch's record count.
        count: usize,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::SensorIdTooLong { len } => {
                write!(
                    f,
                    "refusing to encode a {len}-byte sensor id (limit {MAX_SENSOR_ID_BYTES})"
                )
            }
            EncodeError::TenantIdTooLong { len } => {
                write!(
                    f,
                    "refusing to encode a {len}-byte tenant id (limit {MAX_TENANT_ID_BYTES})"
                )
            }
            EncodeError::BatchTooLarge { count } => {
                write!(
                    f,
                    "refusing to encode a {count}-record batch (limit {MAX_BATCH_RECORDS})"
                )
            }
        }
    }
}

impl Error for EncodeError {}

/// A client's opening frame: protocol version check + sensor identity
/// + tenant claim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// The protocol version the client speaks.
    pub protocol: u8,
    /// Stable sensor identity; the gateway hash-routes on it, so the
    /// same id always lands on the same shard.
    pub sensor_id: String,
    /// The tenant this sensor claims to belong to. A gateway serving a
    /// specific tenant refuses mismatched claims at the handshake; the
    /// empty string is the default (untenanted) namespace accepted by
    /// gateways that enforce no tenant.
    pub tenant: String,
}

/// The gateway's handshake answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloAck {
    /// The protocol version the gateway speaks.
    pub protocol: u8,
    /// The worker shard this sensor's records are routed to.
    pub shard: u32,
}

/// One CSI record in flight, with the client's sequence number and an
/// optional ground-truth label (which feeds the continual trainer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordFrame {
    /// Client-assigned, strictly increasing per connection; predictions
    /// and NACKs echo it back, so the client can correlate.
    pub seq: u64,
    /// Ground-truth occupancy, when the sensor knows it.
    pub label: Option<u8>,
    /// The measurement itself.
    pub record: CsiRecord,
}

/// A run of consecutive records sharing one envelope: record `i`
/// implicitly carries sequence number `first_seq + i`.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchFrame {
    /// Sequence number of the first record.
    pub first_seq: u64,
    /// The records with their optional labels, in sequence order.
    pub records: Vec<(CsiRecord, Option<u8>)>,
}

/// One scored record streaming back to its sensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictionFrame {
    /// Echo of the client sequence number that produced this score.
    pub seq: u64,
    /// The record's scenario timestamp (bit-exact echo).
    pub timestamp_s: f64,
    /// Predicted binary occupancy.
    pub occupied: u8,
    /// Positive-class probability, bit-exact from the model.
    pub proba: f64,
    /// Version of the model snapshot that scored the record.
    pub model_version: u64,
    /// Ingest→scored latency in nanoseconds, as measured by the server.
    pub latency_ns: u64,
}

/// Why the gateway refused a record (the wire face of
/// [`occusense_serve::SubmitError`] plus protocol-level refusals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NackReason {
    /// The shard queue was full under `RejectNewest`; retry later.
    QueueFull,
    /// The runtime is shutting down; the record was shed.
    Shutdown,
    /// The frame failed to decode; the connection closes after this.
    Malformed,
    /// A frame type the gateway does not accept from clients, or a
    /// protocol version mismatch in the handshake.
    Unsupported,
}

impl NackReason {
    /// The wire byte for this reason (`1..=4`).
    pub fn to_byte(self) -> u8 {
        match self {
            NackReason::QueueFull => 1,
            NackReason::Shutdown => 2,
            NackReason::Malformed => 3,
            NackReason::Unsupported => 4,
        }
    }

    /// Parses a wire byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError::BadNackReason`] for anything outside `1..=4`.
    pub fn from_byte(b: u8) -> Result<Self, DecodeError> {
        match b {
            1 => Ok(NackReason::QueueFull),
            2 => Ok(NackReason::Shutdown),
            3 => Ok(NackReason::Malformed),
            4 => Ok(NackReason::Unsupported),
            found => Err(DecodeError::BadNackReason { found }),
        }
    }
}

impl fmt::Display for NackReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            NackReason::QueueFull => "queue-full",
            NackReason::Shutdown => "shutdown",
            NackReason::Malformed => "malformed",
            NackReason::Unsupported => "unsupported",
        };
        write!(f, "{name}")
    }
}

/// An explicit refusal: the record numbered `seq` produced no
/// prediction and never will.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NackFrame {
    /// The refused record's client sequence number.
    pub seq: u64,
    /// Why it was refused.
    pub reason: NackReason,
}

/// Orderly end-of-stream, sent by both sides: the client announces how
/// many records it sent, the gateway (after draining) how many
/// predictions it delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Goodbye {
    /// Records sent (client→gateway) or predictions delivered
    /// (gateway→client) on this connection.
    pub count: u64,
}

/// Every frame of the protocol.
// The `Record` variant carries its 537-byte `CsiRecord` inline on
// purpose: boxing it would put a heap allocation on the per-record
// hot path of every sensor connection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client handshake.
    Hello(Hello),
    /// Gateway handshake answer.
    HelloAck(HelloAck),
    /// One record for scoring.
    Record(RecordFrame),
    /// A batch of consecutive records.
    Batch(BatchFrame),
    /// One scored record.
    Prediction(PredictionFrame),
    /// An explicit per-record refusal.
    Nack(NackFrame),
    /// Orderly end-of-stream.
    Goodbye(Goodbye),
}

impl Frame {
    /// The frame-type byte used in the envelope header.
    pub fn frame_type(&self) -> u8 {
        match self {
            Frame::Hello(_) => 1,
            Frame::HelloAck(_) => 2,
            Frame::Record(_) => 3,
            Frame::Batch(_) => 4,
            Frame::Prediction(_) => 5,
            Frame::Nack(_) => 6,
            Frame::Goodbye(_) => 7,
        }
    }

    /// Human-readable frame-type name (diagnostics only).
    pub fn type_name(&self) -> &'static str {
        match self {
            Frame::Hello(_) => "Hello",
            Frame::HelloAck(_) => "HelloAck",
            Frame::Record(_) => "Record",
            Frame::Batch(_) => "Batch",
            Frame::Prediction(_) => "Prediction",
            Frame::Nack(_) => "Nack",
            Frame::Goodbye(_) => "Goodbye",
        }
    }
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_label(out: &mut Vec<u8>, label: Option<u8>) {
    match label {
        Some(l) => {
            out.push(1);
            out.push(l);
        }
        None => {
            out.push(0);
            out.push(0);
        }
    }
}

/// Appends a record's fixed-width body — timestamp, the subcarrier
/// amplitudes, temperature, humidity (all `f64` bits, little-endian),
/// then the occupant count — assembled on the stack and copied in
/// once. One straight loop per field group (rather than one chained
/// iterator) keeps each loop a plain unrolled store sequence.
fn put_record(out: &mut Vec<u8>, record: &CsiRecord) {
    let mut body = [0u8; RECORD_BYTES];
    let mut words = body.chunks_exact_mut(8);
    for (v, dst) in [record.timestamp_s].iter().zip(words.by_ref()) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
    for (v, dst) in record.csi.iter().zip(words.by_ref()) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
    for (v, dst) in [record.temperature_c, record.humidity_pct]
        .iter()
        .zip(words.by_ref())
    {
        dst.copy_from_slice(&v.to_le_bytes());
    }
    if let Some(count) = body.last_mut() {
        *count = record.occupant_count;
    }
    out.extend_from_slice(&body);
}

/// Appends the payload bytes of `frame` (body only, no envelope) to
/// `out`. Within the protocol bounds encoding is total: every
/// admissible `Frame` value has exactly one byte representation.
///
/// # Errors
///
/// [`EncodeError`] when a dynamic field exceeds its protocol bound (a
/// sensor id beyond [`MAX_SENSOR_ID_BYTES`], a batch beyond
/// [`MAX_BATCH_RECORDS`]). Bounds are checked *before* any byte is
/// written, so `out` is untouched on error.
pub fn encode_payload(frame: &Frame, out: &mut Vec<u8>) -> Result<(), EncodeError> {
    match frame {
        Frame::Hello(h) => {
            let id = h.sensor_id.as_bytes();
            if id.len() > MAX_SENSOR_ID_BYTES {
                return Err(EncodeError::SensorIdTooLong { len: id.len() });
            }
            let tenant = h.tenant.as_bytes();
            if tenant.len() > MAX_TENANT_ID_BYTES {
                return Err(EncodeError::TenantIdTooLong { len: tenant.len() });
            }
            out.push(h.protocol);
            put_u16(out, id.len() as u16);
            out.extend_from_slice(id);
            put_u16(out, tenant.len() as u16);
            out.extend_from_slice(tenant);
        }
        Frame::HelloAck(a) => {
            out.push(a.protocol);
            put_u32(out, a.shard);
        }
        Frame::Record(r) => {
            out.reserve(10 + RECORD_BYTES);
            put_u64(out, r.seq);
            put_label(out, r.label);
            put_record(out, &r.record);
        }
        Frame::Batch(b) => {
            if b.records.len() > MAX_BATCH_RECORDS {
                return Err(EncodeError::BatchTooLarge {
                    count: b.records.len(),
                });
            }
            out.reserve(10 + b.records.len() * BATCH_RECORD_STRIDE);
            put_u64(out, b.first_seq);
            put_u16(out, b.records.len() as u16);
            for (record, label) in &b.records {
                put_label(out, *label);
                put_record(out, record);
            }
        }
        Frame::Prediction(p) => {
            put_u64(out, p.seq);
            put_f64(out, p.timestamp_s);
            out.push(p.occupied);
            put_f64(out, p.proba);
            put_u64(out, p.model_version);
            put_u64(out, p.latency_ns);
        }
        Frame::Nack(n) => {
            put_u64(out, n.seq);
            out.push(n.reason.to_byte());
        }
        Frame::Goodbye(g) => {
            put_u64(out, g.count);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

/// Bounds-checked cursor over a payload. Every accessor returns
/// `Truncated` instead of panicking when the bytes run out.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let have = self.bytes.len().saturating_sub(self.pos);
        let end = self
            .pos
            .checked_add(n)
            .ok_or(DecodeError::Truncated { needed: n, have })?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(DecodeError::Truncated { needed: n, have })?;
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        self.take(1)?
            .first()
            .copied()
            .ok_or(DecodeError::Truncated { needed: 1, have: 0 })
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        let mut raw = [0u8; 2];
        raw.copy_from_slice(self.take(2)?);
        Ok(u16::from_le_bytes(raw))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(raw))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(raw))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn label(&mut self) -> Result<Option<u8>, DecodeError> {
        let flag = self.u8()?;
        let value = self.u8()?;
        match (flag, value) {
            (0, 0) => Ok(None),
            (1, v) => Ok(Some(v)),
            (found, _) => Err(DecodeError::BadLabelFlag { found }),
        }
    }

    fn record(&mut self) -> Result<CsiRecord, DecodeError> {
        let timestamp_s = self.f64()?;
        let mut csi = [0.0f64; N_SUBCARRIERS];
        for slot in csi.iter_mut() {
            *slot = self.f64()?;
        }
        let temperature_c = self.f64()?;
        let humidity_pct = self.f64()?;
        let occupant_count = self.u8()?;
        Ok(CsiRecord {
            timestamp_s,
            csi,
            temperature_c,
            humidity_pct,
            occupant_count,
        })
    }

    /// Canonical-encoding check: the payload must be fully consumed.
    fn finish(self) -> Result<(), DecodeError> {
        let extra = self.bytes.len().saturating_sub(self.pos);
        if extra == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes { extra })
        }
    }
}

/// Bytes one batched record occupies on the wire: label flag + label
/// value + the record body.
const BATCH_RECORD_STRIDE: usize = 2 + RECORD_BYTES;

/// A *borrowed* view over a validated `Batch` payload: the records stay
/// in the receive buffer and are decoded one at a time as the iterator
/// walks them, so the gateway hot path never materialises the
/// per-frame `Vec<(CsiRecord, Option<u8>)>` that [`BatchFrame`] carries.
///
/// [`BatchView::parse`] performs *all* validation up front (count
/// bound, exact payload length, every label flag canonical), which is
/// what lets [`BatchRecords`] iterate infallibly — an all-or-nothing
/// contract identical to [`decode_payload`]'s: a malformed batch
/// yields zero records, never a prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchView<'a> {
    first_seq: u64,
    count: usize,
    body: &'a [u8],
}

impl<'a> BatchView<'a> {
    /// Validates a `Batch` payload (envelope already checked) and
    /// returns a borrowed view over its records.
    ///
    /// # Errors
    ///
    /// The same [`DecodeError`] classes [`decode_payload`] reports for
    /// frame type 4; never panics, whatever the input bytes.
    pub fn parse(payload: &'a [u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(payload);
        let first_seq = r.u64()?;
        let count = r.u16()? as usize;
        if count > MAX_BATCH_RECORDS {
            return Err(DecodeError::BatchTooLarge { count });
        }
        let body = r.take(count * BATCH_RECORD_STRIDE)?;
        r.finish()?;
        // Pre-validate every label pair so iteration cannot fail.
        for i in 0..count {
            let off = i * BATCH_RECORD_STRIDE;
            let flag = body.get(off).copied().unwrap_or(0);
            let value = body.get(off + 1).copied().unwrap_or(0);
            match (flag, value) {
                (0, 0) | (1, _) => {}
                (found, _) => return Err(DecodeError::BadLabelFlag { found }),
            }
        }
        Ok(Self {
            first_seq,
            count,
            body,
        })
    }

    /// Sequence number of the first record in the batch.
    pub fn first_seq(&self) -> u64 {
        self.first_seq
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the batch carries no records.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterates `(seq, record, label)` straight out of the payload
    /// bytes; `seq` is `first_seq + index` with wrapping arithmetic,
    /// matching the gateway's per-record accounting.
    pub fn records(&self) -> BatchRecords<'a> {
        BatchRecords {
            first_seq: self.first_seq,
            body: self.body,
            index: 0,
            count: self.count,
        }
    }
}

/// Iterator over the records of a [`BatchView`]; see
/// [`BatchView::records`].
#[derive(Debug, Clone)]
pub struct BatchRecords<'a> {
    first_seq: u64,
    body: &'a [u8],
    index: usize,
    count: usize,
}

impl Iterator for BatchRecords<'_> {
    type Item = (u64, CsiRecord, Option<u8>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.index == self.count {
            return None;
        }
        let off = self.index * BATCH_RECORD_STRIDE;
        let chunk = self.body.get(off..off + BATCH_RECORD_STRIDE)?;
        let mut r = Reader::new(chunk);
        // Both reads are infallible after `parse` validated the layout;
        // the `ok()?` keeps the path typed and panic-free regardless.
        let label = r.label().ok()?;
        let record = r.record().ok()?;
        let seq = self.first_seq.wrapping_add(self.index as u64);
        self.index += 1;
        Some((seq, record, label))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.count.saturating_sub(self.index);
        (left, Some(left))
    }
}

impl ExactSizeIterator for BatchRecords<'_> {}

/// Decodes the payload of a frame whose envelope already validated
/// (length, checksum). `frame_type` comes from the envelope header.
///
/// # Errors
///
/// Any [`DecodeError`]; never panics, whatever the input bytes.
pub fn decode_payload(frame_type: u8, payload: &[u8]) -> Result<Frame, DecodeError> {
    let mut r = Reader::new(payload);
    let frame = match frame_type {
        1 => {
            let protocol = r.u8()?;
            let len = r.u16()? as usize;
            if len > MAX_SENSOR_ID_BYTES {
                return Err(DecodeError::SensorIdTooLong { len });
            }
            let raw = r.take(len)?;
            let sensor_id = std::str::from_utf8(raw)
                .map_err(|_| DecodeError::BadUtf8)?
                .to_string();
            let tenant_len = r.u16()? as usize;
            if tenant_len > MAX_TENANT_ID_BYTES {
                return Err(DecodeError::TenantIdTooLong { len: tenant_len });
            }
            let raw = r.take(tenant_len)?;
            let tenant = std::str::from_utf8(raw)
                .map_err(|_| DecodeError::BadUtf8)?
                .to_string();
            Frame::Hello(Hello {
                protocol,
                sensor_id,
                tenant,
            })
        }
        2 => {
            let protocol = r.u8()?;
            let shard = r.u32()?;
            Frame::HelloAck(HelloAck { protocol, shard })
        }
        3 => {
            let seq = r.u64()?;
            let label = r.label()?;
            let record = r.record()?;
            Frame::Record(RecordFrame { seq, label, record })
        }
        4 => {
            // The borrowed view owns all batch validation (including
            // the canonical-length check), so return straight from it.
            let view = BatchView::parse(payload)?;
            let mut records = Vec::with_capacity(view.len());
            records.extend(view.records().map(|(_seq, record, label)| (record, label)));
            return Ok(Frame::Batch(BatchFrame {
                first_seq: view.first_seq(),
                records,
            }));
        }
        5 => {
            let seq = r.u64()?;
            let timestamp_s = r.f64()?;
            let occupied = r.u8()?;
            let proba = r.f64()?;
            let model_version = r.u64()?;
            let latency_ns = r.u64()?;
            Frame::Prediction(PredictionFrame {
                seq,
                timestamp_s,
                occupied,
                proba,
                model_version,
                latency_ns,
            })
        }
        6 => {
            let seq = r.u64()?;
            let reason = NackReason::from_byte(r.u8()?)?;
            Frame::Nack(NackFrame { seq, reason })
        }
        7 => {
            let count = r.u64()?;
            Frame::Goodbye(Goodbye { count })
        }
        found => return Err(DecodeError::UnknownFrameType { found }),
    };
    r.finish()?;
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(seed: u64) -> CsiRecord {
        let mut csi = [0.0f64; N_SUBCARRIERS];
        for (i, amp) in csi.iter_mut().enumerate() {
            *amp = (seed as f64 + i as f64 * 0.25).sin() * 12.5;
        }
        CsiRecord {
            timestamp_s: seed as f64 * 0.5,
            csi,
            temperature_c: 21.5,
            humidity_pct: 38.25,
            occupant_count: (seed % 7) as u8,
        }
    }

    fn round_trip(frame: Frame) {
        let mut bytes = Vec::new();
        encode_payload(&frame, &mut bytes).unwrap();
        let back = decode_payload(frame.frame_type(), &bytes).unwrap();
        assert_eq!(back, frame);
        // Canonical: re-encoding the decoded frame reproduces the bytes.
        let mut again = Vec::new();
        encode_payload(&back, &mut again).unwrap();
        assert_eq!(again, bytes);
    }

    #[test]
    fn every_frame_type_round_trips() {
        round_trip(Frame::Hello(Hello {
            protocol: PROTOCOL_VERSION,
            sensor_id: "node-7/room-b".into(),
            tenant: "acme-labs".into(),
        }));
        round_trip(Frame::Hello(Hello {
            protocol: PROTOCOL_VERSION,
            sensor_id: "untenanted".into(),
            tenant: String::new(),
        }));
        round_trip(Frame::HelloAck(HelloAck {
            protocol: PROTOCOL_VERSION,
            shard: 3,
        }));
        round_trip(Frame::Record(RecordFrame {
            seq: 42,
            label: Some(1),
            record: sample_record(42),
        }));
        round_trip(Frame::Record(RecordFrame {
            seq: 43,
            label: None,
            record: sample_record(43),
        }));
        round_trip(Frame::Batch(BatchFrame {
            first_seq: 100,
            records: (0..5)
                .map(|i| (sample_record(i), Some((i % 2) as u8)))
                .collect(),
        }));
        round_trip(Frame::Prediction(PredictionFrame {
            seq: 9,
            timestamp_s: 1234.5,
            occupied: 1,
            proba: 0.875,
            model_version: 2,
            latency_ns: 48_000,
        }));
        round_trip(Frame::Nack(NackFrame {
            seq: 11,
            reason: NackReason::QueueFull,
        }));
        round_trip(Frame::Goodbye(Goodbye { count: 5000 }));
    }

    #[test]
    fn nan_and_negative_zero_survive_bit_for_bit() {
        let mut record = sample_record(1);
        record.csi[0] = f64::from_bits(0x7ff8_0000_dead_beef); // NaN payload
        record.csi[1] = -0.0;
        record.humidity_pct = f64::NEG_INFINITY;
        let frame = Frame::Record(RecordFrame {
            seq: 0,
            label: None,
            record,
        });
        let mut bytes = Vec::new();
        encode_payload(&frame, &mut bytes).unwrap();
        let Frame::Record(back) = decode_payload(3, &bytes).unwrap() else {
            panic!("wrong frame type");
        };
        assert_eq!(back.record.csi[0].to_bits(), record.csi[0].to_bits());
        assert_eq!(back.record.csi[1].to_bits(), record.csi[1].to_bits());
        assert_eq!(
            back.record.humidity_pct.to_bits(),
            record.humidity_pct.to_bits()
        );
    }

    #[test]
    fn truncation_of_every_prefix_is_a_typed_error() {
        let frame = Frame::Record(RecordFrame {
            seq: 7,
            label: Some(1),
            record: sample_record(7),
        });
        let mut bytes = Vec::new();
        encode_payload(&frame, &mut bytes).unwrap();
        for cut in 0..bytes.len() {
            let err = decode_payload(3, &bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, DecodeError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn non_canonical_encodings_are_rejected() {
        // Trailing byte after a Goodbye.
        let mut bytes = Vec::new();
        encode_payload(&Frame::Goodbye(Goodbye { count: 1 }), &mut bytes).unwrap();
        bytes.push(0);
        assert_eq!(
            decode_payload(7, &bytes),
            Err(DecodeError::TrailingBytes { extra: 1 })
        );

        // Label byte smuggled under flag 0.
        let mut bytes = Vec::new();
        encode_payload(
            &Frame::Record(RecordFrame {
                seq: 0,
                label: None,
                record: sample_record(0),
            }),
            &mut bytes,
        )
        .unwrap();
        bytes[9] = 3; // label value byte while flag (offset 8) is 0
        assert_eq!(
            decode_payload(3, &bytes),
            Err(DecodeError::BadLabelFlag { found: 0 })
        );
    }

    #[test]
    fn bound_violations_are_typed() {
        // Batch count beyond the cap.
        let mut bytes = Vec::new();
        put_u64(&mut bytes, 0);
        put_u16(&mut bytes, (MAX_BATCH_RECORDS + 1) as u16);
        assert_eq!(
            decode_payload(4, &bytes),
            Err(DecodeError::BatchTooLarge {
                count: MAX_BATCH_RECORDS + 1
            })
        );

        // Sensor id beyond the cap.
        let mut bytes = vec![PROTOCOL_VERSION];
        put_u16(&mut bytes, (MAX_SENSOR_ID_BYTES + 1) as u16);
        assert_eq!(
            decode_payload(1, &bytes),
            Err(DecodeError::SensorIdTooLong {
                len: MAX_SENSOR_ID_BYTES + 1
            })
        );

        // Invalid UTF-8 id.
        let mut bytes = vec![PROTOCOL_VERSION];
        put_u16(&mut bytes, 2);
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(decode_payload(1, &bytes), Err(DecodeError::BadUtf8));

        // Tenant id beyond the cap.
        let mut bytes = vec![PROTOCOL_VERSION];
        put_u16(&mut bytes, 1);
        bytes.push(b's');
        put_u16(&mut bytes, (MAX_TENANT_ID_BYTES + 1) as u16);
        assert_eq!(
            decode_payload(1, &bytes),
            Err(DecodeError::TenantIdTooLong {
                len: MAX_TENANT_ID_BYTES + 1
            })
        );

        // Invalid UTF-8 tenant.
        let mut bytes = vec![PROTOCOL_VERSION];
        put_u16(&mut bytes, 1);
        bytes.push(b's');
        put_u16(&mut bytes, 2);
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(decode_payload(1, &bytes), Err(DecodeError::BadUtf8));

        // Unknown NACK reason.
        let mut bytes = Vec::new();
        put_u64(&mut bytes, 1);
        bytes.push(99);
        assert_eq!(
            decode_payload(6, &bytes),
            Err(DecodeError::BadNackReason { found: 99 })
        );

        // Unknown frame type.
        assert_eq!(
            decode_payload(200, &[]),
            Err(DecodeError::UnknownFrameType { found: 200 })
        );
    }

    #[test]
    fn record_bytes_matches_the_layout() {
        let mut bytes = Vec::new();
        put_record(&mut bytes, &sample_record(0));
        assert_eq!(bytes.len(), RECORD_BYTES);
    }

    #[test]
    fn oversize_fields_refuse_to_encode_and_leave_out_untouched() {
        let hello = Frame::Hello(Hello {
            protocol: PROTOCOL_VERSION,
            sensor_id: "é".repeat(MAX_SENSOR_ID_BYTES), // 2 bytes per char
            tenant: String::new(),
        });
        let mut out = vec![0xAA];
        assert_eq!(
            encode_payload(&hello, &mut out),
            Err(EncodeError::SensorIdTooLong {
                len: 2 * MAX_SENSOR_ID_BYTES
            })
        );
        assert_eq!(
            out,
            vec![0xAA],
            "failed encode must not write partial bytes"
        );

        let hello = Frame::Hello(Hello {
            protocol: PROTOCOL_VERSION,
            sensor_id: "ok".into(),
            tenant: "t".repeat(MAX_TENANT_ID_BYTES + 1),
        });
        assert_eq!(
            encode_payload(&hello, &mut out),
            Err(EncodeError::TenantIdTooLong {
                len: MAX_TENANT_ID_BYTES + 1
            })
        );
        assert_eq!(out, vec![0xAA]);

        let batch = Frame::Batch(BatchFrame {
            first_seq: 7,
            records: vec![(sample_record(0), None); MAX_BATCH_RECORDS + 1],
        });
        assert_eq!(
            encode_payload(&batch, &mut out),
            Err(EncodeError::BatchTooLarge {
                count: MAX_BATCH_RECORDS + 1
            })
        );
        assert_eq!(out, vec![0xAA]);
    }

    #[test]
    fn encode_accepts_fields_exactly_at_the_bounds() {
        round_trip(Frame::Hello(Hello {
            protocol: PROTOCOL_VERSION,
            sensor_id: "x".repeat(MAX_SENSOR_ID_BYTES),
            tenant: "t".repeat(MAX_TENANT_ID_BYTES),
        }));
        round_trip(Frame::Batch(BatchFrame {
            first_seq: u64::MAX - 3,
            records: vec![(sample_record(1), Some(2)); MAX_BATCH_RECORDS],
        }));
    }

    #[test]
    fn batch_view_matches_decode_payload_with_wrapping_seqs() {
        let frame = Frame::Batch(BatchFrame {
            first_seq: u64::MAX - 1,
            records: (0..5)
                .map(|i| (sample_record(i), (i % 2 == 0).then_some(i as u8)))
                .collect(),
        });
        let mut bytes = Vec::new();
        encode_payload(&frame, &mut bytes).unwrap();

        let view = BatchView::parse(&bytes).unwrap();
        assert_eq!(view.len(), 5);
        assert_eq!(view.first_seq(), u64::MAX - 1);
        let Frame::Batch(owned) = decode_payload(4, &bytes).unwrap() else {
            panic!("wrong frame type");
        };
        let mut expect_seq = u64::MAX - 1;
        for ((seq, record, label), (owned_record, owned_label)) in
            view.records().zip(owned.records.iter())
        {
            assert_eq!(seq, expect_seq);
            assert_eq!(&record, owned_record);
            assert_eq!(&label, owned_label);
            expect_seq = expect_seq.wrapping_add(1);
        }
    }

    #[test]
    fn batch_view_is_all_or_nothing_on_malformed_input() {
        let frame = Frame::Batch(BatchFrame {
            first_seq: 0,
            records: vec![(sample_record(0), None), (sample_record(1), None)],
        });
        let mut bytes = Vec::new();
        encode_payload(&frame, &mut bytes).unwrap();

        // Corrupt the *second* record's label flag: parse must refuse
        // the whole batch, not yield the first record.
        let off = 8 + 2 + BATCH_RECORD_STRIDE;
        bytes[off] = 9;
        assert_eq!(
            BatchView::parse(&bytes),
            Err(DecodeError::BadLabelFlag { found: 9 })
        );

        // Truncated body: typed error, no partial view.
        assert!(matches!(
            BatchView::parse(&bytes[..bytes.len() - 1]),
            Err(DecodeError::Truncated { .. })
        ));
    }
}
