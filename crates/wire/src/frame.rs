//! The frame envelope: magic, version, length prefix and checksum
//! around every [`codec`](crate::codec) payload.
//!
//! Layout of the 20-byte header (all little-endian):
//!
//! ```text
//! offset  size  field
//!      0     4  magic            b"OCW1" (fixed across versions)
//!      4     1  version          PROTOCOL_VERSION (2)
//!      5     1  frame_type       1..=7, see codec::Frame::frame_type
//!      6     2  flags            reserved, must be 0
//!      8     4  payload_len      bytes of payload following the header
//!     12     8  checksum         XXH64 of the payload, seeded with frame_type
//! ```
//!
//! The checksum covers the frame-type byte as well as the payload (the
//! type is the hash seed), so a bit-flip that relabels a frame (turning
//! a `Record` into a `Nack` of the same length) is caught even when the
//! payload happens to parse under both types. XXH64 is an
//! error-*detection* hash here, not authentication — the transport
//! boundary is assumed to be a trusted lab/edge network, exactly like
//! the Nexmon sensor links of the source paper.
//!
//! Version 1 checksummed `frame_type ++ payload` with byte-serial
//! FNV-1a-64; version 2 changed only the checksum. The magic stays
//! `OCW1` so a version-1 peer's frames still parse far enough to be
//! refused as [`DecodeError::UnsupportedVersion`].

use crate::codec::{self, DecodeError, EncodeError, Frame, PROTOCOL_VERSION};

/// The four magic bytes opening every frame ("OCcusense Wire"; the
/// trailing `1` predates the version byte and never changes).
pub const MAGIC: [u8; 4] = *b"OCW1";

/// Size of the fixed envelope header.
pub const HEADER_BYTES: usize = 20;

/// Default per-frame payload ceiling: comfortably above the largest
/// legal frame (a full 512-record batch is ~276 KiB) while bounding
/// what a broken peer can make a receiver buffer.
pub const DEFAULT_MAX_PAYLOAD: usize = 1 << 20;

/// The parsed fixed header of one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Frame-type byte (validated against the known set only when the
    /// payload is decoded).
    pub frame_type: u8,
    /// Bytes of payload following the header.
    pub payload_len: usize,
    /// The sender's [`checksum_of`] the frame type and payload, checked
    /// against the received payload before it is decoded.
    pub checksum: u64,
}

/// The envelope checksum of a frame: XXH64 of the payload, seeded with
/// the frame-type byte ([`occusense_core::hash::xxh64`]).
pub fn checksum_of(frame_type: u8, payload: &[u8]) -> u64 {
    occusense_core::hash::xxh64(payload, u64::from(frame_type))
}

/// Parses the fixed header at the start of `bytes`.
///
/// # Errors
///
/// [`DecodeError::Truncated`] when fewer than [`HEADER_BYTES`] are
/// available (the caller should read more and retry), plus the magic /
/// version / reserved-flags refusals.
pub fn decode_header(bytes: &[u8]) -> Result<FrameHeader, DecodeError> {
    if bytes.len() < HEADER_BYTES {
        return Err(DecodeError::Truncated {
            needed: HEADER_BYTES,
            have: bytes.len(),
        });
    }
    let field = |at: usize, n: usize| -> &[u8] {
        // In range by the length check above; `unwrap_or_default`
        // keeps the path panic-free regardless.
        bytes.get(at..at + n).unwrap_or_default()
    };
    let mut magic = [0u8; 4];
    magic.copy_from_slice(field(0, 4));
    if magic != MAGIC {
        return Err(DecodeError::BadMagic { found: magic });
    }
    let version = field(4, 1).first().copied().unwrap_or(0);
    if version != PROTOCOL_VERSION {
        return Err(DecodeError::UnsupportedVersion { found: version });
    }
    let frame_type = field(5, 1).first().copied().unwrap_or(0);
    let mut flags_raw = [0u8; 2];
    flags_raw.copy_from_slice(field(6, 2));
    let flags = u16::from_le_bytes(flags_raw);
    if flags != 0 {
        return Err(DecodeError::ReservedFlags { found: flags });
    }
    let mut len_raw = [0u8; 4];
    len_raw.copy_from_slice(field(8, 4));
    let payload_len = u32::from_le_bytes(len_raw) as usize;
    let mut sum_raw = [0u8; 8];
    sum_raw.copy_from_slice(field(12, 8));
    let checksum = u64::from_le_bytes(sum_raw);
    Ok(FrameHeader {
        frame_type,
        payload_len,
        checksum,
    })
}

/// Reusable frame encoder: owns a payload scratch buffer so steady-
/// state encoding performs no allocation beyond the caller's output
/// vector.
#[derive(Debug, Default)]
pub struct Encoder {
    payload: Vec<u8>,
}

impl Encoder {
    /// A fresh encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the full wire image (header + payload) of `frame` to
    /// `out`.
    ///
    /// # Errors
    ///
    /// [`EncodeError`] when a payload field exceeds its protocol bound;
    /// `out` is untouched on error.
    pub fn encode_into(&mut self, frame: &Frame, out: &mut Vec<u8>) -> Result<(), EncodeError> {
        self.payload.clear();
        codec::encode_payload(frame, &mut self.payload)?;
        let frame_type = frame.frame_type();
        out.extend_from_slice(&MAGIC);
        out.push(PROTOCOL_VERSION);
        out.push(frame_type);
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&checksum_of(frame_type, &self.payload).to_le_bytes());
        out.extend_from_slice(&self.payload);
        Ok(())
    }

    /// The full wire image of `frame` as a fresh vector.
    ///
    /// # Errors
    ///
    /// [`EncodeError`] when a payload field exceeds its protocol bound.
    pub fn encode(&mut self, frame: &Frame) -> Result<Vec<u8>, EncodeError> {
        let mut out = Vec::with_capacity(HEADER_BYTES + 64);
        self.encode_into(frame, &mut out)?;
        Ok(out)
    }
}

/// Decodes one complete frame from the start of `bytes`, returning it
/// together with the number of bytes consumed (header + payload).
///
/// # Errors
///
/// [`DecodeError::Truncated`] when the buffer holds less than a full
/// frame (read more and retry); [`DecodeError::Oversize`] when the
/// declared payload exceeds `max_payload`; checksum and payload errors
/// otherwise. Never panics.
pub fn decode_frame(bytes: &[u8], max_payload: usize) -> Result<(Frame, usize), DecodeError> {
    let header = decode_header(bytes)?;
    if header.payload_len > max_payload {
        return Err(DecodeError::Oversize {
            len: header.payload_len,
            max: max_payload,
        });
    }
    let total = HEADER_BYTES + header.payload_len;
    let payload = bytes
        .get(HEADER_BYTES..total)
        .ok_or(DecodeError::Truncated {
            needed: total,
            have: bytes.len(),
        })?;
    let computed = checksum_of(header.frame_type, payload);
    if computed != header.checksum {
        return Err(DecodeError::ChecksumMismatch {
            expected: header.checksum,
            computed,
        });
    }
    let frame = codec::decode_payload(header.frame_type, payload)?;
    Ok((frame, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Goodbye, NackFrame, NackReason};

    #[test]
    fn header_layout_is_exactly_twenty_bytes() {
        let bytes = Encoder::new()
            .encode(&Frame::Goodbye(Goodbye { count: 3 }))
            .unwrap();
        assert_eq!(bytes.len(), HEADER_BYTES + 8);
        let header = decode_header(&bytes).unwrap();
        assert_eq!(header.frame_type, 7);
        assert_eq!(header.payload_len, 8);
    }

    #[test]
    fn frames_round_trip_through_the_envelope() {
        let frame = Frame::Nack(NackFrame {
            seq: 77,
            reason: NackReason::Shutdown,
        });
        let bytes = Encoder::new().encode(&frame).unwrap();
        let (back, consumed) = decode_frame(&bytes, DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(back, frame);
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let frame = Frame::Goodbye(Goodbye { count: 123_456 });
        let clean = Encoder::new().encode(&frame).unwrap();
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut corrupt = clean.clone();
                corrupt[byte] ^= 1 << bit;
                let outcome = decode_frame(&corrupt, DEFAULT_MAX_PAYLOAD);
                assert!(
                    outcome.is_err() || outcome == Ok((frame.clone(), clean.len())),
                    "flip {byte}:{bit} silently decoded to {outcome:?}"
                );
                // A flip in the payload or type byte specifically must
                // never produce a *different* accepted frame.
                if let Ok((decoded, _)) = outcome {
                    assert_eq!(decoded, frame);
                }
            }
        }
    }

    #[test]
    fn checksum_covers_the_frame_type() {
        // Relabel a Goodbye (type 7) as a Nack envelope (type 6) with
        // an otherwise consistent header: must fail the checksum, not
        // decode as a 9-byte-starved Nack.
        let frame = Frame::Goodbye(Goodbye { count: 0 });
        let mut bytes = Encoder::new().encode(&frame).unwrap();
        bytes[5] = 6;
        assert!(matches!(
            decode_frame(&bytes, DEFAULT_MAX_PAYLOAD),
            Err(DecodeError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn oversize_and_truncation_are_typed() {
        let frame = Frame::Goodbye(Goodbye { count: 1 });
        let bytes = Encoder::new().encode(&frame).unwrap();
        assert!(matches!(
            decode_frame(&bytes, 4),
            Err(DecodeError::Oversize { len: 8, max: 4 })
        ));
        for cut in 0..bytes.len() {
            assert!(matches!(
                decode_frame(&bytes[..cut], DEFAULT_MAX_PAYLOAD),
                Err(DecodeError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn checksum_of_is_xxh64_seeded_by_the_frame_type() {
        // Pins the version-2 construction against the published XXH64
        // vectors: a peer implementing XXH64 from its specification
        // must agree with this checksum byte for byte.
        assert_eq!(checksum_of(0, b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(checksum_of(0, b"abc"), 0x44BC_2CF5_AD77_0999);
        for frame_type in [1u8, 3, 6, 7, 255] {
            for payload in [&b""[..], b"x", b"record payload bytes", &[0u8; 64]] {
                assert_eq!(
                    checksum_of(frame_type, payload),
                    occusense_core::hash::xxh64(payload, u64::from(frame_type)),
                    "type {frame_type}, payload {payload:?}"
                );
                assert_ne!(
                    checksum_of(frame_type, payload),
                    checksum_of(frame_type ^ 1, payload),
                    "the type byte must seed the checksum"
                );
            }
        }
    }

    #[test]
    fn a_version_one_envelope_is_refused_as_unsupported() {
        let mut bytes = Encoder::new()
            .encode(&Frame::Goodbye(Goodbye { count: 1 }))
            .unwrap();
        bytes[4] = 1;
        assert_eq!(
            decode_frame(&bytes, DEFAULT_MAX_PAYLOAD),
            Err(DecodeError::UnsupportedVersion { found: 1 })
        );
    }
}
