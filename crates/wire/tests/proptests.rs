//! Property-based tests for the wire codec: every frame type
//! round-trips bit-exactly through the checksummed envelope, and no
//! mangled input — truncated, corrupted, oversized or plain random —
//! ever produces anything but a typed [`DecodeError`]. The decoder
//! sits on the network boundary; these properties are the crate's
//! "no panics on attacker-controlled bytes" contract.

use occusense_dataset::CsiRecord;
use occusense_wire::{
    decode_frame, BatchFrame, DecodeError, EncodeError, Encoder, Frame, FrameBuffer, Goodbye,
    Hello, HelloAck, NackFrame, NackReason, PredictionFrame, RecordFrame, DEFAULT_MAX_PAYLOAD,
    HEADER_BYTES, MAX_BATCH_RECORDS, MAX_SENSOR_ID_BYTES, PROTOCOL_VERSION,
};
use proptest::prelude::*;

/// A record whose every `f64` comes from raw bits, so NaNs, infinities,
/// subnormals and -0.0 all flow through the codec.
fn record_from_bits(bits: &[u64], occupants: u8) -> CsiRecord {
    let f = |i: usize| f64::from_bits(bits.get(i).copied().unwrap_or(0));
    let mut csi = [0.0f64; 64];
    for (i, a) in csi.iter_mut().enumerate() {
        *a = f(i + 1);
    }
    CsiRecord::new(f(0), csi, f(65), f(66), occupants)
}

/// Encodes, decodes, re-encodes, and asserts the two encodings are
/// byte-identical. Byte comparison (rather than `PartialEq` on the
/// frames) is deliberate: the codec is canonical, so bitwise equality
/// of encodings *is* bitwise equality of frames — including NaN
/// payloads, which `f64::eq` would wrongly report as unequal.
fn assert_roundtrip(frame: &Frame) {
    let bytes = Encoder::default().encode(frame).expect("encodable frame");
    let (decoded, consumed) =
        decode_frame(&bytes, DEFAULT_MAX_PAYLOAD).expect("valid frame must decode");
    assert_eq!(
        consumed,
        bytes.len(),
        "decoder must consume the whole envelope"
    );
    assert_eq!(
        Encoder::default()
            .encode(&decoded)
            .expect("encodable frame"),
        bytes,
        "re-encoding the decoded frame must reproduce the wire bytes"
    );
}

/// The wire image of a 64-record `Batch` frame — the bulk-ingest
/// shape — whose every `f64` is raw bits drawn from `seed`
/// (splitmix64), so the checksum sees NaNs, infinities and subnormals.
fn batch64_bytes(first_seq: u64, seed: u64) -> Vec<u8> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let records = (0..64u8)
        .map(|i| {
            let bits: Vec<u64> = (0..67).map(|_| next()).collect();
            (
                record_from_bits(&bits, i % 7),
                (i % 2 == 0).then_some(i % 5),
            )
        })
        .collect();
    Encoder::default()
        .encode(&Frame::Batch(BatchFrame { first_seq, records }))
        .expect("encode")
}

/// What the reactor makes of `bytes`: its in-place frame buffer either
/// yields a verified frame, asks for more bytes, or refuses.
fn reactor_peek(bytes: &[u8]) -> Result<bool, DecodeError> {
    let mut buffer = FrameBuffer::new(DEFAULT_MAX_PAYLOAD);
    let mut fed = 0;
    while fed < bytes.len() {
        let spare = buffer.spare_mut();
        let n = spare.len().min(bytes.len() - fed);
        spare[..n].copy_from_slice(&bytes[fed..fed + n]);
        buffer.commit(n);
        fed += n;
    }
    buffer.peek().map(|frame| frame.is_some())
}

proptest! {
    #[test]
    fn batch64_corruption_is_refused_never_misdecoded(
        first_seq in 0u64..=u64::MAX,
        seed in 0u64..=u64::MAX,
        flips in prop::collection::vec(0.0f64..1.0, 1..4),
        cut_class in 0usize..3,
        cut_fraction in 0.0f64..1.0,
        relabel in 0u8..=u8::MAX,
    ) {
        let clean = batch64_bytes(first_seq, seed);
        prop_assert!(decode_frame(&clean, DEFAULT_MAX_PAYLOAD).is_ok());
        prop_assert_eq!(reactor_peek(&clean), Ok(true));

        // 1–3 distinct bit flips anywhere in header or payload.
        let mut bits: Vec<usize> = flips
            .iter()
            .map(|f| ((clean.len() * 8) as f64 * f) as usize)
            .collect();
        bits.sort_unstable();
        bits.dedup();
        let mut flipped = clean.clone();
        for bit in &bits {
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        let outcome = decode_frame(&flipped, DEFAULT_MAX_PAYLOAD);
        prop_assert!(outcome.is_err(), "flips {:?} decoded to {:?}", bits, outcome.map(|(_, n)| n));
        // The reactor may wait for bytes a grown length field promises,
        // but never hands the corrupted frame on.
        prop_assert!(reactor_peek(&flipped) != Ok(true), "flips {:?} passed the reactor", bits);

        // Truncation inside the header, exactly at its end, or inside
        // the payload: always a typed `Truncated`, never a frame.
        let cut = match cut_class {
            0 => (HEADER_BYTES as f64 * cut_fraction) as usize,
            1 => HEADER_BYTES,
            _ => HEADER_BYTES + 1 + ((clean.len() - HEADER_BYTES - 1) as f64 * cut_fraction) as usize,
        };
        prop_assert!(cut < clean.len());
        let err = decode_frame(&clean[..cut], DEFAULT_MAX_PAYLOAD).expect_err("strict prefix");
        prop_assert!(matches!(err, DecodeError::Truncated { .. }), "cut {} gave {:?}", cut, err);
        prop_assert_eq!(reactor_peek(&clean[..cut]), Ok(false));

        // Relabelling the frame type under an intact payload and
        // checksum: the type seeds the checksum, so it cannot verify.
        let mut relabelled = clean.clone();
        relabelled[5] = if relabel == clean[5] { relabel ^ 0x80 } else { relabel };
        let err = decode_frame(&relabelled, DEFAULT_MAX_PAYLOAD).expect_err("relabelled");
        prop_assert!(
            matches!(err, DecodeError::ChecksumMismatch { .. }),
            "type {} gave {:?}", relabelled[5], err
        );
        prop_assert!(
            matches!(reactor_peek(&relabelled), Err(DecodeError::ChecksumMismatch { .. }))
        );
    }

    #[test]
    fn record_frames_round_trip_bitwise(
        seq in 0u64..=u64::MAX,
        bits in prop::collection::vec(0u64..=u64::MAX, 67..68),
        labelled in 0u8..2,
        label in 0u8..7,
        occupants in 0u8..7,
    ) {
        let frame = Frame::Record(RecordFrame {
            seq,
            label: (labelled == 1).then_some(label),
            record: record_from_bits(&bits, occupants),
        });
        assert_roundtrip(&frame);
    }

    #[test]
    fn batch_frames_round_trip_bitwise(
        first_seq in 0u64..=u64::MAX,
        all_bits in prop::collection::vec(0u64..=u64::MAX, 0..(67 * 12)),
        labels in prop::collection::vec((0u8..2, 0u8..7), 12..13),
    ) {
        let records: Vec<(CsiRecord, Option<u8>)> = all_bits
            .chunks_exact(67)
            .zip(&labels)
            .map(|(bits, &(labelled, label))| {
                (record_from_bits(bits, label), (labelled == 1).then_some(label))
            })
            .collect();
        prop_assert!(records.len() <= MAX_BATCH_RECORDS);
        let frame = Frame::Batch(BatchFrame { first_seq, records });
        assert_roundtrip(&frame);
    }

    #[test]
    fn control_frames_round_trip(
        id_bytes in prop::collection::vec(97u8..123, 0..64),
        tenant_bytes in prop::collection::vec(97u8..123, 0..64),
        shard in 0u32..=u32::MAX,
        seq in 0u64..=u64::MAX,
        numbers in prop::collection::vec(0u64..=u64::MAX, 4..5),
        reason_byte in 1u8..5,
    ) {
        let sensor_id = String::from_utf8(id_bytes).expect("ascii");
        let tenant = String::from_utf8(tenant_bytes).expect("ascii");
        let reason = NackReason::from_byte(reason_byte).expect("1..=4 are all valid reasons");
        let n = |i: usize| numbers.get(i).copied().unwrap_or(0);
        let frames = [
            Frame::Hello(Hello { protocol: PROTOCOL_VERSION, sensor_id, tenant }),
            Frame::HelloAck(HelloAck { protocol: PROTOCOL_VERSION, shard }),
            Frame::Prediction(PredictionFrame {
                seq,
                timestamp_s: f64::from_bits(n(0)),
                occupied: (n(1) % 2) as u8,
                proba: f64::from_bits(n(2)),
                model_version: u64::from(shard),
                latency_ns: n(3),
            }),
            Frame::Nack(NackFrame { seq, reason }),
            Frame::Goodbye(Goodbye { count: n(0) }),
        ];
        for frame in frames {
            assert_roundtrip(&frame);
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error_never_a_panic(
        seq in 0u64..=u64::MAX,
        bits in prop::collection::vec(0u64..=u64::MAX, 67..68),
        cut_fraction in 0.0f64..1.0,
    ) {
        let frame = Frame::Record(RecordFrame {
            seq,
            label: Some(1),
            record: record_from_bits(&bits, 1),
        });
        let bytes = Encoder::default().encode(&frame).expect("encode");
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        prop_assert!(cut < bytes.len());
        let err = decode_frame(&bytes[..cut], DEFAULT_MAX_PAYLOAD)
            .expect_err("every strict prefix must fail to decode");
        prop_assert!(
            matches!(err, DecodeError::Truncated { .. }),
            "prefix of {cut} bytes gave {err:?}"
        );
    }

    #[test]
    fn single_byte_corruption_is_a_typed_error_never_a_panic(
        seq in 0u64..=u64::MAX,
        bits in prop::collection::vec(0u64..=u64::MAX, 67..68),
        index_fraction in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let frame = Frame::Record(RecordFrame {
            seq,
            label: None,
            record: record_from_bits(&bits, 2),
        });
        let mut bytes = Encoder::default().encode(&frame).expect("encode");
        let index = ((bytes.len() as f64) * index_fraction) as usize;
        if let Some(byte) = bytes.get_mut(index) {
            *byte ^= flip;
        }
        // Any corruption must surface as *some* typed error — the
        // decoder may never panic and may never silently accept a frame
        // whose payload bytes changed.
        match decode_frame(&bytes, DEFAULT_MAX_PAYLOAD) {
            Err(_) => {}
            Ok(_) => {
                // A flip confined to the length field's high bytes can
                // only ever *grow* the declared length (and then fails
                // as Truncated/Oversize above), so reaching Ok means
                // the flip must have been repaired — impossible.
                prop_assert!(false, "corrupt frame decoded at index {index} flip {flip:#x}");
            }
        }
        if index >= HEADER_BYTES {
            let err = decode_frame(&bytes, DEFAULT_MAX_PAYLOAD).expect_err("payload corruption");
            prop_assert!(
                matches!(err, DecodeError::ChecksumMismatch { .. }),
                "payload corruption at {index} gave {err:?}"
            );
        }
    }

    #[test]
    fn declared_oversize_is_refused_before_buffering(
        seq in 0u64..=u64::MAX,
        max_payload in 1usize..32,
    ) {
        // A frame whose payload exceeds the negotiated cap must be
        // refused from the header alone with the typed Oversize error.
        let frame = Frame::Nack(NackFrame { seq, reason: NackReason::QueueFull });
        let bytes = Encoder::default().encode(&frame).expect("encode");
        let err = decode_frame(&bytes, max_payload.min(8)).expect_err("cap below payload size");
        prop_assert!(matches!(err, DecodeError::Oversize { .. }), "{err:?}");
    }

    #[test]
    fn oversize_sensor_ids_are_refused_not_truncated(
        extra in 1usize..256,
        fill in 97u8..123,
    ) {
        // Before the fallible encoder this silently truncated the id
        // at MAX_SENSOR_ID_BYTES — a Hello for sensor "office-<long>"
        // would register and route as a *different* sensor.
        let sensor_id = String::from_utf8(vec![fill; MAX_SENSOR_ID_BYTES + extra])
            .expect("ascii fill");
        let frame = Frame::Hello(Hello { protocol: PROTOCOL_VERSION, sensor_id, tenant: String::new() });
        let err = Encoder::default()
            .encode(&frame)
            .expect_err("oversize id must refuse, not truncate");
        prop_assert!(
            matches!(err, EncodeError::SensorIdTooLong { len } if len == MAX_SENSOR_ID_BYTES + extra),
            "{err:?}"
        );
        // The refusal happens before any byte is emitted.
        let mut out = vec![0xAA; 4];
        let err2 = Encoder::default().encode_into(&frame, &mut out).expect_err("same refusal");
        prop_assert_eq!(err, err2);
        prop_assert_eq!(&out, &vec![0xAA; 4], "output buffer must be untouched on error");
    }

    #[test]
    fn boundary_sensor_ids_still_encode(len in 0usize..=MAX_SENSOR_ID_BYTES) {
        let sensor_id = String::from_utf8(vec![b'x'; len]).expect("ascii fill");
        let frame = Frame::Hello(Hello { protocol: PROTOCOL_VERSION, sensor_id, tenant: String::new() });
        assert_roundtrip(&frame);
    }

    #[test]
    fn oversize_batches_are_refused_not_silently_dropped(
        extra in 1usize..32,
        bits in prop::collection::vec(0u64..=u64::MAX, 67..68),
    ) {
        // Before the fallible encoder this silently *dropped* every
        // record past MAX_BATCH_RECORDS: the sender believed them
        // delivered, the accounting identity never saw them.
        let record = record_from_bits(&bits, 1);
        let count = MAX_BATCH_RECORDS + extra;
        let frame = Frame::Batch(BatchFrame {
            first_seq: 0,
            records: vec![(record, None); count],
        });
        let err = Encoder::default()
            .encode(&frame)
            .expect_err("oversize batch must refuse, not drop records");
        prop_assert!(
            matches!(err, EncodeError::BatchTooLarge { count: c } if c == count),
            "{err:?}"
        );
    }

    #[test]
    fn random_bytes_never_panic_the_decoder(
        junk in prop::collection::vec(0u8..=255, 0..256),
    ) {
        // No assertion on the outcome beyond "returns": arbitrary bytes
        // must yield Ok or a typed error, never a panic. (A random
        // 20-byte magic+version+flags+checksum collision is beyond
        // astronomically unlikely, but Ok would still be within
        // contract.)
        if let Ok((_, consumed)) = decode_frame(&junk, DEFAULT_MAX_PAYLOAD) {
            prop_assert!(consumed <= junk.len());
        }
    }
}
