//! The workspace's shared non-cryptographic hashes: FNV-1a-64 and
//! XXH64.
//!
//! **FNV-1a-64** keys everything that must agree bit-for-bit with data
//! already in the world: shard routing hashes sensor ids
//! ([`occusense-serve`]'s `routing`), the fleet controller's
//! consistent-hash ring places tenants and sensors, and the checkpoint
//! footer seals persisted models ([`crate::persist`]). Each used to
//! carry its own private copy of the loop; this module is the one
//! definition all of them call into. None of them is on a per-byte hot
//! path, so FNV's one dependent multiply per byte costs nothing there.
//!
//! **XXH64** checksums the wire envelope ([`occusense-wire`]'s frame
//! codec, protocol version 2): every frame's payload is hashed on both
//! ends, so it must keep up with memory bandwidth. XXH64 folds 32-byte
//! stripes into four independent multiply lanes, where FNV serialises
//! on one multiply chain per byte.
//!
//! Both functions use their published constants, so the outputs are
//! pinned by external test vectors: changing a constant (or an
//! operation order) is a breaking change that invalidates every
//! existing checkpoint and shard assignment (FNV) or every peer's
//! frame checksums (XXH64). The vector tests below fail loudly on any
//! drift.
//!
//! [`occusense-serve`]: https://example.com/occusense
//! [`occusense-wire`]: https://example.com/occusense

/// The FNV-1a 64-bit offset basis: the hash state before any input.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a, 64-bit, over `bytes` — tiny, stable across platforms and
/// runs, and dependency-free.
///
/// # Example
///
/// ```
/// use occusense_core::hash::fnv1a64;
///
/// // Published FNV-1a test vector.
/// assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
/// ```
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET_BASIS, bytes)
}

/// Streaming form: folds `bytes` into an existing hash `state`.
///
/// `fnv1a64_extend(FNV_OFFSET_BASIS, b)` equals [`fnv1a64`]`(b)`, and
/// hashing a concatenation equals chaining two extends — which is how
/// the wire checksum hashes the frame-type byte ahead of the payload
/// without assembling a contiguous buffer.
#[must_use]
pub fn fnv1a64_extend(state: u64, bytes: &[u8]) -> u64 {
    let mut hash = state;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// XXH64 prime 1 (the published constant).
const XXH_PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
/// XXH64 prime 2.
const XXH_PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
/// XXH64 prime 3.
const XXH_PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
/// XXH64 prime 4.
const XXH_PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
/// XXH64 prime 5.
const XXH_PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

/// One XXH64 lane step: folds the 8-byte word `input` into `acc`.
#[inline(always)]
fn xxh_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(XXH_PRIME_2))
        .rotate_left(31)
        .wrapping_mul(XXH_PRIME_1)
}

/// Merges one finished lane into the converged hash.
#[inline(always)]
fn xxh_merge(hash: u64, lane: u64) -> u64 {
    (hash ^ xxh_round(0, lane))
        .wrapping_mul(XXH_PRIME_1)
        .wrapping_add(XXH_PRIME_4)
}

/// XXH64 of `bytes` under `seed` — the reference algorithm, std-only.
///
/// Inputs of 32 bytes or more run four independent lanes over 32-byte
/// stripes (one 8-byte word per lane per stripe), so the multiplies
/// pipeline instead of chaining; the lanes converge, and the tail is
/// folded in 8-, 4- and 1-byte steps before the final avalanche.
///
/// # Example
///
/// ```
/// use occusense_core::hash::xxh64;
///
/// // Published XXH64 test vector.
/// assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
/// ```
#[must_use]
pub fn xxh64(bytes: &[u8], seed: u64) -> u64 {
    let (stripes, rest) = bytes.as_chunks::<32>();
    let mut hash = if stripes.is_empty() {
        seed.wrapping_add(XXH_PRIME_5)
    } else {
        let mut lanes = [
            seed.wrapping_add(XXH_PRIME_1).wrapping_add(XXH_PRIME_2),
            seed.wrapping_add(XXH_PRIME_2),
            seed,
            seed.wrapping_sub(XXH_PRIME_1),
        ];
        for stripe in stripes {
            // Each 16-byte half is read as one `u128` and split into its
            // two little-endian lane words: the same words as four `u64`
            // reads, in a shape the SLP vectoriser leaves in scalar
            // registers. Packed into one vector, the four multiply
            // chains run on `vpmullq` (about 15 cycles of latency on
            // AVX-512 parts) and the hash measured twice as slow.
            for (pair, half) in lanes.chunks_exact_mut(2).zip(stripe.as_chunks::<16>().0) {
                let words = u128::from_le_bytes(*half);
                pair[0] = xxh_round(pair[0], words as u64);
                pair[1] = xxh_round(pair[1], (words >> 64) as u64);
            }
        }
        let [l1, l2, l3, l4] = lanes;
        let hash = l1
            .rotate_left(1)
            .wrapping_add(l2.rotate_left(7))
            .wrapping_add(l3.rotate_left(12))
            .wrapping_add(l4.rotate_left(18));
        lanes.iter().fold(hash, |h, &lane| xxh_merge(h, lane))
    };
    hash = hash.wrapping_add(bytes.len() as u64);
    let (words, rest) = rest.as_chunks::<8>();
    for word in words {
        hash = (hash ^ xxh_round(0, u64::from_le_bytes(*word)))
            .rotate_left(27)
            .wrapping_mul(XXH_PRIME_1)
            .wrapping_add(XXH_PRIME_4);
    }
    let (halves, rest) = rest.as_chunks::<4>();
    for half in halves {
        hash = (hash ^ u64::from(u32::from_le_bytes(*half)).wrapping_mul(XXH_PRIME_1))
            .rotate_left(23)
            .wrapping_mul(XXH_PRIME_2)
            .wrapping_add(XXH_PRIME_3);
    }
    for &byte in rest {
        hash = (hash ^ u64::from(byte).wrapping_mul(XXH_PRIME_5))
            .rotate_left(11)
            .wrapping_mul(XXH_PRIME_1);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(XXH_PRIME_2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(XXH_PRIME_3);
    hash ^ (hash >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn published_fnv1a_vectors_pin_the_function_for_all_time() {
        // From the FNV reference vectors: any drift here invalidates
        // every existing checkpoint footer, OCW1 frame checksum and
        // shard assignment in the wild.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    /// The byte stream of the xxHash reference sanity check (`xxhsum`'s
    /// self-test): a multiplicative generator seeded with 2654435761
    /// and stepped by 11400714785074694797, emitting its top byte each
    /// step.
    fn xxh_sanity_buffer(len: usize) -> Vec<u8> {
        let mut generator: u64 = 2_654_435_761;
        (0..len)
            .map(|_| {
                let byte = (generator >> 56) as u8;
                generator = generator.wrapping_mul(11_400_714_785_074_694_797);
                byte
            })
            .collect()
    }

    #[test]
    fn published_xxh64_vectors_pin_the_function_for_all_time() {
        // Any drift here breaks every wire peer's frame checksums.
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        // 39 bytes: one full 32-byte stripe plus 8- and 1-byte tails.
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition", 0),
            0xFBCE_A83C_8A37_8BF1
        );
        // The reference sanity check, seeded and unseeded, across the
        // short path (1, 4, 14 bytes) and the striped path (222 bytes).
        let prime32 = 2_654_435_761;
        let buffer = xxh_sanity_buffer(222);
        assert_eq!(xxh64(b"", prime32), 0xAC75_FDA2_929B_17EF);
        assert_eq!(xxh64(&buffer[..1], 0), 0xE934_A84A_DB05_2768);
        assert_eq!(xxh64(&buffer[..1], prime32), 0x5014_6076_43A9_B4C3);
        assert_eq!(xxh64(&buffer[..4], 0), 0x9136_A0DC_A574_57EE);
        assert_eq!(xxh64(&buffer[..14], 0), 0x8282_DCC4_994E_35C8);
        assert_eq!(xxh64(&buffer[..14], prime32), 0xC3BD_6BF6_3DEB_6DF0);
        assert_eq!(xxh64(&buffer, 0), 0xB641_AE8C_B691_C174);
        assert_eq!(xxh64(&buffer, prime32), 0x20CB_8AB7_AE10_C14A);
    }

    #[test]
    fn extend_from_the_offset_basis_is_the_one_shot_hash() {
        for input in [&b""[..], b"a", b"foobar", b"tenant-a/sensor-0"] {
            assert_eq!(fnv1a64_extend(FNV_OFFSET_BASIS, input), fnv1a64(input));
        }
    }

    /// The pre-dedup private copy, verbatim — the bitwise-compatibility
    /// witness for checkpoints and frames written before the shared
    /// function existed.
    fn legacy_fnv1a(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    proptest! {
        #[test]
        fn bitwise_compatible_with_the_legacy_private_copies(
            bytes in prop::collection::vec(0u8..=u8::MAX, 0..256),
        ) {
            prop_assert_eq!(fnv1a64(&bytes), legacy_fnv1a(&bytes));
        }

        #[test]
        fn hashing_a_concatenation_equals_chaining_extends(
            a in prop::collection::vec(0u8..=u8::MAX, 0..64),
            b in prop::collection::vec(0u8..=u8::MAX, 0..64),
        ) {
            let mut joined = a.clone();
            joined.extend_from_slice(&b);
            prop_assert_eq!(
                fnv1a64(&joined),
                fnv1a64_extend(fnv1a64(&a), &b)
            );
        }

        #[test]
        fn single_byte_perturbations_change_the_hash(
            bytes in prop::collection::vec(0u8..=u8::MAX, 1..64),
            at in 0usize..64,
            flip in 1u8..=u8::MAX,
        ) {
            let mut mutated = bytes.clone();
            let i = at % mutated.len();
            mutated[i] ^= flip;
            prop_assert_ne!(fnv1a64(&mutated), fnv1a64(&bytes));
            prop_assert_ne!(xxh64(&mutated, 0), xxh64(&bytes, 0));
        }
    }
}
