//! Property tests for the `parma-wire/v1` frame protocol, mirroring the
//! `binfmt_properties.rs` contracts for the dataset container:
//!
//! 1. **Round trip is the identity** on arbitrary frames — any kind, any
//!    payload length and content, including frame sequences on one
//!    stream.
//! 2. **Every single-byte corruption is detected.** The trailing
//!    FNV-1a-64 covers header and payload, and its per-byte transition
//!    is injective, so a one-byte change always lands in a typed
//!    [`FrameError`] — never a silently wrong frame.
//! 3. **Version bumps are rejected** before anything else is trusted,
//!    even when the frame is otherwise perfectly self-consistent
//!    (checksum recomputed over the bumped version field).
//! 4. **Every truncation is detected** — a torn frame (worker killed
//!    mid-write) surfaces as an I/O error, which the coordinator treats
//!    as a dead connection, not a result.

use mea_parallel::dist::{
    encode_frame, read_frame, write_frame_with_version, Frame, FrameError, MsgKind,
};

const KINDS: [MsgKind; 6] = [
    MsgKind::Hello,
    MsgKind::HelloAck,
    MsgKind::Assign,
    MsgKind::Result,
    MsgKind::Heartbeat,
    MsgKind::Shutdown,
];

/// Deterministic arbitrary-looking payload bytes (SplitMix64).
fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(64))]

    /// encode → read is the identity for every kind and payload.
    #[test]
    fn prop_roundtrip_is_the_identity(
        kind_idx in 0usize..6,
        len in 0usize..2048,
        seed in proptest::any::<u64>(),
    ) {
        let kind = KINDS[kind_idx];
        let body = payload(len, seed);
        let bytes = encode_frame(kind, &body);
        let frame = read_frame(&mut &bytes[..]).expect("a written frame must read");
        proptest::prop_assert_eq!(frame, Frame { kind, payload: body });
    }

    /// Several frames written back-to-back on one stream read back in
    /// order with nothing lost — the steady-state connection case.
    #[test]
    fn prop_frame_sequences_read_in_order(
        count in 1usize..6,
        seed in proptest::any::<u64>(),
    ) {
        let mut stream = Vec::new();
        let mut expected = Vec::new();
        for k in 0..count {
            let kind = KINDS[(seed as usize + k) % KINDS.len()];
            let body = payload((k * 37) % 200, seed ^ k as u64);
            stream.extend_from_slice(&encode_frame(kind, &body));
            expected.push(Frame { kind, payload: body });
        }
        let mut r = &stream[..];
        for want in &expected {
            let got = read_frame(&mut r).expect("frame in sequence must read");
            proptest::prop_assert_eq!(&got, want);
        }
        proptest::prop_assert!(r.is_empty());
    }

    /// A future protocol version is refused with a typed error naming
    /// the version, whatever the kind or payload.
    #[test]
    fn prop_version_mismatch_is_rejected(
        kind_idx in 0usize..6,
        version in 2u16..u16::MAX,
        len in 0usize..256,
        seed in proptest::any::<u64>(),
    ) {
        let mut buf = Vec::new();
        write_frame_with_version(&mut buf, version, KINDS[kind_idx], &payload(len, seed))
            .unwrap();
        match read_frame(&mut &buf[..]) {
            Err(FrameError::VersionMismatch { got }) => {
                proptest::prop_assert_eq!(got, version);
            }
            other => proptest::prop_assert!(false, "expected version rejection, got {:?}", other),
        }
    }
}

/// Exhaustive, not sampled: every byte of a frame, three flip patterns
/// each, must fail to read with a typed error. The checksum covers
/// header and payload; the checksum bytes themselves then disagree with
/// the recomputed value. A passing read of damaged bytes would mean an
/// FNV collision, which the injectivity argument rules out for
/// single-byte edits at a fixed offset.
#[test]
fn every_single_byte_corruption_is_detected() {
    let body = payload(257, 0xDEAD_BEEF);
    let bytes = encode_frame(MsgKind::Result, &body);
    for i in 0..bytes.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut damaged = bytes.clone();
            damaged[i] ^= mask;
            match read_frame(&mut &damaged[..]) {
                Err(
                    FrameError::Io(_)
                    | FrameError::BadMagic(_)
                    | FrameError::VersionMismatch { .. }
                    | FrameError::BadKind(_)
                    | FrameError::TooLarge(_)
                    | FrameError::BadChecksum,
                ) => {}
                Ok(_) => panic!("byte {i} mask {mask:#x}: corrupt frame read successfully"),
            }
        }
    }
}

/// A kind byte flipped onto another *valid* kind is still caught — the
/// structural gates pass, so only the checksum can (and does) object.
#[test]
fn valid_but_wrong_kind_byte_is_caught_by_the_checksum() {
    let bytes = encode_frame(MsgKind::Assign, b"shard");
    let mut damaged = bytes.clone();
    // Assign = 3 → Result = 4: both valid kinds.
    assert_eq!(damaged[4], MsgKind::Assign as u8);
    damaged[4] = MsgKind::Result as u8;
    assert!(matches!(
        read_frame(&mut &damaged[..]),
        Err(FrameError::BadChecksum)
    ));
}

/// Every proper prefix fails as an I/O error — a worker SIGKILLed
/// mid-write can never deliver a shorter-but-valid frame.
#[test]
fn every_truncation_is_detected() {
    let bytes = encode_frame(MsgKind::Result, &payload(64, 42));
    for len in 0..bytes.len() {
        match read_frame(&mut &bytes[..len]) {
            Err(FrameError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "prefix {len}");
            }
            other => panic!("prefix {len}: expected EOF, got {other:?}"),
        }
    }
}

/// The frame hash is the workspace-standard FNV-1a-64 (`mea_obs::fnv`,
/// shared with the journal and `parma-bin`), pinned against the reference
/// values, and the trailer of an encoded frame is exactly that hash over
/// the bytes before it.
#[test]
fn fnv_constants_match_the_reference_vectors() {
    use mea_obs::fnv::fnv1a64;
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);

    let frame = encode_frame(MsgKind::Assign, b"foobar");
    let (body, sum) = frame.split_at(frame.len() - 8);
    assert_eq!(u64::from_le_bytes(sum.try_into().unwrap()), fnv1a64(body));
}
