//! The `parma-wire` frame protocol for multi-process sharding.
//!
//! Everything that crosses a worker socket is one *frame*:
//!
//! ```text
//! magic "pW" (2) | version u16 LE (2) | kind u8 (1) | len u32 LE (4)
//! | payload (len) | checksum u64 LE (8)
//! ```
//!
//! The trailing checksum is FNV-1a-64 over every preceding byte of the
//! frame — header *and* payload — so a single flipped byte anywhere is
//! always detected: the per-byte FNV transition `h' = (h ⊕ b)·prime` is
//! injective (the prime is odd), the same argument `parma-bin/v1` makes
//! for dataset files. Fields ahead of the checksum get typed gates of
//! their own (bad magic, version mismatch, unknown kind, oversized
//! payload) so errors name the real problem instead of "checksum".
//!
//! Every frame carries the writer's protocol version, and [`read_frame`]
//! accepts exactly [`PROTOCOL_VERSION`], refusing anything else before
//! trusting a byte of the rest. Both ends ship in one binary (`batch
//! --workers` spawns its own executable), so there is no compatibility
//! window to keep: every payload field, including the v2 additions —
//! telemetry flags and the clock probe on `HelloAck`, trace context on
//! `Assign`, solve timestamps on `Result` — is required. Only a
//! `Heartbeat` may be empty: a worker sends a bare keepalive when it
//! drops telemetry.
//!
//! This module is deliberately solver-agnostic: it knows frames, payload
//! primitives, the deterministic shard partition (delegating to
//! [`crate::mpi_sim::block_range`], so real runs shard exactly like the
//! simulated ranks) and the heartbeat policy. What the payloads *mean*
//! lives in `parma::dist`.

use crate::mpi_sim::block_range;
use mea_obs::fnv;
use std::io::{Read, Write};
use std::ops::Range;
use std::time::Duration;

/// The wire protocol version this build speaks, writes and reads.
pub const PROTOCOL_VERSION: u16 = 2;

/// Leading frame magic (`"pW"` — parma wire).
pub const MAGIC: [u8; 2] = *b"pW";

/// Largest admissible payload (64 MiB) — a corrupt length field must not
/// make a reader try to allocate gigabytes.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// What a frame is for. The discriminants are the on-wire `kind` byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgKind {
    /// Worker → coordinator: registration (payload: worker name).
    Hello = 1,
    /// Coordinator → worker: registration accepted (payload: worker id).
    HelloAck = 2,
    /// Coordinator → worker: one shard of work.
    Assign = 3,
    /// Worker → coordinator: a finished shard's outcome.
    Result = 4,
    /// Worker → coordinator: liveness signal (empty payload).
    Heartbeat = 5,
    /// Coordinator → worker: drain and exit (empty payload).
    Shutdown = 6,
}

impl MsgKind {
    /// The kind for an on-wire byte, or `None` for an unknown value.
    pub fn from_u8(b: u8) -> Option<MsgKind> {
        match b {
            1 => Some(MsgKind::Hello),
            2 => Some(MsgKind::HelloAck),
            3 => Some(MsgKind::Assign),
            4 => Some(MsgKind::Result),
            5 => Some(MsgKind::Heartbeat),
            6 => Some(MsgKind::Shutdown),
            _ => None,
        }
    }
}

/// One decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// What the frame is for.
    pub kind: MsgKind,
    /// The kind-specific payload bytes.
    pub payload: Vec<u8>,
}

/// Why a frame failed to read. Every single-byte corruption of a valid
/// frame lands in exactly one of these — never a silently wrong frame.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed (includes EOF mid-frame).
    Io(std::io::Error),
    /// The first two bytes were not [`MAGIC`].
    BadMagic([u8; 2]),
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// The version the peer sent.
        got: u16,
    },
    /// The kind byte names no known message.
    BadKind(u8),
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    TooLarge(u32),
    /// The trailing FNV-1a-64 did not match the received bytes.
    BadChecksum,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "wire i/o error: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            FrameError::VersionMismatch { got } => write!(
                f,
                "protocol version mismatch: peer speaks v{got}, this build reads \
                 v{PROTOCOL_VERSION}"
            ),
            FrameError::BadKind(b) => write!(f, "unknown frame kind {b}"),
            FrameError::TooLarge(n) => {
                write!(
                    f,
                    "frame payload of {n} bytes exceeds the {MAX_PAYLOAD}-byte cap"
                )
            }
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame at [`PROTOCOL_VERSION`].
pub fn write_frame<W: Write>(w: &mut W, kind: MsgKind, payload: &[u8]) -> std::io::Result<()> {
    write_frame_with_version(w, PROTOCOL_VERSION, kind, payload)
}

/// Writes one frame carrying an explicit version field — the negotiation
/// tests forge future versions through this; production traffic uses
/// [`write_frame`].
pub fn write_frame_with_version<W: Write>(
    w: &mut W,
    version: u16,
    kind: MsgKind,
    payload: &[u8],
) -> std::io::Result<()> {
    let bytes = encode_frame_with_version(version, kind, payload);
    w.write_all(&bytes)
}

/// The full byte image of one frame (header + payload + checksum).
pub fn encode_frame(kind: MsgKind, payload: &[u8]) -> Vec<u8> {
    encode_frame_with_version(PROTOCOL_VERSION, kind, payload)
}

fn encode_frame_with_version(version: u16, kind: MsgKind, payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_PAYLOAD as usize,
        "payload of {} bytes exceeds the frame cap",
        payload.len()
    );
    let mut out = Vec::with_capacity(2 + 2 + 1 + 4 + payload.len() + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.push(kind as u8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv::fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Reads one frame, gate by gate: magic, version, kind, length cap,
/// payload, checksum. A blocking reader with a read timeout surfaces the
/// timeout as [`FrameError::Io`], which the coordinator treats as a
/// missed heartbeat deadline.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, FrameError> {
    let mut header = [0u8; 9];
    r.read_exact(&mut header)?;
    if header[..2] != MAGIC {
        return Err(FrameError::BadMagic([header[0], header[1]]));
    }
    let version = u16::from_le_bytes([header[2], header[3]]);
    if version != PROTOCOL_VERSION {
        return Err(FrameError::VersionMismatch { got: version });
    }
    let kind = MsgKind::from_u8(header[4]).ok_or(FrameError::BadKind(header[4]))?;
    let len = u32::from_le_bytes([header[5], header[6], header[7], header[8]]);
    if len > MAX_PAYLOAD {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let mut sum_bytes = [0u8; 8];
    r.read_exact(&mut sum_bytes)?;
    // Continue the running hash over the payload without re-hashing the
    // header (FNV is a plain fold).
    let h = fnv::extend(fnv::fnv1a64(&header), &payload);
    if h != u64::from_le_bytes(sum_bytes) {
        return Err(FrameError::BadChecksum);
    }
    Ok(Frame { kind, payload })
}

/// Why a payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the announced field.
    Truncated,
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A discriminant byte named no known variant.
    BadTag(u8),
    /// A field held a value outside its valid range.
    OutOfRange,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "payload truncated"),
            DecodeError::BadUtf8 => write!(f, "payload string is not UTF-8"),
            DecodeError::BadTag(b) => write!(f, "unknown payload tag {b}"),
            DecodeError::OutOfRange => write!(f, "payload field out of range"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Little-endian payload builder. Each `put_*` has a matching
/// [`PayloadReader`] `take_*`; floats travel as raw IEEE-754 bits so
/// results survive the wire bit for bit.
#[derive(Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// An empty payload.
    pub fn new() -> Self {
        PayloadWriter::default()
    }

    /// The accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Cursor over a received payload; every `take_*` checks bounds and
/// returns [`DecodeError::Truncated`] instead of panicking on short or
/// damaged payloads.
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        PayloadReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `f64` from its raw bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.take_u64()?;
        if len > self.remaining() as u64 {
            return Err(DecodeError::Truncated);
        }
        self.take(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.take_bytes()?).map_err(|_| DecodeError::BadUtf8)
    }
}

/// The deterministic shard partition: shard `s` of `shards` owns
/// `block_range(n, shards, s)` — byte-for-byte the partition
/// [`crate::mpi_sim::simulate`] models, which is what makes a real
/// distributed run directly comparable to the simulated ranks and keeps
/// results stable under resharding (the *union* of shards is always
/// `0..n` in index order, whatever the shard count).
pub fn shard_ranges(n: usize, shards: usize) -> Vec<Range<usize>> {
    assert!(shards > 0, "need at least one shard");
    (0..shards).map(|s| block_range(n, shards, s)).collect()
}

/// Heartbeat cadence and the deadline after which a silent worker is
/// declared dead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeartbeatPolicy {
    /// How often a healthy worker sends [`MsgKind::Heartbeat`].
    pub interval: Duration,
    /// Silence longer than this marks the worker dead and returns its
    /// in-flight shards to the pending queue. Must exceed `interval` by
    /// enough margin that scheduler hiccups don't look like deaths.
    pub deadline: Duration,
}

impl Default for HeartbeatPolicy {
    fn default() -> Self {
        HeartbeatPolicy {
            interval: Duration::from_millis(200),
            deadline: Duration::from_millis(2_000),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let payload = b"shard 7 of 16".to_vec();
        let mut buf = Vec::new();
        write_frame(&mut buf, MsgKind::Assign, &payload).unwrap();
        let frame = read_frame(&mut &buf[..]).unwrap();
        assert_eq!(frame.kind, MsgKind::Assign);
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn empty_payload_frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, MsgKind::Heartbeat, &[]).unwrap();
        let frame = read_frame(&mut &buf[..]).unwrap();
        assert_eq!(frame.kind, MsgKind::Heartbeat);
        assert!(frame.payload.is_empty());
    }

    #[test]
    fn back_to_back_frames_read_in_order() {
        let mut buf = Vec::new();
        write_frame(&mut buf, MsgKind::Hello, b"w0").unwrap();
        write_frame(&mut buf, MsgKind::Heartbeat, &[]).unwrap();
        write_frame(&mut buf, MsgKind::Result, b"answer").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().kind, MsgKind::Hello);
        assert_eq!(read_frame(&mut r).unwrap().kind, MsgKind::Heartbeat);
        assert_eq!(read_frame(&mut r).unwrap().payload, b"answer");
        assert!(matches!(read_frame(&mut r), Err(FrameError::Io(_))));
    }

    #[test]
    fn version_mismatch_is_rejected_before_anything_else() {
        let mut buf = Vec::new();
        write_frame_with_version(&mut buf, 3, MsgKind::Hello, b"future worker").unwrap();
        match read_frame(&mut &buf[..]) {
            Err(FrameError::VersionMismatch { got: 3 }) => {}
            other => panic!("expected a version rejection, got {other:?}"),
        }
    }

    #[test]
    fn v1_frames_are_rejected_under_v2() {
        let mut buf = Vec::new();
        write_frame_with_version(&mut buf, 1, MsgKind::Result, b"legacy shard").unwrap();
        match read_frame(&mut &buf[..]) {
            Err(FrameError::VersionMismatch { got: 1 }) => {}
            other => panic!("expected a version rejection, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        buf.push(MsgKind::Assign as u8);
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(FrameError::TooLarge(u32::MAX))
        ));
    }

    #[test]
    fn payload_primitives_round_trip() {
        let mut w = PayloadWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.0);
        w.put_f64(f64::from_bits(0x7FF8_0000_0000_0001)); // a NaN payload
        w.put_str("worker-3");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = PayloadReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.take_f64().unwrap().to_bits(), 0x7FF8_0000_0000_0001);
        assert_eq!(r.take_str().unwrap(), "worker-3");
        assert_eq!(r.take_bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.take_u8(), Err(DecodeError::Truncated));
    }

    #[test]
    fn short_payloads_decode_to_truncated_not_panic() {
        let mut w = PayloadWriter::new();
        w.put_str("only half of a record");
        let bytes = w.into_bytes();
        for len in 0..bytes.len() {
            let mut r = PayloadReader::new(&bytes[..len]);
            assert_eq!(r.take_str(), Err(DecodeError::Truncated), "prefix {len}");
        }
    }

    #[test]
    fn shard_ranges_tile_and_match_block_range() {
        for (n, p) in [(10usize, 3usize), (7, 7), (5, 8), (97, 4), (0, 2)] {
            let ranges = shard_ranges(n, p);
            assert_eq!(ranges.len(), p);
            let mut covered = Vec::new();
            for (s, r) in ranges.iter().enumerate() {
                assert_eq!(*r, block_range(n, p, s));
                covered.extend(r.clone());
            }
            assert_eq!(covered, (0..n).collect::<Vec<_>>(), "n={n} p={p}");
        }
    }

    #[test]
    fn heartbeat_default_gives_deadline_headroom() {
        let hb = HeartbeatPolicy::default();
        assert!(hb.deadline >= hb.interval * 4);
    }
}
