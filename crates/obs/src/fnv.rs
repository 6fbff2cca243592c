//! FNV-1a 64, the workspace's one content hash: journal result and
//! configuration fingerprints, `parma-wire` frame sums and the
//! `parma-bin/v1` striped checksum all fold bytes with these constants,
//! so their outputs stay byte-identical as long as this module does.

/// The FNV-1a 64 offset basis.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64 prime.
pub const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continues a running FNV-1a 64 hash `h` over `bytes`: hashing `a` then
/// extending by `b` equals hashing `a ++ b`, so callers can hash a
/// stream without concatenating it.
pub fn extend(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

/// FNV-1a 64 of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    extend(OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pinned against the published reference vectors: journal
    /// fingerprints (which the resume bitwise contract compares), wire
    /// sums and container checksums all depend on these exact values.
    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
        assert_eq!(extend(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
    }
}
