//! The workspace's one FNV-1a (64-bit) hasher.
//!
//! Every deterministic fingerprint — sweep manifests, chaos and matchup
//! reports, telemetry and flowscope summaries — and [`crate::derive_seed`]
//! hash through this type, so the constants live in one place. Callers
//! frame their own strings (a length suffix, a delimiter, or raw bytes);
//! the framing is part of each fingerprint's pinned definition.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01B3;

/// Incremental FNV-1a 64 state. [`Fnv::finish`] reads the hash so far.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// A hasher at the FNV-1a 64 offset basis.
    pub const fn new() -> Self {
        Fnv(OFFSET_BASIS)
    }

    /// Fold raw bytes in order.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
        self
    }

    /// Fold a word as its 8 little-endian bytes.
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The hash of everything folded so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_64_vectors() {
        assert_eq!(Fnv::new().finish(), 0xcbf29ce484222325);
        assert_eq!(Fnv::new().bytes(b"a").finish(), 0xaf63dc4c8601ec8c);
        assert_eq!(Fnv::new().bytes(b"foobar").finish(), 0x85944171f73967e8);
        // A word hashes as its little-endian bytes.
        assert_eq!(
            Fnv::new().u64(0x7261_626f_6f66).finish(),
            Fnv::new().bytes(b"foobar\0\0").finish()
        );
    }
}
